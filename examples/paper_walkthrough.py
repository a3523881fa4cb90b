#!/usr/bin/env python3
"""Walk through every worked example in the paper, end to end.

Reproduces, in order:

* Sections 5-6 -- Duato's incoherent four-node example: the CWG, its True
  and False Resource Cycles, deadlock under specific-waiting, deadlock
  freedom under any-waiting;
* Section 8 -- the formal CWG -> CWG' reduction trace;
* Section 7.1 / Figure 4 -- the ten-node ring whose only cycles are False
  Resource Cycles through the shared channel cA;
* Section 9.2 / Theorem 4 -- Highest Positive Last: cyclic CDG, acyclic CWG;
* Section 9.3 / Theorems 5-6 -- Enhanced Fully Adaptive and the deadlock
  produced by relaxing any one of its restrictions.

Run:  python examples/paper_walkthrough.py
"""

from repro.core import (
    ChannelWaitingGraph,
    CWGReducer,
    CycleClassifier,
    find_cycles,
    find_one_cycle,
)
from repro.deps import ChannelDependencyGraph
from repro.routing import (
    EnhancedFullyAdaptive,
    HighestPositiveLast,
    IncoherentExample,
    RelaxedEFA,
    RingExample,
)
from repro.topology import (
    build_figure1_network,
    build_figure4_ring,
    build_hypercube,
    build_mesh,
)
from repro.verify import verify


def section(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def incoherent_example() -> None:
    section("Sections 5-6: Duato's incoherent example (Figures 1-3)")
    net = build_figure1_network()
    ra = IncoherentExample(net)
    cwg = ChannelWaitingGraph(ra)
    cycles = find_cycles(cwg.dep)
    classifier = CycleClassifier(cwg)
    print(f"CWG: {len(cwg)} edges over {len(cwg.vertices)} channels; "
          f"{len(cycles)} simple cycles:")
    for cy in cycles:
        cls = classifier.classify(cy)
        chain = " -> ".join(c.label for c in cy.channels)
        print(f"  [{cls.kind.value:14s}] {chain}")
    print("\nwait-specific:", verify(IncoherentExample(net, wait_any=False)))
    print("wait-any:     ", verify(ra))


def section8_reduction() -> None:
    section("Section 8: the formal CWG -> CWG' reduction")
    net = build_figure1_network()
    res = CWGReducer(ChannelWaitingGraph(IncoherentExample(net))).run()
    for i, step in enumerate(res.steps, 1):
        print(f"  step {i}: {step}")
    removed = ", ".join(sorted(f"{a.label}->{b.label}" for a, b in res.removed))
    print(f"  => CWG' = CWG minus {{{removed}}}; "
          f"{len(res.false_cycles)} False Resource Cycles remain harmless")


def ring_example() -> None:
    section("Section 7.1 / Figure 4: the ring with a shared extra channel")
    net = build_figure4_ring()
    good = RingExample(net)
    print("paper's algorithm: ", verify(good))
    bad = RingExample(net, flip_class=False)
    v = verify(bad)
    print("no-class-flip foil:", v)
    cfg = v.evidence.get("deadlock_configuration")
    if cfg:
        ca = [i for i in range(len(cfg)) if any(c.label == "cA" for c in cfg.held[i])]
        print(f"  (its True Cycle needs cA only once: message m{ca[0] + 1})")


def hpl_theorem4() -> None:
    section("Section 9.2 / Theorem 4: Highest Positive Last")
    for dims in ((4, 4), (3, 3, 3)):
        net = build_mesh(dims)
        ra = HighestPositiveLast(net)
        cdg_cyclic = not ChannelDependencyGraph(ra).is_acyclic()
        cwg_acyclic = find_one_cycle(ChannelWaitingGraph(ra).dep) is None
        print(f"mesh{dims}: CDG cyclic={cdg_cyclic}, CWG acyclic={cwg_acyclic}, "
              f"{verify(ra)}")


def efa_theorems() -> None:
    section("Section 9.3 / Theorems 5-6: Enhanced Fully Adaptive")
    net = build_hypercube(3, num_vcs=2)
    print(verify(EnhancedFullyAdaptive(net)))
    print("\nTheorem 6 -- relax any one restriction and deadlock returns:")
    for mu in range(3):
        for j in range(mu + 1, 3):
            v = verify(RelaxedEFA(net, pair=(mu, j)))
            cy = v.evidence.get("cycle")
            chain = " -> ".join(c.label for c in cy.channels) if cy else "?"
            print(f"  relax ({mu},{j}): True Cycle {chain}")


def main() -> None:
    incoherent_example()
    section8_reduction()
    ring_example()
    hpl_theorem4()
    efa_theorems()


if __name__ == "__main__":
    main()
