"""FIG1-3: Duato's incoherent example -- CWG, cycle census, and CWG'.

Paper claims reproduced (Figures 1-3, Sections 5-6):

* the CWG of the incoherent algorithm contains True Cycles and a False
  Resource Cycle (cL2 <-> cB2, realizable only if two messages occupy cA1
  simultaneously);
* with wait-on-specific semantics the algorithm deadlocks (Theorem 2);
* with wait-on-any semantics it is deadlock-free (Theorem 3): a
  wait-connected CWG' without True Cycles exists, and the final CWG'
  retains only False Resource Cycles (Figure 3).

Ablation (design choice #1 in DESIGN.md): the waiting policy is the only
difference between the deadlocking and the safe configuration.
"""

from repro.core import ChannelWaitingGraph, CycleClass, CycleClassifier, find_cycles
from repro.routing import IncoherentExample
from repro.topology import build_figure1_network
from repro.verify import verify


def test_fig1_cwg_census(benchmark, once, table):
    net = build_figure1_network()
    ra = IncoherentExample(net)

    def build():
        cwg = ChannelWaitingGraph(ra)
        cycles = find_cycles(cwg.dep)
        classifier = CycleClassifier(cwg)
        return cwg, [(cy, classifier.classify(cy)) for cy in cycles]

    cwg, census = once(benchmark, build)
    rows = [
        (" -> ".join(c.label for c in cy.channels), cls.kind.value)
        for cy, cls in census
    ]
    table("Figure 2: CWG cycle census (incoherent example)",
          ["cycle", "classification"], rows)
    kinds = [cls.kind for _, cls in census]
    assert len(census) == 8
    assert kinds.count(CycleClass.TRUE) == 5           # paper: five True Cycles
    assert kinds.count(CycleClass.FALSE_RESOURCE) == 3  # incl. cL2 <-> cB2
    print(f"CWG: {len(cwg.vertices)} channels, {len(cwg)} edges")


def test_fig1_wait_policy_ablation(benchmark, once, table):
    net = build_figure1_network()

    def run():
        return (
            verify(IncoherentExample(net, wait_any=False)),
            verify(IncoherentExample(net, wait_any=True)),
        )

    specific, anyw = once(benchmark, run)
    table("Sections 5-6: waiting-policy ablation", ["policy", "verdict", "condition"], [
        ("wait-specific", "NOT deadlock-free" if not specific else "deadlock-free", specific.condition),
        ("wait-any", "deadlock-free" if anyw else "NOT deadlock-free", anyw.condition),
    ])
    assert not specific.deadlock_free and specific.condition == "Theorem 2"
    assert anyw.deadlock_free and anyw.condition == "Theorem 3"
    red = anyw.evidence["reduction"]
    print(f"CWG' found: {len(red.removed)} edges removed, "
          f"{len(red.true_cycles)} True Cycles resolved, "
          f"{len(red.false_cycles)} False Resource Cycles ignored")
