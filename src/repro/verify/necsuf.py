"""The paper's necessary-and-sufficient condition (Theorems 1, 2, 3).

* :func:`theorem1` -- sufficiency: wait-connected + acyclic CWG.
* :func:`theorem2` -- iff, for algorithms that wait on a **specific**
  channel: wait-connected and the CWG has no True Cycles.
* :func:`theorem3` -- iff, for algorithms that wait on **any** permitted
  channel: some wait-connected subgraph CWG' has no True Cycles (found by
  the Section 8 reduction).
* :func:`verify` -- dispatches on the algorithm's :class:`WaitPolicy`.

When a True Cycle exists under Theorem 2, the verdict's evidence includes
the witness produced by the Section 7.2 classifier -- the per-edge message
segments from which the Theorem 2 necessity proof constructs a reachable
deadlock configuration; :func:`deadlock_configuration` turns that witness
into an explicit Definition 12 configuration the simulator tests replay.

UNDETERMINED cycle classifications (the corner Section 7.2 leaves open) are
treated as True: a verdict of "deadlock-free" is only ever issued when every
cycle is *provably* a False Resource Cycle, so unsoundness is impossible;
at worst the verifier is incomplete and says so in the verdict.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import Any

from ..core.cwg import ChannelWaitingGraph, wait_connected
from ..core.cycles import find_cycles, find_one_cycle
from ..core.false_cycles import CycleClass, CycleClassifier, Segment
from ..core.reduction import CWGReducer
from ..routing.relation import RoutingAlgorithm, WaitPolicy
from ..topology.channel import Channel
from .report import Verdict


@dataclass
class DeadlockConfiguration:
    """An explicit Definition 12 deadlock configuration.

    ``messages[i]`` holds ``held[i]`` (in acquisition order) and waits on
    ``waits_on[i]``, which is held by message ``(i + 1) % n``.
    """

    sources: list[int]
    dests: list[int]
    held: list[tuple[Channel, ...]]
    waits_on: list[Channel]

    def __len__(self) -> int:
        return len(self.dests)

    def describe(self) -> str:
        lines: list[str] = []
        for i in range(len(self.dests)):
            chain = ", ".join(c.label or f"c{c.cid}" for c in self.held[i])
            w = self.waits_on[i]
            lines.append(
                f"m{i + 1}: {self.sources[i]} -> {self.dests[i]}, holds [{chain}], "
                f"waits on {w.label or w.cid}"
            )
        return "\n".join(lines)


def deadlock_configuration(witness: list[Segment]) -> DeadlockConfiguration:
    """Build the Definition 12 configuration from a True Cycle witness."""
    return DeadlockConfiguration(
        sources=[seg.path[0].src for seg in witness],
        dests=[seg.dest for seg in witness],
        held=[seg.path for seg in witness],
        waits_on=[seg.waits_on for seg in witness],
    )


# ----------------------------------------------------------------------
# Theorem 1: sufficiency via an acyclic CWG
# ----------------------------------------------------------------------
def theorem1(algorithm: RoutingAlgorithm, *, cwg: ChannelWaitingGraph | None = None) -> Verdict:
    """Theorem 1: wait-connected + acyclic CWG => deadlock-free."""
    cwg = cwg or ChannelWaitingGraph(algorithm)
    wc, why = wait_connected(algorithm, transitions=cwg.transitions)
    if not wc:
        return Verdict(algorithm.name, "Theorem 1", False, necessary_and_sufficient=False,
                       reason=f"not wait-connected: {why}")
    cycle = find_one_cycle(cwg.dep)
    if cycle is None:
        return Verdict(algorithm.name, "Theorem 1", True, necessary_and_sufficient=False,
                       reason="wait-connected and CWG is acyclic",
                       evidence={"cwg_edges": len(cwg)})
    return Verdict(algorithm.name, "Theorem 1", False, necessary_and_sufficient=False,
                   reason=f"CWG has a cycle {cycle!r} (apply Theorem 2/3 to classify it)",
                   evidence={"cycle": cycle, "cwg_edges": len(cwg)})


# ----------------------------------------------------------------------
# Theorem 2: iff, specific-waiting algorithms
# ----------------------------------------------------------------------
def theorem2(
    algorithm: RoutingAlgorithm,
    *,
    cwg: ChannelWaitingGraph | None = None,
    enumerate_cycles: bool = False,
    cycle_limit: int | None = 100_000,
    max_nodes: int = 2_000_000,
) -> Verdict:
    """Theorem 2: (specific-waiting) deadlock-free iff wait-connected and
    the CWG has no True Cycles.

    By default True Cycles are found (or refuted) with the direct
    segment-chain search of :class:`~repro.core.deadlock_search.TrueCycleSearch`,
    which stays feasible when the CWG has a huge number of simple cycles.
    ``enumerate_cycles=True`` switches to enumerate-then-classify (Section
    7.2 applied cycle by cycle) and reports the full cycle census in the
    evidence -- what the figure benchmarks use on the small examples.
    """
    cwg = cwg or ChannelWaitingGraph(algorithm)
    wc, why = wait_connected(algorithm, transitions=cwg.transitions)
    if not wc:
        return Verdict(algorithm.name, "Theorem 2", False,
                       reason=f"not wait-connected: {why}")
    if find_one_cycle(cwg.dep) is None:
        return Verdict(algorithm.name, "Theorem 2", True,
                       reason="wait-connected and CWG is acyclic",
                       evidence={"cwg_edges": len(cwg), "cycles": 0})
    if enumerate_cycles:
        return _theorem2_enumerated(algorithm, cwg, cycle_limit)

    from ..core.deadlock_search import TrueCycleSearch

    outcome = TrueCycleSearch(cwg, max_nodes=max_nodes).search()
    if outcome.true_cycle is not None:
        cls = outcome.true_cycle
        return Verdict(
            algorithm.name, "Theorem 2", False,
            reason=f"True Cycle {cls.cycle!r}: a reachable deadlock configuration exists",
            evidence={
                "cycle": cls.cycle,
                "classification": cls,
                "deadlock_configuration": deadlock_configuration(cls.witness),
            },
        )
    if outcome.undetermined:
        cls = outcome.undetermined[0]
        return Verdict(
            algorithm.name, "Theorem 2", False, necessary_and_sufficient=False,
            reason=f"cycle {cls.cycle!r} could not be proved False Resource: {cls.reason}",
            evidence={"classification": cls},
        )
    if not outcome.exhaustive:
        return Verdict(
            algorithm.name, "Theorem 2", False, necessary_and_sufficient=False,
            reason="search budget exhausted before proving absence of True Cycles",
            evidence={"nodes_explored": outcome.nodes_explored},
        )
    return Verdict(
        algorithm.name, "Theorem 2", True,
        reason="wait-connected; CWG is cyclic but every cycle is a False Resource Cycle",
        evidence={"cwg_edges": len(cwg), "nodes_explored": outcome.nodes_explored},
    )


def _theorem2_enumerated(
    algorithm: RoutingAlgorithm,
    cwg: ChannelWaitingGraph,
    cycle_limit: int | None,
) -> Verdict:
    """Enumerate-and-classify variant of Theorem 2 (full cycle census)."""
    cycles = find_cycles(cwg.dep, limit=cycle_limit)
    classifier = CycleClassifier(cwg)
    n_false = 0
    for cy in cycles:
        cls = classifier.classify(cy)
        if cls.kind is CycleClass.FALSE_RESOURCE:
            n_false += 1
            continue
        if cls.kind is CycleClass.UNDETERMINED:
            return Verdict(
                algorithm.name, "Theorem 2", False, necessary_and_sufficient=False,
                reason=f"cycle {cy!r} could not be proved False Resource: {cls.reason}",
                evidence={"cycle": cy, "classification": cls, "cycles": len(cycles)},
            )
        config = deadlock_configuration(cls.witness)
        return Verdict(
            algorithm.name, "Theorem 2", False,
            reason=f"True Cycle {cy!r}: a reachable deadlock configuration exists",
            evidence={
                "cycle": cy,
                "classification": cls,
                "deadlock_configuration": config,
                "false_cycles_skipped": n_false,
                "cycles": len(cycles),
            },
        )
    return Verdict(
        algorithm.name, "Theorem 2", True,
        reason=f"wait-connected; all {len(cycles)} CWG cycles are False Resource Cycles",
        evidence={"cwg_edges": len(cwg), "cycles": len(cycles), "false_cycles": n_false},
    )


# ----------------------------------------------------------------------
# Theorem 3: iff, any-waiting algorithms
# ----------------------------------------------------------------------
def theorem3(
    algorithm: RoutingAlgorithm,
    *,
    cwg: ChannelWaitingGraph | None = None,
    cycle_limit: int | None = 100_000,
    max_nodes: int = 2_000_000,
) -> Verdict:
    """Theorem 3: (any-waiting) deadlock-free iff some wait-connected CWG'
    has no True Cycles (searched with the Section 8 reduction).

    Before attempting the full reduction, a sound *negative* check runs: a
    True Cycle in which every blocked message's **entire** waiting set is
    held within the configuration (self-held channels included) deadlocks
    even under wait-on-ANY semantics -- no message has an escape channel to
    wait for -- so finding one settles the question without enumerating
    cycles.  Messages may span several cycle channels; restricting the
    check to single-waiting-channel states would miss exactly those
    configurations.
    """
    cwg = cwg or ChannelWaitingGraph(algorithm)
    wc, why = wait_connected(algorithm, transitions=cwg.transitions)
    if not wc:
        return Verdict(algorithm.name, "Theorem 3", False,
                       reason=f"not wait-connected: {why}")
    if find_one_cycle(cwg.dep) is None:
        return Verdict(algorithm.name, "Theorem 3", True,
                       reason="wait-connected and CWG is acyclic (CWG' = CWG)",
                       evidence={"cwg_edges": len(cwg)})

    from ..core.cycles import CycleExplosion
    from ..core.deadlock_search import TrueCycleSearch

    fast = TrueCycleSearch(cwg, max_nodes=max_nodes, any_wait_blocked=True).search()
    if fast.true_cycle is not None:
        cls = fast.true_cycle
        return Verdict(
            algorithm.name, "Theorem 3", False,
            reason=(
                f"True Cycle {cls.cycle!r} with every waiting set held "
                "within the configuration: it deadlocks under wait-on-any"
            ),
            evidence={
                "cycle": cls.cycle,
                "classification": cls,
                "deadlock_configuration": deadlock_configuration(cls.witness),
            },
        )

    # Fast positive path: try narrowed per-state waiting disciplines as
    # CWG' candidates.  Any per-state selection w(c_in, d) from the waiting
    # sets induces a wait-connected CWG' (Definition 10 holds by
    # construction); if its closure has no True Cycles, Theorem 3 certifies
    # the algorithm without enumerating the full CWG's cycles.  (This is
    # exactly how the paper handles the wait-on-any variants of its Section
    # 9 algorithms: "CWG' is restricted to the first virtual channel in the
    # lowest dimension".)
    narrowings: tuple[tuple[str, Callable[[Channel], Any]], ...] = (
        ("lowest VC class", lambda c: (c.vc, c.cid)),
        ("lowest cid", lambda c: c.cid),
    )
    for label, key in narrowings:
        narrowed = _NarrowedWaiting(algorithm, key)
        ncwg = ChannelWaitingGraph(narrowed)
        if find_one_cycle(ncwg.dep) is None:
            return Verdict(
                algorithm.name, "Theorem 3", True,
                reason=f"wait-connected CWG' with acyclic closure found (waiting narrowed to {label})",
                evidence={"cwg_edges": len(cwg), "cwg_prime_edges": len(ncwg)},
            )
        outcome = TrueCycleSearch(ncwg, max_nodes=max_nodes).search()
        if outcome.proves_no_true_cycle:
            return Verdict(
                algorithm.name, "Theorem 3", True,
                reason=(
                    f"wait-connected CWG' with no True Cycles found "
                    f"(waiting narrowed to {label})"
                ),
                evidence={"cwg_edges": len(cwg), "cwg_prime_edges": len(ncwg)},
            )

    # A reduction certificate must be *verified* before it is trusted.  The
    # reduction's wait-connectivity test only protects the immediate wait
    # edge of each state, but a message can realize a removed edge by having
    # already ACQUIRED both endpoints: two messages each spanning two
    # channels of a cycle deadlock under wait-on-any even though every
    # single-message cycle was broken.  So each candidate is checked the
    # same way the narrowing fast path is: the surviving per-state waits
    # define a specific-waiting discipline whose full (downstream-
    # propagated) CWG must have no True Cycles.  Soundness: in an original
    # any-wait deadlock every retained waiting channel of every message is
    # held within the configuration, so chasing one retained wait per
    # message yields a message cycle that the verification search would
    # find -- a candidate it certifies therefore transfers to the original.
    #
    # A witness that survives verification is repaired *per state*: the
    # offending waiting channel is dropped (or swapped for a different
    # original one) at the exact ``(channel, destination)`` state where the
    # witness blocks.  Edge removal cannot express this -- a CWG edge is
    # shared by every destination, and breaking it for all of them can
    # break Definition 10 at states the witness never visits.
    reducer = CWGReducer(cwg, cycle_limit=cycle_limit)
    try:
        result = reducer.run()
    except CycleExplosion as exc:
        return _theorem3_config_decision(algorithm, cwg, None, max_nodes, Verdict(
            algorithm.name, "Theorem 3", False, necessary_and_sufficient=False,
            reason=f"Section 8 reduction infeasible: {exc}",
            evidence={"cwg_edges": len(cwg)},
        ))
    if not result.success:
        # Edge-granular exhaustion does not rule out a per-state discipline,
        # and the any-wait deadlock search above found nothing: undecided
        # unless the configuration search below settles it.
        return _theorem3_config_decision(algorithm, cwg, result, max_nodes, Verdict(
            algorithm.name, "Theorem 3", False, necessary_and_sufficient=False,
            reason=f"{result.reason} (edge removals exhausted): cannot certify",
            evidence={"reduction": result},
        ))
    surviving = dict(reducer.surviving_waits(result.removed) or {})
    seen_disciplines = {frozenset(surviving.items())}
    for _ in range(32):
        ncwg = ChannelWaitingGraph(_ReducedWaiting(algorithm, surviving))
        if find_one_cycle(ncwg.dep) is None:
            break
        check = TrueCycleSearch(ncwg, max_nodes=max_nodes).search()
        if check.proves_no_true_cycle:
            break
        cls = check.true_cycle or (check.undetermined[0] if check.undetermined else None)
        if cls is None:
            return _theorem3_config_decision(algorithm, cwg, result, max_nodes, Verdict(
                algorithm.name, "Theorem 3", False, necessary_and_sufficient=False,
                reason="CWG' verification budget exhausted: cannot certify",
                evidence={"reduction": result, "cwg_edges": len(cwg)},
            ))
        if not _repair_discipline(surviving, cls.witness, cwg) or \
                frozenset(surviving.items()) in seen_disciplines:
            return _theorem3_config_decision(algorithm, cwg, result, max_nodes, Verdict(
                algorithm.name, "Theorem 3", False, necessary_and_sufficient=False,
                reason=(
                    "every per-state specific narrowing of the waiting "
                    "discipline admits a True Cycle: cannot certify"
                ),
                evidence={"reduction": result, "cycle": cls.cycle,
                          "cwg_edges": len(cwg)},
            ))
        seen_disciplines.add(frozenset(surviving.items()))
    else:
        return _theorem3_config_decision(algorithm, cwg, result, max_nodes, Verdict(
            algorithm.name, "Theorem 3", False, necessary_and_sufficient=False,
            reason=(
                "Section 8 reduction did not converge on a verified CWG' "
                "within 32 repair rounds: cannot certify"
            ),
            evidence={"cwg_edges": len(cwg)},
        ))
    return Verdict(
        algorithm.name, "Theorem 3", True,
        reason=(
            "wait-connected CWG' with no True Cycles found "
            f"({len(result.removed)} edges removed, "
            f"{len(result.true_cycles)} True Cycles resolved, "
            f"{len(result.false_cycles)} False Resource Cycles ignored)"
        ),
        evidence={"reduction": result, "cwg_edges": len(cwg)},
    )


def _repair_discipline(
    surviving: dict[tuple[int, int], frozenset[Channel]],
    witness: list[Segment],
    cwg: ChannelWaitingGraph,
) -> bool:
    """Narrow the per-state waiting discipline to kill a surviving witness.

    Each witness segment blocks at its final channel (for its destination)
    on ``waits_on``; removing that channel from the state's waiting set
    eliminates this witness exactly.  A state may only be narrowed while it
    keeps at least one waiting channel (Definition 10 per state); when the
    offender is the state's last survivor but the *original* discipline
    offers alternatives, the state is re-widened to those instead.  Returns
    False when no state of the witness can be changed.
    """
    swap: tuple[tuple[int, int], frozenset[Channel]] | None = None
    for seg in witness:
        tail = seg.path[-1]
        key = (tail.cid, seg.dest)
        original = frozenset(cwg.transitions[seg.dest].wait.get(tail, ()))
        cur = surviving.get(key, original)
        if seg.waits_on not in cur:
            continue
        if len(cur) > 1:
            surviving[key] = cur - {seg.waits_on}
            return True
        alts = original - {seg.waits_on}
        if alts and swap is None:
            swap = (key, alts)
    if swap is not None:
        surviving[swap[0]] = swap[1]
        return True
    return False


def _theorem3_config_decision(
    algorithm: RoutingAlgorithm,
    cwg: ChannelWaitingGraph,
    reduction: Any,
    max_nodes: int,
    fallback: Verdict,
) -> Verdict:
    """Decide Theorem 3 exactly when the certificate searches are stuck.

    Neither direction of the fast machinery is complete: the cycle searches
    miss braided deadlocks (a message pinned by several others), and a
    per-state specific narrowing can be impossible even though the
    algorithm is deadlock-free under wait-on-any -- the paper's incoherent
    example deadlocks under *every* specific choice at its critical state,
    yet no reachable configuration occupies both waiting channels at once.
    The exhaustive configuration search settles both sides; only when it
    exceeds its budget (or hits a reachability-undetermined configuration)
    is the non-authoritative ``fallback`` verdict returned; an exhausted
    budget is named in its reason and evidence with the node count.
    """
    from ..core.deadlock_search import AnyWaitConfigSearch

    budget = max(max_nodes // 10, 10_000)
    outcome = AnyWaitConfigSearch(cwg, max_nodes=budget).search()
    if outcome.deadlock is not None:
        return Verdict(
            algorithm.name, "Theorem 3", False,
            reason=(
                "deadlock configuration found: every message's full waiting "
                "set is occupied within the configuration"
            ),
            evidence={
                "deadlock_configuration": deadlock_configuration(outcome.deadlock),
                "cwg_edges": len(cwg),
            },
        )
    if outcome.proves_deadlock_free:
        evidence: dict[str, Any] = {
            "cwg_edges": len(cwg),
            "nodes_explored": outcome.nodes_explored,
        }
        if reduction is not None:
            evidence["reduction"] = reduction
        return Verdict(
            algorithm.name, "Theorem 3", True,
            reason=(
                "exhaustive configuration search: no reachable set of "
                "messages occupies every member's full waiting set"
            ),
            evidence=evidence,
        )
    if not outcome.exhaustive:
        return replace(
            fallback,
            reason=(
                f"{fallback.reason}; the exact configuration search exhausted "
                f"its budget of {budget:,} nodes ({outcome.nodes_explored:,} explored)"
            ),
            evidence={
                **fallback.evidence,
                "config_search_max_nodes": budget,
                "nodes_explored": outcome.nodes_explored,
            },
        )
    return fallback


class _ReducedWaiting(RoutingAlgorithm):
    """The CWG' waiting discipline as a specific-waiting algorithm.

    Routes are unchanged; the waiting set at every reachable state is the
    per-state set that survived the Section 8 removals.  Used by Theorem 3
    to verify a reduction certificate on the full downstream-propagated CWG.
    """

    def __init__(
        self,
        inner: RoutingAlgorithm,
        surviving: dict[tuple[int, int], frozenset[Channel]],
    ) -> None:
        super().__init__(inner.network)
        self.inner = inner
        self.surviving = surviving
        self.name = f"{inner.name}#cwg-prime"
        self.form = inner.form
        self.wait_policy = WaitPolicy.SPECIFIC

    def route(self, c_in: Channel, node: int, dest: int) -> frozenset[Channel]:
        return self.inner.route(c_in, node, dest)

    def waiting_subset(self, c_in: Channel, node: int, dest: int,
                       permitted: frozenset[Channel]) -> frozenset[Channel]:
        waits = self.surviving.get((c_in.cid, dest))
        if waits is None:
            return self.inner.waiting_subset(c_in, node, dest, permitted)
        return waits


class _NarrowedWaiting(RoutingAlgorithm):
    """A per-state single-waiting-channel narrowing of an algorithm.

    Same routing relation; the waiting set at every state is collapsed to
    the minimum element under ``key``.  Used by Theorem 3 as a cheap CWG'
    candidate generator.
    """

    def __init__(self, inner: RoutingAlgorithm, key: Callable[[Channel], Any]) -> None:
        super().__init__(inner.network)
        self.inner = inner
        self.key = key
        self.name = f"{inner.name}#narrowed"
        self.form = inner.form
        self.wait_policy = WaitPolicy.SPECIFIC

    def route(self, c_in: Channel, node: int, dest: int) -> frozenset[Channel]:
        return self.inner.route(c_in, node, dest)

    def waiting_subset(self, c_in: Channel, node: int, dest: int,
                       permitted: frozenset[Channel]) -> frozenset[Channel]:
        waits = self.inner.waiting_subset(c_in, node, dest, permitted)
        if not waits:
            return waits
        return frozenset([min(waits, key=self.key)])


# ----------------------------------------------------------------------
def verify(algorithm: RoutingAlgorithm, **kwargs: Any) -> Verdict:
    """Apply the paper's condition matching the algorithm's wait policy."""
    if algorithm.wait_policy is WaitPolicy.SPECIFIC:
        return theorem2(algorithm, **kwargs)
    return theorem3(algorithm, **kwargs)
