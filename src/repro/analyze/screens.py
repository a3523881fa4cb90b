"""Theorem-aware triage screens: decide cheap instances without cycle search.

Each screen inspects a structural fact about the relation's graphs and, when
it fires, settles deadlock freedom *in agreement with the theorem checker*
(:func:`repro.verify.necsuf.verify`) -- that agreement is a soundness
contract enforced by the fuzz oracle stack, not a heuristic.  The screens
run in a fixed order, cheapest and most-decisive first:

1. **wait-connectivity** (Definition 10) -- the theorems' precondition.
   Both Theorem 2 and Theorem 3 check it first and refute on failure, so a
   violation is ``definitely-deadlocking`` by the checker's own contract
   (the same :func:`~repro.core.cwg.wait_connected` call, verbatim).
2. **ordering-certificate** -- an inferred Dally--Seitz channel numbering.
   An acyclic CDG admits a strictly increasing numbering; and since every
   CWG edge ``(c1, c2)`` arises from a state path ``c1 ->* c'`` with ``c2``
   in the waiting (hence route) set of ``c'``, each CWG edge embeds in a
   CDG path, so an acyclic CDG forces an acyclic CWG: ``definitely-free``
   under Theorem 2/3 without ever building the CWG.  On failure the edges
   inside CDG cycles (the obstruction to any numbering) are reported.
3. **sink-elimination** -- iteratively strip CWG channels with no outgoing
   waiting dependencies (a channel nothing waits *from* can never sustain a
   cycle).  Empty residue == acyclic CWG == ``definitely-free``; otherwise
   the residue (exactly the channels with a path to a waiting cycle) is the
   witness handed to the next screen.
4. **scc-condensation** -- per nontrivial CWG component, search for a
   *forced cycle*: single-channel states, each directly acquirable from its
   source's injection channel, each waiting on the next (and, under
   wait-on-ANY, with singleton waiting sets, so no adaptivity can dodge).
   Such a cycle is precisely a Section 7.2 True Cycle with single-channel
   segments -- a reachable Definition 12 deadlock configuration --
   so ``definitely-deadlocking`` under Theorem 2 and (via the
   single-waiting-channel argument of the Theorem 3 fast path) Theorem 3.

Anything the screens cannot settle is ``needs-full-check``: the paper's
ring (Figure 4) and the incoherent Section 6 example land here, which is
correct -- their freedom genuinely requires False-Resource-Cycle analysis.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from ..core.cwg import ChannelWaitingGraph, wait_connected
from ..core.depgraph import bits, find_cycle_adj, mask_of_ints
from ..core.transitions import TransitionCache
from ..deps.cdg import ChannelDependencyGraph
from ..routing.relation import RoutingAlgorithm, WaitPolicy
from ..verify.report import Verdict

#: triage verdicts
DEFINITELY_FREE = "definitely-free"
DEFINITELY_DEADLOCKING = "definitely-deadlocking"
NEEDS_FULL_CHECK = "needs-full-check"

#: screen names, in execution order
SCREENS = (
    "wait-connectivity",
    "ordering-certificate",
    "sink-elimination",
    "scc-condensation",
)


@dataclass
class ScreenResult:
    """One screen's outcome on one relation."""

    screen: str
    #: "free" | "deadlock" | "undecided" | "pass" (precondition held)
    outcome: str
    detail: str = ""
    #: JSON-safe structured witness (sorted ids, counts)
    witness: dict[str, Any] = field(default_factory=dict)

    @property
    def decided(self) -> bool:
        return self.outcome in ("free", "deadlock")

    def to_json(self) -> dict[str, Any]:
        return {
            "screen": self.screen,
            "outcome": self.outcome,
            "detail": self.detail,
            "witness": self.witness,
        }


@dataclass
class TriageResult:
    """The combined triage verdict with the per-screen trail."""

    verdict: str
    decided_by: str
    screens: list[ScreenResult]

    @property
    def decided(self) -> bool:
        return self.verdict != NEEDS_FULL_CHECK

    def screen(self, name: str) -> ScreenResult | None:
        for s in self.screens:
            if s.screen == name:
                return s
        return None

    def summary(self) -> str:
        trail = " -> ".join(f"{s.screen}:{s.outcome}" for s in self.screens)
        return f"{self.verdict} ({trail})"

    def to_json(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict,
            "decided_by": self.decided_by,
            "screens": [s.to_json() for s in self.screens],
        }


# ----------------------------------------------------------------------
# the screens
# ----------------------------------------------------------------------
def wait_connectivity_screen(
    algorithm: RoutingAlgorithm, transitions: TransitionCache
) -> ScreenResult:
    """Definition 10 precondition; failure refutes under Theorem 2/3."""
    ok, why = wait_connected(algorithm, transitions=transitions)
    if ok:
        return ScreenResult("wait-connectivity", "pass",
                            detail="every reachable state has a waiting channel")
    return ScreenResult("wait-connectivity", "deadlock", detail=why)


def ordering_certificate_screen(cdg: ChannelDependencyGraph) -> ScreenResult:
    """Infer a Dally--Seitz numbering; report the violating edges if none."""
    numbering = cdg.numbering()
    if numbering is not None:
        return ScreenResult(
            "ordering-certificate", "free",
            detail=(
                f"strictly increasing channel numbering exists "
                f"({len(numbering)} channels; acyclic CDG forces an acyclic CWG)"
            ),
            witness={"numbering_size": len(numbering),
                     "cdg_edges": cdg.dep.num_edges},
        )
    labels, _ = cdg.dep.scc()
    violating = [
        [u, v] for u, v in cdg.dep.edge_cids() if labels[u] == labels[v]
    ]
    return ScreenResult(
        "ordering-certificate", "undecided",
        detail=(
            f"no channel ordering: {len(violating)} dependency edges lie "
            "inside CDG cycles"
        ),
        witness={"violating_edges": violating, "cdg_edges": cdg.dep.num_edges},
    )


def sink_elimination_screen(cwg: ChannelWaitingGraph) -> ScreenResult:
    """Iteratively strip channels with no outgoing waiting dependencies.

    Kahn's peel on out-degrees: a channel whose waiting out-degree reaches
    zero can never appear on a waiting cycle, so deleting it is sound;
    iterate to a fixpoint.  Empty residue proves the CWG acyclic (Theorem
    2/3 free, given wait-connectivity); the residue is exactly the set of
    channels with a path to some waiting cycle.
    """
    dep = cwg.dep
    n = dep.num_vertices
    outdeg = [dep.indptr[u + 1] - dep.indptr[u] for u in range(n)]
    preds: dict[int, list[int]] = {}
    self_loop = [False] * n
    for u, v in dep.edge_cids():
        if u == v:
            self_loop[u] = True
        preds.setdefault(v, []).append(u)
    # Vertices with edges, peeled outward from the sinks.
    frontier = [u for u in range(n) if outdeg[u] == 0]
    removed = [False] * n
    rounds = 0
    while frontier:
        rounds += 1
        nxt: list[int] = []
        for v in frontier:
            removed[v] = True
            for u in preds.get(v, ()):
                if u != v:
                    outdeg[u] -= 1
                    if outdeg[u] == 0 and not removed[u]:
                        nxt.append(u)
        frontier = sorted(set(nxt))
    residue = [u for u in range(n) if not removed[u]]
    if not residue:
        return ScreenResult(
            "sink-elimination", "free",
            detail=(
                f"all {n} channels eliminated in {rounds} rounds: "
                "the CWG is acyclic"
            ),
            witness={"rounds": rounds, "cwg_edges": dep.num_edges},
        )
    return ScreenResult(
        "sink-elimination", "undecided",
        detail=(
            f"{len(residue)} of {n} channels survive the peel "
            "(each can reach a waiting cycle)"
        ),
        witness={
            "residue": residue,
            "rounds": rounds,
            "self_loops": sorted(u for u in residue if self_loop[u]),
            "cwg_edges": dep.num_edges,
        },
    )


def forced_cycle_screen(cwg: ChannelWaitingGraph) -> ScreenResult:
    """SCC condensation screen: a forced cycle inside some nontrivial
    component is a True Cycle, hence a reachable deadlock configuration.

    A *forced edge* ``c1 -> c2`` for destination ``d`` requires:

    * ``c1`` is usable for ``d`` and directly acquirable from the injection
      channel of its source node (the blocked message exists: inject at
      ``c1.src``, acquire ``c1``, stall);
    * ``c2`` is in the *immediate* waiting set at state ``(c1, d)``;
    * under wait-on-ANY policy, that waiting set is a singleton (the wait
      cannot be redirected, so the cycle survives every CWG').

    A simple cycle of forced edges gives pairwise-disjoint single-channel
    message segments closing a Definition 12 configuration -- exactly the
    Section 7.2 True-Cycle conditions with length-1 holds.
    """
    algorithm, tc = cwg.algorithm, cwg.transitions
    net = algorithm.network
    dep = cwg.dep
    labels, _ = dep.scc()
    counts: dict[int, int] = {}
    for u in range(dep.num_vertices):
        counts[labels[u]] = counts.get(labels[u], 0) + 1
    hot = {u for u in range(dep.num_vertices) if counts[labels[u]] > 1}
    hot.update(dep.self_loops())
    nontrivial = sum(1 for c in counts.values() if c > 1)
    stats = {
        "nontrivial_sccs": nontrivial,
        "largest_scc": max((c for c in counts.values() if c > 1), default=1),
        "hot_channels": len(hot),
    }
    any_policy = algorithm.wait_policy is WaitPolicy.ANY
    hot_mask = mask_of_ints(hot)
    channel = net.channel
    edge_dest: dict[tuple[int, int], int] = {}
    for dt in tc.all_destinations():
        succ, wait = dt.succ_masks, dt.wait_masks
        for a in dt.usable_cids:
            if not hot_mask >> a & 1:
                continue
            waits = wait[a]
            if not waits or (any_policy and waits & (waits - 1)):
                continue
            inj = net.injection_channel(channel(a).src).cid
            if not succ.get(inj, 0) >> a & 1:
                continue  # not startable at source: no single-channel segment
            for b in bits(waits & hot_mask):  # destinations ascend: keep the first
                edge_dest.setdefault((a, b), dt.dest)
    adj: dict[int, list[int]] = {}
    for (u, v) in sorted(edge_dest):
        adj.setdefault(u, []).append(v)
    cycle = find_cycle_adj(set(adj) | {v for vs in adj.values() for v in vs}, adj)
    if cycle is None:
        return ScreenResult(
            "scc-condensation", "undecided",
            detail=(
                f"{nontrivial} nontrivial CWG component(s), "
                "no forced cycle among them"
            ),
            witness=dict(stats, forced_edges=len(edge_dest)),
        )
    dests = [edge_dest[(cycle[i], cycle[(i + 1) % len(cycle)])]
             for i in range(len(cycle))]
    return ScreenResult(
        "scc-condensation", "deadlock",
        detail=(
            "forced cycle " + "->".join(f"c{u}" for u in cycle)
            + f"->c{cycle[0]}: each channel is source-startable and must wait "
            "on the next, closing a Definition 12 deadlock configuration"
        ),
        witness=dict(stats, cycle=list(cycle), cycle_dests=dests,
                     forced_edges=len(edge_dest)),
    )


# ----------------------------------------------------------------------
# the combined triage
# ----------------------------------------------------------------------
def triage(
    algorithm: RoutingAlgorithm,
    *,
    transitions: TransitionCache | None = None,
    cwg: ChannelWaitingGraph | None = None,
    cdg: ChannelDependencyGraph | None = None,
    cwg_builder: Callable[[], ChannelWaitingGraph] | None = None,
) -> TriageResult:
    """Run the screens in order; stop at the first decision.

    ``cwg_builder`` lets callers defer (and cache) the CWG construction --
    the ordering certificate decides many instances from the cheaper CDG
    alone, in which case the CWG is never built at all.
    """
    tc = transitions
    if tc is None:
        tc = (cwg.transitions if cwg is not None
              else cdg.transitions if cdg is not None
              else TransitionCache(algorithm))
    screens: list[ScreenResult] = []

    s = wait_connectivity_screen(algorithm, tc)
    screens.append(s)
    if s.outcome == "deadlock":
        return TriageResult(DEFINITELY_DEADLOCKING, s.screen, screens)

    s = ordering_certificate_screen(cdg or ChannelDependencyGraph(algorithm, transitions=tc))
    screens.append(s)
    if s.outcome == "free":
        return TriageResult(DEFINITELY_FREE, s.screen, screens)

    if cwg is None:
        cwg = cwg_builder() if cwg_builder is not None else \
            ChannelWaitingGraph(algorithm, transitions=tc)
    s = sink_elimination_screen(cwg)
    screens.append(s)
    if s.outcome == "free":
        return TriageResult(DEFINITELY_FREE, s.screen, screens)

    s = forced_cycle_screen(cwg)
    screens.append(s)
    if s.outcome == "deadlock":
        return TriageResult(DEFINITELY_DEADLOCKING, s.screen, screens)

    return TriageResult(NEEDS_FULL_CHECK, "", screens)


def triage_verdict(algorithm: RoutingAlgorithm, result: TriageResult) -> Verdict:
    """Synthesize the theorem checker's :class:`Verdict` from a decided triage.

    For the wait-connectivity and acyclic-CWG outcomes this reproduces
    :func:`repro.verify.necsuf.theorem2`/``theorem3`` verdicts *verbatim*
    (same condition, same reason) -- triage merely hoists those early paths
    in front of the expensive machinery.  Forced-cycle refutations carry
    their own reason (the witness cycle differs from the search's), still
    authoritative under the same theorems.
    """
    if not result.decided:
        raise ValueError("triage_verdict requires a decided TriageResult")
    specific = algorithm.wait_policy is WaitPolicy.SPECIFIC
    condition = "Theorem 2" if specific else "Theorem 3"
    screen = result.screen(result.decided_by)
    assert screen is not None
    if result.decided_by == "wait-connectivity":
        return Verdict(algorithm.name, condition, False,
                       reason=f"not wait-connected: {screen.detail}",
                       evidence={"triage": screen.screen})
    if result.verdict == DEFINITELY_FREE:
        reason = ("wait-connected and CWG is acyclic" if specific
                  else "wait-connected and CWG is acyclic (CWG' = CWG)")
        evidence: dict[str, Any] = {"triage": screen.screen}
        if "cwg_edges" in screen.witness:
            evidence["cwg_edges"] = screen.witness["cwg_edges"]
            if specific:
                evidence["cycles"] = 0
        return Verdict(algorithm.name, condition, True, reason=reason,
                       evidence=evidence)
    cycle = screen.witness["cycle"]
    return Verdict(
        algorithm.name, condition, False,
        reason=(
            f"True Cycle of channels {cycle!r}: forced source-startable "
            "waits close a reachable deadlock configuration"
        ),
        evidence={"triage": screen.screen, "cycle": list(cycle),
                  "cycle_dests": list(screen.witness["cycle_dests"])},
    )
