"""The Section 8 design methodology: reducing the CWG to a CWG'.

For routing algorithms that let a blocked message wait on *any* permitted
output (Theorem 3 regime), deadlock freedom holds iff edges can be removed
from the CWG -- i.e. the waiting discipline can be narrowed -- until no True
Cycle remains, while the algorithm stays **wait-connected for CWG'**
(Definition 10): at every reachable routing state, some waiting channel's
dependency *from the input channel* must survive in CWG'.  Because routing
uses only local information the discipline is per-state, so the test is
exact and cheap: a waiting channel ``w`` survives at state ``(c_in, d)``
iff the edge ``(c_in, w)`` has not been removed.

The algorithm follows the paper's six steps literally, including the
bookkeeping sets (``edges`` = the cycle, ``attempted`` = tried removals,
``removed`` = current removals -- the paper's three per-cycle sets) and the
ordered resolved-cycle list used for backtracking.  Cycles already broken by
an earlier removal are skipped, and False Resource Cycles are filtered out
up front by the Section 7.2 classifier.

Worst case this is exponential (the paper says as much); the networks it is
meant for -- the Figure 1-4 examples and small meshes/cubes -- are tiny.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..topology.channel import Channel
from .cwg import ChannelWaitingGraph
from .cycles import find_cycles
from .depgraph import DepGraph
from .false_cycles import Classification, CycleClassifier

Edge = tuple[Channel, Channel]


@dataclass
class ReductionStep:
    """One step of the Section 8 trace (for the worked-example benchmark)."""

    action: str  # "remove" | "reject" | "backtrack" | "skip"
    cycle_index: int | None
    edge: Edge | None = None
    note: str = ""

    def __str__(self) -> str:
        e = ""
        if self.edge is not None:
            a, b = self.edge
            e = f" ({a.label or a.cid} -> {b.label or b.cid})"
        c = f" sigma_{self.cycle_index + 1}" if self.cycle_index is not None else ""
        return f"{self.action}{c}{e}{(': ' + self.note) if self.note else ''}"


@dataclass
class ReductionResult:
    """Outcome of the CWG -> CWG' search."""

    success: bool
    removed: frozenset[Edge]
    true_cycles: list[Classification]
    false_cycles: list[Classification]
    steps: list[ReductionStep] = field(default_factory=list)
    reason: str = ""

    def cwg_prime(self, cwg: ChannelWaitingGraph) -> DepGraph:
        """The resulting CWG' kernel: the CWG's edges minus the removals."""
        net = cwg.algorithm.network
        ch = net.channel
        return DepGraph(net, {
            (u, v): m for u, v, m in cwg.dep.iter_edges()
            if (ch(u), ch(v)) not in self.removed
        })


class CWGReducer:
    """Runs the Section 8 reduction on a :class:`ChannelWaitingGraph`."""

    def __init__(
        self,
        cwg: ChannelWaitingGraph,
        *,
        classifier: CycleClassifier | None = None,
        cycle_limit: int | None = 100_000,
    ) -> None:
        self.cwg = cwg
        self.classifier = classifier or CycleClassifier(cwg)
        self.cycle_limit = cycle_limit

    # ------------------------------------------------------------------
    # wait-connectivity under a removal set
    # ------------------------------------------------------------------
    def surviving_waits(self, removed: frozenset[Edge]) -> dict[tuple[int, int], frozenset[Channel]] | None:
        """Per-state surviving waiting sets, or ``None`` if some state has none.

        Definition 10 "wait-connected for CWG'": at every reachable routing
        state there must remain a waiting channel ``w`` whose dependency
        *from the input channel* ``(c_in, w)`` is still in CWG'.  (Edges from
        channels held further upstream may be removed freely -- they encode
        dependencies that Theorem 3's argument shows cannot by themselves
        sustain a deadlock once every leading dependency is covered.)

        Keys are ``(input_channel_cid, dest)``; values are the surviving
        waiting channels.  Injection-channel states always survive: the CWG
        has no vertices for injection channels, so no edge of theirs can be
        removed.
        """
        out: dict[tuple[int, int], frozenset[Channel]] = {}
        for dt in self.cwg.transitions.all_destinations():
            for c, waits in dt.wait.items():
                if c.dst == dt.dest:
                    continue
                if c.is_link:
                    ok = frozenset(w for w in waits if (c, w) not in removed)
                else:
                    ok = waits
                if not ok:
                    return None
                out[(c.cid, dt.dest)] = ok
        return out

    def is_wait_connected(self, removed: frozenset[Edge]) -> bool:
        return self.surviving_waits(removed) is not None

    # ------------------------------------------------------------------
    # the Section 8 backtracking search
    # ------------------------------------------------------------------
    def run(self) -> ReductionResult:
        """Execute steps 1-6 of the Section 8 algorithm."""
        # Step 1: list all cycles; Step 2: drop False Resource Cycles.
        cycles = find_cycles(self.cwg.dep, limit=self.cycle_limit)
        classifications = self.classifier.classify_all(cycles)
        true_cls = [cl for cl in classifications if cl.possibly_true]
        false_cls = [cl for cl in classifications if not cl.possibly_true]
        steps: list[ReductionStep] = []
        if not true_cls:
            return ReductionResult(True, frozenset(), true_cls, false_cls, steps,
                                   reason="no True Cycles: CWG' = CWG")

        edge_lists: list[list[Edge]] = [list(cl.cycle.edges) for cl in true_cls]
        n = len(edge_lists)
        attempted: list[set[Edge]] = [set() for _ in range(n)]
        removal_of: list[Edge | None] = [None] * n  # the edge removed for sigma_i
        resolved_order: list[int] = []  # explicitly resolved cycles, in order
        removed: set[Edge] = set()

        def next_unresolved() -> int | None:
            for j in range(n):
                if removal_of[j] is not None or j in resolved_order:
                    continue
                if any(e in removed for e in edge_lists[j]):
                    continue  # auto-broken by an earlier removal (step 5 skip)
                return j
            return None

        i: int | None = 0
        while True:
            if i is None:
                # all cycles resolved or auto-broken
                return ReductionResult(True, frozenset(removed), true_cls, false_cls, steps)
            # Step 3: try to remove an edge of sigma_i keeping wait-connectivity.
            progressed = False
            for e in edge_lists[i]:
                if e in attempted[i] or e in removed:
                    continue
                candidate = frozenset(removed | {e})
                if self.is_wait_connected(candidate):
                    removed.add(e)
                    removal_of[i] = e
                    attempted[i].add(e)
                    resolved_order.append(i)
                    steps.append(ReductionStep("remove", i, e))
                    progressed = True
                    break
                attempted[i].add(e)
                steps.append(ReductionStep("reject", i, e, "breaks wait-connectivity"))
            if progressed:
                i = next_unresolved()
                continue
            # Step 4: dead end -- backtrack to the previously resolved cycle.
            steps.append(ReductionStep("backtrack", i, None, "every edge breaks wait-connectivity"))
            attempted[i].clear()
            if not resolved_order:
                # Step 6 failure: backtracked past sigma_1 with all edges tried.
                return ReductionResult(
                    False, frozenset(), true_cls, false_cls, steps,
                    reason="no wait-connected CWG' without True Cycles exists",
                )
            prev = resolved_order.pop()
            prev_edge = removal_of[prev]
            assert prev_edge is not None
            removed.discard(prev_edge)
            removal_of[prev] = None
            # leave prev_edge in attempted[prev]: it has already been tried
            steps.append(ReductionStep("backtrack", prev, prev_edge, "retrying with a different edge"))
            i = prev
