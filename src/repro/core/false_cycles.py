"""True Cycles vs. False Resource Cycles (Section 7).

A cycle in the CWG is only a *potential* deadlock: each edge ``(c_i,
c_{i+1})`` must be realized by a message that occupies ``c_i`` (plus every
channel between ``c_i`` and where it blocks) while waiting on ``c_{i+1}``,
and in a deadlock configuration all those held channels must be
simultaneously occupied by *distinct* messages.  When every realization of
the cycle forces two messages to occupy a common channel, the cycle is a
**False Resource Cycle** -- physically impossible, hence harmless.
Otherwise it is a **True Cycle**, and Theorem 2's necessity construction
turns it into a reachable deadlock.

This module mechanizes the Section 7.2 test:

1. per cycle edge, enumerate *witness segments* -- channel paths
   ``c_i = p_0 -> p_1 -> ... -> p_m`` permitted for some destination with
   ``c_{i+1}`` in the waiting set at ``p_m``;
2. search (with backtracking) for one segment per edge such that all chosen
   segments are pairwise channel-disjoint -- the channels each message holds
   in the configuration;
3. for algorithms that are not suffix-closed, additionally check each
   message can *reach* its segment head: either a source adjacent to it may
   acquire it directly, or a pre-path from some injection channel exists
   that avoids every held channel (pre-path channels are released before the
   deadlock closes, so they may overlap each other -- "shared consecutively
   rather than simultaneously").

The paper notes there is no complete algorithm for the last corner (shared
pre-cycle channels whose consecutive use cannot be ordered); the classifier
returns :attr:`CycleClass.UNDETERMINED` there, and every verifier treats
UNDETERMINED as potentially true -- conservative in the safe direction (a
routing algorithm is never certified deadlock-free on an unresolved cycle).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..topology.channel import Channel
from .cwg import ChannelWaitingGraph
from .cycles import Cycle
from .depgraph import bits


class CycleClass(enum.Enum):
    TRUE = "true"
    FALSE_RESOURCE = "false-resource"
    #: in-cycle disjointness holds but pre-cycle reachability could not be
    #: resolved without sharing; treated as TRUE by all verifiers
    UNDETERMINED = "undetermined"


@dataclass
class Segment:
    """One edge's witness: the channels its message holds, in order.

    ``mask`` is the held set as a channel-id bitmask (bit ``cid`` set for
    every channel on the path), computed once at construction: the searches
    test channel-disjointness, grow their held sets and run the phase-2
    reachability check on it.  ``held`` is the same set as
    :class:`Channel` objects, for display.
    """

    dest: int
    path: tuple[Channel, ...]  # p_0 .. p_m, all held by the message
    waits_on: Channel
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mask = 0
        for c in self.path:
            mask |= 1 << c.cid
        self.mask = mask

    @property
    def held(self) -> frozenset[Channel]:
        return frozenset(self.path)


@dataclass
class Classification:
    """Outcome of classifying one CWG cycle."""

    cycle: Cycle
    kind: CycleClass
    #: for TRUE: the channel-disjoint witness, one segment per cycle edge
    witness: list[Segment] = field(default_factory=list)
    #: for FALSE_RESOURCE / UNDETERMINED: human-readable reason
    reason: str = ""

    @property
    def is_true(self) -> bool:
        return self.kind is CycleClass.TRUE

    @property
    def possibly_true(self) -> bool:
        return self.kind is not CycleClass.FALSE_RESOURCE


class CycleClassifier:
    """Section 7.2 classifier bound to one CWG.

    Parameters
    ----------
    max_segment_len:
        Longest witness segment explored per edge (default: the number of
        link channels -- segments are simple channel paths so this is
        exhaustive).
    max_segments_per_edge:
        Cap on enumerated witnesses per edge before the search gives up and
        reports UNDETERMINED (never triggered on the paper's examples).
    """

    def __init__(
        self,
        cwg: ChannelWaitingGraph,
        *,
        max_segment_len: int | None = None,
        max_segments_per_edge: int = 5000,
    ) -> None:
        self.cwg = cwg
        self.algorithm = cwg.algorithm
        self.transitions = cwg.transitions
        n_link = len(cwg.algorithm.network.link_channels)
        self.max_segment_len = max_segment_len if max_segment_len is not None else n_link
        self.max_segments_per_edge = max_segments_per_edge

    # ------------------------------------------------------------------
    # witness segment enumeration
    # ------------------------------------------------------------------
    def segments_for_edge(self, a: Channel, b: Channel) -> list[Segment]:
        """All witness segments realizing CWG edge ``(a, b)``, shortest first."""
        net = self.algorithm.network
        channel = net.channel
        w = b.cid
        out: list[Segment] = []
        for dest in bits(self.cwg.dep.mask_of(a.cid, w)):
            dt = self.transitions[dest]
            succ, wait = dt.succ_masks, dt.wait_masks
            if a.cid not in succ or not net.link_mask >> a.cid & 1:
                continue  # ``a`` is not usable for ``dest``
            path: list[Channel] = [a]

            def dfs(c: int, on_path: int) -> None:
                if len(out) >= self.max_segments_per_edge:
                    return
                if wait.get(c, 0) >> w & 1:
                    out.append(Segment(dest, tuple(path), b))
                if len(path) >= self.max_segment_len:
                    return
                for nxt in bits(succ.get(c, 0) & ~on_path):
                    path.append(channel(nxt))
                    dfs(nxt, on_path | 1 << nxt)
                    path.pop()

            dfs(a.cid, 1 << a.cid)
        out.sort(key=lambda s: len(s.path))
        return out

    # ------------------------------------------------------------------
    # pre-cycle reachability (phase 2)
    # ------------------------------------------------------------------
    def _startable_at_source(self, seg: Segment) -> bool:
        """Can a message *sourced* at the segment head's tail acquire it?"""
        dt = self.transitions[seg.dest]
        head = seg.path[0]
        inj = self.algorithm.network.injection_channel(head.src)
        return bool(dt.succ_masks.get(inj.cid, 0) >> head.cid & 1)

    def _prepath_avoiding(self, seg: Segment, forbidden: int) -> bool:
        """Is there a path from some injection to the segment head avoiding
        the ``forbidden`` cid mask (other messages' held channels)?"""
        dt = self.transitions[seg.dest]
        succ = dt.succ_masks
        head = seg.path[0].cid
        blocked = forbidden & self.algorithm.network.link_mask
        seen = 0
        stack = [c.cid for c in dt.starts]
        while stack:
            a = stack.pop()
            if seen >> a & 1:
                continue
            seen |= 1 << a
            out = succ.get(a, 0)
            if out >> head & 1:
                return True
            stack.extend(bits(out & ~blocked & ~seen))
        return False

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def classify(self, cycle: Cycle) -> Classification:
        """Run the Section 7.2 test on ``cycle``."""
        edges = cycle.edges
        per_edge = [self.segments_for_edge(a, b) for a, b in edges]
        for i, segs in enumerate(per_edge):
            if not segs:
                return Classification(
                    cycle, CycleClass.FALSE_RESOURCE,
                    reason=f"edge {edges[i][0]!r} -> {edges[i][1]!r} has no witness segment",
                )
            if len(segs) >= self.max_segments_per_edge:
                return Classification(
                    cycle, CycleClass.UNDETERMINED,
                    reason="segment enumeration capped; raise max_segments_per_edge",
                )

        # Phase 1: backtracking search for pairwise channel-disjoint segments,
        # most-constrained edge first.
        order = sorted(range(len(edges)), key=lambda i: len(per_edge[i]))
        chosen: list[Segment | None] = [None] * len(edges)

        def search(pos: int, used: int) -> bool:
            if pos == len(order):
                return True
            idx = order[pos]
            for seg in per_edge[idx]:
                if used & seg.mask:
                    continue
                chosen[idx] = seg
                if search(pos + 1, used | seg.mask):
                    return True
                chosen[idx] = None
            return False

        if not search(0, 0):
            return Classification(
                cycle, CycleClass.FALSE_RESOURCE,
                reason="no channel-disjoint assignment of witness segments exists",
            )
        witness = [seg for seg in chosen if seg is not None]

        # Phase 2: each message must be able to come to hold its segment head
        # without occupying another message's held channel.
        all_held = 0
        for seg in witness:
            all_held |= seg.mask
        for seg in witness:
            if self._startable_at_source(seg):
                continue
            if not self._prepath_avoiding(seg, all_held & ~seg.mask):
                return Classification(
                    cycle, CycleClass.UNDETERMINED,
                    witness=witness,
                    reason=(
                        f"segment starting at {seg.path[0]!r} (dest {seg.dest}) is only "
                        "reachable through channels held by other messages in the cycle"
                    ),
                )
        return Classification(cycle, CycleClass.TRUE, witness=witness)

    def classify_all(self, cycles: list[Cycle]) -> list[Classification]:
        return [self.classify(cy) for cy in cycles]
