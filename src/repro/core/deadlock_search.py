"""Direct search for True Cycles, without enumerating all simple cycles.

The number of simple cycles in a CWG can be astronomically larger than the
number of *True* cycles (the Figure-4 ring has hundreds of thousands of
simple cycles, none of them true), so Theorem 2's question -- "does any True
Cycle exist?" -- is answered here by searching directly over *witness
segments* instead of over cycles:

* a **segment** from channel ``a`` is a permitted channel path
  ``a = p_0 -> ... -> p_m`` (for some destination) together with a waiting
  channel ``b`` at its final state: one message of a deadlock configuration,
  holding exactly the path and waiting on ``b``;
* a **True Cycle** is a sequence of segments ``s_0 .. s_{k-1}`` with
  ``waited(s_i) = head(s_{i+1 mod k})`` whose held channel sets are pairwise
  disjoint (Section 7.2's channel-disjointness requirement, with the
  segment-head normalization: any deadlock configuration can be shrunk so
  each message holds exactly the channels from the waited channel onward).

The DFS explores segments shortest-first, canonicalizes cycles by their
minimum head cid, and prunes on channel disjointness -- which is what makes
the ring feasible: every lap-closing segment chain needs the shared ``cA``
channel twice and dies immediately.

Both searches run on channel-id bitmasks: a segment's held set is the
integer :attr:`~repro.core.false_cycles.Segment.mask` (bit ``cid`` per held
channel), computed once when the segment is built, so the held and waiting
sets a DFS node carries are ints and the disjointness test is one ``&``.
Masks are only the representation: the node order is the canonical order
(:meth:`TrueCycleSearch.segments_from` order per head; head cid, then
segment order, for :class:`AnyWaitConfigSearch`), the same as a search
over ``Channel`` sets, so node counts and witnesses do not depend on it.

Both searches expand each DFS state once per start channel.  A state
(``(head, used)`` for the cycle search, ``(held, pending)`` for the
configuration search) whose subtree failed without closing a chain and
within budget is recorded with the subtree's node count; a revisit whose
count fits in the remaining budget charges that count and returns at once,
which is exactly what re-expanding it would do.  The budget therefore
counts the *logical* DFS tree: ``nodes_explored``, the point where the
budget runs out, witnesses and undetermined lists do not depend on the
memo, and ``nodes_expanded`` reports the states actually expanded.

Pre-cycle reachability (phase 2 of Section 7.2) is applied to each candidate
before it is reported TRUE; candidates failing it are collected as
UNDETERMINED, mirroring :class:`repro.core.false_cycles.CycleClassifier`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from ..topology.channel import Channel
from .cwg import ChannelWaitingGraph
from .cycles import Cycle
from .depgraph import bits, mask_of_ints
from .false_cycles import Classification, CycleClass, CycleClassifier, Segment

#: one channel's covering segments: their head cids (ascending) and, in the
#: same order, ``(held mask, waiting mask, segment)``
_Covers = tuple[list[int], list[tuple[int, int, Segment]]]


@dataclass
class SearchOutcome:
    """Result of the direct True-Cycle search."""

    #: a True Cycle witness, if one was found
    true_cycle: Classification | None = None
    #: candidates whose pre-cycle reachability could not be resolved
    undetermined: list[Classification] = field(default_factory=list)
    #: search was exhaustive (no cap hit); a None true_cycle is then a proof
    exhaustive: bool = True
    #: logical DFS nodes, the budget's unit
    nodes_explored: int = 0
    #: DFS nodes actually expanded (a memoized subtree costs none)
    nodes_expanded: int = 0

    @property
    def proves_no_true_cycle(self) -> bool:
        return self.true_cycle is None and not self.undetermined and self.exhaustive


class TrueCycleSearch:
    """Depth-first search for a True Cycle over witness segments.

    Parameters
    ----------
    max_nodes:
        Cap on DFS nodes; exceeded => ``exhaustive=False`` in the outcome
        (verifiers then refuse to certify).
    max_segment_len:
        Longest segment explored (default: all -- segments are simple
        channel paths, bounded by the channel count).
    """

    def __init__(
        self,
        cwg: ChannelWaitingGraph,
        *,
        max_nodes: int = 2_000_000,
        max_segment_len: int | None = None,
        single_wait_only: bool = False,
        any_wait_blocked: bool = False,
    ) -> None:
        """``single_wait_only``: only accept witness segments whose final
        routing state has exactly one waiting channel.  A True Cycle built
        from such segments deadlocks even under wait-on-ANY semantics (each
        blocked message's *entire* waiting set is held), and no CWG'
        reduction can remove its edges -- the sound fast path Theorem 3's
        necessity check uses before attempting the full Section 8 search.

        ``any_wait_blocked``: the general form of the same idea -- accept a
        closed chain only if each segment's *entire* waiting set at its
        blocking state is contained in the union of channels the chain
        holds (self-held channels count: a message never releases a channel
        it occupies while blocked).  Such a configuration is a Definition 12
        deadlock under wait-on-ANY semantics, so a hit is an authoritative
        deadlock verdict even for adaptive any-waiting algorithms; messages
        may span several cycle channels, which ``single_wait_only`` cannot
        express."""
        self.cwg = cwg
        self.single_wait_only = single_wait_only
        self.any_wait_blocked = any_wait_blocked
        self.classifier = CycleClassifier(cwg, max_segment_len=max_segment_len or 10**9)
        n_link = len(cwg.algorithm.network.link_channels)
        self.max_segment_len = max_segment_len if max_segment_len is not None else n_link
        self.max_nodes = max_nodes
        self._segments: dict[Channel, list[Segment]] = {}
        #: alternative destinations per (path, waited) for phase-2 retries
        self._alt_dests: dict[tuple[tuple[Channel, ...], Channel], list[int]] = {}
        # Channels that appear as CWG edge targets: only these can be waited
        # on, hence only these can head a segment in a cycle.
        channel = cwg.algorithm.network.channel
        self._waitable: set[Channel] = {channel(b) for b in cwg.dep.target_cids()}
        self._waitable_mask = mask_of_ints(cwg.dep.target_cids())

    # ------------------------------------------------------------------
    def segments_from(self, head: Channel) -> list[Segment]:
        """Witness segments starting at ``head``, pruned and shortest-first.

        Two sound reductions keep the list small (memoized per head):

        * segments with identical ``(path, waits_on)`` for different
          destinations are merged (alternative destinations are retained in
          :attr:`_alt_dests` for the phase-2 startability check);
        * a segment whose held set is a strict superset of another segment
          with the same waited channel is dominated and dropped -- swapping
          in the smaller segment preserves disjointness, and a phase-2
          failure only ever downgrades TRUE to UNDETERMINED, which verifiers
          already refuse to certify.
        """
        cached = self._segments.get(head)
        if cached is not None:
            return cached
        net = self.cwg.algorithm.network
        h = head.cid
        waitable = self._waitable_mask
        single = self.single_wait_only
        limit = self.max_segment_len
        #: (path cids, waited cid) -> (held mask, destinations)
        raw: dict[tuple[tuple[int, ...], int], tuple[int, set[int]]] = {}
        for dest in net.nodes:
            dt = self.cwg.transitions[dest]
            succ, wait = dt.succ_masks, dt.wait_masks
            if h not in succ or not net.link_mask >> h & 1:
                continue  # ``head`` is not usable for ``dest``
            path = [h]

            def dfs(a: int, on_path: int) -> None:
                waits = wait.get(a, 0)
                if not single or waits & (waits - 1) == 0:
                    for b in bits(waits & waitable):
                        key = (tuple(path), b)
                        got = raw.get(key)
                        if got is None:
                            raw[key] = (on_path, {dest})
                        else:
                            got[1].add(dest)
                if len(path) >= limit:
                    return
                for nxt in bits(succ.get(a, 0) & ~on_path):
                    path.append(nxt)
                    dfs(nxt, on_path | 1 << nxt)
                    path.pop()

            dfs(h, 1 << h)
        # Domination filter per waited channel: keep held-set-minimal segments.
        by_wait: dict[int, list[tuple[tuple[int, ...], int, set[int]]]] = {}
        for (path_t, b), (mask, dests) in raw.items():
            by_wait.setdefault(b, []).append((path_t, mask, dests))
        channel = net.channel
        out: list[Segment] = []
        for b, group in by_wait.items():
            group.sort(key=lambda g: len(g[0]))
            kept: list[int] = []
            waited = channel(b)
            for path_t, mask, dests in group:
                if any(k & ~mask == 0 for k in kept):
                    continue
                kept.append(mask)
                seg = Segment(min(dests), tuple(channel(c) for c in path_t), waited)
                self._alt_dests[(seg.path, waited)] = sorted(dests)
                out.append(seg)
        out.sort(key=lambda s: (len(s.path), s.waits_on.cid, s.dest))
        self._segments[head] = out
        return out

    # ------------------------------------------------------------------
    def search(self) -> SearchOutcome:
        """Find a True Cycle or prove none exists."""
        outcome = SearchOutcome()
        heads = sorted(self._waitable, key=lambda c: c.cid)
        channel = self.cwg.algorithm.network.channel
        budget = self.max_nodes
        expanded = accepts = 0

        for start in heads:
            chain: list[Segment] = []
            s = start.cid
            reach = self._can_reach(s)
            # Per head: the segments a cycle canonicalized at ``start`` may
            # use, in segments_from order, as (held mask, waited cid,
            # segment).  Canonical form puts no head below the start
            # channel, and a segment waiting outside ``reach`` cannot lead
            # back to it.
            allowed: dict[int, list[tuple[int, int, Segment]]] = {}
            #: (head cid, used mask) -> node count of a subtree that closed
            #: no chain and stayed within budget
            failed: dict[tuple[int, int], int] = {}

            def dfs(h: int, used: int) -> bool:
                nonlocal budget, expanded, accepts
                key = (h, used)
                known = failed.get(key)
                if known is not None and known < budget:
                    budget -= known
                    return False
                expanded += 1
                before, accepts_before = budget, accepts
                budget -= 1
                if budget <= 0:
                    outcome.exhaustive = False
                    return False
                cands = allowed.get(h)
                if cands is None:
                    cands = allowed[h] = [
                        (seg.mask, seg.waits_on.cid, seg)
                        for seg in self.segments_from(channel(h))
                        if seg.waits_on.cid == s or reach >> seg.waits_on.cid & 1
                    ]
                for mask, waited, seg in cands:
                    if used & mask:
                        continue  # violates pairwise channel-disjointness
                    chain.append(seg)
                    if waited == s:
                        accepts += 1
                        if self._accept(chain, outcome):
                            return True
                    elif dfs(waited, used | mask):
                        return True
                    chain.pop()
                if accepts == accepts_before and outcome.exhaustive and before - budget > 1:
                    failed[key] = before - budget
                return False

            if dfs(s, 0):
                break
            if not outcome.exhaustive:
                break
        outcome.nodes_explored = self.max_nodes - budget
        outcome.nodes_expanded = expanded
        return outcome

    def _can_reach(self, start: int) -> int:
        """Cids with a CWG path back to ``start`` through cids >= it, as a mask.

        Any cycle canonicalized at ``start`` visits only such channels, so
        the DFS prunes every segment waiting outside this set.
        """
        mask = 0
        for c in self.cwg.dep.reverse_reachable(start, min_cid=start):
            mask |= 1 << c
        return mask

    def _accept(self, chain: list[Segment], outcome: SearchOutcome) -> bool:
        """Phase-2 check a closed chain; record it appropriately.

        Each segment may carry alternative destinations (merged during
        enumeration); startability is granted if *any* of them passes.
        """
        cycle = Cycle.from_nodes([s.path[0] for s in chain])
        witness: list[Segment] = []
        held = 0
        for seg in chain:
            held |= seg.mask
        for seg in chain:
            others = held & ~seg.mask
            chosen: Segment | None = None
            blockable = not self.any_wait_blocked
            tail = seg.path[-1].cid
            for dest in self._alt_dests.get((seg.path, seg.waits_on), [seg.dest]):
                if self.any_wait_blocked:
                    waits = self.cwg.transitions[dest].wait_masks.get(tail, 0)
                    if waits & ~held:
                        continue  # an escape wait exists: not ANY-wait-blocked
                    blockable = True
                cand = Segment(dest, seg.path, seg.waits_on)
                if self.classifier._startable_at_source(cand) or \
                        self.classifier._prepath_avoiding(cand, others):
                    chosen = cand
                    break
            if not blockable:
                # No destination makes this message fully blocked: the chain
                # is not an any-wait deadlock candidate at all, so it is
                # discarded without counting as UNDETERMINED.
                return False
            if chosen is None:
                outcome.undetermined.append(Classification(
                    cycle, CycleClass.UNDETERMINED, witness=list(chain),
                    reason=(
                        f"segment at {seg.path[0]!r} reachable only through "
                        "channels held by other messages (all destinations tried)"
                    ),
                ))
                return False
            witness.append(chosen)
        outcome.true_cycle = Classification(cycle, CycleClass.TRUE, witness=witness)
        return True


@dataclass
class ConfigOutcome:
    """Result of the exhaustive any-wait deadlock-configuration search."""

    #: a Definition 12 configuration for wait-on-any semantics, if found
    deadlock: list[Segment] | None = None
    #: closed configurations whose reachability could not be resolved
    undetermined: list[list[Segment]] = field(default_factory=list)
    #: search completed within budget; then a None deadlock (with no
    #: undetermined configurations) proves deadlock freedom
    exhaustive: bool = True
    #: logical DFS nodes, the budget's unit
    nodes_explored: int = 0
    #: DFS nodes actually expanded (a memoized subtree costs none)
    nodes_expanded: int = 0

    @property
    def proves_deadlock_free(self) -> bool:
        return self.deadlock is None and not self.undetermined and self.exhaustive


class AnyWaitConfigSearch:
    """Exhaustive search for wait-on-any deadlock *configurations*.

    Under wait-on-any semantics a blocked message is stuck only when its
    **entire** waiting set is occupied, so a Definition 12 deadlock is a set
    of messages -- pairwise channel-disjoint, each reachable -- whose held
    channels jointly cover every member's full waiting set.  Such a set need
    not be a single cycle: a message's waits may be pinned by several
    different members (a braid), which cycle-based searches cannot express,
    and conversely a configuration may be absent even though every per-state
    *specific* narrowing of the waiting discipline deadlocks (the paper's
    incoherent example: no reachable state holds both waiting channels of
    the critical state at once).  This search decides the question exactly,
    up to the Section 7.2 reachability check: closed configurations that
    fail it are reported ``undetermined`` rather than dropped, so
    ``proves_deadlock_free`` never lies.

    The worklist DFS grows a candidate set one member per uncovered waiting
    channel.  Members are normalized to start at their first channel that
    some member waits on (dropping an acquisition prefix keeps a
    configuration valid), so candidate segments head at waited-on channels
    and the member covering an uncovered wait may carry it anywhere along
    its path.  Configurations are canonicalized by their minimum head.
    The segments carrying each channel are indexed once
    (:meth:`_cover_index`), so a node scans only the covers of its lowest
    uncovered wait.
    """

    def __init__(
        self,
        cwg: ChannelWaitingGraph,
        *,
        max_nodes: int = 200_000,
        max_segment_len: int | None = None,
    ) -> None:
        self.cwg = cwg
        self.classifier = CycleClassifier(cwg, max_segment_len=max_segment_len or 10**9)
        n_link = len(cwg.algorithm.network.link_channels)
        self.max_segment_len = max_segment_len if max_segment_len is not None else n_link
        self.max_nodes = max_nodes
        channel = cwg.algorithm.network.channel
        self._waitable: frozenset[Channel] = frozenset(
            channel(b) for b in cwg.dep.target_cids()
        )
        #: blocked-message segments (dest, path) with their full waiting-set
        #: mask, per head
        self._segments: dict[Channel, list[tuple[Segment, int]]] = {}

    def segments_from(self, head: Channel) -> list[tuple[Segment, int]]:
        """All blocked-message segments starting at ``head``.

        Unlike the cycle search there is no destination merging and no
        held-set domination: a longer path covers more waits, so neither
        reduction is sound here.  Each segment is paired with its full
        waiting set as a cid bitmask; its ``waits_on`` is the set's minimum
        (for witness display only).
        """
        cached = self._segments.get(head)
        if cached is not None:
            return cached
        net = self.cwg.algorithm.network
        h = head.cid
        limit = self.max_segment_len
        #: (path length, dest, path cids, waiting mask)
        found: list[tuple[int, int, tuple[int, ...], int]] = []
        for dest in net.nodes:
            dt = self.cwg.transitions[dest]
            succ, wait = dt.succ_masks, dt.wait_masks
            if h not in succ or not net.link_mask >> h & 1:
                continue  # ``head`` is not usable for ``dest``
            path = [h]

            def dfs(a: int, on_path: int) -> None:
                waits = wait.get(a, 0)
                if waits:
                    found.append((len(path), dest, tuple(path), waits))
                if len(path) >= limit:
                    return
                for nxt in bits(succ.get(a, 0) & ~on_path):
                    path.append(nxt)
                    dfs(nxt, on_path | 1 << nxt)
                    path.pop()

            dfs(h, 1 << h)
        found.sort()
        channel = net.channel
        out = [
            (Segment(dest, tuple(channel(c) for c in path_t),
                     channel((waits & -waits).bit_length() - 1)), waits)
            for _, dest, path_t, waits in found
        ]
        self._segments[head] = out
        return out

    def _cover_index(self, heads: list[Channel]) -> dict[int, _Covers]:
        """Per channel cid: every segment whose path carries it.

        Entries are ``(held mask, waiting mask, segment)`` ordered by head
        cid, then :meth:`segments_from` order, with the head cids alongside
        so a search canonicalized at ``start`` can skip the heads below it.
        """
        index: dict[int, _Covers] = {}
        for h in heads:
            for seg, waits in self.segments_from(h):
                for c in bits(seg.mask):
                    head_cids, entries = index.setdefault(c, ([], []))
                    head_cids.append(h.cid)
                    entries.append((seg.mask, waits, seg))
        return index

    def search(self) -> ConfigOutcome:
        """Find a deadlock configuration or prove none exists."""
        outcome = ConfigOutcome()
        budget = self.max_nodes
        expanded = accepts = 0
        heads = sorted(self._waitable, key=lambda c: c.cid)
        covers: dict[int, _Covers] | None = None
        no_covers: _Covers = ([], [])

        def done() -> ConfigOutcome:
            outcome.nodes_explored = self.max_nodes - budget
            outcome.nodes_expanded = expanded
            return outcome

        for start in heads:
            chosen: list[Segment] = []
            s = start.cid
            #: (held mask, pending mask) -> node count of a subtree that
            #: closed no configuration and stayed within budget
            failed: dict[tuple[int, int], int] = {}

            def dfs(held: int, pending: int) -> bool:
                nonlocal budget, covers, expanded, accepts
                key = (held, pending)
                known = failed.get(key)
                if known is not None and known < budget:
                    budget -= known
                    return False
                expanded += 1
                before, accepts_before = budget, accepts
                budget -= 1
                if budget <= 0:
                    outcome.exhaustive = False
                    return False
                if not pending:
                    accepts += 1
                    return self._accept(chosen, outcome)
                if covers is None:
                    covers = self._cover_index(heads)
                # the lowest uncovered waiting channel; every member of a
                # canonical configuration heads at or above the start
                # channel, and the cover may carry ``w`` anywhere along its
                # path
                w = (pending & -pending).bit_length() - 1
                head_cids, entries = covers.get(w, no_covers)
                for i in range(bisect_left(head_cids, s), len(entries)):
                    mask, waits, seg = entries[i]
                    if held & mask:
                        continue
                    nheld = held | mask
                    chosen.append(seg)
                    if dfs(nheld, (pending | waits) & ~nheld):
                        return True
                    chosen.pop()
                    if not outcome.exhaustive:
                        return False
                if accepts == accepts_before and before - budget > 1:
                    failed[key] = before - budget
                return False

            for seg, waits in self.segments_from(start):
                chosen.append(seg)
                if dfs(seg.mask, waits & ~seg.mask) or not outcome.exhaustive:
                    return done()
                chosen.pop()
        return done()

    def _accept(self, chosen: list[Segment], outcome: ConfigOutcome) -> bool:
        """Reachability-check a closed configuration (Section 7.2 phase 2)."""
        config = list(chosen)
        held = 0
        for seg in config:
            held |= seg.mask
        for seg in config:
            if not (self.classifier._startable_at_source(seg) or
                    self.classifier._prepath_avoiding(seg, held & ~seg.mask)):
                outcome.undetermined.append(config)
                return False
        outcome.deadlock = config
        return True
