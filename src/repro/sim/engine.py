"""The flit-level wormhole network simulator.

Implements the system model of Section 3 directly:

1. nodes generate messages of arbitrary length at any rate (traffic
   sources + unbounded source queues);
2. messages arriving at their destination are consumed (an ejection port
   per node with configurable rate);
3. once a channel queue accepts a header flit it accepts all flits of that
   message before any other (per-channel ownership);
4. a channel queue holds flits of at most one message, and the channel is
   released only after the tail flit has traversed it;
5. nodes arbitrate among messages requesting the same output channel
   without starvation (round-robin virtual-channel arbitration per physical
   link, FIFO source queues, and oldest-first allocation order).

Each simulated cycle has three phases:

* **allocation** -- every message whose header sits at the front of its
  leading channel queue (or at the source) consults the routing relation
  ``R(c_in, node, dest)``, and a free permitted channel is allocated via the
  selection function; blocked messages record their waiting channels, with
  wait-on-SPECIFIC messages committing to the designated waiting set until
  one of those channels is acquired (Section 6 case (1));
* **transmission** -- each physical link forwards at most one flit per
  cycle, round-robin over its virtual channels, subject to downstream
  buffer space;
* **ejection** -- destinations consume up to ``ejection_rate`` flits.

The engine is deterministic given the config seed: all iteration orders are
fixed, and stochastic choices draw from one owned RNG.

Fast path
---------
The observable semantics above are produced from flat, integer-indexed
state (the structure-of-arrays layout cycle-accurate NoC simulators use)
rather than per-flit objects and channel-keyed dictionaries:

* channel ownership, buffer queues, and held-position links are lists
  indexed by dense channel id; a flit is one packed int
  (``mid << 2 | is_head << 1 | is_tail``);
* routing decisions come from a :class:`~repro.routing.relation.RouteTable`
  that caches ``R(c_in, node, dest)`` pre-sorted by the allocator's
  priority key, so the relation is consulted once per ``(input channel,
  destination)`` pair instead of once per blocked message per cycle --
  and, for an ``R(n, d)`` relation, once per ``(node, destination)`` row
  shared by every input channel at the node.  One consultation is one
  ``route_masks`` query, answered in cid masks, and one sort of integer
  keys; an entry is two cid tuples;
* a message's occupied channels (``held``) and its waiting channels
  (``waiting_for``) are cids too, and every selection function picks a cid
  from cid candidates; the deadlock detector reads the same ids;
* allocation is event-driven: a dirty set tracks exactly the messages
  whose decision could have changed (a header reached a queue front, a
  channel they wait on freed, they reached the front of a source queue),
  so quiescent cycles do no allocation work at all;
* transmission visits, in ascending order, only the physical links in a
  busy set -- those with at least one owned virtual channel -- and walks
  each link's virtual channels in a precomputed round-robin order;
* undelivered messages sit in an insertion-ordered dict keyed by message
  id (ids are assigned in ascending order), so delivering one is O(1).

``SimStats.digest()`` is byte-identical to the original per-object engine
-- the golden matrix in ``tests/fixtures/sim_golden_digests.json`` pins
this.  Channel objects appear only at the API edge: the channel-keyed
``owner`` / ``buffers`` read-only views, the fault interface
(``fail_channel`` / ``repair_channel`` / ``faulty``) and the labels of a
:class:`~repro.sim.deadlock.DeadlockReport`.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from collections.abc import Iterator, Mapping

import numpy as np

from ..routing.relation import RouteTable, RoutingAlgorithm, WaitPolicy
from ..routing.selection import first_free
from ..topology.channel import Channel
from .config import SimConfig
from .deadlock import DeadlockDetector, DeadlockReport
from .message import Message
from .stats import SimStats
from .traffic import TrafficSource

#: flit record as exposed by the ``buffers`` view: (message id, is_head, is_tail)
Flit = tuple[int, bool, bool]

#: packed-flit flag bits (internal layout: ``mid << 2 | HEAD | TAIL``)
_HEAD = 2
_TAIL = 1


class _OwnerView(Mapping):
    """Read-only ``Channel -> mid | None`` view over the dense owner array."""

    __slots__ = ("_sim",)

    def __init__(self, sim: "WormholeSimulator") -> None:
        self._sim = sim

    def __getitem__(self, channel: Channel) -> int | None:
        mid = int(self._sim._owner[channel.cid])
        return None if mid < 0 else mid

    def __iter__(self) -> Iterator[Channel]:
        return iter(self._sim._link_channels)

    def __len__(self) -> int:
        return len(self._sim._link_channels)


class _BuffersView(Mapping):
    """Read-only ``Channel -> tuple[Flit, ...]`` view decoding packed flits."""

    __slots__ = ("_sim",)

    def __init__(self, sim: "WormholeSimulator") -> None:
        self._sim = sim

    def __getitem__(self, channel: Channel) -> tuple[Flit, ...]:
        return tuple(
            (f >> 2, bool(f & _HEAD), bool(f & _TAIL))
            for f in self._sim._buf[channel.cid]
        )

    def __iter__(self) -> Iterator[Channel]:
        return iter(self._sim._link_channels)

    def __len__(self) -> int:
        return len(self._sim._link_channels)


class WormholeSimulator:
    """Cycle-based wormhole simulator for one network + routing algorithm."""

    def __init__(
        self,
        algorithm: RoutingAlgorithm,
        traffic: TrafficSource,
        config: SimConfig | None = None,
        *,
        route_table: RouteTable | None = None,
    ) -> None:
        self.algorithm = algorithm
        self.network = algorithm.network
        self.traffic = traffic
        self.config = config or SimConfig()
        self.rng = np.random.default_rng(self.config.seed)
        self.wait_policy = self.config.wait_policy_override or algorithm.wait_policy

        self.cycle = 0
        self.messages: dict[int, Message] = {}
        #: undelivered message ids as keys, in ascending insertion order
        #: (allocation order = oldest first); delivery deletes in O(1)
        self._active: dict[int, None] = {}
        self._next_mid = 0
        #: channels marked faulty (Definition 3's fault-tolerant status set);
        #: faulty channels are never allocated
        self.faulty: set[Channel] = set()
        #: per-node FIFO source queues of message ids
        self.source_queues: list[deque[int]] = [deque() for _ in self.network.nodes]
        self.stats = SimStats()
        self.detector = DeadlockDetector(self)
        self.deadlock: DeadlockReport | None = None
        self._dist = self.network.shortest_distances() if self.config.prefer_minimal else None

        # -- flat per-channel state (indexed by dense cid) ----------------
        net = self.network
        num_ch = net.num_channels
        self._link_channels: list[Channel] = net.link_channels
        #: owning message id per channel, -1 = free
        self._owner: list[int] = [-1] * num_ch
        #: per-channel flit queue of packed ints
        self._buf: list[deque[int]] = [deque() for _ in range(num_ch)]
        #: cid of the held channel immediately tail-ward in the owner's path,
        #: -1 when the channel's flits come from the source queue
        self._prev: list[int] = [-1] * num_ch
        self._faulty_mask = bytearray(num_ch)
        # both arrays are mutated in place, never rebound, so one closure
        # serves every selection call
        owner, faulty = self._owner, self._faulty_mask
        self._free = lambda cid: owner[cid] < 0 and not faulty[cid]
        self._inj_cid: list[int] = [net.injection_channel(n).cid for n in net.nodes]

        #: per physical link, in (src, dst) order, its VCs' cids
        links: dict[tuple[int, int], list[int]] = {}
        for c in self._link_channels:
            links.setdefault(c.endpoints, []).append(c.cid)
        self._link_vcs: list[list[int]] = [links[k] for k in sorted(links)]
        #: per link, the round-robin order its VCs are tried in next cycle
        self._rr: list[tuple[int, ...]] = [tuple(cids) for cids in self._link_vcs]
        self._link_of: list[int] = [-1] * num_ch
        #: per cid, its link's VC order starting just after it: the link's
        #: next round-robin order once that VC has sent a flit
        self._rr_next: list[tuple[int, ...]] = [()] * num_ch
        for li, cids in enumerate(self._link_vcs):
            for i, cid in enumerate(cids):
                self._link_of[cid] = li
                self._rr_next[cid] = tuple(cids[i + 1:] + cids[:i + 1])
        #: owned-VC count per physical link
        self._link_owned: list[int] = [0] * len(self._link_vcs)
        #: links with at least one owned VC; transmission visits only these
        self._busy: set[int] = set()

        # -- event-driven allocation state --------------------------------
        #: messages whose routing decision could have changed since their
        #: last allocation visit
        self._dirty: set[int] = set()
        #: per-channel blocked waiters as (mid, registration version)
        self._waiters: list[list[tuple[int, int]]] = [[] for _ in range(num_ch)]
        #: per-message registration version; bumping invalidates stale entries
        self._wait_ver: list[int] = []
        #: header-arrived, undelivered message ids, ascending
        self._arrived: list[int] = []
        self._specific = self.wait_policy is WaitPolicy.SPECIFIC
        self._fast_sel = self.config.selection is first_free
        # Stateful selection policies may source live engine state (e.g.
        # CreditSelection reads per-channel buffer occupancy as credits);
        # any selection exposing bind_engine gets this simulator injected.
        bind = getattr(self.config.selection, "bind_engine", None)
        if bind is not None:
            bind(self)
        if route_table is not None:
            # A shared, pre-built table (sweeps reuse one across all points
            # with the same network/algorithm axes).  Entries are a pure
            # function of (algorithm, dist ordering), so sharing cannot
            # change behavior -- but only if the table really was built for
            # this algorithm under this config's candidate ordering.
            if route_table.algorithm is not algorithm:
                raise ValueError("route_table was built for a different algorithm")
            if (route_table.dist is not None) != (self._dist is not None):
                raise ValueError(
                    "route_table candidate ordering does not match prefer_minimal")
            self._route_table = route_table
        else:
            self._route_table = RouteTable(algorithm, dist=self._dist)
        # counter baselines, so perf_counters() reports this run's traffic
        # even on a shared table that arrives warm
        self._rt_hits0 = self._route_table.hits
        self._rt_misses0 = self._route_table.misses
        self._rt_rows0 = self._route_table.rows

        # -- observability -------------------------------------------------
        #: messages visited by the allocator (event-driven wakeups)
        self.alloc_wakeups = 0
        #: cycles whose allocation phase had nothing to do
        self.alloc_idle_cycles = 0

        # channel-keyed read-only views (test/analysis API)
        self.owner = _OwnerView(self)
        self.buffers = _BuffersView(self)

    # ------------------------------------------------------------------
    # message lifecycle
    # ------------------------------------------------------------------
    def inject_message(self, src: int, dest: int, length: int, *, created: int | None = None) -> Message:
        """Hand a new message to ``src``'s source queue."""
        num_nodes = self.network.num_nodes
        for node in (src, dest):
            if not 0 <= node < num_nodes:
                raise ValueError(f"node {node} out of range for {num_nodes} nodes")
        if src == dest:
            raise ValueError("source == destination")
        if length < 1:
            raise ValueError("message length must be >= 1 flit")
        m = Message(
            mid=self._next_mid, src=src, dest=dest, length=length,
            created=self.cycle if created is None else created,
        )
        self._next_mid += 1
        self.messages[m.mid] = m
        self._active[m.mid] = None
        self._wait_ver.append(0)
        q = self.source_queues[src]
        q.append(m.mid)
        if len(q) == 1:  # at the queue front: may route next allocation
            self._dirty.add(m.mid)
        self.stats.offered_flits += length
        return m

    # ------------------------------------------------------------------
    # cycle phases
    # ------------------------------------------------------------------
    def _on_free(self, cid: int) -> None:
        """A channel freed: wake every validly registered waiter."""
        waiters = self._waiters[cid]
        if waiters:
            ver = self._wait_ver
            dirty = self._dirty
            for mid, v in waiters:
                if ver[mid] == v:
                    dirty.add(mid)
            waiters.clear()

    def _phase_allocate(self) -> None:
        dirty = self._dirty
        if not dirty:
            self.alloc_idle_cycles += 1
            return
        # Oldest message first: prevents starvation (Assumption 5).  Only
        # messages whose decision could have changed are visited; everyone
        # else would reproduce last cycle's outcome verbatim.
        mids = sorted(dirty)
        dirty.clear()
        messages = self.messages
        owner = self._owner
        faulty = self._faulty_mask
        bufs = self._buf
        queues = self.source_queues
        table = self._route_table
        heads = self.network.heads
        specific = self._specific
        fast_sel = self._fast_sel
        cycle = self.cycle
        wakeups = 0
        for mid in mids:
            m = messages[mid]
            if m.header_arrived:
                continue
            held = m.held
            if held:
                c_in_cid = held[-1]
                buf = bufs[c_in_cid]
                if not buf or not (buf[0] & _HEAD):
                    continue  # header not at the queue front
                node = heads[c_in_cid]
            else:
                # still in the source queue; only the front message may inject
                q = queues[m.src]
                if not q or q[0] != mid:
                    continue
                c_in_cid = self._inj_cid[m.src]
                node = m.src
            wakeups += 1
            dest = m.dest
            if node == dest:
                m.header_arrived = True
                m.waiting_for = None
                insort(self._arrived, mid)
                continue
            entry = table.entry(c_in_cid, dest)
            committed = specific and m.waiting_for is not None
            # committed: may acquire only a designated waiting channel
            cand_cids = entry.wait_cids if committed else entry.cand_cids
            if fast_sel:
                choice = -1
                for cid in cand_cids:
                    if owner[cid] < 0 and not faulty[cid]:
                        choice = cid
                        break
            else:
                picked = self.config.selection(self.network, c_in_cid, cand_cids, self._free)
                choice = -1 if picked is None else picked
            if choice >= 0:
                owner[choice] = mid
                self._prev[choice] = c_in_cid if held else -1
                held.append(choice)
                li = self._link_of[choice]
                self._link_owned[li] += 1
                self._busy.add(li)
                m.hops += 1
                m.waiting_for = None
                m.last_progress = cycle
                if m.started is None:
                    m.started = cycle
                self._wait_ver[mid] += 1  # invalidate stale registrations
            else:
                if m.waiting_for is None or not specific:
                    m.waiting_for = entry.wait_cids
                # register on the pool the next decision will draw from
                pool = entry.wait_cids if specific else entry.cand_cids
                ver = self._wait_ver[mid] + 1
                self._wait_ver[mid] = ver
                waiters = self._waiters
                for cid in pool:
                    waiters[cid].append((mid, ver))
        self.alloc_wakeups += wakeups

    def _phase_transmit(self) -> None:
        depth = self.config.buffer_depth
        owner = self._owner
        bufs = self._buf
        prev = self._prev
        messages = self.messages
        rr_next = self._rr_next
        link_of = self._link_of
        link_owned = self._link_owned
        busy = self._busy
        rr = self._rr
        queues = self.source_queues
        dirty = self._dirty
        cycle = self.cycle
        hops = 0
        for li in sorted(busy):
            if not link_owned[li]:
                continue  # released earlier in this pass
            for cid in rr[li]:
                mid = owner[cid]
                if mid < 0:
                    continue
                buf = bufs[cid]
                if len(buf) >= depth:
                    continue
                m = messages[mid]
                p = prev[cid]
                if p < 0:
                    # flit comes from the source queue
                    fi = m.flits_injected
                    if fi >= m.length:
                        continue
                    flit = (mid << 2) \
                        | (_HEAD if fi == 0 else 0) \
                        | (_TAIL if fi == m.length - 1 else 0)
                    buf.append(flit)
                    m.flits_injected = fi + 1
                    if flit & _TAIL:
                        q = queues[m.src]
                        if q and q[0] == mid:
                            q.popleft()
                            if q:  # next message reaches the queue front
                                dirty.add(q[0])
                else:
                    pbuf = bufs[p]
                    if not pbuf:
                        continue
                    flit = pbuf.popleft()
                    buf.append(flit)
                    if flit & _TAIL:  # tail left prev: release it
                        owner[p] = -1
                        prev[cid] = prev[p]
                        m.held.pop(0)
                        lp = link_of[p]
                        link_owned[lp] -= 1
                        if not link_owned[lp]:
                            busy.discard(lp)
                        self._on_free(p)
                if flit & _HEAD:  # header at a new queue front: must route
                    dirty.add(mid)
                rr[li] = rr_next[cid]
                hops += 1
                m.last_progress = cycle
                break  # one flit per physical link per cycle
        self.stats.flit_hops += hops

    def _phase_eject(self) -> None:
        arrived = self._arrived
        if not arrived:
            return
        rate = self.config.ejection_rate
        messages = self.messages
        bufs = self._buf
        stats = self.stats
        consumed_at = stats._consumed_at
        cycle = self.cycle
        done = False
        for mid in arrived:
            m = messages[mid]
            held = m.held
            if not held:
                continue
            lead_cid = held[-1]
            buf = bufs[lead_cid]
            for _ in range(rate):
                if not buf:
                    break
                flit = buf.popleft()
                m.flits_consumed += 1
                stats.consumed_flits += 1
                consumed_at.append(cycle)
                if flit & _TAIL:  # tail consumed: message delivered
                    self._owner[lead_cid] = -1
                    li = self._link_of[lead_cid]
                    self._link_owned[li] -= 1
                    if not self._link_owned[li]:
                        self._busy.discard(li)
                    held.pop()
                    assert not held, "tail consumed while channels still held"
                    m.finished = cycle
                    stats.note_delivered(m)
                    del self._active[mid]
                    self._on_free(lead_cid)
                    done = True
                    break
        if done:
            self._arrived = [mid for mid in arrived if messages[mid].finished is None]

    def _phase_traffic(self) -> None:
        for src, dest, length in self.traffic.messages_for_cycle(self.cycle, self.rng):
            self.inject_message(src, dest, length)

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance one cycle."""
        self._phase_traffic()
        self._phase_allocate()
        self._phase_transmit()
        self._phase_eject()
        interval = self.config.deadlock_check_interval
        if interval and self.cycle % interval == interval - 1 and self.deadlock is None:
            report = self.detector.check()
            if report is not None:
                self.deadlock = report
        self.cycle += 1

    def run(self, cycles: int) -> None:
        """Run for ``cycles`` cycles (stops early on detected deadlock)."""
        for _ in range(cycles):
            self.step()
            if self.deadlock is not None and self.config.stop_on_deadlock:
                break

    def drain(self, max_cycles: int = 1_000_000) -> bool:
        """Run with no new traffic until all messages deliver.

        Returns True if the network drained, False on deadlock/timeout.
        """
        quiet = _SilentTraffic()
        saved, self.traffic = self.traffic, quiet
        try:
            for _ in range(max_cycles):
                if not self._active:
                    return True
                self.step()
                if self.deadlock is not None and self.config.stop_on_deadlock:
                    return False
            # the last allowed cycle may be the one that delivered the rest
            return not self._active
        finally:
            self.traffic = saved

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def fail_channel(self, channel: Channel) -> None:
        """Mark an *idle* link channel faulty (Definition 3's third status).

        Faulty channels are never allocated; adaptive algorithms route
        around them while nonadaptive ones stall -- the Section 1
        fault-tolerance motivation for nonminimal routing.  Failing a
        channel that currently carries a message is not modelled (wormhole
        fault recovery mid-message is out of the paper's scope), so it
        raises.
        """
        if not channel.is_link:
            raise ValueError(f"{channel!r} is not a link channel")
        if self._owner[channel.cid] >= 0:
            raise ValueError(f"{channel!r} is occupied; only idle channels can fail")
        self.faulty.add(channel)
        self._faulty_mask[channel.cid] = 1

    def repair_channel(self, channel: Channel) -> None:
        """Clear a channel's faulty status."""
        if channel in self.faulty:
            self.faulty.discard(channel)
            self._faulty_mask[channel.cid] = 0
            self._on_free(channel.cid)  # waiters may acquire it now

    def stalled_messages(self) -> list[Message]:
        """Blocked messages whose every waiting channel is faulty.

        These can never proceed -- not a Definition-12 deadlock (no cycle),
        but a delivery failure the fault model surfaces explicitly.
        """
        return [
            m for m in self.blocked_messages()
            if m.waiting_for and all(self._faulty_mask[w] for w in m.waiting_for)
        ]

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> list[Message]:
        return [self.messages[mid] for mid in self._active]

    def blocked_messages(self) -> list[Message]:
        """Messages currently blocked on a waiting set."""
        return [m for m in self.in_flight if m.waiting_for is not None]

    def perf_counters(self) -> dict[str, int]:
        """Fast-path observability counters (route-table cache, wakeups)."""
        rt = self._route_table.stats()
        return {
            "cycles": self.cycle,
            "alloc_wakeups": self.alloc_wakeups,
            "alloc_idle_cycles": self.alloc_idle_cycles,
            "route_table_hits": rt["hits"] - self._rt_hits0,
            "route_table_misses": rt["misses"] - self._rt_misses0,
            "route_table_rows": rt["rows"] - self._rt_rows0,
            "route_table_entries": rt["entries"],
            "flit_hops": self.stats.flit_hops,
        }


class _SilentTraffic:
    """No-op traffic source used by :meth:`WormholeSimulator.drain`."""

    def messages_for_cycle(self, cycle: int, rng) -> list[tuple[int, int, int]]:
        return []
