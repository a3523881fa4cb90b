"""Per-destination routing-state transition graphs.

Everything the paper's graph theory needs -- channel dependency graphs,
channel waiting graphs, wait-connectivity, reachability of configurations --
reduces to questions about the *routing-state graph* for a fixed
destination ``d``: states are "the message's most recently acquired channel
is ``c``" (so the message sits at node ``c.dst``), the start states are the
injection channels, and the transitions are exactly the routing relation
``R(c, c.dst, d)``.

:class:`DestinationTransitions` materializes that graph once per destination
and precomputes the derived sets the rest of :mod:`repro.core` consumes:

* ``usable`` -- link channels reachable from any injection channel, i.e.
  channels some message headed to ``d`` can actually occupy;
* ``wait[c]`` -- the waiting channels at state ``c`` (Definition 8);
* ``downstream_wait[c]`` -- the union of ``wait`` over every state reachable
  from ``c`` *including itself*: by Definition 9 (arbitrary message lengths),
  these are precisely the channels some message occupying ``c`` may end up
  waiting on, i.e. the CWG out-neighbourhood contributed by destination ``d``;
* ``upstream[c]`` -- channels from which state ``c`` is reachable: channels a
  message *blocked at* ``c`` might still hold, which is what the CWG'
  reduction's wait-connectivity test needs;
* ``downstream_node_masks[c]`` -- the nodes of every state reachable from
  ``c``, itself included, as a node-id bitmask: what the coherence
  certificate in :mod:`repro.routing.properties` reads (``c`` can still
  reach ``d`` iff bit ``d`` is set).

Reachable-set computation runs on the SCC condensation so cyclic
(nonminimal) relations cost the same as acyclic ones.

The canonical derived representation is *cid bitmasks* (``succ_masks``,
``wait_masks``, ``downstream_wait_masks``, ``upstream_masks``): one
arbitrary-precision int per state, bit ``i`` set iff channel ``i`` is in the
set.  The graph builders consume the masks directly
(:meth:`TransitionCache.collect_edge_dests` never touches a
:class:`~repro.topology.channel.Channel` object); the frozenset views
(``downstream_wait`` / ``upstream``) are adapters materialized lazily for
the consumers that still want objects.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping

from ..routing.relation import RoutingAlgorithm
from ..topology.channel import Channel
from .depgraph import bits, tarjan_scc


class DestinationTransitions:
    """Routing-state graph of ``algorithm`` for one fixed destination."""

    def __init__(self, algorithm: RoutingAlgorithm, dest: int) -> None:
        self.algorithm = algorithm
        self.dest = dest
        net = algorithm.network
        self.succ: dict[Channel, frozenset[Channel]] = {}
        self.wait: dict[Channel, frozenset[Channel]] = {}
        #: injection channels that start a journey to ``dest``
        self.starts: list[Channel] = [
            net.injection_channel(n) for n in net.nodes if n != dest
        ]
        # The default waiting set *is* the route set; skipping the second
        # relation call halves the walk for every algorithm that does not
        # override waiting_channels (same trick RouteTable._build uses).
        default_wait = (
            type(algorithm).waiting_channels is RoutingAlgorithm.waiting_channels
        )
        # Forward BFS from the injection channels over the routing relation.
        frontier: list[Channel] = list(self.starts)
        seen: set[Channel] = set(frontier)
        while frontier:
            nxt: list[Channel] = []
            for c in frontier:
                node = c.dst
                if node == dest:
                    self.succ[c] = frozenset()
                    self.wait[c] = frozenset()
                    continue
                out = algorithm.route(c, node, dest)
                self.succ[c] = out
                self.wait[c] = out if default_wait \
                    else algorithm.waiting_channels(c, node, dest)
                for o in out:
                    if o not in seen:
                        seen.add(o)
                        nxt.append(o)
            frontier = nxt
        #: link channels a message headed to ``dest`` can occupy
        self.usable: frozenset[Channel] = frozenset(c for c in self.succ if c.is_link)
        #: the same channels as sorted dense cids (the builders' index space)
        self.usable_cids: list[int] = sorted(c.cid for c in self.usable)
        self._succ_masks: dict[int, int] | None = None
        self._wait_masks: dict[int, int] | None = None
        self._downstream_wait_masks: dict[int, int] | None = None
        self._upstream_masks: dict[int, int] | None = None
        self._downstream_node_masks: dict[int, int] | None = None
        self._downstream_wait: dict[Channel, frozenset[Channel]] | None = None
        self._upstream: dict[Channel, frozenset[Channel]] | None = None

    # ------------------------------------------------------------------
    # cid-bitmask views (canonical for the graph builders)
    # ------------------------------------------------------------------
    @staticmethod
    def _as_masks(sets: Mapping[Channel, frozenset[Channel]]) -> dict[int, int]:
        out: dict[int, int] = {}
        for c, members in sets.items():
            m = 0
            for w in members:
                m |= 1 << w.cid
            out[c.cid] = m
        return out

    @property
    def succ_masks(self) -> dict[int, int]:
        """``state cid -> bitmask of successor cids`` (all states)."""
        if self._succ_masks is None:
            self._succ_masks = self._as_masks(self.succ)
        return self._succ_masks

    @property
    def wait_masks(self) -> dict[int, int]:
        """``state cid -> bitmask of immediate waiting-channel cids``."""
        if self._wait_masks is None:
            self._wait_masks = self._as_masks(self.wait)
        return self._wait_masks

    @property
    def downstream_wait_masks(self) -> dict[int, int]:
        """``state cid -> bitmask`` form of :attr:`downstream_wait`."""
        if self._downstream_wait_masks is None:
            self._downstream_wait_masks = self._propagate(self.wait_masks, forward=True)
        return self._downstream_wait_masks

    @property
    def upstream_masks(self) -> dict[int, int]:
        """``state cid -> bitmask`` form of :attr:`upstream`."""
        if self._upstream_masks is None:
            held = {c.cid: 1 << c.cid if c.is_link else 0 for c in self.succ}
            self._upstream_masks = self._propagate(held, forward=False)
        return self._upstream_masks

    @property
    def downstream_node_masks(self) -> dict[int, int]:
        """``state cid -> bitmask of node ids``: the node ``s.dst`` of every
        state ``s`` reachable from the state, itself included."""
        if self._downstream_node_masks is None:
            at = {c.cid: 1 << c.dst for c in self.succ}
            self._downstream_node_masks = self._propagate(at, forward=True)
        return self._downstream_node_masks

    # ------------------------------------------------------------------
    # frozenset adapter views
    # ------------------------------------------------------------------
    def _materialize(self, masks: dict[int, int]) -> dict[Channel, frozenset[Channel]]:
        channel = self.algorithm.network.channel
        memo: dict[int, frozenset[Channel]] = {}
        out: dict[Channel, frozenset[Channel]] = {}
        for c in self.succ:
            m = masks[c.cid]
            fs = memo.get(m)
            if fs is None:
                fs = memo[m] = frozenset(channel(b) for b in bits(m))
            out[c] = fs
        return out

    @property
    def downstream_wait(self) -> dict[Channel, frozenset[Channel]]:
        """CWG out-neighbourhoods: waiting sets over all reachable states."""
        if self._downstream_wait is None:
            self._downstream_wait = self._materialize(self.downstream_wait_masks)
        return self._downstream_wait

    @property
    def upstream(self) -> dict[Channel, frozenset[Channel]]:
        """For each state ``c``: link channels a message at ``c`` may hold.

        The reflexive-transitive predecessors of ``c`` in the state graph,
        restricted to link channels (a held injection channel can never be
        another message's waiting channel).
        """
        if self._upstream is None:
            self._upstream = self._materialize(self.upstream_masks)
        return self._upstream

    def _propagate(self, seed: Mapping[int, int], *, forward: bool) -> dict[int, int]:
        """Reflexive-transitive closure aggregation over the SCC condensation.

        Each state ``c`` contributes the bitmask ``seed[c.cid]``; forward=True
        accumulates it downstream (over every state reachable from a state),
        forward=False upstream (over every state a state is reachable
        from).  Runs on the integer kernel: the state graph is indexed
        locally, Tarjan's decomposition (labels in reverse topological order
        -- every inter-component edge points to a smaller label) gives the
        condensation, and the accumulated bitmasks are OR-ed along
        condensation edges.  Returns ``state cid -> accumulated
        bitmask``.
        """
        states = list(self.succ)
        idx = {c: i for i, c in enumerate(states)}
        n = len(states)
        indptr = [0] * (n + 1)
        indices: list[int] = []
        if forward:
            for i, c in enumerate(states):
                for o in self.succ[c]:
                    indices.append(idx[o])
                indptr[i + 1] = len(indices)
        else:
            rev: list[list[int]] = [[] for _ in range(n)]
            for i, c in enumerate(states):
                for o in self.succ[c]:
                    rev[idx[o]].append(i)
            for i in range(n):
                indices.extend(rev[i])
                indptr[i + 1] = len(indices)
        labels, ncomp = tarjan_scc(n, indptr, indices)
        comp_val = [0] * ncomp
        for i, c in enumerate(states):
            comp_val[labels[i]] |= seed[c.cid]
        # Successor components always carry smaller labels, so visiting
        # vertices by ascending component label reads only finalized values.
        for i in sorted(range(n), key=lambda v: labels[v]):
            li = labels[i]
            acc = comp_val[li]
            for p in range(indptr[i], indptr[i + 1]):
                lj = labels[indices[p]]
                if lj != li:
                    acc |= comp_val[lj]
            comp_val[li] = acc
        return {c.cid: comp_val[labels[i]] for i, c in enumerate(states)}

    def reachable_from(self, start: Channel) -> frozenset[Channel]:
        """States reachable from ``start`` (inclusive)."""
        seen = {start}
        stack = [start]
        while stack:
            c = stack.pop()
            for o in self.succ.get(c, ()):
                if o not in seen:
                    seen.add(o)
                    stack.append(o)
        return frozenset(seen)


class TransitionCache:
    """Lazily builds and caches :class:`DestinationTransitions` per destination."""

    def __init__(self, algorithm: RoutingAlgorithm) -> None:
        self.algorithm = algorithm
        self._cache: dict[int, DestinationTransitions] = {}

    def __getitem__(self, dest: int) -> DestinationTransitions:
        dt = self._cache.get(dest)
        if dt is None:
            dt = self._cache[dest] = DestinationTransitions(self.algorithm, dest)
        return dt

    def peek(self, dest: int) -> DestinationTransitions | None:
        """The cached transitions for ``dest``, or ``None`` -- never builds."""
        return self._cache.get(dest)

    def store(self, dest: int, dt: DestinationTransitions) -> None:
        """Install externally built transitions (the incremental engine's
        seam: it rebuilds dirty destinations under a recorder and hands the
        result back so subsequent lookups reuse it)."""
        self._cache[dest] = dt

    def invalidate(self, dest: int) -> None:
        """Drop the cached transitions for ``dest`` (no-op when absent)."""
        self._cache.pop(dest, None)

    def all_destinations(self) -> Iterator[DestinationTransitions]:
        """Iterate transitions for every node as destination."""
        for dest in self.algorithm.network.nodes:
            yield self[dest]

    def collect_edge_dests(
        self,
        targets: Callable[[DestinationTransitions], Mapping[int, int]],
    ) -> dict[tuple[int, int], int]:
        """Per-edge destination bitmasks over every destination's state walk.

        The one accumulation loop the CDG and CWG builders share:
        ``targets(dt)`` maps a destination's transitions to the per-state
        out-neighbour *bitmask* mapping that defines the edge set --
        ``dt.succ_masks`` for the CDG's immediate dependencies,
        ``dt.downstream_wait_masks`` for the CWG's occupy-while-waiting
        edges.  Returns ``(src_cid, dst_cid) -> destination bitmask``, the
        exact input :class:`~repro.core.depgraph.DepGraph` takes.
        """
        edges: dict[tuple[int, int], int] = {}
        get = edges.get
        for dt in self.all_destinations():
            bit = 1 << dt.dest
            tmap = targets(dt)
            for a in dt.usable_cids:
                for b in bits(tmap[a]):
                    k = (a, b)
                    edges[k] = get(k, 0) | bit
        return edges
