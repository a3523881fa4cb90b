"""Per-destination routing-state transition graphs.

Everything the paper's graph theory needs -- channel dependency graphs,
channel waiting graphs, wait-connectivity, reachability of configurations --
reduces to questions about the *routing-state graph* for a fixed
destination ``d``: states are "the message's most recently acquired channel
is ``c``" (so the message sits at node ``c.dst``), the start states are the
injection channels, and the transitions are exactly the routing relation
``R(c, c.dst, d)``.

:class:`DestinationTransitions` walks that graph once per destination, in
channel-id space: states are keyed by cid, each channel's head node and
link flag come from the frozen network (``Network.heads`` /
``Network.link_mask``), and the walk itself fills the canonical
representation -- *cid bitmasks*, one arbitrary-precision int per state,
bit ``i`` set iff channel ``i`` is in the set:

* ``succ_masks[c]`` / ``wait_masks[c]`` -- the permitted outputs and the
  waiting channels (Definition 8) at state ``c``, states in BFS order;
* ``usable_cids`` -- link channels reachable from any injection channel,
  i.e. channels some message headed to ``d`` can actually occupy;
* ``downstream_wait_masks[c]`` -- the union of the waiting masks over every
  state reachable from ``c`` *including itself*: by Definition 9 (arbitrary
  message lengths), these are precisely the channels some message occupying
  ``c`` may end up waiting on, i.e. the CWG out-neighbourhood contributed by
  destination ``d``;
* ``downstream_node_masks[c]`` -- the nodes of every state reachable from
  ``c``, itself included, as a node-id bitmask: what the coherence
  certificate in :mod:`repro.routing.properties` reads (``c`` can still
  reach ``d`` iff bit ``d`` is set), and the linter's deliverability rule
  (an injection channel's mask says which destinations its source reaches).

Reachable-set computation runs on the SCC condensation so cyclic
(nonminimal) relations cost the same as acyclic ones.

The walk's one relation query is
:meth:`~repro.routing.relation.RoutingAlgorithm.route_masks`, which answers
in cid masks directly (a mask-native relation computes them from per-node
tables; a Channel-authored one has them derived from ``route`` and its
waiting hook), and each state's successors are queued in ascending cid
order.  For an ``R(n, d)`` relation
(:func:`~repro.routing.relation.is_node_dest`) the walk evaluates the
relation once per *row* -- once per node -- and every input channel at that
node shares the row's mask pair.

The masks are the one representation: every consumer -- the graph
builders, Definition 10, the Section 7.2 classifier, the Section 8
reduction, Theorem 3's CWG' candidates
(:meth:`DestinationTransitions.with_waits`), the coherence certificate, the
linter and the relation fingerprint -- reads them, and builds a
:class:`~repro.topology.channel.Channel` only for a witness or a message.
``usable`` is the one Channel view left, for the benchmark harness.

:class:`TransitionGraph` is the one builder behind the CWG, the CDG and the
fuzzers' planted immediate-wait CWG: it ORs one per-state target mask per
destination into a single adjacency row per source channel, and leaves the
per-edge destination witnesses to :class:`DestinationWitnesses`, which the
kernel consults only when a consumer reads them.
"""

from __future__ import annotations

import copy
from collections.abc import Callable, Iterator, Mapping, Sequence
from typing import TypeVar

from ..routing.relation import RoutingAlgorithm, is_node_dest
from ..topology.channel import Channel
from .depgraph import DepGraph, bits, tarjan_scc


#: (vertex of each state, indptr, indices, labels, ncomp, order) -- see
#: :meth:`DestinationTransitions._condensation`
_Condensation = tuple[list[int], list[int], list[int], list[int], int, list[int]]


class DestinationTransitions:
    """Routing-state graph of ``algorithm`` for one fixed destination."""

    def __init__(self, algorithm: RoutingAlgorithm, dest: int) -> None:
        self.algorithm = algorithm
        self.dest = dest
        net = algorithm.network
        heads = net.heads
        route_masks = algorithm.route_masks
        #: injection channels that start a journey to ``dest``
        self.starts: list[Channel] = [
            net.injection_channel(n) for n in net.nodes if n != dest
        ]
        succ: dict[int, int] = {}
        wait: dict[int, int] = {}
        #: node -> (route mask, wait mask) for an R(n, d) relation, else ``None``
        rows: dict[int, tuple[int, int]] | None = {} if is_node_dest(algorithm) else None
        # Forward BFS from the injection channels over the routing relation;
        # ``unseen`` is a cid mask, so a state queues only its unseen outputs
        frontier = [c.cid for c in self.starts]
        unseen = (1 << net.num_channels) - 1
        for a in frontier:
            unseen ^= 1 << a
        while frontier:
            nxt: list[int] = []
            for a in frontier:
                node = heads[a]
                if node == dest:
                    succ[a] = wait[a] = 0
                    continue
                if rows is not None:
                    row = rows.get(node)
                    if row is not None:
                        # the row's first state already queued every output
                        succ[a], wait[a] = row
                        continue
                m, w = route_masks(a, node, dest)
                fresh = m & unseen
                if fresh:
                    unseen ^= fresh
                while fresh:
                    low = fresh & -fresh
                    nxt.append(low.bit_length() - 1)
                    fresh ^= low
                succ[a], wait[a] = m, w
                if rows is not None:
                    rows[node] = (m, w)
            frontier = nxt
        #: ``state cid -> bitmask of successor cids``, states in BFS order
        self.succ_masks: dict[int, int] = succ
        #: ``state cid -> bitmask of immediate waiting-channel cids``
        self.wait_masks: dict[int, int] = wait
        links = net.link_mask
        #: the link channels a message headed to ``dest`` can occupy, as
        #: sorted dense cids (the builders' index space)
        self.usable_cids: list[int] = sorted(a for a in succ if links >> a & 1)
        self._downstream_wait_masks: dict[int, int] | None = None
        self._downstream_node_masks: dict[int, int] | None = None
        #: ``node -> (route mask, wait mask)``: the row the walk shared
        #: among the node's states, for an R(n, d) relation; else ``None``
        self.node_rows: dict[int, tuple[int, int]] | None = rows
        self._local: dict[bool, _Condensation] = {}
        self._usable: frozenset[Channel] | None = None

    # ------------------------------------------------------------------
    # derived cid-bitmask views (canonical for the graph builders)
    # ------------------------------------------------------------------
    @property
    def downstream_wait_masks(self) -> dict[int, int]:
        """``state cid -> bitmask`` of the waiting channels of every state
        reachable from the state, itself included: the CWG out-neighbourhood
        (Definition 9) this destination contributes."""
        if self._downstream_wait_masks is None:
            self._downstream_wait_masks = self.propagate(self.wait_masks)
        return self._downstream_wait_masks

    @property
    def downstream_node_masks(self) -> dict[int, int]:
        """``state cid -> bitmask of node ids``: the node ``s.dst`` of every
        state ``s`` reachable from the state, itself included."""
        if self._downstream_node_masks is None:
            heads = self.algorithm.network.heads
            at = {a: 1 << heads[a] for a in self.succ_masks}
            self._downstream_node_masks = self.propagate(at)
        return self._downstream_node_masks

    # the one Channel view left: bench/workloads.py reads it
    @property
    def usable(self) -> frozenset[Channel]:
        """Link channels a message headed to ``dest`` can occupy."""
        if self._usable is None:
            channel = self.algorithm.network.channel
            self._usable = frozenset([channel(a) for a in self.usable_cids])
        return self._usable

    def with_waits(self, wait_masks: dict[int, int]) -> DestinationTransitions:
        """This walk under another waiting discipline: the same states,
        successors, usable channels and state-graph condensation, with
        ``wait_masks`` in place of the relation's waiting sets.

        Theorem 3's CWG' candidates are built this way, without walking the
        relation again.  A candidate discipline need not be a function of
        the node (a repaired one is keyed by input channel), so the copy
        propagates on the state graph.
        """
        dt = copy.copy(self)
        dt.wait_masks = wait_masks
        dt._downstream_wait_masks = None
        dt.node_rows = None
        return dt

    def _condensation(self, by_node: bool) -> _Condensation:
        """The state graph -- or, ``by_node``, the node graph -- on local
        indices, with its SCC condensation (built once per kind).

        The node graph has a vertex per node some state sits at and an arc
        ``n -> o.dst`` per output ``o`` of the node's row; it stands for
        the state graph when every state at a node shares the node's row,
        which the walk guarantees for an ``R(n, d)`` relation.  Returns
        ``(vertex of each state in BFS order, indptr, indices, labels,
        ncomp, order)``: Tarjan's component labels, in reverse topological
        order (every inter-component arc points to a smaller label), and the
        vertices by ascending label.
        """
        got = self._local.get(by_node)
        if got is not None:
            return got
        indices: list[int] = []
        indptr = [0]
        succ = self.succ_masks
        if by_node:
            heads = self.algorithm.network.heads
            pos: dict[int, int] = {}
            outs: list[int] = []
            vertex: list[int] = []
            for a, out in succ.items():
                v = pos.get(heads[a])
                if v is None:
                    v = pos[heads[a]] = len(outs)
                    outs.append(out)
                vertex.append(v)
            for out in outs:
                indices.extend(dict.fromkeys([pos[heads[b]] for b in bits(out)]))
                indptr.append(len(indices))
        else:
            pos = {a: i for i, a in enumerate(succ)}
            vertex = list(range(len(pos)))
            # states sharing a row share its successor mask: index it once
            memo: dict[int, list[int]] = {}
            for out in succ.values():
                loc = memo.get(out)
                if loc is None:
                    loc = memo[out] = [pos[b] for b in bits(out)]
                indices.extend(loc)
                indptr.append(len(indices))
        n = len(indptr) - 1
        labels, ncomp = tarjan_scc(n, indptr, indices)
        order = sorted(range(n), key=labels.__getitem__)
        got = self._local[by_node] = (vertex, indptr, indices, labels, ncomp, order)
        return got

    def propagate(self, seed: Mapping[int, int]) -> dict[int, int]:
        """Reflexive-transitive closure aggregation over the SCC condensation.

        Each state ``a`` contributes the bitmask ``seed[a]``, accumulated
        downstream: a state's value is the OR over every state reachable
        from it.  Runs on the integer kernel (:meth:`_condensation`): the
        accumulated bitmasks are OR-ed along condensation arcs, visiting
        components in label order so every value read is final.  For an
        ``R(n, d)`` walk (:attr:`node_rows` set) the seed must be a function
        of the state's node (every caller's is), and the node graph is used.
        Returns ``state cid -> accumulated bitmask``.
        """
        by_node = self.node_rows is not None
        vertex, indptr, indices, labels, ncomp, order = self._condensation(by_node)
        cids = list(self.succ_masks)
        comp_val = [0] * ncomp
        for v, a in zip(vertex, cids):
            comp_val[labels[v]] |= seed[a]
        # successors carry smaller labels: ascending order pulls from
        # finished components
        for i in order:
            li = labels[i]
            acc = comp_val[li]
            for p in range(indptr[i], indptr[i + 1]):
                lj = labels[indices[p]]
                if lj != li:
                    acc |= comp_val[lj]
            comp_val[li] = acc
        return {a: comp_val[labels[v]] for v, a in zip(vertex, cids)}


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


#: maps a destination's transitions to the per-state out-neighbour masks that
#: define a graph's edges (``succ_masks``, ``wait_masks``, ...)
Targets = Callable[[DestinationTransitions], Mapping[int, int]]


class DestinationWitnesses:
    """Per-edge destination witnesses of a graph built from transition graphs.

    A graph holds one of these instead of per-edge destination masks; the
    kernel (:meth:`~repro.core.depgraph.DepGraph.mask_of`) calls it only
    when a consumer reads a witness.  It keeps the
    :class:`DestinationTransitions` the graph was built from, so a later
    rebuild of the cache they came from (the incremental session's
    dirty-destination walks) never changes an older graph's answers.  A
    graph restored from the pipeline cache was built from no walk; it
    passes its :class:`TransitionCache` and the witnesses read it on first
    use.
    """

    __slots__ = ("_dts", "_targets")

    def __init__(
        self,
        dts: Sequence[DestinationTransitions] | TransitionCache,
        targets: Targets,
    ) -> None:
        self._dts = dts
        self._targets = targets

    def __call__(self, wanted: Mapping[int, int]) -> dict[tuple[int, int], int]:
        """Destination bitmasks of the edges ``wanted`` names.

        ``wanted`` maps a source cid to the bitmask of target cids whose
        edges to witness; returns ``(src_cid, dst_cid) -> destination
        bitmask`` for every such edge.
        """
        dts = self._dts
        if isinstance(dts, TransitionCache):
            dts = self._dts = tuple(dts.all_destinations())
        out: dict[tuple[int, int], int] = {}
        get = out.get
        for dt in dts:
            bit = 1 << dt.dest
            tmap = self._targets(dt)
            usable = dt.usable_cids
            for a in (wanted if len(wanted) < len(usable) else usable):
                t = tmap.get(a, 0) & wanted.get(a, 0)
                for b in bits(t):
                    k = (a, b)
                    out[k] = get(k, 0) | bit
        return out


def adjacency_rows(
    num_channels: int, dts: Sequence[DestinationTransitions], targets: Targets
) -> list[int]:
    """One adjacency bitmask per source cid: the OR of every destination's
    per-state target mask at that channel (usable states only)."""
    rows = [0] * num_channels
    for dt in dts:
        tmap = targets(dt)
        for a in dt.usable_cids:
            rows[a] |= tmap[a]
    return rows


_G = TypeVar("_G", bound="TransitionGraph")


class TransitionGraph:
    """A channel graph whose edges are read off the transition graphs.

    Subclasses name :attr:`targets`: the per-state out-neighbour masks whose
    union over destinations is the edge set (``dt.succ_masks`` for the
    CDG's immediate dependencies, ``dt.downstream_wait_masks`` for the
    CWG's occupy-while-waiting edges).  Construction ORs them into one
    adjacency row per source channel and builds the
    :class:`~repro.core.depgraph.DepGraph` from the rows; the destinations
    realizing each edge are computed on demand (:class:`DestinationWitnesses`)
    -- an acyclic graph never computes any, a cyclic one only those inside
    its strongly connected components unless a consumer asks for all.
    """

    kind = "graph"
    targets: Targets

    def __init__(self, algorithm: RoutingAlgorithm, *, transitions: TransitionCache | None = None) -> None:
        self.algorithm = algorithm
        self.transitions = transitions or TransitionCache(algorithm)
        dts = tuple(self.transitions.all_destinations())
        net = algorithm.network
        #: the integer-indexed kernel all checkers execute on
        self.dep: DepGraph = DepGraph.from_rows(
            net,
            adjacency_rows(net.num_channels, dts, self.targets),
            DestinationWitnesses(dts, self.targets),
        )

    @classmethod
    def from_depgraph(
        cls: type[_G],
        algorithm: RoutingAlgorithm,
        dep: DepGraph,
        *,
        transitions: TransitionCache | None = None,
    ) -> _G:
        """Wrap an already-assembled kernel (the incremental engine's seam).

        ``dep`` must be this graph's kernel for exactly this ``algorithm``
        -- the incremental session maintains it delta-by-delta and proves
        the equivalence by digest against a cold build.
        """
        self = cls.__new__(cls)
        self.algorithm = algorithm
        self.transitions = transitions or TransitionCache(algorithm)
        self.dep = dep
        return self

    # ------------------------------------------------------------------
    @property
    def vertices(self) -> list[Channel]:
        """All link channels of the network (including unused ones)."""
        return self.algorithm.network.link_channels

    @property
    def edges(self) -> list[tuple[Channel, Channel]]:
        return self.dep.channel_edges()

    def is_acyclic(self) -> bool:
        return self.dep.is_acyclic()

    def __contains__(self, edge: tuple[Channel, Channel]) -> bool:
        a, b = edge
        return self.dep.has_edge(a.cid, b.cid)

    def __len__(self) -> int:
        return self.dep.num_edges

    def __repr__(self) -> str:
        return (
            f"<{self.kind} of {self.algorithm.name}: "
            f"{len(self.vertices)} channels, {len(self.dep)} edges>"
        )
