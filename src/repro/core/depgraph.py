"""The integer-indexed dependency-graph kernel shared by every checker.

PR 2 rebuilt the *simulator* hot path on dense integer arrays; this module
does the same for the *checker* paths.  Every graph the paper's theory
manipulates -- the CDG (Dally & Seitz), the CWG (Definition 9), Duato's
extended CDG -- is a directed graph over the network's channel-id space with
a small integer payload per edge (destination witnesses for CDG/CWG,
dependency types for the ECDG).  :class:`DepGraph` stores exactly that:

* vertices are the dense channel ids ``0 .. num_channels-1`` -- the same id
  space :class:`~repro.routing.relation.RouteTable` and the SoA simulator
  state use, so no translation layer sits between the simulator and the
  checkers;
* adjacency is CSR (``indptr`` / ``indices`` arrays, rows sorted), so
  traversals touch flat integer lists instead of hash tables of
  :class:`~repro.topology.channel.Channel` objects;
* the per-edge payload is a single arbitrary-precision int used as a
  bitmask (destination ``d`` realizes a CWG/CDG edge iff bit ``d`` is set),
  so witness bookkeeping is bit arithmetic, not per-edge Python sets.
  Graphs built from adjacency rows (:meth:`DepGraph.from_rows`, the CWG and
  CDG builders) compute their payloads on demand: the verdict needs only
  the structure until a cycle turns up, so an acyclic graph computes none,
  and :meth:`DepGraph.mask_of` on an edge inside a strongly connected
  component computes only the payloads of such edges.

Cycle questions are answered SCC-first: Tarjan's algorithm decomposes the
graph once, acyclicity and single-cycle extraction read the decomposition
directly, and only full enumeration falls back to Johnson's algorithm --
run *inside* each nontrivial SCC, never on the whole graph.  On the acyclic
CWGs that dominate the catalog this replaces an exhaustive cycle search
(seconds on an 8x8 mesh) with a linear scan.

Channel-level views (``edge_dests`` dicts, :meth:`DepGraph.channel_edges`)
are adapters for reports; this kernel is what the verifiers, the cycle
routines and the Section 8 reduction actually execute on.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Mapping
from typing import TYPE_CHECKING

from ..topology.channel import Channel

if TYPE_CHECKING:
    from ..topology.network import Network


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of_ints(values: Iterable[int]) -> int:
    """Bitmask with one bit per integer in ``values``."""
    m = 0
    for v in values:
        m |= 1 << v
    return m


# ----------------------------------------------------------------------
# Tarjan SCC over raw CSR arrays (reused by transitions' local graphs)
# ----------------------------------------------------------------------
def tarjan_scc(num_vertices: int, indptr: list[int], indices: list[int]) -> tuple[list[int], int]:
    """Strongly connected components of a CSR graph, iteratively.

    Returns ``(labels, count)``.  Labels are assigned in **reverse
    topological order** of the condensation: for every edge ``u -> v``
    crossing components, ``labels[u] > labels[v]``.  Processing components
    in increasing label order therefore visits successors first (the order
    downstream accumulations want); decreasing order is a topological order.
    """
    UNSEEN = -1
    disc = [UNSEEN] * num_vertices
    low = [0] * num_vertices
    labels = [UNSEEN] * num_vertices
    on_stack = bytearray(num_vertices)
    scc_stack: list[int] = []
    counter = 0
    ncomp = 0
    for root in range(num_vertices):
        if disc[root] != UNSEEN:
            continue
        work: list[list[int]] = [[root, indptr[root]]]
        while work:
            frame = work[-1]
            v = frame[0]
            if disc[v] == UNSEEN:
                disc[v] = low[v] = counter
                counter += 1
                scc_stack.append(v)
                on_stack[v] = 1
            advanced = False
            ptr = frame[1]
            end = indptr[v + 1]
            while ptr < end:
                w = indices[ptr]
                ptr += 1
                if disc[w] == UNSEEN:
                    frame[1] = ptr
                    work.append([w, indptr[w]])
                    advanced = True
                    break
                if on_stack[w] and low[w] < low[v]:
                    low[v] = low[w]
            if advanced:
                continue
            work.pop()
            if low[v] == disc[v]:
                while True:
                    w = scc_stack.pop()
                    on_stack[w] = 0
                    labels[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
    return labels, ncomp


def _scc_sets(vertices: set[int], adj: Mapping[int, list[int]]) -> list[set[int]]:
    """SCCs of the subgraph induced on ``vertices`` (dict-adjacency variant)."""
    order = sorted(vertices)
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    indptr = [0] * (n + 1)
    indices: list[int] = []
    for i, v in enumerate(order):
        for w in adj.get(v, ()):
            if w in vertices:
                indices.append(index[w])
        indptr[i + 1] = len(indices)
    labels, ncomp = tarjan_scc(n, indptr, indices)
    comps: list[set[int]] = [set() for _ in range(ncomp)]
    for i, v in enumerate(order):
        comps[labels[i]].add(v)
    return comps


def find_cycle_adj(vertices: set[int], adj: Mapping[int, list[int]]) -> list[int] | None:
    """One directed cycle of a dict-adjacency graph, or ``None`` when acyclic.

    SCC-first and deterministic (lowest-label nontrivial component, start at
    its lowest vertex, walk the lowest in-component successor) -- the
    dict-adjacency twin of :meth:`DepGraph.find_cycle_cids`, chosen to
    return the same witness on the same graph.
    """
    for u in sorted(vertices):
        if u in adj.get(u, ()):
            return [u]
    nontrivial = [c for c in _scc_sets(vertices, adj) if len(c) > 1]
    if not nontrivial:
        return None
    comp = nontrivial[0]
    start = min(comp)
    path = [start]
    pos = {start: 0}
    v = start
    while True:
        v = min(w for w in adj[v] if w in comp)
        if v in pos:
            return path[pos[v]:]
        pos[v] = len(path)
        path.append(v)


def iter_cycles_adj(adj: Mapping[int, list[int]]) -> Iterator[list[int]]:
    """Every simple cycle of a dict-adjacency graph (self-loops included).

    Johnson's algorithm, applied only inside nontrivial strongly connected
    components -- the SCC decomposition both skips acyclic regions entirely
    and bounds each enumeration to its component.  Self-loops (ascending)
    come first, then per-component enumeration.
    """
    loopless: dict[int, list[int]] = {}
    for u in sorted(adj):
        nbrs = adj[u]
        if u in nbrs:
            yield [u]
        trimmed = [w for w in nbrs if w != u]
        if trimmed:
            loopless[u] = trimmed
    adj = loopless
    stack_sccs = [scc for scc in _scc_sets(set(adj), adj) if len(scc) > 1]
    while stack_sccs:
        scc = stack_sccs.pop()
        start = min(scc)
        path = [start]
        blocked = {start}
        closed: set[int] = set()
        B: dict[int, set[int]] = {}
        nbr_stack = [[w for w in adj[start] if w in scc]]
        while nbr_stack:
            nbrs = nbr_stack[-1]
            this = path[-1]
            if nbrs:
                w = nbrs.pop()
                if w == start:
                    yield path[:]
                    closed.update(path)
                elif w not in blocked:
                    path.append(w)
                    nbr_stack.append([x for x in adj[w] if x in scc])
                    closed.discard(w)
                    blocked.add(w)
                    continue
            if not nbrs:
                if this in closed:
                    # cascade unblock
                    relax = [this]
                    while relax:
                        v = relax.pop()
                        if v in blocked:
                            blocked.discard(v)
                            relax.extend(B.pop(v, ()))
                else:
                    for w in adj[this]:
                        if w in scc and this not in B.setdefault(w, set()):
                            B[w].add(this)
                nbr_stack.pop()
                path.pop()
        scc.discard(start)
        stack_sccs.extend(s for s in _scc_sets(scc, adj) if len(s) > 1)


#: computes payloads on demand: given ``src_cid -> bitmask of target cids``,
#: returns ``(src_cid, dst_cid) -> payload`` for each of those edges
PayloadSource = Callable[[Mapping[int, int]], Mapping[tuple[int, int], int]]


class DepGraph:
    """An integer-indexed dependency graph with per-edge payload bitmasks.

    Vertices are the channel ids of ``network`` (all of them -- builders
    decide which subset they consider "their" vertex set; isolated vertices
    cost nothing in CSR).  ``edge_masks`` maps ``(src_cid, dst_cid)`` to a
    nonzero payload mask; :meth:`from_rows` builds the same structure from
    adjacency rows with payloads computed on demand.

    ``witnessed_edges`` counts the edge payloads computed on demand so far
    (0 for a graph built with explicit masks, and for any graph whose
    payloads nobody read).
    """

    __slots__ = ("network", "num_vertices", "indptr", "indices", "_masks",
                 "_rows", "_payloads", "_cycle_masks", "witnessed_edges",
                 "_scc", "_rev", "_fingerprint")

    def __init__(self, network: Network, edge_masks: Mapping[tuple[int, int], int]) -> None:
        self.network = network
        self.num_vertices = n = network.num_channels
        items = sorted(edge_masks.items())
        indptr = [0] * (n + 1)
        indices = [0] * len(items)
        masks = [0] * len(items)
        for i, ((u, v), m) in enumerate(items):
            indptr[u + 1] += 1
            indices[i] = v
            masks[i] = m
        for u in range(n):
            indptr[u + 1] += indptr[u]
        self._init(network, indptr, indices, masks, None, None)

    @classmethod
    def from_rows(cls, network: Network, rows: list[int], payloads: PayloadSource) -> DepGraph:
        """A graph with edge ``u -> v`` iff bit ``v`` of ``rows[u]`` is set.

        ``payloads`` computes edge payloads when a consumer first reads
        them.  The graph keeps ``rows``; callers must not mutate it.
        """
        n = network.num_channels
        indptr = [0] * (n + 1)
        indices: list[int] = []
        for u in range(n):
            r = rows[u]
            if r:
                indices.extend(bits(r))
            indptr[u + 1] = len(indices)
        self = cls.__new__(cls)
        self._init(network, indptr, indices, None, rows, payloads)
        return self

    def _init(
        self,
        network: Network,
        indptr: list[int],
        indices: list[int],
        masks: list[int] | None,
        rows: list[int] | None,
        payloads: PayloadSource | None,
    ) -> None:
        self.network = network
        self.num_vertices = network.num_channels
        self.indptr = indptr
        self.indices = indices
        self._masks = masks
        self._rows = rows
        self._payloads = payloads
        self._cycle_masks: Mapping[tuple[int, int], int] | None = None
        self.witnessed_edges = 0
        self._scc: tuple[list[int], int] | None = None
        self._rev: tuple[list[int], list[int]] | None = None
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    # payloads (computed on first read for graphs built from rows)
    # ------------------------------------------------------------------
    def _compute(self, wanted: Mapping[int, int]) -> Mapping[tuple[int, int], int]:
        assert self._payloads is not None
        got = self._payloads(wanted) if wanted else {}
        self.witnessed_edges += len(got)
        return got

    @property
    def masks(self) -> list[int]:
        """Every edge's payload mask, in CSR order."""
        if self._masks is None:
            assert self._rows is not None
            got = self._compute({u: r for u, r in enumerate(self._rows) if r})
            indptr, indices = self.indptr, self.indices
            self._masks = [
                got[(u, indices[i])]
                for u in range(self.num_vertices)
                for i in range(indptr[u], indptr[u + 1])
            ]
        return self._masks

    def _cycle_payloads(self) -> Mapping[tuple[int, int], int]:
        """Payloads of the edges whose endpoints share a strongly connected
        component: every edge of every cycle, self-loops included."""
        if self._cycle_masks is None:
            assert self._rows is not None
            labels, ncomp = self.scc()
            members = [0] * ncomp
            for v in range(self.num_vertices):
                members[labels[v]] |= 1 << v
            wanted: dict[int, int] = {}
            for u, r in enumerate(self._rows):
                if r:
                    inside = r & members[labels[u]]
                    if inside:
                        wanted[u] = inside
            self._cycle_masks = self._compute(wanted)
        return self._cycle_masks

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def edge_cids(self) -> list[tuple[int, int]]:
        """All edges as ``(src_cid, dst_cid)``, sorted."""
        out: list[tuple[int, int]] = []
        indptr, indices = self.indptr, self.indices
        for u in range(self.num_vertices):
            for i in range(indptr[u], indptr[u + 1]):
                out.append((u, indices[i]))
        return out

    def iter_edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(src_cid, dst_cid, payload_mask)``, sorted by (src, dst)."""
        indptr, indices, masks = self.indptr, self.indices, self.masks
        for u in range(self.num_vertices):
            for i in range(indptr[u], indptr[u + 1]):
                yield u, indices[i], masks[i]

    def succ_cids(self, u: int) -> list[int]:
        """Out-neighbour cids of ``u`` (ascending)."""
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def _edge_index(self, u: int, v: int) -> int:
        lo, hi = self.indptr[u], self.indptr[u + 1]
        i = bisect_left(self.indices, v, lo, hi)
        if i < hi and self.indices[i] == v:
            return i
        return -1

    def has_edge(self, u: int, v: int) -> bool:
        return self._edge_index(u, v) >= 0

    def mask_of(self, u: int, v: int) -> int:
        """Payload mask of edge ``(u, v)`` (0 when absent).

        On a graph built from rows, an edge inside a strongly connected
        component computes only the payloads of such edges; any other edge
        computes them all.
        """
        i = self._edge_index(u, v)
        if i < 0:
            return 0
        if self._masks is None:
            labels, _ = self.scc()
            if labels[u] == labels[v]:
                return self._cycle_payloads()[(u, v)]
        return self.masks[i]

    def target_cids(self) -> set[int]:
        """All cids that appear as an edge target."""
        return set(self.indices)

    def channel_edges(self) -> list[tuple[Channel, Channel]]:
        """Channel-object view of :meth:`edge_cids` (adapter for reports)."""
        ch = self.network.channel
        return [(ch(u), ch(v)) for u, v in self.edge_cids()]

    # ------------------------------------------------------------------
    # SCC-first cycle structure
    # ------------------------------------------------------------------
    def scc(self) -> tuple[list[int], int]:
        """Cached Tarjan decomposition: ``(labels, num_components)``."""
        if self._scc is None:
            self._scc = tarjan_scc(self.num_vertices, self.indptr, self.indices)
        return self._scc

    def refresh_scc_from(self, old: "DepGraph", touched: Iterable[int]) -> dict[str, int]:
        """Delta-aware Tarjan refresh against the predecessor graph ``old``.

        Tarjan labels depend only on the CSR structure (``indptr`` /
        ``indices``, never the payload masks), so a payload-only delta
        transfers the old decomposition verbatim -- no Tarjan runs at all.
        A structural delta recomputes the canonical decomposition (witness
        extraction must stay bit-identical to a cold build, so labels are
        never stitched together incrementally) but bounds its blast radius
        with the dirty-SCC frontier: :func:`dirty_components` over ``old``
        and ``touched`` (the endpoints of every added or removed edge) names
        the only components whose membership may change, every other
        component is checked to survive with its exact membership, and the
        frontier sizes are returned for observability.  ``touched`` from a
        delta that was *not* actually applied makes the frontier unsound --
        the returned ``scc_frontier_violations`` counter (0 in any correct
        run) is the tripwire the differential tests pin.
        """
        stats = {
            "scc_transferred": 0,
            "scc_dirty_components": 0,
            "scc_dirty_vertices": 0,
            "scc_reused_components": 0,
            "scc_frontier_violations": 0,
        }
        if (
            old.num_vertices == self.num_vertices
            and old.indptr == self.indptr
            and old.indices == self.indices
        ):
            self._scc = old.scc()
            stats["scc_transferred"] = 1
            stats["scc_reused_components"] = self._scc[1]
            return stats
        if old.num_vertices != self.num_vertices:
            _, ncomp = self.scc()
            stats["scc_dirty_components"] = ncomp
            stats["scc_dirty_vertices"] = self.num_vertices
            return stats
        dirty = dirty_components(old, touched)
        old_labels, old_ncomp = old.scc()
        new_labels, new_ncomp = self.scc()
        old_sizes = [0] * old_ncomp
        new_sizes = [0] * new_ncomp
        for v in range(self.num_vertices):
            old_sizes[old_labels[v]] += 1
            new_sizes[new_labels[v]] += 1
        # Differential guard: a component outside the frontier must map
        # one-to-one onto a new component with identical membership.
        image: dict[int, int] = {}
        violations = 0
        for v in range(self.num_vertices):
            lo = old_labels[v]
            if lo in dirty:
                continue
            ln = image.setdefault(lo, new_labels[v])
            if ln != new_labels[v] or new_sizes[ln] != old_sizes[lo]:
                violations += 1
        stats["scc_dirty_components"] = len(dirty)
        stats["scc_dirty_vertices"] = sum(old_sizes[c] for c in dirty)
        stats["scc_reused_components"] = old_ncomp - len(dirty)
        stats["scc_frontier_violations"] = violations
        return stats

    def self_loops(self) -> list[int]:
        """Cids with an edge to themselves (ascending)."""
        indptr, indices = self.indptr, self.indices
        return [
            u for u in range(self.num_vertices)
            for i in range(indptr[u], indptr[u + 1]) if indices[i] == u
        ]

    def is_acyclic(self) -> bool:
        """True iff the graph has no directed cycle (self-loops included)."""
        labels, ncomp = self.scc()
        return ncomp == self.num_vertices and not self.self_loops()

    def topo_cids(self) -> list[int] | None:
        """The vertex ids in a topological order, or ``None`` if cyclic.

        Tarjan labels are a reverse topological order of the (singleton)
        components, so sorting by decreasing label is a valid order.
        """
        if not self.is_acyclic():
            return None
        labels, _ = self.scc()
        return sorted(range(self.num_vertices), key=lambda v: -labels[v])

    def find_cycle_cids(self) -> list[int] | None:
        """One directed cycle as a cid list, or ``None`` when acyclic.

        SCC-first: a self-loop or any nontrivial component certifies a
        cycle; the witness walk stays inside that component, so no global
        search happens.  Deterministic (lowest-cid component member, lowest
        successor first).
        """
        loops = self.self_loops()
        if loops:
            return [loops[0]]
        labels, ncomp = self.scc()
        if ncomp == self.num_vertices:
            return None
        counts = [0] * ncomp
        for v in range(self.num_vertices):
            counts[labels[v]] += 1
        target = min(
            (labels[v] for v in range(self.num_vertices) if counts[labels[v]] > 1),
            default=None,
        )
        assert target is not None
        comp = [v for v in range(self.num_vertices) if labels[v] == target]
        start = comp[0]
        inside = set(comp)
        path = [start]
        pos = {start: 0}
        v = start
        while True:
            v = next(w for w in self.succ_cids(v) if w in inside)
            if v in pos:
                return path[pos[v]:]
            pos[v] = len(path)
            path.append(v)

    # ------------------------------------------------------------------
    # full enumeration: Johnson inside each nontrivial SCC
    # ------------------------------------------------------------------
    def iter_cycle_cids(self) -> Iterator[list[int]]:
        """Every simple cycle as a cid list (self-loops included).

        Delegates to :func:`iter_cycles_adj`: Johnson's algorithm inside
        each nontrivial strongly connected component only.
        """
        indptr = self.indptr
        adj = {
            u: self.succ_cids(u)
            for u in range(self.num_vertices)
            if indptr[u] != indptr[u + 1]
        }
        yield from iter_cycles_adj(adj)

    # ------------------------------------------------------------------
    # reachability helpers (the True-Cycle search's pruning substrate)
    # ------------------------------------------------------------------
    def _reverse_csr(self) -> tuple[list[int], list[int]]:
        """Cached transposed adjacency (counting sort; built once per graph)."""
        if self._rev is None:
            n = self.num_vertices
            indptr, indices = self.indptr, self.indices
            rindptr = [0] * (n + 1)
            for v in indices:
                rindptr[v + 1] += 1
            for v in range(n):
                rindptr[v + 1] += rindptr[v]
            rindices = [0] * len(indices)
            pos = list(rindptr)
            for u in range(n):
                for i in range(indptr[u], indptr[u + 1]):
                    v = indices[i]
                    rindices[pos[v]] = u
                    pos[v] += 1
            self._rev = (rindptr, rindices)
        return self._rev

    def reverse_reachable(self, target: int, *, min_cid: int = 0) -> set[int]:
        """Cids with a path to ``target`` through vertices ``>= min_cid``.

        The canonical-rotation pruning of the True-Cycle search: a cycle
        canonicalized at ``target`` only visits cids at least ``target``,
        so segments waiting outside this set can never close the cycle.
        The transposed adjacency is cached on the graph (one counting sort),
        so per-target calls cost only the traversal -- the ``min_cid`` cut
        is applied while walking instead of while building.
        """
        if target < min_cid or target >= self.num_vertices:
            return set()
        rindptr, rindices = self._reverse_csr()
        seen: set[int] = set()
        frontier = [target]
        while frontier:
            v = frontier.pop()
            for i in range(rindptr[v], rindptr[v + 1]):
                u = rindices[i]
                if u >= min_cid and u not in seen:
                    seen.add(u)
                    frontier.append(u)
        return seen

    # ------------------------------------------------------------------
    # content addressing
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content-addressed digest of the CSR arrays (see pipeline docs)."""
        if self._fingerprint is None:
            from ..pipeline.fingerprint import fingerprint_depgraph

            self._fingerprint = fingerprint_depgraph(self)
        return self._fingerprint

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, int | bool]:
        """Headline structure facts (the CLI's ``graph-stats`` payload)."""
        labels, ncomp = self.scc()
        counts = [0] * ncomp
        for v in range(self.num_vertices):
            counts[labels[v]] += 1
        nontrivial = [c for c in counts if c > 1]
        return {
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "self_loops": len(self.self_loops()),
            "sccs": ncomp,
            "nontrivial_sccs": len(nontrivial),
            "largest_scc": max(nontrivial, default=1),
            "acyclic": self.is_acyclic(),
        }

    def __len__(self) -> int:
        return self.num_edges

    def __repr__(self) -> str:
        return (
            f"<DepGraph {self.num_vertices} vertices, {self.num_edges} edges, "
            f"{'acyclic' if self.is_acyclic() else 'cyclic'}>"
        )


def channel_adjacency(network: "Network") -> DepGraph:
    """The link-channel adjacency digraph: ``c -> c'`` iff ``head(c) == tail(c')``.

    The coarsest dependency structure a network supports -- every CDG, CWG,
    and ECDG is a subgraph of it, and the existence decider's incremental
    session refreshes its Tarjan decomposition through
    :meth:`DepGraph.refresh_scc_from` to bound which certificates a link
    delta can invalidate.  Payload masks are 1 (pure structure).
    """
    edges: dict[tuple[int, int], int] = {}
    for c in network.link_channels:
        for c2 in network.out_channels(c.dst):
            edges[(c.cid, c2.cid)] = 1
    return DepGraph(network, edges)


def dirty_components(dep: DepGraph, touched: Iterable[int]) -> set[int]:
    """Condensation labels of ``dep`` whose SCC membership a delta may change.

    ``touched`` holds the endpoints of every edge a structural delta adds to
    or removes from ``dep`` (the *old* graph).  A vertex changes component
    only through a cycle that uses an added edge or an old cycle broken by a
    removed edge; in both cases every affected old component lies on a path
    segment between touched vertices, so it both *reaches* a touched
    component and is *reachable from* one in the old condensation.  The
    dirty frontier is therefore the intersection of the forward and backward
    condensation closures of the touched components; everything outside it
    keeps its membership verbatim (which
    :meth:`DepGraph.refresh_scc_from` verifies differentially).
    """
    labels, ncomp = dep.scc()
    seeds = {labels[v] for v in touched if 0 <= v < dep.num_vertices}
    if not seeds:
        return set()
    fwd: list[set[int]] = [set() for _ in range(ncomp)]
    rev: list[set[int]] = [set() for _ in range(ncomp)]
    indptr, indices = dep.indptr, dep.indices
    for u in range(dep.num_vertices):
        lu = labels[u]
        for i in range(indptr[u], indptr[u + 1]):
            lv = labels[indices[i]]
            if lv != lu:
                fwd[lu].add(lv)
                rev[lv].add(lu)

    def closure(adj: list[set[int]]) -> set[int]:
        seen = set(seeds)
        stack = list(seeds)
        while stack:
            comp = stack.pop()
            for nxt in adj[comp]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    return closure(fwd) & closure(rev)
