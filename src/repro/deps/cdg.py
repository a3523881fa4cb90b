"""The channel dependency graph (Dally & Seitz 1987).

Vertices are virtual channels; there is an arc from ``c1`` to ``c2`` when a
message is permitted to use ``c2`` *immediately after* ``c1``.  An acyclic
CDG is necessary and sufficient for deadlock freedom of nonadaptive routing
and sufficient (but too strong) for adaptive routing -- the baseline every
other condition in this repository is measured against.

Only dependencies that some message can actually exercise are included: the
input channel must be reachable from an injection channel for the relevant
destination (otherwise the "dependency" involves a state no message is ever
in).  Per-edge destination witnesses are recorded, mirroring
:class:`repro.core.cwg.ChannelWaitingGraph` -- both builders run the same
transition walk
(:meth:`~repro.core.transitions.TransitionCache.collect_edge_dests`, the
CDG over ``dt.succ``, the CWG over ``dt.downstream_wait``) and emit a
:class:`~repro.core.depgraph.DepGraph` the verifiers execute on.
"""

from __future__ import annotations

from ..core.depgraph import DepGraph, bits
from ..core.transitions import TransitionCache
from ..routing.relation import RoutingAlgorithm
from ..topology.channel import Channel


class ChannelDependencyGraph:
    """The CDG of a routing algorithm, with per-edge destination witnesses."""

    kind = "CDG"

    def __init__(self, algorithm: RoutingAlgorithm, *, transitions: TransitionCache | None = None) -> None:
        self.algorithm = algorithm
        self.transitions = transitions or TransitionCache(algorithm)
        #: the integer-indexed kernel all checkers execute on
        self.dep: DepGraph = DepGraph(
            algorithm.network,
            self.transitions.collect_edge_dests(lambda dt: dt.succ_masks),
        )
        self._edge_dests: dict[tuple[Channel, Channel], set[int]] | None = None

    # ------------------------------------------------------------------
    # Channel-level adapter views
    # ------------------------------------------------------------------
    @property
    def edge_dests(self) -> dict[tuple[Channel, Channel], set[int]]:
        """edge -> destinations whose traffic realizes it (adapter view)."""
        if self._edge_dests is None:
            channel = self.algorithm.network.channel
            self._edge_dests = {
                (channel(u), channel(v)): set(bits(m))
                for u, v, m in self.dep.iter_edges()
            }
        return self._edge_dests

    # ------------------------------------------------------------------
    # content-addressed cache hooks (repro.pipeline)
    # ------------------------------------------------------------------
    def cache_payload(self) -> list[list]:
        """JSON-safe edge list ``[[src_cid, dst_cid, [dests...]], ...]``."""
        return [[u, v, list(bits(m))] for u, v, m in self.dep.iter_edges()]

    @classmethod
    def from_cached_edges(
        cls,
        algorithm: RoutingAlgorithm,
        payload: list[list],
        *,
        transitions: TransitionCache | None = None,
    ) -> "ChannelDependencyGraph":
        """Rebuild from :meth:`cache_payload` output for an identical
        ``(network, relation)`` pair (the pipeline fingerprints both)."""
        self = cls.__new__(cls)
        self.algorithm = algorithm
        self.transitions = transitions or TransitionCache(algorithm)
        masks: dict[tuple[int, int], int] = {}
        for a, b, dests in payload:
            m = 0
            for d in dests:
                m |= 1 << d
            masks[(a, b)] = m
        self.dep = DepGraph(algorithm.network, masks)
        self._edge_dests = None
        return self

    @classmethod
    def from_depgraph(
        cls,
        algorithm: RoutingAlgorithm,
        dep: DepGraph,
        *,
        transitions: TransitionCache | None = None,
    ) -> "ChannelDependencyGraph":
        """Wrap an already-assembled kernel (the incremental engine's seam);
        ``dep`` must be the CDG kernel of exactly this ``algorithm``."""
        self = cls.__new__(cls)
        self.algorithm = algorithm
        self.transitions = transitions or TransitionCache(algorithm)
        self.dep = dep
        self._edge_dests = None
        return self

    @property
    def vertices(self) -> list[Channel]:
        return self.algorithm.network.link_channels

    @property
    def edges(self) -> list[tuple[Channel, Channel]]:
        return self.dep.channel_edges()

    def is_acyclic(self) -> bool:
        return self.dep.is_acyclic()

    def numbering(self) -> dict[Channel, int] | None:
        """A strictly increasing channel numbering if the CDG is acyclic.

        Dally & Seitz prove deadlock freedom by exhibiting such a numbering;
        returns ``None`` when the CDG is cyclic.  The order is read off the
        kernel's SCC labels (a topological order when every component is a
        singleton), restricted to the CDG's vertex set.
        """
        topo = self.dep.topo_cids()
        if topo is None:
            return None
        verts = {c.cid: c for c in self.vertices}
        order = [cid for cid in topo if cid in verts]
        return {verts[cid]: i for i, cid in enumerate(order)}

    def destinations_for(self, edge: tuple[Channel, Channel]) -> frozenset[int]:
        a, b = edge
        return frozenset(bits(self.dep.mask_of(a.cid, b.cid)))

    def __len__(self) -> int:
        return self.dep.num_edges

    def __repr__(self) -> str:
        return (
            f"<{self.kind} of {self.algorithm.name}: "
            f"{len(self.vertices)} channels, {len(self.dep)} edges>"
        )
