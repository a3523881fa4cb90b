"""The channel waiting graph (Definition 9) -- the paper's central object.

The CWG has a vertex per (virtual) channel and an arc ``(c1, c2)`` whenever
some message, on some permitted path, can *occupy* ``c1`` while *waiting on*
``c2``.  Because message lengths are arbitrary (Assumption 1 / the note
under Definition 9), "occupy while waiting" means ``c2`` is a waiting
channel at *any* routing state reachable after acquiring ``c1`` -- not just
the immediately next hop.  The CWG is a subgraph of the channel dependency
graph restricted to dependencies that can actually stall a message, which
is why requiring it to be (True-Cycle-)acyclic is strictly weaker than every
acyclic-CDG condition.

:class:`ChannelWaitingGraph` is a thin builder over the integer kernel: one
transition walk (shared with the CDG builder via
:meth:`~repro.core.transitions.TransitionCache.collect_edge_dests`) emits a
:class:`~repro.core.depgraph.DepGraph` whose per-edge bitmask records the
destinations that realize each edge; the False-Resource-Cycle classifier
re-derives concrete witness paths from those destinations on demand.
The Channel-object view ``edge_dests`` is an adapter over the kernel and
materializes lazily.
"""

from __future__ import annotations

from typing import Any

from ..routing.relation import RoutingAlgorithm
from ..topology.channel import Channel
from .depgraph import DepGraph, bits
from .transitions import TransitionCache


class ChannelWaitingGraph:
    """The CWG of a routing algorithm, with per-edge destination witnesses."""

    kind = "CWG"

    def __init__(self, algorithm: RoutingAlgorithm, *, transitions: TransitionCache | None = None) -> None:
        self.algorithm = algorithm
        self.transitions = transitions or TransitionCache(algorithm)
        #: the integer-indexed kernel all checkers execute on
        self.dep: DepGraph = DepGraph(
            algorithm.network,
            self.transitions.collect_edge_dests(lambda dt: dt.downstream_wait_masks),
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
    def cache_payload(self) -> list[list[Any]]:
        """JSON-safe edge list ``[[src_cid, dst_cid, [dests...]], ...]``."""
        return [[u, v, list(bits(m))] for u, v, m in self.dep.iter_edges()]

    @classmethod
    def from_cached_edges(
        cls,
        algorithm: RoutingAlgorithm,
        payload: list[list[Any]],
        *,
        transitions: TransitionCache | None = None,
    ) -> ChannelWaitingGraph:
        """Rebuild a graph from :meth:`cache_payload` output without rerunning
        the per-destination waiting-set propagation.  The payload must have
        been produced for an identical ``(network, relation)`` pair -- the
        pipeline guarantees that by fingerprinting both.
        """
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
    ) -> ChannelWaitingGraph:
        """Wrap an already-assembled kernel (the incremental engine's seam).

        ``dep`` must be the CWG kernel of exactly this ``algorithm`` -- the
        incremental session maintains it delta-by-delta and proves the
        equivalence by digest against a cold build.
        """
        self = cls.__new__(cls)
        self.algorithm = algorithm
        self.transitions = transitions or TransitionCache(algorithm)
        self.dep = dep
        self._edge_dests = None
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

    def destinations_for(self, edge: tuple[Channel, Channel]) -> frozenset[int]:
        a, b = edge
        return frozenset(bits(self.dep.mask_of(a.cid, b.cid)))

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


def wait_connected(
    algorithm: RoutingAlgorithm, *, transitions: TransitionCache | None = None
) -> tuple[bool, str]:
    """Definition 10: every reachable routing state has a waiting channel.

    Returns ``(holds, counterexample_description)``.  A state is a pair
    (input channel, node=channel head) reached by some message; at every
    state short of the destination, the waiting set must be a nonempty
    subset of the route set.
    """
    cache = transitions or TransitionCache(algorithm)
    for dt in cache.all_destinations():
        for c, out in dt.succ.items():
            if c.dst == dt.dest:
                continue
            w = dt.wait[c]
            if not w:
                return False, (
                    f"state (input={c!r}, node={c.dst}, dest={dt.dest}) has no waiting channel"
                )
            if not w <= out:
                return False, (
                    f"waiting set at (input={c!r}, node={c.dst}, dest={dt.dest}) "
                    f"is not a subset of the route set"
                )
            if not out:
                return False, (
                    f"state (input={c!r}, node={c.dst}, dest={dt.dest}) has no output channel"
                )
    return True, ""
