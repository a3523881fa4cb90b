"""Unrestricted minimal adaptive routing -- the canonical deadlock-prone
algorithm.

"A routing algorithm with no restrictions on the use of virtual or physical
channels can result in deadlock" (Dally & Seitz, quoted in Section 1).  This
relation permits every minimal move on every virtual channel with no
restrictions whatsoever; on any topology with a cycle (a mesh quadrilateral,
any ring) its CWG has True Cycles and the simulator can realize them.  It
exists as the negative fixture for the verifiers and the empirical deadlock
benchmarks.
"""

from __future__ import annotations

from ..topology.channel import Channel
from ..topology.network import Network
from .relation import NodeDestRouting, RoutingError, WaitPolicy


class UnrestrictedMinimal(NodeDestRouting):
    """Any minimal move, any virtual channel, wait on anything.

    Works on any topology with coordinates (mesh/torus/hypercube); minimal
    moves are hops that reduce the distance to the destination.

    ``wait_any=False`` switches to the Theorem-2 regime: a blocked message
    designates the lowest-cid permitted channel and waits for it alone.
    """

    name = "unrestricted-minimal"

    def __init__(self, network: Network, *, wait_any: bool = True) -> None:
        super().__init__(network)
        if "dims" not in network.meta:
            raise RoutingError(f"{self.name} requires a grid-like network")
        self._dist = network.shortest_distances()
        self.wait_policy = WaitPolicy.ANY if wait_any else WaitPolicy.SPECIFIC
        self._wait_any = wait_any

    def route_nd(self, node: int, dest: int) -> frozenset[Channel]:
        if node == dest:
            return frozenset()
        d = self._dist[node][dest]
        return frozenset(
            c for c in self.network.out_channels(node)
            if self._dist[c.dst][dest] == d - 1
        )

    def waiting_subset(self, c_in: Channel, node: int, dest: int,
                       permitted: frozenset[Channel]) -> frozenset[Channel]:
        if self._wait_any or not permitted:
            return permitted
        return frozenset([min(permitted, key=lambda c: c.cid)])
