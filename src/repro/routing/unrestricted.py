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

from ..topology.network import Network
from .relation import NodeDestRouting, RoutingError, WaitPolicy


class UnrestrictedMinimal(NodeDestRouting):
    """Any minimal move, any virtual channel, wait on anything.

    Works on any topology with coordinates (mesh/torus/hypercube); minimal
    moves are hops that reduce the distance to the destination.

    ``wait_any=False`` switches to the Theorem-2 regime: a blocked message
    designates the lowest-cid permitted channel and waits for it alone.

    Mask-native: a decision ORs the bits of the node's outputs whose head
    is one hop closer to the destination.
    """

    name = "unrestricted-minimal"

    def __init__(self, network: Network, *, wait_any: bool = True) -> None:
        super().__init__(network)
        if "dims" not in network.meta:
            raise RoutingError(f"{self.name} requires a grid-like network")
        self._dist = network.shortest_distances()
        self.wait_policy = WaitPolicy.ANY if wait_any else WaitPolicy.SPECIFIC
        self._wait_any = wait_any
        #: per node, ``(cid bit, head node)`` of each output
        self._outs = [[(1 << c.cid, c.dst) for c in network.out_channels(n)]
                      for n in network.nodes]

    def route_masks(self, c_in_cid: int, node: int, dest: int) -> tuple[int, int]:
        if node == dest:
            return 0, 0
        dist = self._dist
        closer = dist[node][dest] - 1
        route = 0
        for bit, head in self._outs[node]:
            if dist[head][dest] == closer:
                route |= bit
        if self._wait_any:
            return route, route
        return route, route & -route
