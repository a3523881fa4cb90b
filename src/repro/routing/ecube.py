"""Nonadaptive dimension-order (e-cube) routing for meshes and hypercubes.

The canonical baseline: correct each dimension in increasing order, one fixed
path per source-destination pair.  Its channel dependency graph is acyclic
(Dally & Seitz 1987), it is coherent, and its degree of adaptiveness is
``1/k!`` at distance ``k`` -- the bottom curve of the paper's Figure 5.
"""

from __future__ import annotations

from ..topology.grid import dimension_masks, direction_masks
from ..topology.network import Network
from .relation import NodeDestRouting, RoutingError, WaitPolicy


class DimensionOrderMesh(NodeDestRouting):
    """Dimension-order routing on an n-D mesh (XY routing in 2D).

    Parameters
    ----------
    vc:
        Which virtual channel index to use on each link (``None`` = permit
        every VC of the chosen link; the *physical* path stays unique, so
        the algorithm remains nonadaptive in the Figure-5 sense only when
        the network has one VC per link or ``vc`` is fixed).
    """

    name = "e-cube-mesh"
    wait_policy = WaitPolicy.SPECIFIC

    def __init__(self, network: Network, *, vc: int | None = 0) -> None:
        super().__init__(network)
        if network.meta.get("topology") not in ("mesh", "hypercube"):
            raise RoutingError(f"{self.name} requires a mesh-like network, got {network.name}")
        self.vc = vc
        #: per node, ``2 * dim + (sign > 0) -> cid mask`` of the permitted VC's outputs
        self._moves = direction_masks(network, vc=vc)

    def route_masks(self, c_in_cid: int, node: int, dest: int) -> tuple[int, int]:
        if node == dest:
            return 0, 0
        coords = self.network.coords
        for dim, (h, t) in enumerate(zip(coords[node], coords[dest])):
            if h != t:
                out = self._moves[node][2 * dim + (t > h)]
                if not out:
                    sign = 1 if t > h else -1
                    raise RoutingError(f"{self.name}: no channel dim={dim} sign={sign} at node {node}")
                return out, out
        return 0, 0


class DimensionOrderHypercube(NodeDestRouting):
    """E-cube routing on a binary hypercube: correct the lowest differing bit.

    Equivalent to :class:`DimensionOrderMesh` on the (2,...,2) mesh but works
    directly on node-id bits, matching the Section 9.3 conventions.
    """

    name = "e-cube"
    wait_policy = WaitPolicy.SPECIFIC

    def __init__(self, network: Network, *, vc: int | None = 0) -> None:
        super().__init__(network)
        if network.meta.get("topology") != "hypercube":
            raise RoutingError(f"{self.name} requires a hypercube network")
        self.vc = vc
        #: per node, ``dim -> cid mask`` of the permitted VC's outputs
        self._dims = dimension_masks(network, vc=vc)

    def route_masks(self, c_in_cid: int, node: int, dest: int) -> tuple[int, int]:
        diff = node ^ dest
        if not diff:
            return 0, 0
        out = self._dims[node][(diff & -diff).bit_length() - 1]  # lowest set bit
        return out, out
