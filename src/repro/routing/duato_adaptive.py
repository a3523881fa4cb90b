"""Duato's fully adaptive routing algorithms (the ICPP'94 / TPDS'93 designs).

The construction the titled paper is famous for: split the virtual channels
into a restricted *escape* class whose extended channel dependency graph is
acyclic, and an unrestricted *adaptive* class a message may use whenever a
channel is free.  Deadlock freedom follows from Duato's theorem because the
escape class forms a connected routing subfunction.

Concretely, with two VCs per link on a mesh or hypercube:

* VC class 0 (escape): dimension-order routing -- only the lowest dimension
  still needing correction, in the needed direction;
* VC class 1 (adaptive): any channel on any minimal path.

On a torus the escape class is the two-VC Dally--Seitz dateline scheme, for
three VCs per link total.

These are the "Duato" curves/bars of Figure 5 and the simulation benches,
and the primary fixture for the Duato-condition verifier: the relation has
form ``R(n, d)``, is coherent, and provides minimal paths, so *both*
necessary-and-sufficient conditions apply to it and must agree.
"""

from __future__ import annotations

from ..topology.grid import direction_masks
from ..topology.network import Network
from .relation import NodeDestRouting, RoutingError, WaitPolicy
from .torus_vc import DallySeitzTorus


class DuatoFullyAdaptiveMesh(NodeDestRouting):
    """Duato's fully adaptive algorithm on an n-D mesh (2 VCs per link).

    Also serves hypercubes built as ``(2, ..., 2)`` meshes; see
    :class:`DuatoFullyAdaptiveHypercube` for the bit-level variant.

    Mask-native: a decision ORs, per dimension still to correct, the VC-1
    outputs stepping toward the destination, plus the VC-0 output of the
    lowest such dimension -- the escape class and the waiting set.
    """

    name = "duato-mesh"
    wait_policy = WaitPolicy.SPECIFIC

    def __init__(self, network: Network) -> None:
        super().__init__(network)
        if network.meta.get("topology") not in ("mesh", "hypercube"):
            raise RoutingError(f"{self.name} requires a mesh-like network")
        if network.max_vcs() < 2:
            raise RoutingError(f"{self.name} needs 2 virtual channels per link")
        self.ndims = len(network.meta["dims"])
        #: per node, ``2 * dim + (sign > 0) -> cid mask`` of the adaptive
        #: (VC 1) and the escape (VC 0) outputs
        self._adaptive = direction_masks(network, vc=1)
        self._escape = direction_masks(network, vc=0)

    def route_masks(self, c_in_cid: int, node: int, dest: int) -> tuple[int, int]:
        if node == dest:
            return 0, 0
        coords = self.network.coords
        adaptive = self._adaptive[node]
        route = 0
        esc = -1
        for dim, (h, t) in enumerate(zip(coords[node], coords[dest])):
            if h != t:
                k = 2 * dim + (t > h)
                route |= adaptive[k]
                if esc < 0:
                    # the escape class corrects the lowest differing dimension
                    esc = k
        wait = self._escape[node][esc]
        if not wait:
            raise RoutingError(f"{self.name}: escape channel missing at node {node}")
        return route | wait, wait


class DuatoFullyAdaptiveHypercube(DuatoFullyAdaptiveMesh):
    """Duato's fully adaptive hypercube algorithm (2 VCs per link).

    Identical structure to the mesh variant; kept as its own class so the
    Figure-5 and simulator configs can name it directly and so hypercube
    networks built by :func:`repro.topology.build_hypercube` type-check.
    """

    name = "duato-hypercube"

    def __init__(self, network: Network) -> None:
        super().__init__(network)
        if network.meta.get("topology") != "hypercube":
            raise RoutingError(f"{self.name} requires a hypercube network")


class DuatoFullyAdaptiveTorus(NodeDestRouting):
    """Duato's fully adaptive torus algorithm (3 VCs per link).

    Escape class: Dally--Seitz dateline pair at VC indices 0 and 1;
    adaptive class: VC index 2, any minimal move (shortest way around each
    ring, both directions when equidistant).  Mask-native: the escape
    relation's mask is the waiting set, and the adaptive outputs come from
    per-node VC-2 direction masks.
    """

    name = "duato-torus"
    wait_policy = WaitPolicy.SPECIFIC

    def __init__(self, network: Network) -> None:
        super().__init__(network)
        if network.meta.get("topology") not in ("torus", "ring"):
            raise RoutingError(f"{self.name} requires a torus network")
        if network.max_vcs() < 3:
            raise RoutingError(f"{self.name} needs 3 virtual channels per link")
        self.escape = DallySeitzTorus(network, vc_base=0)
        self.dims: tuple[int, ...] = network.meta["dims"]
        #: per node, ``2 * dim + (sign > 0) -> cid mask`` of the VC-2 outputs
        self._adaptive = direction_masks(network, vc=2)

    def _minimal_moves(self, node: int, dest: int) -> list[tuple[int, int]]:
        here = self.network.coord(node)
        there = self.network.coord(dest)
        moves: list[tuple[int, int]] = []
        for dim, radix in enumerate(self.dims):
            if here[dim] == there[dim]:
                continue
            fwd = (there[dim] - here[dim]) % radix
            bwd = (here[dim] - there[dim]) % radix
            if fwd <= bwd:
                moves.append((dim, +1))
            if bwd <= fwd:
                moves.append((dim, -1))
        return moves

    def route_masks(self, c_in_cid: int, node: int, dest: int) -> tuple[int, int]:
        if node == dest:
            return 0, 0
        # the escape part, the dateline pair at VC indices 0 and 1, is the waiting set
        wait = self.escape.route_masks(c_in_cid, node, dest)[0]
        adaptive = self._adaptive[node]
        route = wait
        for dim, sign in self._minimal_moves(node, dest):
            route |= adaptive[2 * dim + (sign > 0)]
        return route, wait
