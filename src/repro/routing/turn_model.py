"""Turn-model partially adaptive mesh routing (Glass & Ni).

The turn model breaks every abstract cycle of turns by prohibiting a quarter
of them, giving partially adaptive routing with no virtual channels and an
acyclic channel dependency graph.  The paper's Section 9.2 positions its
Highest Positive Last algorithm against these: negative-first prohibits
``n(n-1)`` 180-degree-free turns absolutely, whereas HPL's restrictions are
conditional.  We implement the three classic 2D variants plus the
n-dimensional negative-first the paper compares against.

All algorithms here are minimal (the optional misrouting extensions of the
originals are not needed for any experiment and would only loosen the
comparisons); all have Duato's ``R(n, d)`` form and are coherent.
"""

from __future__ import annotations

from ..topology.grid import direction_masks
from ..topology.network import Network
from .relation import NodeDestRouting, RoutingError, WaitPolicy


class _MeshTurnBase(NodeDestRouting):
    """Mask-native: a decision ORs per-node direction masks, and every
    permitted output is a waiting channel."""

    wait_policy = WaitPolicy.ANY

    def __init__(self, network: Network) -> None:
        super().__init__(network)
        if network.meta.get("topology") not in ("mesh", "hypercube"):
            raise RoutingError(f"{self.name} requires a mesh network")
        self.ndims = len(network.meta["dims"])
        #: per node, ``2 * dim + (sign > 0) -> cid mask`` of the outputs
        self._moves = direction_masks(network)

    def _deltas(self, node: int, dest: int) -> list[int]:
        coords = self.network.coords
        return [t - h for h, t in zip(coords[node], coords[dest])]


class NegativeFirst(_MeshTurnBase):
    """Negative-first on an n-D mesh: all negative hops before any positive hop.

    At each node the message routes adaptively among the dimensions still
    needing a negative hop; only when none remain may it use positive
    channels (again adaptively).  Prohibits every positive-to-negative turn.
    """

    name = "negative-first"

    def route_masks(self, c_in_cid: int, node: int, dest: int) -> tuple[int, int]:
        if node == dest:
            return 0, 0
        moves = self._moves[node]
        negative = False
        neg = pos = 0
        for dim, delta in enumerate(self._deltas(node, dest)):
            if delta < 0:
                negative = True
                neg |= moves[2 * dim]
            elif delta > 0:
                pos |= moves[2 * dim + 1]
        out = neg if negative else pos
        return out, out


class WestFirst(_MeshTurnBase):
    """West-first on a 2D mesh: all -x hops first, then adaptive among the rest."""

    name = "west-first"

    def __init__(self, network: Network) -> None:
        super().__init__(network)
        if self.ndims != 2:
            raise RoutingError(f"{self.name} is defined for 2D meshes")

    def route_masks(self, c_in_cid: int, node: int, dest: int) -> tuple[int, int]:
        if node == dest:
            return 0, 0
        dx, dy = self._deltas(node, dest)
        moves = self._moves[node]
        if dx < 0:
            out = moves[0]
        else:
            out = moves[1] if dx > 0 else 0
            if dy != 0:
                out |= moves[2 + (dy > 0)]
        return out, out


class NorthLast(_MeshTurnBase):
    """North-last on a 2D mesh: +y hops only once nothing else remains.

    Section 9.2 notes HPL restricted to 2D "is similar to north-last ...
    although our routing algorithm permits messages to make more 180-degree
    turns"; this is the comparison baseline.
    """

    name = "north-last"

    def __init__(self, network: Network) -> None:
        super().__init__(network)
        if self.ndims != 2:
            raise RoutingError(f"{self.name} is defined for 2D meshes")

    def route_masks(self, c_in_cid: int, node: int, dest: int) -> tuple[int, int]:
        if node == dest:
            return 0, 0
        dx, dy = self._deltas(node, dest)
        moves = self._moves[node]
        out = moves[dx > 0] if dx != 0 else 0
        if dy < 0:
            out |= moves[2]
        if dy > 0 and dx == 0:
            out |= moves[3]
        return out, out
