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

from ..topology.channel import Channel
from ..topology.grid import direction_moves
from ..topology.network import Network
from .relation import NodeDestRouting, RoutingError, WaitPolicy


class _MeshTurnBase(NodeDestRouting):
    wait_policy = WaitPolicy.ANY

    def __init__(self, network: Network) -> None:
        super().__init__(network)
        if network.meta.get("topology") not in ("mesh", "hypercube"):
            raise RoutingError(f"{self.name} requires a mesh network")
        self.ndims = len(network.meta["dims"])
        #: per node, ``(dim, sign) -> channels`` in ``out_channels`` order
        self._moves = direction_moves(network)

    def _deltas(self, node: int, dest: int) -> list[int]:
        coords = self.network.coords
        return [t - h for h, t in zip(coords[node], coords[dest])]

    def _channels(self, node: int, dim: int, sign: int) -> tuple[Channel, ...]:
        return self._moves[node].get((dim, sign), ())


class NegativeFirst(_MeshTurnBase):
    """Negative-first on an n-D mesh: all negative hops before any positive hop.

    At each node the message routes adaptively among the dimensions still
    needing a negative hop; only when none remain may it use positive
    channels (again adaptively).  Prohibits every positive-to-negative turn.
    """

    name = "negative-first"

    def route_nd(self, node: int, dest: int) -> frozenset[Channel]:
        if node == dest:
            return frozenset()
        deltas = self._deltas(node, dest)
        out: list[Channel] = []
        negs = [d for d, delta in enumerate(deltas) if delta < 0]
        if negs:
            for dim in negs:
                out.extend(self._channels(node, dim, -1))
        else:
            for dim, delta in enumerate(deltas):
                if delta > 0:
                    out.extend(self._channels(node, dim, +1))
        return frozenset(out)


class WestFirst(_MeshTurnBase):
    """West-first on a 2D mesh: all -x hops first, then adaptive among the rest."""

    name = "west-first"

    def __init__(self, network: Network) -> None:
        super().__init__(network)
        if self.ndims != 2:
            raise RoutingError(f"{self.name} is defined for 2D meshes")

    def route_nd(self, node: int, dest: int) -> frozenset[Channel]:
        if node == dest:
            return frozenset()
        dx, dy = self._deltas(node, dest)
        out: list[Channel] = []
        if dx < 0:
            out.extend(self._channels(node, 0, -1))
        else:
            if dx > 0:
                out.extend(self._channels(node, 0, +1))
            if dy != 0:
                out.extend(self._channels(node, 1, +1 if dy > 0 else -1))
        return frozenset(out)


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

    def route_nd(self, node: int, dest: int) -> frozenset[Channel]:
        if node == dest:
            return frozenset()
        dx, dy = self._deltas(node, dest)
        out: list[Channel] = []
        if dx != 0:
            out.extend(self._channels(node, 0, +1 if dx > 0 else -1))
        if dy < 0:
            out.extend(self._channels(node, 1, -1))
        if dy > 0 and dx == 0:
            out.extend(self._channels(node, 1, +1))
        return frozenset(out)
