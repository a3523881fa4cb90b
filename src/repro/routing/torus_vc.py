"""Dally--Seitz dimension-order torus routing with dateline virtual channels.

The classic 1987 construction that motivated virtual channels: dimension-order
routing on a k-ary n-cube deadlocks because each ring is a cycle, so each
unidirectional link carries two virtual channels and a message switches from
the "high" class to the "low" class when it crosses the dateline (the
wrap-around link).  Locally this is decided by comparing the current and
destination coordinates, so the relation has Duato's ``R(n, d)`` form and an
acyclic channel dependency graph.

Used here as (a) a baseline verified by the Dally--Seitz checker, (b) the
escape layer inside Duato's fully adaptive torus algorithm, and (c) the
backbone of the Figure-4 ring example.
"""

from __future__ import annotations

from ..topology.grid import direction_masks
from ..topology.network import Network
from .relation import NodeDestRouting, RoutingError, WaitPolicy


class DallySeitzTorus(NodeDestRouting):
    """Dimension-order k-ary n-cube routing with 2 dateline VCs per link.

    VC class 0 ("high") is used while the remaining route in the current
    dimension still crosses the wrap-around link; class 1 ("low") once it no
    longer does.  Ties in direction choice go to the positive direction.

    ``vc_base`` lets the two dateline classes live at VC indices
    ``vc_base`` and ``vc_base + 1`` so adaptive algorithms can stack extra
    classes on the same links.

    Mask-native: a decision reads one per-node direction mask of the
    chosen class.
    """

    name = "dally-seitz-torus"
    wait_policy = WaitPolicy.SPECIFIC

    def __init__(self, network: Network, *, vc_base: int = 0) -> None:
        super().__init__(network)
        if network.meta.get("topology") not in ("torus", "ring"):
            raise RoutingError(f"{self.name} requires a torus network")
        self.dims: tuple[int, ...] = network.meta["dims"]
        if network.max_vcs() < vc_base + 2:
            raise RoutingError(f"{self.name} needs >= {vc_base + 2} VCs per link")
        self.vc_base = vc_base
        self.unidirectional = bool(network.meta.get("unidirectional", False))
        #: per node, ``2 * dim + (sign > 0) -> cid mask`` of the "high"
        #: (before the dateline) and the "low" class
        self._high = direction_masks(network, vc=vc_base)
        self._low = direction_masks(network, vc=vc_base + 1)

    def direction(self, dim: int, here: int, there: int) -> int:
        """Travel direction in ``dim``: shortest way around, ties positive."""
        radix = self.dims[dim]
        fwd = (there - here) % radix
        bwd = (here - there) % radix
        if self.unidirectional:
            return +1
        return +1 if fwd <= bwd else -1

    def crosses_dateline(self, dim: int, here: int, there: int, sign: int) -> bool:
        """Does the remaining route in ``dim`` traverse the wrap link?"""
        # Going positive, the wrap link is (radix-1) -> 0: crossed iff the
        # destination coordinate is "behind" us.  Symmetrically going negative.
        if sign > 0:
            return there < here
        return there > here

    def route_masks(self, c_in_cid: int, node: int, dest: int) -> tuple[int, int]:
        if node == dest:
            return 0, 0
        coords = self.network.coords
        for dim, (h, t) in enumerate(zip(coords[node], coords[dest])):
            if h != t:
                sign = self.direction(dim, h, t)
                high = self.crosses_dateline(dim, h, t, sign)
                out = (self._high if high else self._low)[node][2 * dim + (sign > 0)]
                if not out:
                    vc = self.vc_base + (0 if high else 1)
                    raise RoutingError(
                        f"{self.name}: missing channel dim={dim} sign={sign} vc={vc} at node {node}"
                    )
                return out, out
        return 0, 0
