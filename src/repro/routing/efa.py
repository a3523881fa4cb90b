"""Enhanced Fully Adaptive hypercube routing (Section 9.3, Theorems 5-6).

EFA is the paper's fully adaptive *minimal* hypercube algorithm with two
virtual channels per physical channel.  Where every earlier fully adaptive
scheme (Duato's included) forces *nonadaptive* dimension-order routing on
the first VC class, EFA makes the first class partially adaptive:

with ``mu`` = the lowest dimension in which the message still needs to
route,

* the second virtual channel (class index 1) of any needed dimension may be
  used at any time;
* if the message needs to route in the **negative** direction of ``mu``, it
  may use the **first** virtual channel (class index 0) of *any* needed
  dimension;
* if it needs the **positive** direction of ``mu``, the only usable
  first-class channel is that of dimension ``mu`` itself;
* a blocked message waits on ``c^{1,mu}`` -- the first virtual channel of
  the lowest needed dimension (one specific channel, Theorem 2 regime).

The relation depends only on ``(node, dest)`` -- Duato's form -- yet EFA is
**incoherent** (not prefix-closed, Figure 6's example), so Duato's proof
technique still cannot certify it; the CWG condition can, and Theorem 6
shows every one of its first-class restrictions is individually necessary.
:class:`RelaxedEFA` realizes those single-restriction relaxations so the
benchmarks can exhibit the resulting True Cycles and empirical deadlocks.
"""

from __future__ import annotations

from ..topology.grid import dimension_masks
from ..topology.hypercube import differing_dimensions
from ..topology.network import Network
from .relation import NodeDestRouting, RoutingError, WaitPolicy


class EnhancedFullyAdaptive(NodeDestRouting):
    """The Enhanced Fully Adaptive routing algorithm on a hypercube with 2 VCs.

    Mask-native: a decision ORs per-node, per-dimension masks of the two
    classes.

    Parameters
    ----------
    wait_any:
        Use the Section 9.3 "Note" variant permitting a blocked message to
        wait on any permitted output (Theorem 3 regime; its CWG' equals the
        default algorithm's CWG).  Default: wait on ``c^{1,mu}`` only.
    """

    name = "enhanced-fully-adaptive"

    def __init__(self, network: Network, *, wait_any: bool = False) -> None:
        super().__init__(network)
        if network.meta.get("topology") != "hypercube":
            raise RoutingError(f"{self.name} requires a hypercube network")
        if network.max_vcs() < 2:
            raise RoutingError(f"{self.name} needs 2 virtual channels per link")
        self.dimension: int = network.meta["dimension"]
        self.wait_policy = WaitPolicy.ANY if wait_any else WaitPolicy.SPECIFIC
        self._wait_any = wait_any
        #: per node, ``dim -> cid mask`` of the first (VC 0) and the second
        #: (VC 1) class's output
        self._first = dimension_masks(network, vc=0)
        self._second = dimension_masks(network, vc=1)

    # ------------------------------------------------------------------
    def _needed(self, node: int, dest: int) -> list[int]:
        return differing_dimensions(node, dest)

    def _needs_negative(self, node: int, dim: int) -> bool:
        """Minimal routing flips bit ``dim``; negative means the bit is 1."""
        return bool((node >> dim) & 1)

    def first_class_dims(self, node: int, dest: int) -> list[int]:
        """Needed dimensions whose *first* virtual channel is permitted."""
        needed = self._needed(node, dest)
        if not needed:
            return []
        mu = needed[0]
        if self._needs_negative(node, mu):
            return needed
        return [mu]

    def route_masks(self, c_in_cid: int, node: int, dest: int) -> tuple[int, int]:
        if node == dest:
            return 0, 0
        first, second = self._first[node], self._second[node]
        needed = self._needed(node, dest)
        route = 0
        for dim in needed:
            route |= second[dim]
        for dim in self.first_class_dims(node, dest):
            route |= first[dim]
        if self._wait_any:
            return route, route
        # c^(1,mu): the first class of the lowest needed dimension
        wait = route & first[needed[0]]
        if not wait:
            raise RoutingError(f"{self.name}: c^(1,mu) missing from permitted set at node {node}")
        return route, wait


class RelaxedEFA(EnhancedFullyAdaptive):
    """EFA with one first-class restriction lifted (the Theorem 6 construction).

    Theorem 6: EFA's only restriction is that, when the lowest needed
    dimension ``mu`` requires a positive hop, no first-class channel of a
    higher dimension may be used.  There is one such prohibition per ordered
    pair of dimensions ``(mu, j)`` with ``j > mu``; relaxing any single one
    re-creates a True Cycle in the CWG and therefore a reachable deadlock.

    Parameters
    ----------
    pair:
        The ``(mu, j)`` prohibition to lift, ``mu < j``.  ``None`` lifts all
        of them (a "maximally relaxed" strawman that is unrestricted on both
        VC classes).
    """

    name = "relaxed-efa"

    def __init__(self, network: Network, *, pair: tuple[int, int] | None = None, wait_any: bool = False) -> None:
        super().__init__(network, wait_any=wait_any)
        if pair is not None:
            mu, j = pair
            if not 0 <= mu < j < self.dimension:
                raise RoutingError(f"invalid relaxation pair {pair} for dimension {self.dimension}")
        self.pair = pair

    def first_class_dims(self, node: int, dest: int) -> list[int]:
        needed = self._needed(node, dest)
        if not needed:
            return []
        mu = needed[0]
        if self._needs_negative(node, mu):
            return needed
        if self.pair is None:
            return needed  # all prohibitions lifted
        rmu, rj = self.pair
        if mu == rmu and rj in needed:
            return [mu, rj]  # the single lifted prohibition
        return [mu]
