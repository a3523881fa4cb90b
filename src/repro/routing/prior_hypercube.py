"""Prior partially adaptive hypercube algorithms surveyed in Section 9.1.

Implemented from the paper's own descriptions, as comparison baselines for
EFA's adaptiveness claims:

* **Draper & Ghosh (MECA)** -- two virtual channels: "Each message routes in
  dimension order along the first set of channels, but may skip some
  dimensions in which the message needs to route.  The message then routes
  in dimension order along the second set of channels.  The message can no
  longer skip dimensions and must wait for the channels to become free."
* **Yang & Tsai** -- two virtual channels: "A message first uses any
  dimension in which it needs to route in a positive direction.  When the
  message finishes with all such dimensions or finds them all busy, the
  message repeats this process for all negative directions.  The message
  then switches to the second set of virtual channels and routes first in
  all remaining positive directions and then in all remaining negative
  directions, waiting for busy channels when necessary."
* **Li** -- one virtual channel, minimum restrictions with edge-disjoint
  paths for many pairs; reconstructed here as the classic "correct dimension
  0 last" rule: on the first class of dimensions (all but the lowest) route
  adaptively, and cross dimension 0 only... Li's precise table is not in the
  supplied text, so this class implements the *order-based* reading: a
  message may correct its needed dimensions in any order as long as every
  dimension correction is followed only by strictly **lower** adaptive
  freedom -- i.e. adaptive among needed dimensions above the highest already
  corrected... which degenerates; instead we implement the documented
  "P-cube"-style rule that is provably deadlock-free with one VC: route
  adaptively among needed dimensions whose index is **greater** than every
  dimension still needed below the last corrected one -- concretely, correct
  the needed dimensions in increasing order but allow any *run* of
  consecutive needed dimensions to be permuted when they share direction
  sign.  This preserves Li's headline property (more paths than e-cube, one
  VC, acyclic CDG); see ``LiStyleHypercube`` for the exact rule.

All three keep acyclic channel dependency graphs, so both Dally--Seitz and
the CWG condition certify them -- verified in the tests.
"""

from __future__ import annotations

from ..topology.grid import dimension_masks
from ..topology.hypercube import differing_dimensions
from ..topology.network import Network
from .relation import NodeDestRouting, RoutingError, WaitPolicy


class _HypercubeBase(NodeDestRouting):
    """Mask-native: a decision ORs per-node, per-dimension masks of the
    first (VC 0) and the second (VC 1) class."""

    def __init__(self, network: Network, *, min_vcs: int) -> None:
        super().__init__(network)
        if network.meta.get("topology") != "hypercube":
            raise RoutingError(f"{self.name} requires a hypercube network")
        if network.max_vcs() < min_vcs:
            raise RoutingError(f"{self.name} needs {min_vcs} virtual channels per link")
        self.dimension: int = network.meta["dimension"]
        #: per node, ``dim -> cid mask`` of each class's output
        self._first = dimension_masks(network, vc=0)
        self._second = dimension_masks(network, vc=1)


class DraperGhoshMECA(_HypercubeBase):
    """Multipath E-Cube: skip-ahead on VC class 0, strict e-cube on class 1.

    On the first class a message may correct *any* needed dimension at or
    above the lowest (skipping lower ones for later); skipped dimensions are
    corrected on the second class in strict increasing order, which is where
    a blocked message waits.  The class-0 relation only ever moves to higher
    dimensions, the class-1 relation is plain e-cube above class 0, so the
    CDG is acyclic.
    """

    name = "draper-ghosh-meca"
    wait_policy = WaitPolicy.SPECIFIC

    def __init__(self, network: Network) -> None:
        super().__init__(network, min_vcs=2)

    def route_masks(self, c_in_cid: int, node: int, dest: int) -> tuple[int, int]:
        if node == dest:
            return 0, 0
        needed = differing_dimensions(node, dest)
        first = self._first[node]
        route = 0
        # First class: any needed dimension (skipping permitted) -- but a
        # message that has "passed" a dimension cannot come back on class 0.
        # Locally that means class 0 offers every needed dimension >= the
        # lowest needed one that it could still correct in increasing order;
        # since any needed dimension qualifies going upward, class 0 offers
        # them all.  Monotonicity (and hence acyclicity) comes from the
        # dependency structure: class-0 hops strictly increase the lowest
        # *corrected* dimension.
        for dim in needed:
            route |= first[dim]
        # Second class: strict dimension order, the escape and waiting layer.
        wait = self._second[node][needed[0]]
        return route | wait, wait


class YangTsai(_HypercubeBase):
    """Positive-first/negative-next on class 0, then again on class 1.

    Class 0 is opportunistic (use any needed positive-direction dimension,
    then any needed negative-direction one, never waiting); class 1 repeats
    the same order but *waits*: positive dimensions in increasing order,
    then negative dimensions in increasing order.
    """

    name = "yang-tsai"
    wait_policy = WaitPolicy.SPECIFIC

    def _signed_needed(self, node: int, dest: int) -> tuple[list[int], list[int]]:
        pos, neg = [], []
        for dim in differing_dimensions(node, dest):
            (neg if (node >> dim) & 1 else pos).append(dim)
        return pos, neg

    def __init__(self, network: Network) -> None:
        super().__init__(network, min_vcs=2)

    def route_masks(self, c_in_cid: int, node: int, dest: int) -> tuple[int, int]:
        if node == dest:
            return 0, 0
        pos, neg = self._signed_needed(node, dest)
        first = self._first[node]
        route = 0
        # class 0: all needed positive dims; once none remain, all negatives
        for dim in (pos if pos else neg):
            route |= first[dim]
        # class 1, the waiting set: the single next dimension in phase order
        wait = self._second[node][pos[0] if pos else neg[0]]
        return route | wait, wait


class LiStyleHypercube(_HypercubeBase):
    """A one-VC partially adaptive hypercube algorithm in Li's spirit.

    Rule: with ``mu`` the lowest needed dimension, a message that needs to
    route *negatively* in ``mu`` may correct **any** needed dimension; a
    message needing ``mu`` positively must correct ``mu`` itself.  Blocked
    messages wait on the ``mu`` channel.  This is exactly the discipline EFA
    imposes on its first virtual-channel class (Section 9.3), here used as
    the *entire* algorithm on a single VC: Theorem 5's argument applies
    verbatim (its proof only ever reasons about first-class waits), giving a
    one-virtual-channel partially adaptive hypercube algorithm with multiple
    (often physically edge-disjoint) paths for roughly half the pairs --
    Li's headline combination of properties.

    Development note, preserved deliberately: an earlier draft allowed
    swapping the two lowest needed dimensions regardless of direction; the
    repository's own Theorem-2 checker refuted it with a four-channel True
    Cycle, the same shape as the Theorem-6 relaxation of EFA.
    """

    name = "li-hypercube"
    wait_policy = WaitPolicy.SPECIFIC

    def __init__(self, network: Network) -> None:
        super().__init__(network, min_vcs=1)

    def route_masks(self, c_in_cid: int, node: int, dest: int) -> tuple[int, int]:
        if node == dest:
            return 0, 0
        needed = differing_dimensions(node, dest)
        mu = needed[0]
        first = self._first[node]
        if (node >> mu) & 1:  # negative hop needed in mu: full freedom
            route = 0
            for dim in needed:
                route |= first[dim]
        else:
            route = first[mu]
        # the lowest needed dimension's channel
        return route, first[mu]
