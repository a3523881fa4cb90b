"""Highest Positive Last: the paper's partially adaptive nonminimal mesh
routing algorithm (Section 9.2, Theorem 4).

HPL needs **no virtual channels**, has a *cyclic* channel dependency graph,
and yet is deadlock-free because its channel *waiting* graph is acyclic --
the flagship demonstration that the CWG condition admits algorithms every
acyclic-CDG methodology must reject.  The routing relation genuinely depends
on the input channel (form ``R(c_in, n, d)``), so Duato's technique cannot
be applied to it at all, and it is incoherent even on minimal paths.

The rules, with ``p`` = the highest dimension still requiring a hop in the
negative direction:

* if ``p`` exists, the message may use **any** channel (either direction,
  needed or not -- nonminimal freedom) in any dimension **below** ``p``,
  plus the negative channel of dimension ``p`` itself;
* if the message needs only positive hops, it must take the positive channel
  of the **lowest** needed dimension (increasing dimension order), but may
  instead *misroute* in the negative direction of any dimension **above**
  that one (which resurrects ``p`` and the lower-dimension freedom);
* 180-degree turns are restricted: negative-to-positive is allowed only when
  the positive hop is needed; positive-to-negative only when the message
  needs the negative hop in that dimension *and* in some higher dimension;
* a blocked message **waits** on the negative channel of ``p`` (or, with
  only positive hops left, the positive channel of the lowest needed
  dimension) -- a single specific channel, so Theorem 2 applies.
"""

from __future__ import annotations

from ..topology.grid import direction_masks
from ..topology.network import Network
from .relation import RoutingAlgorithm, RoutingError, WaitPolicy


class HighestPositiveLast(RoutingAlgorithm):
    """The Highest Positive Last routing algorithm on an n-D mesh.

    Mask-native, though its route set depends on the input channel: the
    rules above are evaluated once per ``(node, dest)`` into a row holding
    the candidate outputs, per input direction the outputs a 180-degree
    turn from it would use but the turn rule forbids, and the waiting
    candidates; a decision then masks the row with the input's entry.

    Parameters
    ----------
    misroute:
        Allow the nonminimal moves (lower-than-``p`` freedom and negative
        misrouting above the lowest positive dimension).  ``False`` gives the
        minimal restriction of HPL, useful for adaptiveness comparisons and
        faster exhaustive checks; deadlock freedom holds either way.
    wait_any:
        Use the Section 9.2 "Note" variant that waits on every channel
        moving toward the destination (Theorem 3 regime) instead of the
        single designated waiting channel (Theorem 2 regime, the default).
    """

    name = "highest-positive-last"
    form = "CND"

    def __init__(self, network: Network, *, misroute: bool = True, wait_any: bool = False) -> None:
        super().__init__(network)
        if network.meta.get("topology") not in ("mesh", "hypercube"):
            raise RoutingError(f"{self.name} requires a mesh network")
        self.ndims = len(network.meta["dims"])
        self.misroute = misroute
        self.wait_policy = WaitPolicy.ANY if wait_any else WaitPolicy.SPECIFIC
        self._wait_any = wait_any
        #: per node, ``2 * dim + (sign > 0) -> cid mask`` of the outputs
        self._moves = direction_masks(network)
        #: per cid, the direction index ``2 * dim + (sign > 0)`` a link
        #: channel moves in; ``2 * ndims`` (no turn yet) off a link
        self._came = [2 * self.ndims] * network.num_channels
        for c in network.link_channels:
            if c.meta.get("dim") is not None:
                self._came[c.cid] = 2 * c.meta["dim"] + (c.meta["sign"] > 0)
        self._n = network.num_nodes
        #: per ``node * num_nodes + dest``, the row :meth:`_row` builds, on first use
        self._rows: list[tuple[int, list[int], int] | None] = [None] * self._n ** 2

    # ------------------------------------------------------------------
    def _deltas(self, node: int, dest: int) -> list[int]:
        coords = self.network.coords
        return [t - h for h, t in zip(coords[node], coords[dest])]

    def _u_turn_allowed(self, dim: int, sign: int, deltas: list[int]) -> bool:
        """The 180-degree turn restriction, for an input moving along
        ``dim`` against ``sign``."""
        if sign > 0:
            # negative -> positive: allowed iff the positive hop is needed
            return deltas[dim] > 0
        # positive -> negative: needs the negative hop here AND in a higher dim
        if deltas[dim] >= 0:
            return False
        return any(deltas[q] < 0 for q in range(dim + 1, self.ndims))

    def _designated(self, deltas: list[int]) -> tuple[int, int]:
        """``(p, -1)`` with ``p`` the highest dimension needing a negative
        hop, else ``(low, +1)`` with ``low`` the lowest needing a positive
        one: the first candidate and the designated waiting direction."""
        negs = [d for d in range(self.ndims) if deltas[d] < 0]
        if negs:
            return max(negs), -1
        return min(d for d in range(self.ndims) if deltas[d] > 0), +1

    def _row(self, node: int, dest: int) -> tuple[int, list[int], int]:
        """``(candidates, forbidden, waits)`` for ``node != dest``, as cid masks.

        ``forbidden[k]`` holds the candidates an input moving in direction
        ``k`` may not take (the 180-degree turn rule; the last entry, for an
        injected message, is empty).  ``waits`` is the designated waiting
        direction's outputs, or with ``wait_any`` every output moving toward
        the destination.
        """
        deltas = self._deltas(node, dest)
        first, first_sign = self._designated(deltas)
        cand = [(first, first_sign)]  # (dim, sign) pairs before turn filter
        if first_sign < 0:
            for dim in range(first):
                if self.misroute or deltas[dim] != 0:
                    signs = (+1, -1) if self.misroute else ((+1,) if deltas[dim] > 0 else (-1,))
                    for sign in signs:
                        cand.append((dim, sign))
        elif self.misroute:
            # Misrouting in the negative direction of the lowest positive
            # dimension itself or above is permitted (the Section 9.2
            # example: a message needing only North may turn South when its
            # input channel allows the 180-degree turn); misrouting *below*
            # it would violate increasing dimension order.
            for q in range(first, self.ndims):
                cand.append((q, -1))
        moves = self._moves[node]
        route = 0
        forbidden = [0] * (2 * self.ndims + 1)
        for dim, sign in cand:
            k = 2 * dim + (sign > 0)
            if moves[k] and not self._u_turn_allowed(dim, sign, deltas):
                # an input moving along ``dim`` against ``sign``, direction k ^ 1
                forbidden[k ^ 1] |= moves[k]
            route |= moves[k]
        if self._wait_any:
            # the Note variant: wait on any channel moving toward the destination
            waits = 0
            for dim, delta in enumerate(deltas):
                if delta:
                    waits |= moves[2 * dim + (delta > 0)]
        else:
            waits = moves[2 * first + (first_sign > 0)]
        return route, forbidden, waits

    # ------------------------------------------------------------------
    def route_masks(self, c_in_cid: int, node: int, dest: int) -> tuple[int, int]:
        if node == dest:
            return 0, 0
        i = node * self._n + dest
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = self._row(node, dest)
        cand, forbidden, waits = row
        route = cand & ~forbidden[self._came[c_in_cid]]
        if self._wait_any:
            return route, route & waits or route
        wait = route & waits
        if route and not wait:
            dim, sign = self._designated(self._deltas(node, dest))
            raise RoutingError(
                f"{self.name}: designated waiting channel dim={dim} sign={sign} "
                f"not in permitted set at node {node} "
                f"(input {self.network.channels[c_in_cid]!r})"
            )
        return route, wait
