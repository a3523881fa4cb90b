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

from ..topology.channel import Channel
from ..topology.grid import direction_moves
from ..topology.network import Network
from .relation import RoutingAlgorithm, RoutingError, WaitPolicy


class HighestPositiveLast(RoutingAlgorithm):
    """The Highest Positive Last routing algorithm on an n-D mesh.

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
        #: per node, ``(dim, sign) -> channels`` in ``out_channels`` order
        self._moves = direction_moves(network)
        #: per cid, a link channel's ``(dim, sign)``; ``None`` off a link
        self._dir: list[tuple[int, int] | None] = [None] * network.num_channels
        for by_dir in self._moves:
            for key, chans in by_dir.items():
                for c in chans:
                    self._dir[c.cid] = key

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

    # ------------------------------------------------------------------
    def route(self, c_in: Channel, node: int, dest: int) -> frozenset[Channel]:
        if node == dest:
            return frozenset()
        deltas = self._deltas(node, dest)
        negs = [d for d in range(self.ndims) if deltas[d] < 0]
        cand: list[tuple[int, int]] = []  # (dim, sign) pairs before turn filter
        if negs:
            p = max(negs)
            cand.append((p, -1))
            for dim in range(p):
                if self.misroute or deltas[dim] != 0:
                    signs = (+1, -1) if self.misroute else ((+1,) if deltas[dim] > 0 else (-1,))
                    for sign in signs:
                        cand.append((dim, sign))
        else:
            low = min(d for d in range(self.ndims) if deltas[d] > 0)
            cand.append((low, +1))
            if self.misroute:
                # Misrouting in the negative direction of dimension ``low``
                # itself or above is permitted (the Section 9.2 example: a
                # message needing only North may turn South when its input
                # channel allows the 180-degree turn); misrouting *below*
                # ``low`` would violate increasing dimension order.
                for q in range(low, self.ndims):
                    cand.append((q, -1))
        # the direction the message arrived in; None at the source (no turn yet)
        came = self._dir[c_in.cid]
        moves = self._moves[node]
        out: list[Channel] = []
        for dim, sign in cand:
            here = moves.get((dim, sign))
            if not here:
                continue
            if came is not None and came[0] == dim and came[1] != sign \
                    and not self._u_turn_allowed(dim, sign, deltas):
                continue
            out.extend(here)
        return frozenset(out)

    def waiting_subset(self, c_in: Channel, node: int, dest: int,
                       permitted: frozenset[Channel]) -> frozenset[Channel]:
        if not permitted:
            return permitted
        deltas = self._deltas(node, dest)
        if self._wait_any:
            # the Note variant: wait on any channel moving toward the destination
            dirs = self._dir
            toward = frozenset([
                c for c in permitted
                if deltas[dirs[c.cid][0]] * dirs[c.cid][1] > 0
            ])
            return toward or permitted
        negs = [d for d in range(self.ndims) if deltas[d] < 0]
        if negs:
            dim, sign = max(negs), -1
        else:
            dim, sign = min(d for d in range(self.ndims) if deltas[d] > 0), +1
        # the designated direction's channels at this node, as permitted
        here = self._moves[node].get((dim, sign), ())
        wait = frozenset([c for c in here if c in permitted])
        if not wait:
            raise RoutingError(
                f"{self.name}: designated waiting channel dim={dim} sign={sign} "
                f"not in permitted set at node {node} (input {c_in!r})"
            )
        return wait
