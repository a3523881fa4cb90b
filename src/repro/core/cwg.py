"""The channel waiting graph (Definition 9) -- the paper's central object.

The CWG has a vertex per (virtual) channel and an arc ``(c1, c2)`` whenever
some message, on some permitted path, can *occupy* ``c1`` while *waiting on*
``c2``.  Because message lengths are arbitrary (Assumption 1 / the note
under Definition 9), "occupy while waiting" means ``c2`` is a waiting
channel at *any* routing state reachable after acquiring ``c1`` -- not just
the immediately next hop.  The CWG is a subgraph of the channel dependency
graph restricted to dependencies that can actually stall a message, which
is why requiring it to be (True-Cycle-)acyclic is strictly weaker than every
acyclic-CDG condition.

:class:`ChannelWaitingGraph` is a thin builder over the integer kernel (the
shared :class:`~repro.core.transitions.TransitionGraph`, which the CDG
builder uses too): one adjacency row per channel, the OR over destinations
of ``dt.downstream_wait_masks``, emits a
:class:`~repro.core.depgraph.DepGraph`.  The destinations realizing each
edge are computed only when read -- by the False-Resource-Cycle classifier,
which re-derives concrete witness paths from them, by the Section 8
reduction and by the ``edge_dests`` adapter view.
"""

from __future__ import annotations

from operator import attrgetter

from ..routing.relation import RoutingAlgorithm
from .transitions import TransitionCache, TransitionGraph


class ChannelWaitingGraph(TransitionGraph):
    """The CWG of a routing algorithm, with per-edge destination witnesses."""

    kind = "CWG"
    targets = attrgetter("downstream_wait_masks")

    # Defined here, not only inherited: bench/tracing.py wraps each graph
    # class's own ``__init__`` to time its construction.
    def __init__(self, algorithm: RoutingAlgorithm, *,
                 transitions: TransitionCache | None = None) -> None:
        super().__init__(algorithm, transitions=transitions)


def wait_connected(
    algorithm: RoutingAlgorithm, *, transitions: TransitionCache | None = None
) -> tuple[bool, str]:
    """Definition 10: every reachable routing state has a waiting channel.

    Returns ``(holds, counterexample_description)``.  A state is a pair
    (input channel, node=channel head) reached by some message; at every
    state short of the destination, the waiting set must be a nonempty
    subset of the route set.  Decided on the cid bitmasks; a Channel is
    built only for the counterexample.
    """
    cache = transitions or TransitionCache(algorithm)
    net = algorithm.network
    heads = net.heads
    for dt in cache.all_destinations():
        dest = dt.dest
        wait = dt.wait_masks
        for a, out in dt.succ_masks.items():
            if heads[a] == dest:
                continue
            w = wait[a]
            if w and not w & ~out:
                continue  # a nonempty subset of the route set
            c = net.channel(a)
            if not w:
                return False, (
                    f"state (input={c!r}, node={c.dst}, dest={dest}) has no waiting channel"
                )
            return False, (
                f"waiting set at (input={c!r}, node={c.dst}, dest={dest}) "
                f"is not a subset of the route set"
            )
    return True, ""
