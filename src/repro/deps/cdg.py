"""The channel dependency graph (Dally & Seitz 1987).

Vertices are virtual channels; there is an arc from ``c1`` to ``c2`` when a
message is permitted to use ``c2`` *immediately after* ``c1``.  An acyclic
CDG is necessary and sufficient for deadlock freedom of nonadaptive routing
and sufficient (but too strong) for adaptive routing -- the baseline every
other condition in this repository is measured against.

Only dependencies that some message can actually exercise are included: the
input channel must be reachable from an injection channel for the relevant
destination (otherwise the "dependency" involves a state no message is ever
in).  Per-edge destination witnesses are available on demand, as for
:class:`repro.core.cwg.ChannelWaitingGraph` -- both builders are the same
:class:`~repro.core.transitions.TransitionGraph` (the CDG over
``dt.succ_masks``, the CWG over ``dt.downstream_wait_masks``) and emit a
:class:`~repro.core.depgraph.DepGraph` the verifiers execute on.
"""

from __future__ import annotations

from operator import attrgetter

from ..core.transitions import TransitionCache, TransitionGraph
from ..routing.relation import RoutingAlgorithm
from ..topology.channel import Channel


class ChannelDependencyGraph(TransitionGraph):
    """The CDG of a routing algorithm, with per-edge destination witnesses."""

    kind = "CDG"
    targets = attrgetter("succ_masks")

    # Defined here, not only inherited: bench/tracing.py wraps each graph
    # class's own ``__init__`` to time its construction.
    def __init__(self, algorithm: RoutingAlgorithm, *,
                 transitions: TransitionCache | None = None) -> None:
        super().__init__(algorithm, transitions=transitions)

    def numbering(self) -> dict[Channel, int] | None:
        """A strictly increasing channel numbering if the CDG is acyclic.

        Dally & Seitz prove deadlock freedom by exhibiting such a numbering;
        returns ``None`` when the CDG is cyclic.  The order is read off the
        kernel's SCC labels (a topological order when every component is a
        singleton), restricted to the CDG's vertex set.
        """
        topo = self.dep.topo_cids()
        if topo is None:
            return None
        verts = {c.cid: c for c in self.vertices}
        order = [cid for cid in topo if cid in verts]
        return {verts[cid]: i for i, cid in enumerate(order)}
