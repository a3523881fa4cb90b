"""Table-driven minimal-candidate adaptive routing for 3D / pillar-sparse meshes.

The 2D relations in this package derive their candidate sets from coordinate
deltas, which silently assumes BFS distance == Manhattan distance.  On the
pillar-sparse 3D meshes of :mod:`repro.topology.mesh3d` that is false --
minimal routes bend through the surviving pillar columns -- so this relation
is *table driven*: at construction it computes, for every ``(node, dest)``
pair, the set of link channels whose head is strictly closer (by actual BFS
distance) to the destination.

Channel classes (Duato's methodology, Section 7 of the paper):

* **escape, vc 0** -- a single dimension-ordered minimal hop: among the
  strictly-distance-decreasing moves, the one in the lowest dimension
  (negative direction, then lowest neighbour id, on ties).  On a dense mesh
  this degenerates to the classic lowest-unresolved-dimension escape of
  ``duato-mesh``; on a sparse-pillar mesh it follows the BFS-minimal bend
  through a pillar deterministically.
* **adaptive, vc >= 1** -- every minimal hop.

Blocked messages wait specifically on the escape channel
(:attr:`~repro.routing.relation.WaitPolicy.SPECIFIC`).  Because *every*
permitted hop strictly decreases BFS distance, the relation provides minimal
paths and can never revisit a node; coherence (and hence Duato
applicability) plus ECDG acyclicity of the escape subfunction are then
checked -- not assumed -- by the verifiers, and the catalog pins both
verdicts for the registered instances.
"""

from __future__ import annotations

from ..topology.channel import Channel
from ..topology.network import Network
from .relation import NodeDestRouting, RoutingError, WaitPolicy


def _escape_key(c: Channel) -> tuple[int, int, int, int]:
    """Dimension-ordered determinism: lowest dim, ``-`` before ``+``, then ids."""
    dim = c.meta.get("dim")
    sign = c.meta.get("sign")
    if dim is None or sign is None:
        raise RoutingError(
            f"channel {c!r} lacks dim/sign metadata; "
            "MinimalAdaptive3D needs a grid-built network")
    return (dim, 0 if sign < 0 else 1, c.dst, c.cid)


class MinimalAdaptive3D(NodeDestRouting):
    """Fully adaptive minimal routing with a dimension-ordered escape VC.

    Works on any grid-built network carrying ``dim``/``sign`` channel
    metadata and at least two virtual channels per link; registered for the
    ``mesh3d`` and ``sparse-pillar`` families.  Mask-native: both sets are
    precomputed per ``(node, dest)`` as cid masks.
    """

    form = "ND"
    wait_policy = WaitPolicy.SPECIFIC
    name = "minimal-adaptive-3d"

    def __init__(self, network: Network) -> None:
        super().__init__(network)
        num_vcs = network.max_vcs()
        if num_vcs < 2:
            raise RoutingError(
                f"{self.name} needs an escape VC plus at least one adaptive VC "
                f"(got {num_vcs} VC network)")
        dist = network.shortest_distances()
        n = network.num_nodes
        #: per ``node * num_nodes + dest``, the route and the wait cid masks
        routes = [0] * (n * n)
        waits = [0] * (n * n)
        for node in range(n):
            out = [c for c in network.out_channels(node) if c.is_link]
            drow = dist[node]
            for dest in range(n):
                if dest == node:
                    continue
                here = drow[dest]
                minimal = [c for c in out if dist[c.dst][dest] == here - 1]
                if not minimal:  # unreachable destination: freeze() forbids this
                    raise RoutingError(
                        f"{self.name}: no minimal move from {node} to {dest}")
                escape = 1 << min((c for c in minimal if c.vc == 0), key=_escape_key).cid
                route = escape
                for c in minimal:
                    if c.vc >= 1:
                        route |= 1 << c.cid
                routes[node * n + dest] = route
                waits[node * n + dest] = escape
        self._routes = routes
        self._waits = waits
        self._n = n

    def route_masks(self, c_in_cid: int, node: int, dest: int) -> tuple[int, int]:
        i = node * self._n + dest
        return self._routes[i], self._waits[i]
