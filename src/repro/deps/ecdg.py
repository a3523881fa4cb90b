"""Duato's extended channel dependency graph (the titled ICPP'94 theory).

Duato's condition works on a *routing subfunction* ``R1``: a subset ``C1``
of the channels (the "escape" channels) such that ``R1(n, d) = R(n, d) &
C1`` still connects every source to every destination.  The **extended**
channel dependency graph of ``R1`` contains, between escape channels:

* **direct** dependencies -- ``c_j in R1`` immediately after ``c_i``;
* **indirect** dependencies -- ``c_i ... c_j`` where the intermediate
  channels are supplied by the full relation ``R`` but lie outside ``C1``
  (the message re-enters the escape layer after an adaptive excursion);
* **cross** dependencies (direct and indirect) -- when ``C1`` differs per
  destination, a dependency from a channel that is escape *for some other
  destination* onto a channel escape for the message's own destination.

Duato's theorem: a coherent ``R`` (of form ``R(n, d)``, providing a minimal
path per pair) is deadlock-free **iff** some connected ``R1`` exists whose
extended dependency graph, including cross dependencies, is acyclic.

``escape`` may be a single channel set (the common case -- cross
dependencies then coincide with ordinary ones) or a mapping from destination
to channel set (the per-pair generality of the ICPP'94 paper, restricted to
destination-indexed subsets, which is what an ``R(n, d)`` relation can
express).
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable

from ..core.depgraph import DepGraph, bits
from ..core.transitions import TransitionCache
from ..routing.relation import RoutingAlgorithm
from ..topology.channel import Channel

EscapeSpec = frozenset[Channel] | Callable[[int], frozenset[Channel]]


class DependencyType(enum.Enum):
    DIRECT = "direct"
    INDIRECT = "indirect"
    DIRECT_CROSS = "direct-cross"
    INDIRECT_CROSS = "indirect-cross"


#: bit position of each dependency type in the kernel's per-edge mask
_TYPE_BIT = {t: i for i, t in enumerate(DependencyType)}
_TYPE_OF_BIT = tuple(DependencyType)


class ExtendedChannelDependencyGraph:
    """The ECDG of a routing subfunction, with per-edge dependency types."""

    kind = "ECDG"

    def __init__(
        self,
        algorithm: RoutingAlgorithm,
        escape: EscapeSpec,
        *,
        transitions: TransitionCache | None = None,
    ) -> None:
        self.algorithm = algorithm
        self.transitions = transitions or TransitionCache(algorithm)
        if callable(escape):
            self._escape_fn = escape
        else:
            fixed = frozenset(escape)
            self._escape_fn = lambda dest: fixed
        #: the integer-indexed kernel (per-edge mask = dependency-type bits)
        self.dep: DepGraph = self._build()
        self._edge_types: dict[tuple[Channel, Channel], set[DependencyType]] | None = None

    # ------------------------------------------------------------------
    def escape_for(self, dest: int) -> frozenset[Channel]:
        return self._escape_fn(dest)

    def escape_union(self) -> frozenset[Channel]:
        out: set[Channel] = set()
        for dest in self.algorithm.network.nodes:
            out |= self.escape_for(dest)
        return frozenset(out)

    def _build(self) -> DepGraph:
        union = self.escape_union()
        edges: dict[tuple[int, int], int] = {}
        direct = 1 << _TYPE_BIT[DependencyType.DIRECT]
        direct_x = 1 << _TYPE_BIT[DependencyType.DIRECT_CROSS]
        indirect = 1 << _TYPE_BIT[DependencyType.INDIRECT]
        indirect_x = 1 << _TYPE_BIT[DependencyType.INDIRECT_CROSS]
        for dt in self.transitions.all_destinations():
            c1_here = self.escape_for(dt.dest)
            for ci in dt.usable:
                if ci not in union:
                    continue
                ci_is_own = ci in c1_here
                a = ci.cid
                # Direct: an R1-supplied channel immediately after ci.
                for cj in dt.succ[ci]:
                    if cj in c1_here:
                        k = (a, cj.cid)
                        edges[k] = edges.get(k, 0) | (direct if ci_is_own else direct_x)
                # Indirect: through >= 1 non-escape channels, then R1-supplied.
                seen: set[Channel] = set()
                stack = [c for c in dt.succ[ci] if c not in c1_here]
                while stack:
                    q = stack.pop()
                    if q in seen:
                        continue
                    seen.add(q)
                    for cj in dt.succ.get(q, ()):
                        if cj in c1_here:
                            k = (a, cj.cid)
                            edges[k] = edges.get(k, 0) | (indirect if ci_is_own else indirect_x)
                        elif cj not in seen:
                            stack.append(cj)
        return DepGraph(self.algorithm.network, edges)

    # ------------------------------------------------------------------
    @property
    def edge_types(self) -> dict[tuple[Channel, Channel], set[DependencyType]]:
        """edge -> dependency types realizing it (adapter view)."""
        if self._edge_types is None:
            channel = self.algorithm.network.channel
            self._edge_types = {
                (channel(u), channel(v)): {_TYPE_OF_BIT[i] for i in bits(m)}
                for u, v, m in self.dep.iter_edges()
            }
        return self._edge_types

    @property
    def edges(self) -> list[tuple[Channel, Channel]]:
        return self.dep.channel_edges()

    def is_acyclic(self) -> bool:
        return self.dep.is_acyclic()

    def subfunction_connected(self) -> tuple[bool, str]:
        """Is ``R1`` connected: every pair routable using escape channels only?

        Checked per destination by BFS from every injection channel through
        escape-channel states (``R1(c, n, d) = R(c, n, d) & C1(d)``).
        """
        net = self.algorithm.network
        for dt in self.transitions.all_destinations():
            c1_here = self.escape_for(dt.dest)
            sources = _r1_sources(dt, c1_here)
            missing = [n for n in net.nodes if n != dt.dest and n not in sources]
            if missing:
                return False, (
                    f"R1 does not connect source(s) {missing[:4]} to destination {dt.dest}"
                )
        return True, ""

    def __len__(self) -> int:
        return self.dep.num_edges

    def __repr__(self) -> str:
        return (
            f"<{self.kind} of {self.algorithm.name}: "
            f"{len(self.escape_union())} escape channels, {self.dep.num_edges} dependencies>"
        )


def _r1_sources(dt, c1_here: frozenset[Channel]) -> set[int]:
    """Nodes from which ``dt.dest`` is reachable using only escape channels.

    A source ``n`` qualifies iff from state ``inj(n)`` some path of
    escape-only channel states ends at the destination.
    """
    sources: set[int] = set()
    for inj in dt.starts:
        stack = [inj]
        seen = {inj}
        found = False
        while stack and not found:
            c = stack.pop()
            for nxt in dt.succ.get(c, ()):
                if nxt not in c1_here:
                    continue
                if nxt.dst == dt.dest:
                    found = True
                    break
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if found:
            sources.add(inj.src)
    return sources


def escape_by_vc(algorithm: RoutingAlgorithm, vc_classes: Iterable[int] = (0,)) -> frozenset[Channel]:
    """The standard escape set: all link channels in the given VC classes."""
    classes = set(vc_classes)
    return frozenset(c for c in algorithm.network.link_channels if c.vc in classes)
