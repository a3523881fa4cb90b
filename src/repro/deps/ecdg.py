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

from ..core.depgraph import DepGraph, bits, mask_of_ints
from ..core.transitions import DestinationTransitions, TransitionCache
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
        self._c1 = self._escape_masks()
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

    def _escape_masks(self) -> dict[int, int]:
        """``dest -> cid bitmask`` of each destination's escape set; a set
        object shared by several destinations is converted once."""
        memo: dict[int, tuple[frozenset[Channel], int]] = {}
        masks: dict[int, int] = {}
        for dest in self.algorithm.network.nodes:
            esc = self.escape_for(dest)
            got = memo.get(id(esc))
            if got is None:  # the set is kept so its id stays unique
                got = memo[id(esc)] = (esc, mask_of_ints(c.cid for c in esc))
            masks[dest] = got[1]
        return masks

    def _build(self) -> DepGraph:
        """Dependencies as four per-type adjacency rows, ORed over destinations.

        At state ``a`` of destination ``d`` with escape mask ``C1``, the
        direct targets are ``succ[a] & C1`` and the indirect ones are the
        escape channels one hop past the non-escape states reachable from
        ``succ[a] & ~C1`` through non-escape states only
        (:func:`_escape_behind`), computed once per distinct non-escape
        successor set of the destination.  ``a`` contributes ordinary
        dependencies when it is in its own ``C1``, cross ones otherwise.
        """
        c1_of = self._c1
        union = 0
        for m in c1_of.values():
            union |= m
        n = self.algorithm.network.num_channels
        # rows[type bit][a]: the targets of ``a`` realizing that dependency type
        rows = [[0] * n for _ in DependencyType]
        direct, indirect, direct_x, indirect_x = rows  # DependencyType order
        for dt in self.transitions.all_destinations():
            c1 = c1_of[dt.dest]
            succ = dt.succ_masks
            behind: dict[int, int] = {}  # non-escape successor set -> escape targets
            for a in dt.usable_cids:
                if not union >> a & 1:
                    continue
                out = succ[a]
                rest = out & ~c1
                if rest:
                    far = behind.get(rest)
                    if far is None:
                        far = behind[rest] = _escape_behind(succ, rest, c1)
                else:
                    far = 0
                if c1 >> a & 1:
                    direct[a] |= out & c1
                    indirect[a] |= far
                else:
                    direct_x[a] |= out & c1
                    indirect_x[a] |= far
        edges: dict[tuple[int, int], int] = {}
        for i, row in enumerate(rows):
            bit = 1 << i
            for a, targets in enumerate(row):
                if not targets:
                    continue
                for b in bits(targets):
                    k = (a, b)
                    edges[k] = edges.get(k, 0) | bit
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

        Checked per destination ``d`` by one backward closure over the
        escape states (``R1(c, n, d) = R(c, n, d) & C1(d)``): the *good*
        states are the escape states at ``d`` and every escape state with a
        good escape successor.  Source ``n`` reaches ``d`` over ``R1`` iff
        ``R1`` offers a good state at ``inj(n)``.
        """
        net = self.algorithm.network
        c1_of = self._c1
        for dt in self.transitions.all_destinations():
            c1 = c1_of[dt.dest]
            good = _r1_good(dt, c1)
            succ = dt.succ_masks
            missing = [inj.src for inj in dt.starts if not succ[inj.cid] & c1 & good]
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


def _escape_behind(succ: dict[int, int], start: int, c1: int) -> int:
    """Cid mask of the escape channels (``c1``) one hop past the non-escape
    states reachable from the non-escape states ``start`` without leaving
    them: the indirect-dependency targets behind ``start``."""
    seen = frontier = start
    found = 0
    while frontier:
        nxt = 0
        for q in bits(frontier):
            nxt |= succ[q]
        found |= nxt & c1
        frontier = nxt & ~c1 & ~seen
        seen |= frontier
    return found


def _r1_good(dt: DestinationTransitions, c1: int) -> int:
    """Cid mask of the escape states of ``dt`` from which some path of escape
    states ends at the destination (states there included).

    Sweeps the escape states in reverse BFS order, marking each one with a
    marked escape successor, until a sweep marks nothing new; a relation
    whose escape paths run along the BFS order settles in one sweep.
    """
    heads = dt.algorithm.network.heads
    succ = dt.succ_masks
    good = 0
    todo: list[int] = []
    for a in reversed(list(succ)):
        if c1 >> a & 1:
            if heads[a] == dt.dest:
                good |= 1 << a
            else:
                todo.append(a)
    while todo:
        left = []
        for a in todo:
            if succ[a] & good:
                good |= 1 << a
            else:
                left.append(a)
        if len(left) == len(todo):
            break
        todo = left
    return good


def escape_by_vc(algorithm: RoutingAlgorithm, vc_classes: Iterable[int] = (0,)) -> frozenset[Channel]:
    """The standard escape set: all link channels in the given VC classes."""
    classes = set(vc_classes)
    return frozenset(c for c in algorithm.network.link_channels if c.vc in classes)
