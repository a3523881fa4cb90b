"""Cycle enumeration over channel graphs.

Section 8's reduction needs the explicit list ``L`` of all simple cycles of
the CWG, and the False-Resource-Cycle test of Section 7.2 operates on one
cycle at a time.  Cycles are represented as :class:`Cycle` -- an immutable,
canonically rotated tuple of channels -- so they can live in sets and the
reduction's bookkeeping (the paper's ``E_C`` / ``E_R`` / ``E_T`` sets) stays
readable.

Every function here takes a :class:`~repro.core.depgraph.DepGraph` and
runs on its integer kernel.  Acyclicity and single-witness extraction read
Tarjan's SCC decomposition (no search on acyclic graphs); full enumeration
is Johnson's algorithm confined to nontrivial components, which includes
length-1 self-loops: a message waiting on a channel it occupies itself is the
``N = 1`` deadlock of Definition 12.  A ``limit`` guards against the
worst-case exponential cycle count the paper warns about.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from ..topology.channel import Channel
from .depgraph import DepGraph


class CycleExplosion(RuntimeError):
    """Raised when a graph has more simple cycles than the configured limit."""


@dataclass(frozen=True)
class Cycle:
    """A simple directed cycle of channels, canonically rotated.

    ``channels[i] -> channels[(i+1) % len]`` are the cycle's edges; the
    rotation starts at the minimum cid so equal cycles compare equal.
    """

    channels: tuple[Channel, ...]

    @staticmethod
    def from_nodes(nodes: Iterable[Channel]) -> Cycle:
        seq = tuple(nodes)
        if not seq:
            raise ValueError("empty cycle")
        k = min(range(len(seq)), key=lambda i: seq[i].cid)
        return Cycle(seq[k:] + seq[:k])

    @property
    def edges(self) -> tuple[tuple[Channel, Channel], ...]:
        n = len(self.channels)
        return tuple((self.channels[i], self.channels[(i + 1) % n]) for i in range(n))

    def __len__(self) -> int:
        return len(self.channels)

    def __repr__(self) -> str:
        names = " -> ".join(c.label or f"c{c.cid}" for c in self.channels)
        return f"<Cycle {names} -> ...>"


def iter_simple_cycles(graph: DepGraph, *, limit: int | None = 100_000) -> Iterator[Cycle]:
    """Yield every simple cycle of ``graph`` as a canonical :class:`Cycle`.

    ``limit`` bounds how many cycles are yielded: the iterator yields
    **exactly** ``limit`` cycles and then raises :class:`CycleExplosion`
    when the graph contains at least one more (so a graph with ``<= limit``
    cycles never raises).  ``limit=0`` therefore raises on the first cycle
    of any cyclic graph while completing silently on an acyclic one, and
    ``limit=None`` disables the guard entirely.
    """
    channel = graph.network.channel
    count = 0
    for cyc in graph.iter_cycle_cids():
        if limit is not None and count >= limit:
            raise CycleExplosion(f"more than {limit} simple cycles; raise the limit explicitly")
        yield Cycle.from_nodes(channel(i) for i in cyc)
        count += 1


def find_cycles(graph: DepGraph, *, limit: int | None = 100_000) -> list[Cycle]:
    """All simple cycles, sorted shortest-first then by channel ids.

    Same ``limit`` contract as :func:`iter_simple_cycles`: raises
    :class:`CycleExplosion` only when the cycle count exceeds ``limit``.
    """
    cycles = list(iter_simple_cycles(graph, limit=limit))
    cycles.sort(key=lambda cy: (len(cy), tuple(c.cid for c in cy.channels)))
    return cycles


def has_cycle(graph: DepGraph) -> bool:
    """Fast acyclicity test (SCC decomposition, no enumeration)."""
    return not graph.is_acyclic()


def find_one_cycle(graph: DepGraph) -> Cycle | None:
    """A single witness cycle, or ``None`` if the graph is acyclic.

    SCC-first: on an acyclic graph this is one Tarjan pass, and on a cyclic
    one the witness walk stays inside the first nontrivial component.
    """
    cyc = graph.find_cycle_cids()
    if cyc is None:
        return None
    return Cycle.from_nodes(graph.network.channel(i) for i in cyc)
