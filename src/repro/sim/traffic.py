"""Traffic generation: synthetic patterns and scripted adversarial loads.

The paper's conclusion calls for "simulations with a variety of message
traffic patterns"; these are the standard synthetic patterns of the
interconnection-network literature (Dally & Towles) plus a scripted source
used to replay the deadlock configurations the theory constructs.

A traffic source yields ``(src, dest, length)`` triples per cycle.  Open-loop
Bernoulli injection: each node independently starts a message with
probability ``rate / mean_length`` per cycle, so ``rate`` is the offered
load in flits per node per cycle.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from ..topology.network import Network


class TrafficSource(Protocol):
    """Per-cycle message generator."""

    def messages_for_cycle(self, cycle: int, rng: np.random.Generator) -> list[tuple[int, int, int]]:
        """Messages to inject this cycle as ``(src, dest, length)``."""
        ...


# ----------------------------------------------------------------------
# destination patterns
# ----------------------------------------------------------------------
def uniform_pattern(network: Network):
    """Destination drawn uniformly among the other nodes."""
    n = network.num_nodes

    def pick(src: int, rng: np.random.Generator) -> int:
        d = int(rng.integers(n - 1))
        return d if d < src else d + 1

    return pick


def bit_complement_pattern(network: Network):
    """dest = bitwise complement of src (power-of-two node counts)."""
    n = network.num_nodes
    if n & (n - 1):
        raise ValueError("bit-complement needs a power-of-two node count")
    mask = n - 1

    def pick(src: int, rng: np.random.Generator) -> int:
        return src ^ mask

    return pick


def bit_reverse_pattern(network: Network):
    """dest = bit-reversed src (power-of-two node counts)."""
    n = network.num_nodes
    if n & (n - 1):
        raise ValueError("bit-reverse needs a power-of-two node count")
    bits = (n - 1).bit_length()

    def pick(src: int, rng: np.random.Generator) -> int:
        return int(f"{src:0{bits}b}"[::-1], 2)

    return pick


def transpose_pattern(network: Network):
    """(x, y) -> (y, x) on a square 2D grid."""
    dims = network.meta.get("dims")
    if not dims or len(dims) != 2 or dims[0] != dims[1]:
        raise ValueError("transpose needs a square 2D mesh/torus")

    def pick(src: int, rng: np.random.Generator) -> int:
        x, y = network.coord(src)
        return network.node_at((y, x))

    return pick


def tornado_pattern(network: Network):
    """Each coordinate advances nearly half-way around its dimension."""
    dims = network.meta.get("dims")
    if not dims:
        raise ValueError("tornado needs a grid topology")

    def pick(src: int, rng: np.random.Generator) -> int:
        coord = network.coord(src)
        shifted = tuple((c + max(d // 2 - 1, 1) * (d > 1)) % d for c, d in zip(coord, dims))
        return network.node_at(shifted)

    return pick


def hotspot_pattern(network: Network, *, hotspots: list[int] | None = None, fraction: float = 0.2):
    """With probability ``fraction`` target a hotspot node, else uniform."""
    uni = uniform_pattern(network)
    spots = hotspots if hotspots is not None else [network.num_nodes - 1]

    def pick(src: int, rng: np.random.Generator) -> int:
        if rng.random() < fraction:
            d = spots[int(rng.integers(len(spots)))]
            if d != src:
                return d
        return uni(src, rng)

    return pick


PATTERNS = {
    "uniform": uniform_pattern,
    "bit-complement": bit_complement_pattern,
    "bit-reverse": bit_reverse_pattern,
    "transpose": transpose_pattern,
    "tornado": tornado_pattern,
    "hotspot": hotspot_pattern,
}


# ----------------------------------------------------------------------
# sources
# ----------------------------------------------------------------------
def check_rate(rate: float, mean_length: float) -> None:
    """Reject an offered load no Bernoulli source can produce.

    Each node starts a message with probability ``rate / mean_length`` per
    cycle, so ``rate`` must lie in ``[0, mean_length]``.  Raises
    :class:`ValueError` otherwise (NaN included).
    """
    if not rate >= 0:
        raise ValueError(f"injection rate must be non-negative, got {rate!r}")
    if not rate <= mean_length:
        raise ValueError(
            f"injection rate {rate!r} exceeds the mean message length "
            f"{mean_length:g}: the per-cycle injection probability would pass 1"
        )


def check_length(length: int | tuple[int, int]) -> None:
    """Reject a message length no message can have.

    Every message carries at least one flit (its header), so a fixed
    length must be at least 1, and a ``(lo, hi)`` range must have
    ``1 <= lo <= hi``.  Raises :class:`ValueError` otherwise.
    """
    lo, hi = length if isinstance(length, tuple) else (length, length)
    if not 1 <= lo <= hi:
        raise ValueError(f"message length must be at least 1 flit, got {length!r}")


class BernoulliTraffic:
    """Open-loop injection at a given flit rate with a destination pattern.

    Parameters
    ----------
    rate:
        Offered load in flits per node per cycle (0..~saturation); at most
        the mean message length (see :func:`check_rate`).
    pattern:
        Name from :data:`PATTERNS` or a ``pick(src, rng) -> dest`` callable.
    length:
        Message length in flits (fixed), or a ``(lo, hi)`` tuple for
        uniformly random lengths; at least one flit (see
        :func:`check_length`).
    """

    def __init__(
        self,
        network: Network,
        *,
        rate: float,
        pattern="uniform",
        length: int | tuple[int, int] = 8,
        stop_at: int | None = None,
    ) -> None:
        self.network = network
        self.rate = rate
        self.length = length
        self.stop_at = stop_at
        check_length(length)
        check_rate(rate, self._mean_length())
        if callable(pattern):
            self.pick = pattern
        else:
            self.pick = PATTERNS[pattern](network)

    def _mean_length(self) -> float:
        if isinstance(self.length, tuple):
            return (self.length[0] + self.length[1]) / 2.0
        return float(self.length)

    def _draw_length(self, rng: np.random.Generator) -> int:
        if isinstance(self.length, tuple):
            lo, hi = self.length
            return int(rng.integers(lo, hi + 1))
        return self.length

    def messages_for_cycle(self, cycle: int, rng: np.random.Generator) -> list[tuple[int, int, int]]:
        if self.stop_at is not None and cycle >= self.stop_at:
            return []
        p = self.rate / self._mean_length()
        out: list[tuple[int, int, int]] = []
        fires = rng.random(self.network.num_nodes) < p
        for src in np.flatnonzero(fires):
            src = int(src)
            dest = self.pick(src, rng)
            if dest != src:
                out.append((src, dest, self._draw_length(rng)))
        return out


class ScriptedTraffic:
    """Inject an explicit list of ``(cycle, src, dest, length)`` events.

    Used to replay the deadlock configurations produced by the Theorem 2
    witness constructor and for regression scenarios.
    """

    def __init__(self, events: list[tuple[int, int, int, int]]) -> None:
        self.by_cycle: dict[int, list[tuple[int, int, int]]] = {}
        for t, src, dest, length in events:
            self.by_cycle.setdefault(t, []).append((src, dest, length))

    def messages_for_cycle(self, cycle: int, rng: np.random.Generator) -> list[tuple[int, int, int]]:
        return self.by_cycle.get(cycle, [])


class CombinedTraffic:
    """Union of several sources (e.g. scripted adversary + background load)."""

    def __init__(self, *sources: TrafficSource) -> None:
        self.sources = sources

    def messages_for_cycle(self, cycle: int, rng: np.random.Generator) -> list[tuple[int, int, int]]:
        out: list[tuple[int, int, int]] = []
        for s in self.sources:
            out.extend(s.messages_for_cycle(cycle, rng))
        return out
