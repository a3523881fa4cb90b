"""Selection functions (Definition 3).

A selection function ``S: C x P(C) x Sigma -> C`` picks one output channel
from the route set given the channel statuses.  The routing *relation*
determines deadlock freedom; the selection function only affects
performance -- so these live apart from the relations and are consumed by
the simulator's virtual-channel allocator.

All selection functions here receive the network, the input channel and
the candidate channels as dense channel ids, the candidates in the
allocator's priority order, together with a ``free`` predicate on ids; they
must return a free candidate's id or ``None`` when none is free.  A policy
that ranks by a channel's ``vc``, ``src`` or ``meta`` reads it from
``network.channels[cid]``.

Scenario integration: every policy has a name in :data:`SELECTIONS`
(factories, so stateful policies get a fresh instance per simulator);
:class:`~repro.scenario.ScenarioSpec` carries such a name as its
``selection`` knob and :func:`make_selection` resolves it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any, Protocol

if TYPE_CHECKING:
    import numpy as np

    from ..sim.engine import WormholeSimulator
    from ..topology.network import Network


class SelectionFunction(Protocol):
    """Callable picking one free channel id from an ordered candidate list."""

    def __call__(
        self,
        network: Network,
        c_in: int,
        candidates: Sequence[int],
        free: Callable[[int], bool],
    ) -> int | None: ...


def first_free(network: Network, c_in: int, candidates: Sequence[int],
               free: Callable[[int], bool]) -> int | None:
    """Deterministic: the first free candidate.  Good for reproducible tests."""
    for c in candidates:
        if free(c):
            return c
    return None


def straight_first(network: Network, c_in: int, candidates: Sequence[int],
                   free: Callable[[int], bool]) -> int | None:
    """Prefer continuing in the same dimension/direction as ``c_in``.

    Falls back to the first free candidate.  Reduces in-network turns, which
    empirically lowers contention for dimension-ordered traffic.
    """
    chans = network.channels
    meta = chans[c_in].meta
    dim = meta.get("dim")
    if dim is not None:
        sign = meta.get("sign")
        for c in candidates:
            m = chans[c].meta
            if m.get("dim") == dim and m.get("sign") == sign and free(c):
                return c
    return first_free(network, c_in, candidates, free)


class RandomSelection:
    """Uniformly random free candidate, with an owned RNG for reproducibility.

    The RNG is NumPy's (the ``fast`` extra), imported on construction so the
    rest of the routing package, and the checker with it, never loads NumPy.
    """

    def __init__(self, seed: int | np.random.Generator = 0) -> None:
        from numpy.random import Generator, default_rng

        self.rng = seed if isinstance(seed, Generator) else default_rng(seed)

    def __call__(self, network: Network, c_in: int, candidates: Sequence[int],
                 free: Callable[[int], bool]) -> int | None:
        free_cands = [c for c in candidates if free(c)]
        if not free_cands:
            return None
        return free_cands[int(self.rng.integers(len(free_cands)))]


class RoundRobinSelection:
    """Rotates the preferred candidate per (node) to spread load evenly."""

    def __init__(self) -> None:
        self._counter: dict[int, int] = {}

    def __call__(self, network: Network, c_in: int, candidates: Sequence[int],
                 free: Callable[[int], bool]) -> int | None:
        if not candidates:
            return None
        node = network.channels[candidates[0]].src
        start = self._counter.get(node, 0) % len(candidates)
        self._counter[node] = start + 1
        for i in range(len(candidates)):
            c = candidates[(start + i) % len(candidates)]
            if free(c):
                return c
        return None


def lowest_vc_first(network: Network, c_in: int, candidates: Sequence[int],
                    free: Callable[[int], bool]) -> int | None:
    """Prefer low VC indices: drains restricted VC classes before escape VCs.

    For two-class algorithms (Duato's, EFA) this biases traffic onto the
    regulated first class, keeping the adaptive class free as the escape
    valve -- the selection the paper's Section 9 algorithms implicitly assume.
    """
    chans = network.channels
    for c in sorted(candidates, key=lambda c: (chans[c].vc, c)):
        if free(c):
            return c
    return None


def highest_vc_first(network: Network, c_in: int, candidates: Sequence[int],
                     free: Callable[[int], bool]) -> int | None:
    """Prefer high VC indices: uses the adaptive class first (ablation foil)."""
    chans = network.channels
    for c in sorted(candidates, key=lambda c: (-chans[c].vc, c)):
        if free(c):
            return c
    return None


class CreditSelection:
    """Credit-based congestion-adaptive selection with escape-VC fallback.

    Implements the congestion-aware policy the paper's framework explicitly
    leaves free: among the *adaptive* candidates (``vc >= escape_vcs``) pick
    the free channel whose downstream buffer has the most credits -- free
    slots, read straight from the simulator's SoA buffer state -- breaking
    ties round-robin per node so symmetric neighbours share load.  Only when
    every adaptive candidate is busy or fully backpressured (zero credits)
    does the message fall back to the escape class (``vc < escape_vcs``),
    matching Duato's intent that the escape channels stay a last-resort
    drain rather than a shortcut.

    Deadlock freedom is untouched by construction -- a selection function
    can only pick *within* the verified route set -- so this policy is safe
    on any scenario; it is the default knob of the 3D/pillar scenarios.

    The simulator binds engine state in via :meth:`bind_engine` (called by
    ``WormholeSimulator.__init__`` on any selection exposing that hook).
    Unit tests may instead inject a ``credits`` callable on channel ids
    directly.
    """

    def __init__(self, *, escape_vcs: int = 1,
                 credits: Callable[[int], int] | None = None) -> None:
        if escape_vcs < 0:
            raise ValueError("escape_vcs must be >= 0")
        self.escape_vcs = escape_vcs
        self._credits = credits
        self._rr: dict[int, int] = {}

    def bind_engine(self, sim: "WormholeSimulator") -> None:
        """Source credits from the simulator's per-channel buffer occupancy."""
        buffers = sim._buf
        depth = sim.config.buffer_depth
        self._credits = lambda cid: depth - len(buffers[cid])

    def __call__(self, network: Network, c_in: int, candidates: Sequence[int],
                 free: Callable[[int], bool]) -> int | None:
        if not candidates:
            return None
        chans = network.channels
        credits = self._credits
        escape_vcs = self.escape_vcs
        adaptive = [c for c in candidates if chans[c].vc >= escape_vcs]
        best: int | None = None
        best_credits = 0  # a backpressured (0-credit) adaptive hop never wins
        if adaptive:
            node = chans[adaptive[0]].src
            start = self._rr.get(node, 0) % len(adaptive)
            self._rr[node] = start + 1
            for i in range(len(adaptive)):
                c = adaptive[(start + i) % len(adaptive)]
                if not free(c):
                    continue
                have = credits(c) if credits is not None else 1
                if have > best_credits:
                    best, best_credits = c, have
        if best is not None:
            return best
        for c in candidates:  # escape fallback, allocator priority order
            if chans[c].vc < escape_vcs and free(c):
                return c
        return None


#: named selection policies; values are factories so stateful policies are
#: fresh per simulator.  ``ScenarioSpec.selection`` holds one of these keys.
SELECTIONS: dict[str, Callable[[], SelectionFunction]] = {
    "first-free": lambda: first_free,
    "straight-first": lambda: straight_first,
    "lowest-vc-first": lambda: lowest_vc_first,
    "highest-vc-first": lambda: highest_vc_first,
    "round-robin": RoundRobinSelection,
    "random": RandomSelection,
    "credit": CreditSelection,
}


def make_selection(name: str, **kwargs: Any) -> SelectionFunction:
    """Instantiate a named selection policy (fresh instance if stateful)."""
    try:
        factory = SELECTIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown selection policy {name!r}; have {sorted(SELECTIONS)}") from None
    return factory(**kwargs)  # type: ignore[call-arg]
