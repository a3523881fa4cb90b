"""Simulator configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..routing.relation import WaitPolicy
from ..routing.selection import SelectionFunction, first_free


@dataclass
class SimConfig:
    """Knobs of the wormhole simulator.

    Defaults follow the common community settings (Dally & Towles): short
    per-VC buffers, one flit per physical link per cycle, one ejection port
    per node.
    """

    #: flit capacity of each virtual-channel queue
    buffer_depth: int = 4
    #: flits the destination consumes per cycle (Assumption 2 guarantees
    #: eventual consumption; this sets the rate)
    ejection_rate: int = 1
    #: selection function used by the VC allocator (Definition 3).  The
    #: allocator presents candidates ordered (progress, no-U-turn, VC class,
    #: id); the default selection takes the first free one, preserving that
    #: priority.  Re-sorting selections (RandomSelection, highest_vc_first,
    #: ...) impose their own preference instead.
    #:
    #: Note for *stateful* selections (RandomSelection, RoundRobinSelection):
    #: the event-driven allocator only re-invokes the selection when a
    #: blocked message's candidate set may have changed, instead of every
    #: cycle.  The chosen channels are the same for stateless selections;
    #: stateful ones see fewer invocations and hence a different internal
    #: state trajectory than a scan-every-cycle allocator would produce.
    selection: SelectionFunction = field(default=first_free)
    #: override the routing algorithm's wait policy (None = respect it)
    wait_policy_override: WaitPolicy | None = None
    #: order VC-allocation candidates by remaining distance first, so
    #: selection functions prefer progress over detours (how real routers
    #: prioritize their route-computation outputs); disable to expose raw
    #: channel-id order
    prefer_minimal: bool = True
    #: cycles between runtime deadlock-detector sweeps (0 = disabled)
    deadlock_check_interval: int = 64
    #: abort the run as soon as the detector confirms a deadlocked knot
    stop_on_deadlock: bool = True
    #: RNG seed for traffic and stochastic selection
    seed: int = 1

    def __post_init__(self) -> None:
        # each of these would otherwise stall silently (no buffer space, no
        # consumption, no detector sweeps) or fail deep inside NumPy (seed)
        for name, low in (("buffer_depth", 1), ("ejection_rate", 1),
                          ("deadlock_check_interval", 0), ("seed", 0)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value!r}")
