"""Messages and flits for the wormhole simulator.

A message is divided into flits: one header flit carrying the routing
information, body flits, and a tail flit (a 1-flit message's single flit is
both header and tail).  Only identity and counters are simulated -- flit
payloads don't exist -- but the flit *discipline* follows Assumptions 3-4 of
the paper exactly: a channel queue accepts all flits of one message before
any flit of another, and a channel is released only when the tail has
traversed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class Message:
    """One packet/message in flight (the paper uses the terms interchangeably).

    The simulator tracks, per message, the ordered list of channels it
    currently occupies (tail-most first), how many flits have entered the
    network, and how many have been consumed at the destination.  Channels
    are dense channel ids (``network.channels[cid]`` is the object).  Slots keep
    the per-message footprint small; at high load tens of thousands of these
    are live at once.
    """

    mid: int
    src: int
    dest: int
    length: int  # flits, including header and tail
    created: int  # cycle the message was handed to the source queue

    # -- dynamic state ---------------------------------------------------
    #: cids of the channels currently occupied, oldest (tail-most) first
    held: list[int] = field(default_factory=list)
    #: flits that have left the source queue (0 .. length)
    flits_injected: int = 0
    #: flits consumed at the destination (0 .. length)
    flits_consumed: int = 0
    #: cycle the header entered the network (first channel acquired)
    started: int | None = None
    #: cycle the tail flit was consumed
    finished: int | None = None
    #: True once the header has reached the destination node
    header_arrived: bool = False
    #: cids of the committed waiting channels while blocked, in the route
    #: table's priority order (None = not blocked); under SPECIFIC waiting
    #: this persists until one of them is acquired
    waiting_for: tuple[int, ...] | None = None
    #: cycle at which the message last made progress (for starvation stats)
    last_progress: int = 0
    #: total channels acquired over the message's lifetime (>= shortest
    #: distance; the excess measures misrouting, Section 4's livelock lens)
    hops: int = 0

    @property
    def delivered(self) -> bool:
        return self.finished is not None

    @property
    def latency(self) -> int | None:
        """Total latency: creation to tail consumption."""
        return None if self.finished is None else self.finished - self.created

    @property
    def network_latency(self) -> int | None:
        """Header injection to tail consumption (excludes source queueing)."""
        if self.finished is None or self.started is None:
            return None
        return self.finished - self.started

    def __repr__(self) -> str:
        return (
            f"<Message {self.mid}: {self.src}->{self.dest} len={self.length} "
            f"held={len(self.held)} inj={self.flits_injected} cons={self.flits_consumed}>"
        )
