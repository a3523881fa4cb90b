"""A routing relation with faults and table overrides applied as a view.

:class:`OverlayRouting` wraps a base algorithm and applies the session's
accumulated deltas at query time: table-cell overrides first (keyed by the
same grammar as :mod:`repro.incremental.deltas`), then the down-channel mask.
The network object itself is never mutated -- a failed channel still exists
(so channel ids, fingerprints of the topology, and distance matrices are
stable); it is merely removed from every route and waiting set, exactly the
semantics of the simulator's ``fail_channel``.

The overlay is also the session's *instrumentation point*: while a
:class:`RouteRecorder` is attached, every query records the destination it
was for and the **pre-mask** channels it consulted.  Those consulted sets
drive the session's sound invalidation rules -- a link going down or up can
only change behavior observable through a query whose base route/waiting set
contains that channel, and the first diverging query of any deterministic
consumer (the session's transition walks) is one both the cached
run and a fresh run perform.  Recording is off during verification proper,
so the overlay behaves as a plain relation there.

Base rows are memoized per overlay, keyed by ``(c_in.cid, dest)`` (the
relation is a pure function of the input channel and the destination, as
:class:`~repro.routing.relation.RouteTable` also relies on).  A row holds
the base's route set and, once asked for, the waiting set narrowed from it:
one evaluation of the base relation per row.  Deltas never
invalidate the memo: table edits are consulted before it and the down mask
is applied after it, and the recorder notes the pre-mask set on every
query, memo hit or not.
"""

from __future__ import annotations

from ..routing.relation import RoutingAlgorithm
from ..topology.channel import Channel

_ROUTES, _WAITS = 0, 1

_EMPTY: frozenset[Channel] = frozenset()


class RouteRecorder:
    """Accumulates the destinations and pre-mask channels queries consulted."""

    __slots__ = ("dests", "mask")

    def __init__(self) -> None:
        self.dests: set[int] = set()
        self.mask: int = 0

    def note(self, dest: int, channels: frozenset[Channel]) -> None:
        self.dests.add(dest)
        m = self.mask
        for c in channels:
            m |= 1 << c.cid
        self.mask = m


class OverlayRouting(RoutingAlgorithm):
    """``base`` with down channels masked and table cells overridden.

    ``down`` is a frozenset of :class:`Channel` objects removed from every
    route and waiting set; ``edits`` maps a table key to its overriding
    ``(routes, waits)`` frozensets (already validated by the session).
    Form, wait policy, and name are the base algorithm's -- an overlay with
    no deltas is observationally identical to its base.
    """

    def __init__(
        self,
        base: RoutingAlgorithm,
        *,
        down: frozenset[Channel] = _EMPTY,
        edits: dict[str, tuple[frozenset[Channel], frozenset[Channel]]] | None = None,
    ) -> None:
        super().__init__(base.network)
        self.base = base
        self.name = base.name
        self.form = base.form
        self.wait_policy = base.wait_policy
        self.down: frozenset[Channel] = frozenset(down)
        self.edits: dict[str, tuple[frozenset[Channel], frozenset[Channel]]] = dict(edits or {})
        self._recorder: RouteRecorder | None = None
        #: (c_in cid, dest) -> the base relation's pre-mask [routes, waits],
        #: waits ``None`` until first asked for
        self._rows: dict[tuple[int, int], list[frozenset[Channel] | None]] = {}

    # ------------------------------------------------------------------
    def table_key(self, c_in: Channel, node: int, dest: int) -> str:
        """The TableCase-grammar key identifying this query's table cell."""
        if self.form == "ND":
            return f"n{node}->{dest}"
        if c_in.is_link:
            return f"c{c_in.cid}->{dest}"
        return f"i{node}->{dest}"

    # ------------------------------------------------------------------
    def begin_recording(self, recorder: RouteRecorder) -> None:
        self._recorder = recorder

    def end_recording(self) -> None:
        self._recorder = None

    # ------------------------------------------------------------------
    # the relation
    # ------------------------------------------------------------------
    def route(self, c_in: Channel, node: int, dest: int) -> frozenset[Channel]:
        return self._query(_ROUTES, c_in, node, dest)

    def waiting_subset(self, c_in: Channel, node: int, dest: int,
                       permitted: frozenset[Channel]) -> frozenset[Channel]:
        # ``permitted`` is already masked and may come from a table edit:
        # the waits are read from the same cell, not narrowed from it
        return self._query(_WAITS, c_in, node, dest)

    def _query(self, slot: int, c_in: Channel, node: int, dest: int) -> frozenset[Channel]:
        """One route (``slot`` 0) or waiting (1) query: a table edit wins,
        else the memoized base row; then record, then mask."""
        if node == dest:
            return _EMPTY
        hit = self.edits.get(self.table_key(c_in, node, dest)) if self.edits else None
        if hit is not None:
            got = hit[slot]
        else:
            key = (c_in.cid, dest)
            row = self._rows.get(key)
            if row is None:
                row = self._rows[key] = [self.base.route(c_in, node, dest), None]
            got = row[slot]
            if got is None:
                # narrowed on first use only: a state some consumer merely
                # routes (a path walk) never asks the base for its waits
                got = row[_WAITS] = self.base.waiting_subset(c_in, node, dest, row[_ROUTES])
        if self._recorder is not None:
            self._recorder.note(dest, got)
        if self.down and got:
            return got - self.down
        return got
