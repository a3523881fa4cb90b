"""A routing relation with faults and table overrides applied as a view.

:class:`OverlayRouting` wraps a base algorithm and applies the session's
accumulated deltas at query time: table-cell overrides first (keyed by the
same grammar as :mod:`repro.incremental.deltas`), then the down-channel mask.
The network object itself is never mutated -- a failed channel still exists
(so channel ids, fingerprints of the topology, and distance matrices are
stable); it is merely removed from every route and waiting set, exactly the
semantics of the simulator's ``fail_channel``.

The overlay is mask-native: it answers the one relation query,
:meth:`~repro.routing.relation.RoutingAlgorithm.route_masks`, from the
base's answer to the same query, and its ``route`` / ``waiting_subset`` are
the derived Channel views.  Table edits and the down set are cid masks, and
the down mask is applied with ``& ~down``.

The overlay is also the session's *instrumentation point*: while a
:class:`RouteRecorder` is attached, every query records the destination it
was for and the **pre-mask** channels it consulted (the route and the
waiting mask).  Those consulted sets drive the session's sound
invalidation rules -- a link going down or up can only change behavior
observable through a query whose base route/waiting set contains that
channel, and the first diverging query of any deterministic consumer (the
session's transition walks) is one both the cached run and a fresh run
perform.  Recording is off during verification proper, so the overlay
behaves as a plain relation there.

Base rows are memoized per overlay, keyed by ``(c_in cid, dest)`` (the
relation is a pure function of the input channel and the destination, as
:class:`~repro.routing.relation.RouteTable` also relies on).  A row holds
the base's ``(route mask, wait mask)`` from one ``base.route_masks`` call:
one evaluation of the base relation per row.  Deltas never invalidate the
memo: table edits are consulted before it and the down mask is applied
after it, and the recorder notes the pre-mask masks on every query, memo
hit or not.
"""

from __future__ import annotations

from ..routing.relation import RoutingAlgorithm


class RouteRecorder:
    """Accumulates the destinations and pre-mask channels queries consulted."""

    __slots__ = ("dests", "mask")

    def __init__(self) -> None:
        self.dests: set[int] = set()
        self.mask: int = 0

    def note(self, dest: int, mask: int) -> None:
        self.dests.add(dest)
        self.mask |= mask


class OverlayRouting(RoutingAlgorithm):
    """``base`` with down channels masked and table cells overridden.

    ``down`` is the cid mask of the channels removed from every route and
    waiting set; ``edits`` maps a table key to its overriding ``(route
    mask, wait mask)`` (already validated by the session).  Form, wait
    policy, and name are the base algorithm's -- an overlay with no deltas
    is observationally identical to its base.
    """

    def __init__(
        self,
        base: RoutingAlgorithm,
        *,
        down: int = 0,
        edits: dict[str, tuple[int, int]] | None = None,
    ) -> None:
        super().__init__(base.network)
        self.base = base
        self.name = base.name
        self.form = base.form
        self.wait_policy = base.wait_policy
        self.down: int = down
        self.edits: dict[str, tuple[int, int]] = dict(edits or {})
        self._recorder: RouteRecorder | None = None
        self._n = base.network.num_nodes
        #: ``c_in cid * num_nodes + dest`` -> the base relation's pre-mask
        #: ``(route mask, wait mask)``
        self._rows: dict[int, tuple[int, int]] = {}

    # ------------------------------------------------------------------
    def table_key(self, c_in_cid: int, node: int, dest: int) -> str:
        """The TableCase-grammar key identifying this query's table cell."""
        if self.form == "ND":
            return f"n{node}->{dest}"
        if self.network.channels[c_in_cid].is_link:
            return f"c{c_in_cid}->{dest}"
        return f"i{node}->{dest}"

    # ------------------------------------------------------------------
    def begin_recording(self, recorder: RouteRecorder) -> None:
        self._recorder = recorder

    def end_recording(self) -> None:
        self._recorder = None

    # ------------------------------------------------------------------
    # the relation
    # ------------------------------------------------------------------
    def route_masks(self, c_in_cid: int, node: int, dest: int) -> tuple[int, int]:
        """A table edit wins, else the memoized base row; then record, then mask."""
        if node == dest:
            return 0, 0
        hit = self.edits.get(self.table_key(c_in_cid, node, dest)) if self.edits else None
        if hit is None:
            key = c_in_cid * self._n + dest
            hit = self._rows.get(key)
            if hit is None:
                hit = self._rows[key] = self.base.route_masks(c_in_cid, node, dest)
        route, wait = hit
        if self._recorder is not None:
            self._recorder.note(dest, route | wait)
        down = self.down
        if down:
            return route & ~down, wait & ~down
        return route, wait
