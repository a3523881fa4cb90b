"""Routing relations, waiting channels, and wait policies (Definitions 2-10).

The paper's central abstraction is a routing relation of the general form
``R: C x N x N -> P(C)``: given the *input channel* a message arrived on, the
*current node*, and the *destination*, the relation supplies the set of
output channels the message may use next.  Restricting attention to the less
general Duato form ``R: N x N -> P(C)`` is exactly what the paper relaxes,
so the base class here takes the input channel everywhere and a mixin marks
relations that ignore it.

Waiting channels (Definition 8) are first-class: when every permitted output
is busy, a blocked message waits on one or more *waiting channels*, which
must be a subset of the permitted outputs.  Two waiting regimes exist:

* :attr:`WaitPolicy.SPECIFIC` -- the algorithm designates a waiting channel
  and the message waits for that channel alone (Theorem 2 applies);
* :attr:`WaitPolicy.ANY` -- the message may acquire whichever permitted
  output frees first (Theorem 3 applies).

One query, two ways to write it
-------------------------------
Every consumer that walks the relation -- the checker's
:class:`~repro.core.transitions.DestinationTransitions`, the simulator's
:class:`RouteTable` and the incremental overlay -- asks one question per
routing decision, :meth:`RoutingAlgorithm.route_masks`, and gets both sets
as *cid bitmasks* (bit ``i`` set iff channel ``i`` is in the set).  A
relation is authored in exactly one of two forms:

* **Mask-native**: it defines ``route_masks`` itself, typically from
  per-node cid-mask tables built in ``__init__``
  (:func:`~repro.topology.grid.direction_masks`), and ``route`` /
  ``route_nd`` / ``waiting_subset`` are derived
  :class:`~repro.topology.channel.Channel` views for examples, tests and
  witnesses.  Every registry relation on the mesh, torus, hypercube and 3D
  networks is written this way, the input-dependent HPL included, and so is
  the incremental overlay.
* **Channel-authored**: it defines ``route`` (or ``route_nd``) and
  optionally :meth:`RoutingAlgorithm.waiting_subset`, which narrows the
  route set just computed; the base class derives ``route_masks`` from the
  two, one evaluation per decision.  The Figure-1 and Figure-4
  transcriptions, the fuzzers' and tables' relations, wrappers such as
  :class:`RestrictedWaiting` and user code are written this way.

Defining both forms in one class raises :class:`TypeError` at class
creation, since the consumers read only one of them; instantiating a class
that defines neither raises it too.

Conventions
-----------
* The input channel passed to :meth:`RoutingAlgorithm.route` is always a real
  :class:`~repro.topology.channel.Channel`; a message at its source presents
  the node's *injection channel*.  ``c_in.dst`` must equal ``node``.
* ``route(c_in, node, node)`` (message at destination) returns the empty set;
  delivery is handled by the caller (Assumption 2: always consumed).
* ``route`` must never return injection or ejection channels.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable, Sequence
from typing import TypeVar

from ..topology.channel import Channel
from ..topology.network import Network


class WaitPolicy(enum.Enum):
    """How a blocked message waits (Section 6's case (1) vs case (2))."""

    #: The message picks one designated waiting channel and waits for it
    #: until it frees (Theorem 2 regime).
    SPECIFIC = "specific"
    #: The message waits on its whole waiting set and takes whichever
    #: permitted channel frees first (Theorem 3 regime).
    ANY = "any"


class RoutingError(ValueError):
    """Raised for malformed routing queries or inconsistent relations."""


_F = TypeVar("_F", bound=Callable)


def _derived(fn: _F) -> _F:
    """Mark a base class's derived query or default: a class inheriting it
    has not authored that method."""
    fn._derived = True  # type: ignore[attr-defined]
    return fn


def _authored(cls: type, name: str) -> bool:
    fn = getattr(cls, name, None)
    return fn is not None and not getattr(fn, "_derived", False)


#: the Channel form of a relation; ``route_masks`` is the mask form
_CHANNEL_FORM = ("route", "route_nd", "waiting_subset")


class RoutingAlgorithm:
    """Base class for all routing algorithms (Definition 4).

    A subclass implements either :meth:`route_masks` (mask-native) or
    :meth:`route` and optionally :meth:`waiting_subset` (Channel-authored;
    the hook's default makes every permitted output a waiting channel), and
    the base class derives the other form.  Either may set
    :attr:`wait_policy` (default: :attr:`WaitPolicy.ANY`).
    :meth:`waiting_channels` is a convenience defined here once, as the hook
    applied to ``route``.  Class creation raises :class:`TypeError` for an
    override of ``waiting_channels`` and for a class that authors both
    ``route_masks`` and a Channel-form method (its own or inherited), since
    the consumers call only ``route_masks`` and would silently ignore the
    other form; instantiation raises it for a class that authors neither.

    The class is deliberately stateless per-message: everything the relation
    may consult is the triple ``(c_in, node, dest)`` -- the paper's "only
    local information" restriction.
    """

    #: Relation form: "CND" for R(c_in, n, d), "ND" for R(n, d).
    form: str = "CND"
    #: Waiting regime; drives which theorem the verifier applies.
    wait_policy: WaitPolicy = WaitPolicy.ANY
    #: Human-readable algorithm name for reports.
    name: str = "routing"
    #: Set at class creation: the class authors ``route_masks`` (its own or
    #: inherited), so its Channel-form methods are derived views.
    mask_native: bool = False
    #: Both sets depend on ``(node, dest)`` alone (:func:`is_node_dest`).
    node_dest: bool = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "waiting_channels" in cls.__dict__:
            raise TypeError(
                f"{cls.__qualname__} overrides waiting_channels; override "
                f"waiting_subset(c_in, node, dest, permitted) instead")
        cls.mask_native = _authored(cls, "route_masks")
        both = [n for n in _CHANNEL_FORM if _authored(cls, n)]
        if both and cls.mask_native:
            raise TypeError(
                f"{cls.__qualname__} authors both route_masks and {', '.join(both)}; "
                f"a relation is written in one form: route_masks alone, or "
                f"route/route_nd with waiting_subset")

    def __init__(self, network: Network) -> None:
        cls = type(self)
        if not (cls.mask_native or _authored(cls, "route") or _authored(cls, "route_nd")):
            raise TypeError(
                f"{cls.__qualname__} authors no form of the relation; define "
                f"route_masks, or route/route_nd")
        if not network.frozen:
            raise RoutingError("routing algorithms require a frozen network")
        self.network = network

    # ------------------------------------------------------------------
    # the relation
    # ------------------------------------------------------------------
    @_derived
    def route_masks(self, c_in_cid: int, node: int, dest: int) -> tuple[int, int]:
        """``(route mask, wait mask)`` for a header that arrived on ``c_in_cid``.

        The one relation query the transition walk, the route table and the
        incremental overlay make: the permitted outputs and the waiting
        channels as cid bitmasks.  Derived here for a Channel-authored
        relation as one evaluation -- ``route``, then :meth:`waiting_subset`
        on its answer; the wait mask *is* the route mask when the hook
        returns its input.
        """
        c_in = self.network.channels[c_in_cid]
        out = self.route(c_in, node, dest)
        waits = self.waiting_subset(c_in, node, dest, out)
        m = 0
        for o in out:
            m |= 1 << o.cid
        if waits is out:
            return m, m
        w = 0
        for o in waits:
            w |= 1 << o.cid
        return m, w

    @_derived
    def route(self, c_in: Channel, node: int, dest: int) -> frozenset[Channel]:
        """Output channels permitted for a message at ``node`` heading to ``dest``.

        ``c_in`` is the channel the message arrived on (the injection channel
        when at the source).  Must return a subset of
        ``network.out_channels(node)``; empty iff ``node == dest`` (or the
        relation is broken, which verifiers will flag as not wait-connected).
        A Channel-authored relation implements this; for a mask-native one
        it is the route mask's channels, built from the network's shared
        singleton sets (:meth:`~repro.topology.network.Network.channel_set`)
        so no channel is hashed.
        """
        return self.network.channel_set(self.route_masks(c_in.cid, node, dest)[0])

    @_derived
    def waiting_subset(self, c_in: Channel, node: int, dest: int,
                       permitted: frozenset[Channel]) -> frozenset[Channel]:
        """Narrow ``permitted`` to the channels a blocked message waits on.

        ``permitted`` is ``route(c_in, node, dest)``, already evaluated by
        the caller.  The answer must be a subset of it and nonempty whenever
        it is nonempty, or the algorithm is not wait-connected
        (Definition 10) and therefore not deadlock-free.  The default for a
        Channel-authored relation returns ``permitted`` itself -- the same
        object, which consumers test with ``is`` to skip work; for a
        mask-native one it is the wait mask's channels (``permitted`` again
        when the two masks are equal).
        """
        if not self.mask_native:
            return permitted
        route, wait = self.route_masks(c_in.cid, node, dest)
        return permitted if wait == route else self.network.channel_set(wait)

    def waiting_channels(self, c_in: Channel, node: int, dest: int) -> frozenset[Channel]:
        """Channels the message may *wait on* when blocked (Definition 8).

        The hook :meth:`waiting_subset` applied to ``route(c_in, node,
        dest)``.  Defined here only; subclasses override the hook.
        """
        return self.waiting_subset(c_in, node, dest, self.route(c_in, node, dest))

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def fingerprint(self, *, transitions=None) -> str:
        """Content-addressed digest of the relation (network + full table).

        Two algorithms with identical reachable routing tables on identical
        networks share a fingerprint regardless of name or implementing
        class; the batch pipeline keys every cached artifact on it.  Pass
        the :class:`~repro.core.transitions.TransitionCache` already built
        for verification to avoid enumerating the table twice.
        """
        from ..pipeline.fingerprint import fingerprint_relation

        return fingerprint_relation(self, transitions=transitions)

    def check_route_set(self, channels: Iterable[Channel], node: int) -> frozenset[Channel]:
        """Validate a route set: all outputs must leave ``node`` over links."""
        out = frozenset(channels)
        for c in out:
            if not c.is_link or c.src != node:
                raise RoutingError(f"{self.name}: channel {c!r} is not a link output of node {node}")
        return out

    def describe(self) -> str:
        """One-line summary for reports."""
        return (
            f"{self.name} on {self.network.name} "
            f"[form={self.form}, wait={self.wait_policy.value}]"
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


class NodeDestRouting(RoutingAlgorithm):
    """Routing relation of Duato's restricted form ``R(n, d)`` (Definition 2 variant).

    Subclasses implement :meth:`route_nd` -- or, mask-native,
    :meth:`~RoutingAlgorithm.route_masks` -- and ignore the input channel,
    which makes the relation automatically suffix-closed (Definition 6
    note).

    Contract: an override of :meth:`waiting_subset` (or the wait mask of
    ``route_masks``) must ignore ``c_in`` too, so both sets are functions
    of ``(node, dest)`` alone.  Consumers (:class:`RouteTable`, the
    checker's :class:`~repro.core.transitions.DestinationTransitions`) ask
    ``route_masks`` once per row ``(node, dest)`` and serve the row to
    every input channel at that node, and the fuzzers' table form and the
    incremental overlay's table edits key ND waiting sets the same way.  A
    relation whose waiting set depends on the input channel is a general
    ``R(c_in, n, d)`` relation and subclasses :class:`RoutingAlgorithm`.
    """

    form = "ND"
    node_dest = True

    @_derived
    def route_nd(self, node: int, dest: int) -> frozenset[Channel]:
        """Output channels for ``(node, dest)``, independent of input channel.

        A Channel-authored ``R(n, d)`` relation implements this; for a
        mask-native one it is the derived view of the route mask.
        """
        inj = self.network.injection_channel(node).cid
        return self.network.channel_set(self.route_masks(inj, node, dest)[0])

    @_derived
    def route(self, c_in: Channel, node: int, dest: int) -> frozenset[Channel]:
        return self.route_nd(node, dest)


def is_node_dest(algorithm: RoutingAlgorithm) -> bool:
    """Do ``route`` and ``waiting_subset`` depend on ``(node, dest)`` alone?

    True for :class:`NodeDestRouting` instances, whose contract makes both
    sets functions of the current node and the destination, so a consumer
    may evaluate the relation once per *row* ``(node, dest)`` and serve the
    answer to every input channel at the node; the walk, the route table
    and the coherence certificate all do.  The gate is the attribute
    :attr:`RoutingAlgorithm.node_dest`, not :attr:`RoutingAlgorithm.form`:
    :class:`RestrictedWaiting` copies ``form="ND"`` from the relation it
    wraps while keying its waiting sets by input channel, so it keeps the
    default ``False``.  The incremental overlay copies the attribute from
    its base, since its edits and down mask honour the contract too.
    """
    return algorithm.node_dest


class RestrictedWaiting(RoutingAlgorithm):
    """Mixin/wrapper that narrows the waiting set of an existing algorithm.

    Used to express rules like HPL's "if all outputs are busy, wait for the
    negative channel of dimension p" without duplicating the route logic,
    and by the CWG' reduction to realize a reduced waiting discipline.
    """

    def __init__(self, inner: RoutingAlgorithm, wait_policy: WaitPolicy | None = None) -> None:
        super().__init__(inner.network)
        self.inner = inner
        self.name = f"{inner.name}+waiting"
        self.form = inner.form
        self.wait_policy = wait_policy if wait_policy is not None else inner.wait_policy

    def route(self, c_in: Channel, node: int, dest: int) -> frozenset[Channel]:
        return self.inner.route(c_in, node, dest)

    def waiting_subset(self, c_in: Channel, node: int, dest: int,
                       permitted: frozenset[Channel]) -> frozenset[Channel]:
        return self.inner.waiting_subset(c_in, node, dest, permitted)


class RouteEntry:
    """One cached routing decision: everything ``R(c_in, node, dest)`` pins.

    The permitted and waiting channels are stored as dense channel-id
    tuples, sorted by the allocator's priority key: the simulator's fast
    allocator walks these with integer state only.  The
    :class:`~repro.topology.channel.Channel` forms -- for custom selection
    functions, which keep their object interface, and for a blocked
    message's ``waiting_for`` -- are built from the ids on first use, at
    most once per entry.  Two entries are equal when their id tuples are.
    """

    __slots__ = ("cand_cids", "wait_cids", "_network", "_cands", "_waits", "_wait_set")

    def __init__(self, cand_cids: tuple[int, ...], wait_cids: tuple[int, ...],
                 network: Network) -> None:
        #: permitted output cids, pre-sorted by the allocator's priority key
        self.cand_cids = cand_cids
        #: waiting-channel cids, pre-sorted by the same key (the candidate
        #: tuple itself when every candidate is a waiting channel)
        self.wait_cids = wait_cids
        self._network = network
        self._cands: tuple[Channel, ...] | None = None
        self._waits: tuple[Channel, ...] | None = None
        self._wait_set: frozenset[Channel] | None = None

    @property
    def cand_channels(self) -> tuple[Channel, ...]:
        """The permitted channels as objects, in ``cand_cids`` order."""
        if self._cands is None:
            chan = self._network.channels
            self._cands = tuple([chan[c] for c in self.cand_cids])
        return self._cands

    @property
    def wait_channels(self) -> tuple[Channel, ...]:
        """The waiting channels as objects, in ``wait_cids`` order."""
        if self.wait_cids is self.cand_cids:
            return self.cand_channels
        if self._waits is None:
            chan = self._network.channels
            self._waits = tuple([chan[c] for c in self.wait_cids])
        return self._waits

    @property
    def wait_set(self) -> frozenset[Channel]:
        """The waiting set, what a blocked message's ``waiting_for`` holds."""
        if self._wait_set is None:
            m = 0
            for c in self.wait_cids:
                m |= 1 << c
            self._wait_set = self._network.channel_set(m)
        return self._wait_set

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RouteEntry):
            return NotImplemented
        return self.cand_cids == other.cand_cids and self.wait_cids == other.wait_cids

    def __repr__(self) -> str:
        return f"RouteEntry(cand_cids={self.cand_cids}, wait_cids={self.wait_cids})"


class RouteTable:
    """Dense cache of a routing relation, indexed by ``(input cid, dest)``.

    The relation ``R(c_in, node, dest)`` is a pure function of the input
    channel and the destination (``node`` is always ``c_in.dst``), so the
    simulator need never evaluate it twice for the same pair -- yet the
    original allocator did exactly that every cycle for every blocked
    message, then re-sorted the result with per-message closures.  This
    table computes each entry once, pre-sorted by the allocator's
    ``(remaining distance, U-turn, vc, cid)`` priority key, and serves it
    from a flat list indexed by ``cid * num_nodes + dest``.

    Each entry costs one relation evaluation --
    :meth:`RoutingAlgorithm.route_masks`, the one query -- and one sort of
    integer keys equal in order to the tuple above, one key per set bit of
    the route mask; the key's low digits are the cid, so the sorted keys
    decode straight to the candidate tuple.  The waiting tuple is the sorted
    candidates filtered by the wait mask (the candidate tuple itself when
    the two masks are equal); only a broken relation whose waits leave its
    route set sorts them separately.  No step builds a
    :class:`~repro.topology.channel.Channel` set: an entry holds id tuples,
    and its Channel forms are built only when a reader asks
    (:class:`RouteEntry`).

    For an ``R(n, d)`` relation both sets depend on ``(node, dest)``
    alone, so the relation is consulted once per *row* ``(node, dest)`` and
    that row's entry serves every input channel at the node.  The one
    exception is an input whose source node some candidate leads back to:
    the U-turn term of the sort key can reorder that row, so the input gets
    its own entry, built exactly as for a general relation.
    :func:`is_node_dest` is the gate, shared with the checker's
    :class:`~repro.core.transitions.DestinationTransitions`.

    Entries are filled lazily: only ``(c_in, dest)`` pairs traffic actually
    exercises are ever computed, so construction is O(channels) even on
    large networks.  ``hits`` / ``misses`` count entry lookups and ``rows``
    the relation evaluations behind the misses, for observability.

    Parameters
    ----------
    algorithm:
        The relation to cache.
    dist:
        Optional all-pairs distance matrix (``dist[node][dest]``).  When
        given, candidates are ordered progress-first exactly as the
        simulator's ``prefer_minimal`` mode orders them; when ``None``,
        candidates are in raw cid order.
    """

    def __init__(self, algorithm: RoutingAlgorithm, *, dist: Sequence[Sequence[int]] | None = None) -> None:
        self.algorithm = algorithm
        net = self._network = algorithm.network
        channels = net.channels
        num_ch = self._num_ch = len(channels)
        self._num_nodes = net.num_nodes
        self._dist = dist
        self._entries: list[RouteEntry | None] = [None] * (num_ch * net.num_nodes)
        #: shared ``(node, dest)`` rows, indexed ``node * num_nodes + dest``;
        #: ``None`` for relations that may depend on the input channel
        self._rows: list[RouteEntry | None] | None = (
            [None] * (net.num_nodes * net.num_nodes)
            if is_node_dest(algorithm) else None
        )
        # per-cid facts, so a miss never touches a Channel
        #: the node a channel leads to (an input's current node)
        self._node: Sequence[int] = net.heads
        #: an input's source node for the U-turn term, -1 off a link
        self._prev: list[int] = [c.src if c.is_link else -1 for c in channels]
        #: ``(vc, cid)`` as one rank below ``stride``; the sort key of a
        #: candidate is ``(2 * distance + U-turn) * stride + rank``, and
        #: ``key % num_channels`` is its cid (``stride`` is a multiple)
        self._rank: list[int] = [c.vc * num_ch + c.cid for c in channels]
        self._stride = (max((c.vc for c in channels), default=0) + 1) * num_ch
        self.hits = 0
        self.misses = 0
        self.rows = 0

    @property
    def dist(self) -> Sequence[Sequence[int]] | None:
        """The distance matrix the candidate ordering was built with."""
        return self._dist

    def entry(self, c_in_cid: int, dest: int) -> RouteEntry:
        """The cached decision for a header that arrived on ``c_in_cid``."""
        idx = c_in_cid * self._num_nodes + dest
        e = self._entries[idx]
        if e is not None:
            self.hits += 1
            return e
        self.misses += 1
        prev = self._prev[c_in_cid]
        rows = self._rows
        if rows is None:
            e = self._build(c_in_cid, dest, prev)
        else:
            r = self._node[c_in_cid] * self._num_nodes + dest
            e = rows[r]
            if e is None:
                # no U-turn term: (distance, vc, cid), valid for any input
                # that no candidate leads back to
                e = rows[r] = self._build(c_in_cid, dest, -1)
            if prev >= 0 and self._dist is not None:
                node = self._node
                for cid in e.cand_cids + e.wait_cids:
                    if node[cid] == prev:
                        e = self._build(c_in_cid, dest, prev)
                        break
        self._entries[idx] = e
        return e

    def _build(self, c_in_cid: int, dest: int, prev: int) -> RouteEntry:
        """Evaluate the relation for ``c_in_cid`` and sort with U-turns to ``prev`` last."""
        self.rows += 1
        route, wait = self.algorithm.route_masks(c_in_cid, self._node[c_in_cid], dest)
        cands = self._order(route, dest, prev)
        if wait == route:
            waits = cands
        elif wait & ~route:
            # a broken relation waits outside its route set
            waits = self._order(wait, dest, prev)
        else:
            waits = tuple([c for c in cands if wait >> c & 1])
        return RouteEntry(cands, waits, self._network)

    def _order(self, mask: int, dest: int, prev: int) -> tuple[int, ...]:
        """The cids of ``mask`` in priority order: progress first, then
        avoid an immediate U-turn to ``prev``, then ``(vc, cid)``."""
        dist = self._dist
        out = []
        if dist is None:
            # raw cid order: the bits come out ascending
            while mask:
                low = mask & -mask
                out.append(low.bit_length() - 1)
                mask ^= low
            return tuple(out)
        node, rank, stride = self._node, self._rank, self._stride
        while mask:
            low = mask & -mask
            c = low.bit_length() - 1
            d = node[c]
            out.append(((dist[d][dest] << 1) + (d == prev)) * stride + rank[c])
            mask ^= low
        out.sort()
        num_ch = self._num_ch
        return tuple([k % num_ch for k in out])

    def stats(self) -> dict[str, int]:
        """Cache-style counters for observability reports."""
        # every miss fills exactly one slot, so the filled-entry count is the
        # miss count -- no scan over the num_channels x num_nodes slots
        return {"hits": self.hits, "misses": self.misses, "entries": self.misses,
                "rows": self.rows}
