"""The interconnection network: a strongly connected directed multigraph.

Definition 1 of the paper: an interconnection network ``I`` is a strongly
connected directed multigraph whose vertices are processors and whose arcs
are (virtual) channels.  :class:`Network` is the single substrate object the
whole library builds on: topology generators produce one, routing algorithms
route over one, the dependency/waiting graphs take their vertex set from one,
and the simulator instantiates buffers for every channel of one.

Construction is incremental (``add_node`` / ``add_channel``) followed by
``freeze()``, after which the network is immutable and exposes dense
index-based lookups that the hot loops rely on.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Any

from .channel import Channel, ChannelKind


#: the empty channel set, shared
_NO_CHANNELS: frozenset[Channel] = frozenset()


class NetworkError(ValueError):
    """Raised for malformed network construction or queries."""


class Network:
    """A strongly connected directed multigraph of nodes and virtual channels.

    Parameters
    ----------
    name:
        Human-readable topology name (e.g. ``"mesh(4,4)"``).

    Notes
    -----
    * Nodes are dense integers ``0 .. num_nodes-1``.
    * Channels are :class:`Channel` objects with dense ``cid``s in creation
      order; link channels, injection channels, and ejection channels share
      one id space.
    * ``coords`` optionally maps nodes to coordinate tuples; topology
      generators fill it in so routing algorithms can translate node ids to
      positions without caring how the network was built.
    """

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self._num_nodes = 0
        self._channels: list[Channel] = []
        #: all channels (link + injection + ejection) in cid order; a plain
        #: attribute, not a property, since the relation's derived query
        #: reads it once per routing decision
        self.channels: Sequence[Channel] = self._channels
        self._out: list[list[Channel]] = []
        self._in: list[list[Channel]] = []
        self._injection: list[Channel | None] = []
        self._ejection: list[Channel | None] = []
        self._by_label: dict[str, Channel] = {}
        self._frozen = False
        self._fingerprint: str | None = None
        self._dist: tuple[tuple[int, ...], ...] | None = None
        self._singletons: tuple[frozenset[Channel], ...] | None = None
        #: per cid, the node the channel leads to (filled by :meth:`freeze`)
        self.heads: tuple[int, ...] = ()
        #: the link channels as a cid bitmask (filled by :meth:`freeze`)
        self.link_mask = 0
        self.coords: dict[int, tuple[int, ...]] = {}
        self.meta: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_nodes(self, count: int) -> range:
        """Add ``count`` nodes; returns the range of new node ids."""
        self._check_mutable()
        if count < 0:
            raise NetworkError(f"cannot add {count} nodes")
        start = self._num_nodes
        self._num_nodes += count
        for _ in range(count):
            self._out.append([])
            self._in.append([])
            self._injection.append(None)
            self._ejection.append(None)
        return range(start, self._num_nodes)

    def add_channel(
        self,
        src: int,
        dst: int,
        *,
        vc: int = 0,
        kind: ChannelKind = ChannelKind.LINK,
        label: str = "",
        **meta: Any,
    ) -> Channel:
        """Create a channel from ``src`` to ``dst`` and return it."""
        self._check_mutable()
        self._check_node(src)
        self._check_node(dst)
        if kind is ChannelKind.LINK and src == dst:
            raise NetworkError(f"link channel may not be a self-loop (node {src})")
        if kind is not ChannelKind.LINK and src != dst:
            raise NetworkError(f"{kind.value} channel must have src == dst")
        ch = Channel(
            cid=len(self._channels),
            src=src,
            dst=dst,
            vc=vc,
            kind=kind,
            label=label,
            meta=meta,
        )
        self._channels.append(ch)
        if kind is ChannelKind.LINK:
            self._out[src].append(ch)
            self._in[dst].append(ch)
        elif kind is ChannelKind.INJECTION:
            if self._injection[src] is not None:
                raise NetworkError(f"node {src} already has an injection channel")
            self._injection[src] = ch
        else:
            if self._ejection[src] is not None:
                raise NetworkError(f"node {src} already has an ejection channel")
            self._ejection[src] = ch
        if label:
            if label in self._by_label:
                raise NetworkError(f"duplicate channel label {label!r}")
            self._by_label[label] = ch
        return ch

    def add_link_channels(self, src: int, dst: int, num_vcs: int, prefix: str = "") -> list[Channel]:
        """Add ``num_vcs`` virtual channels on the physical link ``src -> dst``."""
        base = len(self.channels_between(src, dst))
        return [
            self.add_channel(
                src,
                dst,
                vc=base + v,
                label=f"{prefix}{base + v}" if prefix else "",
            )
            for v in range(num_vcs)
        ]

    def ensure_terminal_channels(self) -> None:
        """Add an injection and an ejection channel to every node lacking one."""
        self._check_mutable()
        for n in range(self._num_nodes):
            if self._injection[n] is None:
                self.add_channel(n, n, kind=ChannelKind.INJECTION, label=f"inj{n}")
            if self._ejection[n] is None:
                self.add_channel(n, n, kind=ChannelKind.EJECTION, label=f"ej{n}")

    def freeze(self, *, require_strongly_connected: bool = True) -> "Network":
        """Finalize the network; it becomes immutable.

        Adds terminal channels if missing and (by default) verifies strong
        connectivity of the link-channel graph, per Definition 1.
        """
        if self._frozen:
            return self
        self.ensure_terminal_channels()
        if require_strongly_connected and self._num_nodes > 1:
            if not self._is_strongly_connected():
                raise NetworkError(
                    f"{self.name}: link channels do not form a strongly "
                    "connected graph (Definition 1 requires it)"
                )
        self.heads = tuple(c.dst for c in self._channels)
        self.link_mask = sum(1 << c.cid for c in self._channels if c.is_link)
        self._frozen = True
        return self

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def nodes(self) -> range:
        return range(self._num_nodes)

    @property
    def num_channels(self) -> int:
        return len(self._channels)

    @property
    def link_channels(self) -> list[Channel]:
        """Ordinary network channels: the vertex set of CDG/CWG."""
        return [c for c in self._channels if c.is_link]

    def channel(self, cid: int) -> Channel:
        return self._channels[cid]

    def channel_set(self, mask: int) -> frozenset[Channel]:
        """The channels whose cids are the set bits of ``mask``, as a frozenset.

        Built as a union of per-channel singleton sets, made on the first
        call (one ``Channel.__hash__`` call per channel) and shared after:
        a union copies the stored hashes, so later calls hash no channel.
        A one-channel set is the shared singleton itself.  The network must
        be frozen.
        """
        singles = self._singletons
        if singles is None:
            singles = self._singletons = tuple(frozenset((c,)) for c in self._channels)
        if not mask & (mask - 1):
            return singles[mask.bit_length() - 1] if mask else _NO_CHANNELS
        parts = []
        while mask:
            low = mask & -mask
            parts.append(singles[low.bit_length() - 1])
            mask ^= low
        return _NO_CHANNELS.union(*parts)

    def channel_by_label(self, label: str) -> Channel:
        try:
            return self._by_label[label]
        except KeyError:
            raise NetworkError(f"no channel labelled {label!r}") from None

    def out_channels(self, node: int) -> Sequence[Channel]:
        """Link channels leaving ``node``."""
        self._check_node(node)
        return self._out[node]

    def in_channels(self, node: int) -> Sequence[Channel]:
        """Link channels entering ``node``."""
        self._check_node(node)
        return self._in[node]

    def injection_channel(self, node: int) -> Channel:
        self._check_node(node)
        ch = self._injection[node]
        if ch is None:
            raise NetworkError(f"node {node} has no injection channel (freeze() adds them)")
        return ch

    def ejection_channel(self, node: int) -> Channel:
        self._check_node(node)
        ch = self._ejection[node]
        if ch is None:
            raise NetworkError(f"node {node} has no ejection channel (freeze() adds them)")
        return ch

    def channels_between(self, src: int, dst: int) -> list[Channel]:
        """All virtual channels on the physical link ``src -> dst``."""
        self._check_node(src)
        return [c for c in self._out[src] if c.dst == dst]

    def neighbors_out(self, node: int) -> list[int]:
        """Distinct nodes reachable from ``node`` over one link channel."""
        seen: dict[int, None] = {}
        for c in self._out[node]:
            seen.setdefault(c.dst, None)
        return list(seen)

    def physical_links(self) -> list[tuple[int, int]]:
        """Distinct ``(src, dst)`` pairs that carry at least one link channel."""
        seen: dict[tuple[int, int], None] = {}
        for c in self._channels:
            if c.is_link:
                seen.setdefault(c.endpoints, None)
        return list(seen)

    def max_vcs(self) -> int:
        """Largest number of virtual channels on any physical link."""
        counts: dict[tuple[int, int], int] = {}
        for c in self._channels:
            if c.is_link:
                counts[c.endpoints] = counts.get(c.endpoints, 0) + 1
        return max(counts.values(), default=0)

    def fingerprint(self) -> str:
        """Content-addressed digest of the network's structure.

        Covers nodes, every channel (endpoints, VC index, kind, label,
        generator metadata), coordinates, and network metadata -- any
        observable mutation yields a different fingerprint.  Memoized once
        the network is frozen (it is immutable from then on).
        """
        from ..pipeline.fingerprint import fingerprint_network

        if not self._frozen:
            return fingerprint_network(self)
        if self._fingerprint is None:
            self._fingerprint = fingerprint_network(self)
        return self._fingerprint

    def coord(self, node: int) -> tuple[int, ...]:
        try:
            return self.coords[node]
        except KeyError:
            raise NetworkError(f"network {self.name!r} has no coordinates for node {node}") from None

    def node_at(self, coord: Sequence[int]) -> int:
        """Inverse of :meth:`coord` (linear scan; generators cache their own)."""
        target = tuple(coord)
        for node, c in self.coords.items():
            if c == target:
                return node
        raise NetworkError(f"no node at coordinate {target}")

    def shortest_distances(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs hop distances over link channels (BFS per node).

        ``dist[src][dst]``, ``-1`` when unreachable.  Computed once per
        frozen network (it is immutable from then on); the rows are tuples,
        so callers share them safely.
        """
        if not self._frozen:
            return self._bfs_distances()
        if self._dist is None:
            self._dist = self._bfs_distances()
        return self._dist

    def _bfs_distances(self) -> tuple[tuple[int, ...], ...]:
        from collections import deque

        n = self._num_nodes
        rows = []
        for s in range(n):
            row = [-1] * n
            row[s] = 0
            dq = deque([s])
            while dq:
                u = dq.popleft()
                du = row[u]
                for c in self._out[u]:
                    v = c.dst
                    if row[v] < 0:
                        row[v] = du + 1
                        dq.append(v)
            rows.append(tuple(row))
        return tuple(rows)

    def __iter__(self) -> Iterator[Channel]:
        return iter(self._channels)

    def __repr__(self) -> str:
        n_link = sum(1 for c in self._channels if c.is_link)
        return f"<Network {self.name!r}: {self._num_nodes} nodes, {n_link} link channels>"

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_mutable(self) -> None:
        if self._frozen:
            raise NetworkError(f"network {self.name!r} is frozen")

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._num_nodes:
            raise NetworkError(f"node {node} out of range [0, {self._num_nodes})")

    def _is_strongly_connected(self) -> bool:
        # Forward and reverse BFS from node 0 over link channels.
        for adj in (self._out, self._in):
            seen = [False] * self._num_nodes
            seen[0] = True
            stack = [0]
            while stack:
                u = stack.pop()
                for c in adj[u]:
                    v = c.dst if adj is self._out else c.src
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            if not all(seen):
                return False
        return True


def network_from_edges(
    num_nodes: int,
    edges: Iterable[tuple[int, int] | tuple[int, int, int]],
    *,
    name: str = "custom",
) -> Network:
    """Build an arbitrary network from ``(src, dst)`` or ``(src, dst, num_vcs)`` tuples."""
    net = Network(name)
    net.add_nodes(num_nodes)
    for edge in edges:
        if len(edge) == 2:
            src, dst = edge  # type: ignore[misc]
            nvc = 1
        else:
            src, dst, nvc = edge  # type: ignore[misc]
        net.add_link_channels(src, dst, nvc)
    return net.freeze()
