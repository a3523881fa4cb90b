"""Materialized routing tables: the shrinkable, replayable case form.

A fuzz case starts life as a ``(family, seed)`` spec, but the shrinker and
the corpus need something they can *edit*: delete a channel, drop a relation
entry, thin a route set.  :class:`TableCase` is that form -- the network as
an explicit channel list and the routing relation as an explicit table,
plain JSON-able data with no reference to the generator that produced it.

Channel identity is positional: ``channels[i]`` becomes the link channel
with ``cid == i`` when the case is rebuilt (link channels are added in list
order before ``freeze()`` appends injection/ejection channels), so table
keys can name channels by index and survive serialization.

Table keys (``->`` separates state from destination):

* ``"n{node}->{dest}"`` -- ND-form relations, one entry per (node, dest);
* ``"c{idx}->{dest}"`` -- CND-form, input = link channel ``idx``;
* ``"i{node}->{dest}"`` -- CND-form, input = the injection channel at ``node``.

A missing key means the empty route set, which the verifiers read as "not
wait-connected" -- the shrinker relies on that to delete entries without
inventing new topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..routing.relation import RoutingAlgorithm, WaitPolicy
from ..topology.channel import Channel
from ..topology.network import Network


def _key_nd(node: int, dest: int) -> str:
    return f"n{node}->{dest}"


def _key_cnd(c_in: Channel, dest: int) -> str:
    if c_in.is_link:
        return f"c{c_in.cid}->{dest}"
    return f"i{c_in.src}->{dest}"


@dataclass
class TableCase:
    """An editable, serializable materialization of one fuzz case."""

    name: str
    num_nodes: int
    #: ``channels[i] = (src, dst, vc)``; list position is the channel id
    channels: list[tuple[int, int, int]]
    #: relation form: True for R(n, d), False for R(c_in, n, d)
    nd: bool
    wait_policy: str
    #: table key -> permitted channel indices (sorted)
    routes: dict[str, list[int]]
    #: table key -> waiting channel indices (subset of routes[key])
    waits: dict[str, list[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # capture / rebuild
    # ------------------------------------------------------------------
    @classmethod
    def materialize(cls, algorithm: RoutingAlgorithm) -> "TableCase":
        """Snapshot an algorithm's full reachable table.

        Requires the network's link channels to carry dense ids
        ``0..L-1`` (true for every repo topology builder and for
        :func:`delete_channels` rebuilds, which renumber).
        """
        net = algorithm.network
        links = net.link_channels
        for i, c in enumerate(links):
            if c.cid != i:
                raise ValueError(
                    f"cannot materialize {net.name}: link channel ids are not dense "
                    f"(channel {c!r} at position {i})"
                )
        nd = algorithm.form == "ND"
        routes: dict[str, list[int]] = {}
        waits: dict[str, list[int]] = {}

        # Walk only *reachable* routing states (the state space the
        # verifiers and the simulator touch): relations may legitimately
        # refuse -- or even raise on -- queries for states no message can
        # reach, and those states cannot affect any verdict.
        from ..core.transitions import TransitionCache

        for dt in TransitionCache(algorithm).all_destinations():
            for c_in, out in dt.succ.items():
                if not out:
                    continue
                node = c_in.dst
                key = _key_nd(node, dt.dest) if nd else _key_cnd(c_in, dt.dest)
                routes[key] = sorted(c.cid for c in out)
                waits[key] = sorted(c.cid for c in dt.wait[c_in])
        return cls(
            name=f"table[{algorithm.name}]",
            num_nodes=net.num_nodes,
            channels=[(c.src, c.dst, c.vc) for c in links],
            nd=nd,
            wait_policy=algorithm.wait_policy.value,
            routes=routes,
            waits=waits,
        )

    def build(self) -> "TableRouting":
        """Rebuild the network and relation; raises if the channel list no
        longer forms a strongly connected network (shrinker candidates that
        disconnect the topology die here)."""
        net = Network(self.name)
        net.add_nodes(self.num_nodes)
        for src, dst, vc in self.channels:
            net.add_channel(src, dst, vc=vc)
        return TableRouting(net.freeze(), self)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "num_nodes": self.num_nodes,
            "channels": [list(c) for c in self.channels],
            "nd": self.nd,
            "wait_policy": self.wait_policy,
            "routes": self.routes,
            "waits": self.waits,
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "TableCase":
        return cls(
            name=str(doc["name"]),
            num_nodes=int(doc["num_nodes"]),
            channels=[tuple(int(x) for x in c) for c in doc["channels"]],
            nd=bool(doc["nd"]),
            wait_policy=str(doc["wait_policy"]),
            routes={k: [int(i) for i in v] for k, v in doc["routes"].items()},
            waits={k: [int(i) for i in v] for k, v in doc["waits"].items()},
        )

    # ------------------------------------------------------------------
    # edits (all return new cases; the shrinker never mutates in place)
    # ------------------------------------------------------------------
    def remove_channel(self, idx: int) -> "TableCase":
        """Delete channel ``idx``; later channels shift down one id."""
        remap = {i: (i if i < idx else i - 1)
                 for i in range(len(self.channels)) if i != idx}

        def fix_key(key: str) -> str | None:
            if key.startswith("c"):
                cid, _, dest = key[1:].partition("->")
                old = int(cid)
                if old == idx:
                    return None  # the input channel itself is gone
                return f"c{remap[old]}->{dest}"
            return key

        routes: dict[str, list[int]] = {}
        waits: dict[str, list[int]] = {}
        for key, chans in self.routes.items():
            nk = fix_key(key)
            if nk is None:
                continue
            kept = [remap[c] for c in chans if c != idx]
            if not kept:
                continue
            routes[nk] = kept
            w = [remap[c] for c in self.waits.get(key, []) if c != idx]
            waits[nk] = w or kept[:1]
        return TableCase(
            name=self.name,
            num_nodes=self.num_nodes,
            channels=[c for i, c in enumerate(self.channels) if i != idx],
            nd=self.nd,
            wait_policy=self.wait_policy,
            routes=routes,
            waits=waits,
        )

    def remove_node(self, node: int) -> "TableCase":
        """Delete a node, its channels, and every entry touching it."""
        node_map = {n: (n if n < node else n - 1)
                    for n in range(self.num_nodes) if n != node}
        keep_ch = [i for i, (s, d, _) in enumerate(self.channels)
                   if s != node and d != node]
        ch_map = {old: new for new, old in enumerate(keep_ch)}

        def fix_key(key: str) -> str | None:
            head, _, dest = key.partition("->")
            d = int(dest)
            if d == node:
                return None
            tag, val = head[0], int(head[1:])
            if tag == "c":
                if val not in ch_map:
                    return None
                return f"c{ch_map[val]}->{node_map[d]}"
            if val == node:
                return None
            return f"{tag}{node_map[val]}->{node_map[d]}"

        routes: dict[str, list[int]] = {}
        waits: dict[str, list[int]] = {}
        for key, chans in self.routes.items():
            nk = fix_key(key)
            if nk is None:
                continue
            kept = [ch_map[c] for c in chans if c in ch_map]
            if not kept:
                continue
            routes[nk] = kept
            w = [ch_map[c] for c in self.waits.get(key, []) if c in ch_map]
            waits[nk] = w or kept[:1]
        return TableCase(
            name=self.name,
            num_nodes=self.num_nodes - 1,
            channels=[(node_map[s], node_map[d], vc)
                      for i, (s, d, vc) in enumerate(self.channels) if i in ch_map],
            nd=self.nd,
            wait_policy=self.wait_policy,
            routes=routes,
            waits=waits,
        )

    def drop_entry(self, key: str) -> "TableCase":
        routes = {k: v for k, v in self.routes.items() if k != key}
        waits = {k: v for k, v in self.waits.items() if k != key}
        return TableCase(self.name, self.num_nodes, list(self.channels),
                         self.nd, self.wait_policy, routes, waits)

    def thin_entry(self, key: str, channel_idx: int) -> "TableCase":
        """Remove one channel from one route set (and its waiting set)."""
        kept = [c for c in self.routes[key] if c != channel_idx]
        routes = dict(self.routes)
        waits = dict(self.waits)
        if not kept:
            routes.pop(key)
            waits.pop(key, None)
        else:
            routes[key] = kept
            w = [c for c in self.waits.get(key, []) if c != channel_idx]
            waits[key] = w or kept[:1]
        return TableCase(self.name, self.num_nodes, list(self.channels),
                         self.nd, self.wait_policy, routes, waits)

    # ------------------------------------------------------------------
    def size(self) -> tuple[int, int, int]:
        """(channels, nodes, table entries) -- the shrinker's cost order."""
        return (len(self.channels), self.num_nodes, len(self.routes))

    def describe(self) -> str:
        ch = ", ".join(f"c{i}:{s}->{d}/vc{vc}"
                       for i, (s, d, vc) in enumerate(self.channels))
        lines = [
            f"{self.name}: {self.num_nodes} nodes, {len(self.channels)} channels, "
            f"{len(self.routes)} table entries, wait={self.wait_policy}",
            f"  channels: {ch}",
        ]
        for key in sorted(self.routes):
            r = ",".join(f"c{c}" for c in self.routes[key])
            w = ",".join(f"c{c}" for c in self.waits.get(key, []))
            lines.append(f"  {key}: route {{{r}}} wait {{{w}}}")
        return "\n".join(lines)


class TableRouting(RoutingAlgorithm):
    """A routing relation driven entirely by a :class:`TableCase`."""

    def __init__(self, network: Network, case: TableCase) -> None:
        super().__init__(network)
        self.case = case
        self.name = case.name
        self.form = "ND" if case.nd else "CND"
        self.wait_policy = WaitPolicy(case.wait_policy)

    def _key(self, c_in: Channel, node: int, dest: int) -> str:
        if self.case.nd:
            return _key_nd(node, dest)
        return _key_cnd(c_in, dest)

    def _lookup(self, table: dict[str, list[int]], c_in: Channel,
                node: int, dest: int) -> frozenset[Channel]:
        if node == dest:
            return frozenset()
        cids = table.get(self._key(c_in, node, dest))
        if not cids:
            return frozenset()
        channel = self.network.channel
        return frozenset(channel(c) for c in cids)

    def route(self, c_in: Channel, node: int, dest: int) -> frozenset[Channel]:
        return self._lookup(self.case.routes, c_in, node, dest)

    def waiting_subset(self, c_in: Channel, node: int, dest: int,
                       permitted: frozenset[Channel]) -> frozenset[Channel]:
        # a table may list waits outside the route set: they are read from
        # the case, not narrowed from ``permitted``
        return self._lookup(self.case.waits, c_in, node, dest) or permitted
