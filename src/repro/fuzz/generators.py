"""Seeded case generators: random networks and random routing relations.

Differential fuzzing needs a stream of *reproducible* cases: everything a
generator decides is a pure function of an integer seed pushed through a
keyed hash (:func:`stable_bits`), never of global RNG state, so any case can
be rebuilt bit-for-bit from its :class:`CaseSpec` -- in a worker process, in
a failing-test report, or years later from a corpus file.

Families
--------
``irregular``
    Small strongly connected multigraphs (directed ring + extra links, 1-3
    virtual channels per physical link) routed by a seeded minimal relation.
``faulty-mesh`` / ``faulty-torus`` / ``faulty-hypercube``
    Regular topologies with randomly deleted link channels (strong
    connectivity preserved by construction), routed by the same seeded
    minimal relation -- it is distance-based, so it adapts to the faults
    (connected by construction) where the catalog algorithms would not.
``mutated-catalog``
    A cataloged algorithm on its small standard topology with a seeded
    mutation of its routing/waiting tables (route sets thinned, waiting
    sets re-picked).  Mutants land on both sides of every verdict.
``arbitrary``
    A completely arbitrary relation of the paper's general form
    ``R : C x N x N -> P(C)``: a seeded nonempty subset of the output
    channels per (input channel, node, destination) state, minimal or not,
    connected or not.
``escape-wild``
    Dimension-order routing on VC class 0 plus a seeded *nonminimal* "wild"
    layer on VC class 1 of a small mesh -- the shape for which Duato-style
    escape-channel analysis needs indirect dependencies.
``adaptive-3d``
    A small 3D mesh -- dense, or pillar-sparse with a seeded kept-column
    subset -- built through the scenario layer's :class:`TopologySpec`
    codec and routed by the table-driven minimal-adaptive 3D relation
    (escape on VC 0).  A seeded fraction of cases mutates the tables, so
    the family lands on both sides of the escape-subfunction verdicts.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Any

from ..routing.adaptive3d import MinimalAdaptive3D
from ..routing.catalog import CATALOG, make
from ..routing.relation import NodeDestRouting, RoutingAlgorithm, WaitPolicy
from ..scenario import TopologySpec
from ..topology import build_hypercube, build_mesh, build_torus
from ..topology.channel import Channel
from ..topology.network import Network


def stable_bits(seed: int, *parts) -> int:
    """32 deterministic bits keyed on ``seed`` and the given parts."""
    text = "/".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=4).digest(), "big")


def _pick(seed: int, options: Sequence, *parts):
    """Deterministic choice from ``options`` keyed on ``(seed, *parts)``."""
    return options[stable_bits(seed, "pick", *parts) % len(options)]


def _subset(seed: int, items: Sequence, *parts, keep_probability_num: int = 1,
            keep_probability_den: int = 2) -> list:
    """Seeded subset of ``items`` (possibly empty); order preserved."""
    th = keep_probability_num * 2**32 // keep_probability_den
    return [x for i, x in enumerate(items) if stable_bits(seed, "sub", i, *parts) < th]


def _nonempty_subset(seed: int, items: Sequence, *parts) -> list:
    """Seeded nonempty subset of ``items``; falls back to everything."""
    kept = _subset(seed, items, *parts)
    return kept or list(items)


# ----------------------------------------------------------------------
# case specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CaseSpec:
    """One fuzz case: a family name plus the seed every decision hangs off.

    Plain picklable/JSON-able data -- the process pool and the corpus store
    specs, never live networks or relations.
    """

    family: str
    seed: int

    def key(self) -> str:
        return f"{self.family}:{self.seed}"

    def to_json(self) -> dict[str, Any]:
        return {"family": self.family, "seed": self.seed}

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "CaseSpec":
        return cls(family=str(doc["family"]), seed=int(doc["seed"]))


def case_stream(master_seed: int, families: Sequence[str] | None = None,
                start: int = 0) -> Iterator[CaseSpec]:
    """Infinite deterministic stream of case specs, round-robin by family."""
    fams = tuple(families or DEFAULT_FAMILIES)
    unknown = [f for f in fams if f not in FAMILIES]
    if unknown:
        raise ValueError(f"unknown fuzz families {unknown}; have {sorted(FAMILIES)}")
    i = start
    while True:
        yield CaseSpec(fams[i % len(fams)], stable_bits(master_seed, "case", i))
        i += 1


def build_case(spec: CaseSpec) -> RoutingAlgorithm:
    """Rebuild a case's routing algorithm (and network) from its spec."""
    try:
        builder = FAMILIES[spec.family]
    except KeyError:
        raise ValueError(f"unknown fuzz family {spec.family!r}; have {sorted(FAMILIES)}") from None
    return builder(spec.seed)


# ----------------------------------------------------------------------
# networks
# ----------------------------------------------------------------------
def build_random_network(
    num_nodes: int,
    extra_links: tuple[tuple[int, int], ...],
    vc_seed: int,
) -> Network:
    """A strongly connected multigraph: a directed ring plus extra links.

    The ring ``0 -> 1 -> ... -> 0`` guarantees Definition 1's strong
    connectivity for any extra-link set; each physical link carries 1-3
    virtual channels chosen by ``vc_seed``.
    """
    net = Network(f"rand({num_nodes}n,{len(extra_links)}x,{vc_seed})")
    net.add_nodes(num_nodes)
    links = {(i, (i + 1) % num_nodes) for i in range(num_nodes)}
    links |= {(a % num_nodes, b % num_nodes) for a, b in extra_links
              if a % num_nodes != b % num_nodes}
    for a, b in sorted(links):
        net.add_link_channels(a, b, 1 + stable_bits(vc_seed, a, b) % 3)
    return net.freeze()


def _strongly_connected_without(net: Network, removed: set[int]) -> bool:
    """Is the link graph still strongly connected with ``removed`` cids gone?"""
    n = net.num_nodes
    for backward in (False, True):
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            u = stack.pop()
            for c in (net.in_channels(u) if backward else net.out_channels(u)):
                if c.cid in removed:
                    continue
                v = c.src if backward else c.dst
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        if not all(seen):
            return False
    return True


def delete_channels(net: Network, cids: set[int], *, name: str | None = None) -> Network:
    """Copy ``net`` without the link channels in ``cids`` (a faulty variant).

    Coordinates and channel/network metadata are carried over; injection and
    ejection channels are re-created by ``freeze()``.  Raises
    :class:`~repro.topology.network.NetworkError` if the survivors are not
    strongly connected.
    """
    out = Network(name or f"{net.name}-faulty{len(cids)}")
    out.add_nodes(net.num_nodes)
    out.coords = dict(net.coords)
    out.meta = dict(net.meta)
    for c in net.link_channels:
        if c.cid in cids:
            continue
        out.add_channel(c.src, c.dst, vc=c.vc, label=c.label, **dict(c.meta))
    return out.freeze()


def faulty_variant(net: Network, seed: int, *, max_deletions: int = 2) -> Network:
    """Delete up to ``max_deletions`` seeded link channels, keeping Definition 1.

    Candidate channels are tried in a seeded order; a deletion is kept only
    if the remaining link graph stays strongly connected, so every emitted
    network is a valid (if degraded) interconnection network.
    """
    removed: set[int] = set()
    order = sorted(net.link_channels,
                   key=lambda c: stable_bits(seed, "fault", c.cid))
    for c in order:
        if len(removed) >= max_deletions:
            break
        trial = removed | {c.cid}
        if _strongly_connected_without(net, trial):
            removed = trial
    return delete_channels(net, removed, name=f"{net.name}-f{seed % 1000}({len(removed)}d)")


# ----------------------------------------------------------------------
# routing relations
# ----------------------------------------------------------------------
class RandomMinimalRouting(NodeDestRouting):
    """Seeded minimal routing relation on an arbitrary network.

    The route set at ``(node, dest)`` is a seeded nonempty subset of the
    outgoing channels that strictly decrease BFS distance to ``dest`` --
    connected by construction (every node short of the destination always
    offers at least one minimal channel on a strongly connected network).
    Under :attr:`WaitPolicy.SPECIFIC` the waiting channel is a seeded
    single pick from the route set; under :attr:`WaitPolicy.ANY` the whole
    route set.  Nothing guarantees deadlock freedom -- 1-VC rings routinely
    produce True Cycles -- which is the point: verdicts land on both sides.
    """

    name = "random-minimal"

    def __init__(self, network: Network, seed: int,
                 wait_policy: WaitPolicy = WaitPolicy.ANY) -> None:
        super().__init__(network)
        self.seed = seed
        self.wait_policy = wait_policy
        self.name = f"random-minimal#{seed}-{wait_policy.value}"
        self._dist = network.shortest_distances()

    def route_nd(self, node: int, dest: int):
        if node == dest:
            return frozenset()
        d = self._dist[node][dest]
        minimal = sorted(
            (c for c in self.network.out_channels(node)
             if self._dist[c.dst][dest] == d - 1),
            key=lambda c: c.cid,
        )
        keep = [c for c in minimal if stable_bits(self.seed, node, dest, c.cid) & 1]
        return frozenset(keep or minimal)

    def waiting_subset(self, c_in, node: int, dest: int, permitted):
        if self.wait_policy is not WaitPolicy.SPECIFIC or not permitted:
            return permitted
        ordered = sorted(permitted, key=lambda c: c.cid)
        pick = stable_bits(self.seed, node, dest, "wait") % len(ordered)
        return frozenset([ordered[pick]])


class ArbitraryRouting(RoutingAlgorithm):
    """An arbitrary relation of the paper's general form ``R(c_in, n, d)``.

    Every routing state gets a seeded nonempty subset of the node's output
    channels (minimality, coherence, and even connectivity are *not*
    guaranteed), and a waiting set that is a seeded nonempty subset of the
    route set.  This is the relation class only the CWG condition covers.
    """

    form = "CND"
    name = "arbitrary"

    def __init__(self, network: Network, seed: int,
                 wait_policy: WaitPolicy = WaitPolicy.ANY) -> None:
        super().__init__(network)
        self.seed = seed
        self.wait_policy = wait_policy
        self.name = f"arbitrary#{seed}-{wait_policy.value}"

    def _state_key(self, c_in: Channel) -> int:
        # All injection inputs at a node share one key so the relation stays
        # well-defined for any entry channel the simulator presents.
        return c_in.cid if c_in.is_link else -1 - c_in.src

    def route(self, c_in: Channel, node: int, dest: int) -> frozenset[Channel]:
        if node == dest:
            return frozenset()
        out = sorted(self.network.out_channels(node), key=lambda c: c.cid)
        key = self._state_key(c_in)
        return frozenset(_nonempty_subset(self.seed, out, "route", key, dest))

    def waiting_subset(self, c_in: Channel, node: int, dest: int,
                       permitted: frozenset[Channel]) -> frozenset[Channel]:
        if not permitted:
            return permitted
        ordered = sorted(permitted, key=lambda c: c.cid)
        key = self._state_key(c_in)
        if self.wait_policy is WaitPolicy.SPECIFIC:
            pick = stable_bits(self.seed, "wait", key, dest) % len(ordered)
            return frozenset([ordered[pick]])
        return frozenset(_nonempty_subset(self.seed, ordered, "waitset", key, dest))


class MutatedRouting(RoutingAlgorithm):
    """A seeded mutation of an existing algorithm's routing/waiting tables.

    Mutation is keyed on ``(node, dest)`` only, so an ND-form inner relation
    stays ND-form (and Duato-applicable when it was).  Route sets are
    thinned (each channel dropped with probability 1/4, never to empty);
    waiting sets are the surviving inner waits, re-picked when mutation
    emptied them.  The mutant may or may not preserve deadlock freedom --
    that is what the oracles decide.
    """

    def __init__(self, inner: RoutingAlgorithm, seed: int) -> None:
        super().__init__(inner.network)
        self.inner = inner
        self.seed = seed
        self.form = inner.form
        self.wait_policy = inner.wait_policy
        self.name = f"{inner.name}~mut{seed}"

    def _kept(self, node: int, dest: int) -> frozenset[Channel]:
        base = sorted(self.inner.route(self.network.injection_channel(node), node, dest),
                      key=lambda c: c.cid)
        kept = [c for c in base
                if stable_bits(self.seed, "keep", node, dest, c.cid) % 4 != 0]
        return frozenset(kept or base)

    def route(self, c_in: Channel, node: int, dest: int) -> frozenset[Channel]:
        if node == dest:
            return frozenset()
        full = self.inner.route(c_in, node, dest)
        if self.form == "ND":
            return self._kept(node, dest)
        kept = full & self._kept(node, dest) if full else frozenset()
        return kept or full

    def waiting_subset(self, c_in: Channel, node: int, dest: int,
                       permitted: frozenset[Channel]) -> frozenset[Channel]:
        if not permitted:
            return permitted
        waits = self.inner.waiting_channels(c_in, node, dest) & permitted
        if waits:
            return waits
        ordered = sorted(permitted, key=lambda c: c.cid)
        pick = stable_bits(self.seed, "rewait", node, dest) % len(ordered)
        return frozenset([ordered[pick]])


class EscapeWildRouting(NodeDestRouting):
    """Dimension-order escape on VC 0 plus a seeded wild layer on VC 1.

    The wild layer is destination-independent: at each node a seeded subset
    of the VC-1 output channels is always permitted, minimal or not.  The
    escape hop is always offered too, so the relation provides a minimal
    path for every pair; nonminimal wild excursions while holding escape
    channels are exactly what creates *indirect* escape-to-escape
    dependencies (and, for unlucky seeds, reachable deadlocks).
    """

    name = "escape-wild"

    def __init__(self, network: Network, seed: int) -> None:
        super().__init__(network)
        self.seed = seed
        self.name = f"escape-wild#{seed}"
        self.wait_policy = WaitPolicy.ANY
        dims = network.meta.get("dims")
        if not dims:
            raise ValueError("escape-wild requires a mesh with dims metadata")
        self.dims = dims
        self._wild: dict[int, frozenset[Channel]] = {}
        for n in network.nodes:
            vc1 = sorted((c for c in network.out_channels(n) if c.vc == 1),
                         key=lambda c: c.cid)
            self._wild[n] = frozenset(_subset(seed, vc1, "wild", n))

    def _escape_hop(self, node: int, dest: int) -> Channel:
        """The XY (lowest-dimension-first) hop on VC 0."""
        here = self.network.coord(node)
        there = self.network.coord(dest)
        for dim, (a, b) in enumerate(zip(here, there)):
            if a == b:
                continue
            step = 1 if b > a else -1
            nxt = list(here)
            nxt[dim] = a + step
            target = self.network.node_at(tuple(nxt))
            for c in self.network.out_channels(node):
                if c.dst == target and c.vc == 0:
                    return c
        raise AssertionError("unreachable: node == dest handled by caller")

    def route_nd(self, node: int, dest: int):
        if node == dest:
            return frozenset()
        return frozenset({self._escape_hop(node, dest)} | self._wild[node])


# ----------------------------------------------------------------------
# family builders
# ----------------------------------------------------------------------
def _seeded_policy(seed: int, *parts) -> WaitPolicy:
    return WaitPolicy.SPECIFIC if stable_bits(seed, "policy", *parts) & 1 else WaitPolicy.ANY


def _family_irregular(seed: int) -> RoutingAlgorithm:
    n = 2 + stable_bits(seed, "n") % 4                      # 2-5 nodes
    extra = tuple(
        (stable_bits(seed, "ea", i) % n, stable_bits(seed, "eb", i) % n)
        for i in range(stable_bits(seed, "ne") % 5)          # 0-4 extra links
    )
    net = build_random_network(n, extra, stable_bits(seed, "vc"))
    return RandomMinimalRouting(net, stable_bits(seed, "r"), _seeded_policy(seed))


_FAULTY_MESH_DIMS = ((2, 2), (3, 2), (3, 3), (4, 2))
_FAULTY_TORUS_DIMS = ((3,), (4,), (5,), (3, 3))


def _family_faulty_mesh(seed: int) -> RoutingAlgorithm:
    dims = _pick(seed, _FAULTY_MESH_DIMS, "dims")
    vcs = 1 + stable_bits(seed, "vcs") % 2
    net = faulty_variant(build_mesh(dims, num_vcs=vcs), seed)
    return RandomMinimalRouting(net, stable_bits(seed, "r"), _seeded_policy(seed))


def _family_faulty_torus(seed: int) -> RoutingAlgorithm:
    dims = _pick(seed, _FAULTY_TORUS_DIMS, "dims")
    vcs = 1 + stable_bits(seed, "vcs") % 2
    net = faulty_variant(build_torus(dims, num_vcs=vcs), seed)
    return RandomMinimalRouting(net, stable_bits(seed, "r"), _seeded_policy(seed))


def _family_faulty_hypercube(seed: int) -> RoutingAlgorithm:
    dim = 2 + stable_bits(seed, "dim") % 2                  # 2- or 3-cube
    net = faulty_variant(build_hypercube(dim, num_vcs=1), seed)
    return RandomMinimalRouting(net, stable_bits(seed, "r"), _seeded_policy(seed))


#: the catalog slice the mutation family draws from: small instances, both
#: safe and unsafe parents, every waiting regime.  Topologies are scenario
#: spec strings (VC count resolves per parent from the registry entry).
_MUTATION_PARENTS: tuple[tuple[str, str], ...] = (
    ("e-cube-mesh", "mesh:3x3"),
    ("west-first", "mesh:3x3"),
    ("north-last", "mesh:2x3"),
    ("negative-first", "mesh:3x3"),
    ("highest-positive-last", "mesh:2x3"),
    ("duato-mesh", "mesh:2x3"),
    ("unrestricted-minimal", "mesh:2x3"),
    ("e-cube", "hypercube:3"),
    ("li-hypercube", "hypercube:3"),
)


def _family_mutated_catalog(seed: int) -> RoutingAlgorithm:
    name, topo = _pick(seed, _MUTATION_PARENTS, "parent")
    entry = CATALOG[name]
    net = TopologySpec.parse(topo).with_vcs(entry.min_vcs).build()
    return MutatedRouting(make(name, net), stable_bits(seed, "mut"))


def _family_arbitrary(seed: int) -> RoutingAlgorithm:
    n = 3 + stable_bits(seed, "n") % 2                      # 3-4 nodes
    extra = tuple(
        (stable_bits(seed, "ea", i) % n, stable_bits(seed, "eb", i) % n)
        for i in range(stable_bits(seed, "ne") % 4)
    )
    net = build_random_network(n, extra, stable_bits(seed, "vc"))
    return ArbitraryRouting(net, stable_bits(seed, "r"), _seeded_policy(seed))


_WILD_MESH_DIMS = ((2, 2), (3, 2), (2, 3))


def _family_escape_wild(seed: int) -> RoutingAlgorithm:
    dims = _pick(seed, _WILD_MESH_DIMS, "dims")
    net = build_mesh(dims, num_vcs=2)
    return EscapeWildRouting(net, stable_bits(seed, "wild"))


_MESH3D_DIMS = ((2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3))


def _family_adaptive_3d(seed: int) -> RoutingAlgorithm:
    """A 3D scenario-layer case: dense or pillar-sparse, real or mutated."""
    dims = _pick(seed, _MESH3D_DIMS, "dims")
    side = "x".join(map(str, dims))
    spec = f"mesh3d:{side}:v2"
    if stable_bits(seed, "sparse") & 1:
        columns = [(x, y) for x in range(dims[0]) for y in range(dims[1])]
        kept = _nonempty_subset(seed, columns, "pillars")
        joined = "+".join(f"{x}.{y}" for x, y in kept)
        spec = f"sparse-pillar:{side}:v2:pillars={joined}"
    base = MinimalAdaptive3D(TopologySpec.parse(spec).build())
    if stable_bits(seed, "mutate") % 3 == 0:
        return MutatedRouting(base, stable_bits(seed, "mut3d"))
    return base


FAMILIES = {
    "irregular": _family_irregular,
    "faulty-mesh": _family_faulty_mesh,
    "faulty-torus": _family_faulty_torus,
    "faulty-hypercube": _family_faulty_hypercube,
    "mutated-catalog": _family_mutated_catalog,
    "arbitrary": _family_arbitrary,
    "escape-wild": _family_escape_wild,
    "adaptive-3d": _family_adaptive_3d,
}

DEFAULT_FAMILIES = tuple(FAMILIES)
