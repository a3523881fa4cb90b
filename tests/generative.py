"""Shared generators: random small networks and seeded routing relations.

Used by the property-based and differential suites (in the spirit of
arXiv:2503.04583's random-network exercise of deadlock conditions).  The
implementations live in :mod:`repro.fuzz.generators` -- the differential
fuzzing subsystem and the test suite exercise the same generator code --
and this module re-exports them plus the Hypothesis strategies that drive
them.

Every seed a strategy draws is folded together with the **session seed**
(:data:`SESSION_SEED`, from ``REPRO_TEST_SEED``, default 0) through the
keyed hash, so the whole generative surface re-randomizes from one
environment knob while the default run stays byte-reproducible across
machines.  Nothing reads global RNG state: two builds from the same draw
are identical objects table-for-table, and Hypothesis shrinking/replay
work unchanged.
"""

from __future__ import annotations

import os

from hypothesis import strategies as st

# Canonical implementations -- re-exported so existing imports keep working.
from repro.fuzz.generators import (
    ArbitraryRouting,
    RandomMinimalRouting,
    build_random_network,
    faulty_variant,
    stable_bits,
)
from repro.fuzz.table import TableCase
from repro.pipeline.engine import catalog_specs
from repro.routing.relation import RoutingAlgorithm, WaitPolicy

__all__ = [
    "ArbitraryRouting",
    "RandomMinimalRouting",
    "SESSION_SEED",
    "build_random_network",
    "derive_seed",
    "faulty_variant",
    "network_specs",
    "random_networks",
    "registry_relations",
    "routed_networks",
    "stable_bits",
    "table_relations",
]

#: the single seed all generative randomness in the suite derives from
SESSION_SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))


def derive_seed(*parts) -> int:
    """Fold drawn values into the session seed (32 deterministic bits)."""
    return stable_bits(SESSION_SEED, "session", *parts)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def network_specs(draw) -> tuple[int, tuple[tuple[int, int], ...], int]:
    """Draw ``(num_nodes, extra_links, vc_seed)`` for build_random_network."""
    n = draw(st.integers(min_value=2, max_value=4))
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=4,
    ))
    vc_seed = derive_seed("vc", draw(st.integers(min_value=0, max_value=2**16)))
    return n, tuple(tuple(e) for e in extra), vc_seed


def random_networks():
    """Strategy producing frozen random networks directly."""
    return network_specs().map(lambda spec: build_random_network(*spec))


@st.composite
def routed_networks(draw, wait_policy: WaitPolicy | None = None):
    """Draw a ``(network, RandomMinimalRouting)`` pair."""
    net = build_random_network(*draw(network_specs()))
    seed = derive_seed("route", draw(st.integers(min_value=0, max_value=2**16)))
    policy = wait_policy or draw(st.sampled_from([WaitPolicy.ANY, WaitPolicy.SPECIFIC]))
    return net, RandomMinimalRouting(net, seed, policy)


@st.composite
def table_relations(draw):
    """A random ND or CND routing table on a small random network.

    With ``minimal`` every entry offers only channels that shorten the
    distance to the destination, which is where the certificate can hold.
    """
    net = build_random_network(*draw(network_specs()))
    nd = draw(st.booleans())
    minimal = draw(st.booleans())
    dist = net.shortest_distances()
    routes: dict[str, list[int]] = {}
    inputs = [net.injection_channel(n) for n in net.nodes] + list(net.link_channels)
    for dest in net.nodes:
        for c_in in ([net.injection_channel(n) for n in net.nodes] if nd else inputs):
            node = c_in.dst
            if node == dest:
                continue
            options = [
                c.cid for c in net.out_channels(node)
                if not minimal or dist[c.dst][dest] < dist[node][dest]
            ]
            pick = draw(st.integers(min_value=0, max_value=2 ** len(options) - 1))
            chosen = [cid for i, cid in enumerate(options) if pick >> i & 1]
            if not chosen:
                continue
            key = f"n{node}->{dest}" if nd else (
                f"c{c_in.cid}->{dest}" if c_in.is_link else f"i{node}->{dest}"
            )
            routes[key] = chosen
    case = TableCase(
        name=f"table-{derive_seed(nd, minimal, len(routes))}",
        num_nodes=net.num_nodes,
        channels=[(c.src, c.dst, c.vc) for c in net.link_channels],
        nd=nd,
        wait_policy="any",
        routes=routes,
    )
    return case.build()


def registry_relations() -> list[tuple[str, RoutingAlgorithm]]:
    """Every registry scenario at two sizes (fixed topologies once)."""
    seen = set()
    out = []
    for sizes in (
        {"mesh_dims": (3, 3), "torus_dims": (3, 3), "hypercube_dim": 2},
        {"mesh_dims": (4, 4), "torus_dims": (4, 4), "hypercube_dim": 3},
    ):
        for spec in catalog_specs(**sizes):
            key = (spec.algorithm, spec.topology)
            if key not in seen:
                seen.add(key)
                out.append((spec.algorithm, spec.build()))
    return out
