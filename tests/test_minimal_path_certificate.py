"""``provides_minimal_path`` decides exactly what the path enumeration decides.

:func:`~repro.routing.properties.provides_minimal_path` reads the
per-destination routing-state graphs instead of enumerating permitted
paths pair by pair.  These tests pin that its result -- ``holds`` and the
counterexample message -- equals a per-pair enumeration reference on the
scenario registry, every fuzz generator family, Hypothesis-drawn ND and
CND routing tables, incremental-session overlays with links down, and a
relation whose routes do not leave their node (where the graphs alone
would decide wrongly).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.transitions import TransitionCache
from repro.fuzz.generators import FAMILIES, CaseSpec, build_case, stable_bits
from repro.incremental import IncrementalSession, LinkDown, default_fault_pair, default_table_edit
from repro.incremental.overlay import OverlayRouting
from repro.pipeline.engine import catalog_spec
from repro.routing.paths import enumerate_paths
from repro.routing.properties import provides_minimal_path
from repro.routing.relation import NodeDestRouting, RoutingAlgorithm
from repro.topology import build_ring
from tests.generative import SESSION_SEED, registry_relations, table_relations

MASTER = stable_bits(SESSION_SEED, "minimal-path-certificate-tests")


def _enumerated(ra: RoutingAlgorithm) -> tuple[bool, str]:
    """The reference: enumerate each pair's paths up to its distance."""
    net = ra.network
    dist = net.shortest_distances()
    for src in net.nodes:
        for dest in net.nodes:
            if src == dest:
                continue
            d = dist[src][dest]
            if not any(len(p) == d for p in enumerate_paths(ra, src, dest, max_hops=d)):
                return False, f"no minimal path permitted {src} -> {dest}"
    return True, ""


def _same_as_enumeration(ra: RoutingAlgorithm, tc: TransitionCache | None = None) -> str:
    """Assert the differential property; return the counterexample."""
    got = provides_minimal_path(ra, transitions=tc)
    assert (got.holds, got.counterexample) == _enumerated(ra), ra.describe()
    return got.counterexample


def test_registry_matches_enumeration():
    for _name, ra in registry_relations():
        _same_as_enumeration(ra)
        _same_as_enumeration(ra, TransitionCache(ra))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fuzz_families_match_enumeration(family):
    for i in range(6):
        _same_as_enumeration(build_case(CaseSpec(family, stable_bits(MASTER, family, i))))


@settings(max_examples=60)
@given(table_relations())
def test_table_relations_match_enumeration(ra):
    _same_as_enumeration(ra)


@pytest.mark.parametrize("name", ["duato-mesh", "west-first", "duato-torus", "duato-hypercube"])
def test_session_overlays_match_enumeration(name):
    """Read through the session's own transition cache after link and table
    deltas, the result equals the enumeration on a fresh overlay."""
    session = IncrementalSession(
        spec=catalog_spec(name, mesh_dims=(3, 3), torus_dims=(4, 4), hypercube_dim=3)
    )
    down, up = default_fault_pair(session)
    edit, revert = default_table_edit(session)
    for delta in (down, edit, up, revert):
        session.apply(delta)
        fresh = OverlayRouting(
            session.base, down=session.overlay.down, edits=dict(session.overlay.edits)
        )
        want = _enumerated(fresh)
        got = provides_minimal_path(session.overlay, transitions=session.tc)
        assert (got.holds, got.counterexample) == want, f"{name} after {delta!r}"


def test_link_down_breaks_minimality_first_pair_reported():
    """Both virtual channels of mesh link 4 -> 5 down: pairs (3, 5) and
    (4, 5) lose their only minimal path, and the first one is reported."""
    session = IncrementalSession(spec=catalog_spec("duato-mesh", mesh_dims=(3, 3)))
    for vc in (0, 1):
        session.apply(LinkDown(4, 5, vc))
    assert _same_as_enumeration(session.overlay, session.tc) == (
        "no minimal path permitted 3 -> 5"
    )
    duato = session.check().verdicts["duato"]
    assert duato.reason == (
        "condition not applicable: no minimal path for some pair: "
        "no minimal path permitted 3 -> 5"
    )


class _Teleporting(NodeDestRouting):
    """Shortest-path routing on a 6-ring, except that three cells toward node 3
    offer a channel leaving a different node.  The path 0 -> 3 taken through
    them is as long as the distance and simple, yet its nodes do not get
    one hop closer per hop, so only the enumeration accepts it."""

    name = "teleporting-ring"

    def route_nd(self, node, dest):
        net = self.network
        link = {(c.src, c.dst): c for c in net.link_channels}
        override = {(0, 3): (5, 4), (4, 3): (4, 5), (5, 3): (2, 3)}.get((node, dest))
        if override is not None:
            return frozenset({link[override]})
        dist = net.shortest_distances()
        return frozenset(
            c for c in net.out_channels(node) if dist[c.dst][dest] < dist[node][dest]
        )


def test_routes_not_leaving_their_node_fall_back_to_enumeration():
    assert _same_as_enumeration(_Teleporting(build_ring(6))) == (
        "no minimal path permitted 4 -> 3"
    )
