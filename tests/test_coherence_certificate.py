"""The coherence certificate never changes what ``is_coherent`` reports.

:func:`~repro.routing.properties.is_coherent` first tries a sufficient
certificate read off the per-destination routing-state graphs and runs the
path enumeration only when it declines.  These tests pin that the result --
``(holds, counterexample, details)`` -- equals the enumeration's alone on
the scenario registry, every fuzz generator family and Hypothesis-drawn
routing tables, and pin the cases where the certificate must decline.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.transitions import TransitionCache
from repro.fuzz.generators import FAMILIES, CaseSpec, build_case, stable_bits
from repro.pipeline.engine import catalog_spec
from repro.routing.properties import (
    certifies_coherence,
    enumerate_coherence,
    is_coherent,
)
from repro.routing.relation import NodeDestRouting, RoutingAlgorithm
from repro.topology import build_ring
from tests.generative import SESSION_SEED, registry_relations, table_relations

MASTER = stable_bits(SESSION_SEED, "coherence-certificate-tests")


def _same_as_enumeration(ra: RoutingAlgorithm) -> bool:
    """Assert the differential property; return whether the certificate held."""
    certified = certifies_coherence(ra, TransitionCache(ra))
    got = is_coherent(ra)
    want = enumerate_coherence(ra)
    assert (got.holds, got.counterexample, got.details) == (
        want.holds, want.counterexample, want.details
    ), ra.describe()
    assert want.holds or not certified, f"certificate accepted incoherent {ra.describe()}"
    return certified


def test_registry_matches_enumeration():
    certified = {name for name, ra in registry_relations() if _same_as_enumeration(ra)}
    # the certificate decides the coherent scenarios itself
    assert "duato-mesh" in certified and "adaptive-mesh3d" in certified


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fuzz_families_match_enumeration(family):
    for i in range(6):
        _same_as_enumeration(build_case(CaseSpec(family, stable_bits(MASTER, family, i))))


def test_mutated_and_cnd_relations_are_covered():
    forms = set()
    for i in range(12):
        ra = build_case(CaseSpec("mutated-catalog", stable_bits(MASTER, "mutated", i)))
        forms.add(ra.form)
        _same_as_enumeration(ra)
    for i in range(12):
        ra = build_case(CaseSpec("arbitrary", stable_bits(MASTER, "arbitrary", i)))
        forms.add(ra.form)
        _same_as_enumeration(ra)
    assert forms == {"ND", "CND"}


@settings(max_examples=60)
@given(table_relations())
def test_table_relations_match_enumeration(ra):
    _same_as_enumeration(ra)


class _AnyOutput(NodeDestRouting):
    """Every output channel at every node: cyclic and nonminimal."""

    name = "any-output"

    def route_nd(self, node, dest):
        return frozenset(self.network.out_channels(node))


def _declines(ra: RoutingAlgorithm) -> str:
    assert not certifies_coherence(ra, TransitionCache(ra))
    rep = is_coherent(ra)
    assert not rep.holds
    want = enumerate_coherence(ra)
    assert (rep.counterexample, rep.details) == (want.counterexample, want.details)
    return rep.counterexample


def test_cyclic_nonminimal_relation_is_left_to_the_enumeration():
    ra = _AnyOutput(build_ring(4))
    assert _declines(ra) == "not node-revisit-free: path 0->1 revisits a node"


def test_hpl_cnd_form_is_left_to_the_enumeration():
    ra = catalog_spec("highest-positive-last", mesh_dims=(3, 3)).build()
    assert ra.form == "CND"
    assert _declines(ra) == "not node-revisit-free: path 1->2 revisits a node"


@pytest.mark.parametrize("name, reason", [
    ("incoherent-example",
     "not prefix-closed: path 2->0 via 1: prefix of 1 hops not permitted "
     "when 1 is the destination"),
    ("enhanced-fully-adaptive",
     "not prefix-closed: path 1->6 via 7: prefix of 2 hops not permitted "
     "when 7 is the destination"),
    ("li-hypercube",
     "not prefix-closed: path 1->6 via 7: prefix of 2 hops not permitted "
     "when 7 is the destination"),
    ("duato-torus",
     "not prefix-closed: path 2->0 via 3: prefix of 1 hops not permitted "
     "when 3 is the destination"),
    ("dally-seitz-torus",
     "not prefix-closed: path 2->0 via 3: prefix of 1 hops not permitted "
     "when 3 is the destination"),
])
def test_incoherent_scenarios_keep_their_reasons(name, reason):
    assert _declines(catalog_spec(name).build()) == reason
