"""The coherence decision never changes what ``is_coherent`` reports.

:func:`~repro.routing.properties.is_coherent` decides Definition 7 on the
per-destination routing-state graphs and enumerates paths only for the
``(src, dest)`` pairs its certificate flags.  These tests pin that the
result -- ``(holds, counterexample, details)`` -- equals the full per-pair
enumeration's (:func:`tests.coherence_references.enumerate_coherence`) on
the scenario registry, every fuzz generator family, Hypothesis-drawn
routing tables and incremental overlays after a fault and a table edit;
that the row form of the certificate agrees with the per-state one on
every ``R(n, d)`` relation; and the cases where the certificate must
decline, with the enumeration work they cost.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.transitions import TransitionCache
from repro.fuzz.generators import FAMILIES, CaseSpec, build_case, stable_bits
from repro.incremental import IncrementalSession, default_fault_pair, default_table_edit
from repro.pipeline.engine import catalog_spec
from repro.routing import properties
from repro.routing.properties import certifies_coherence, is_coherent
from repro.routing.relation import NodeDestRouting, RoutingAlgorithm, is_node_dest
from repro.topology import build_ring
from tests.coherence_references import enumerate_coherence, per_state_certificate
from tests.generative import SESSION_SEED, registry_relations, table_relations

MASTER = stable_bits(SESSION_SEED, "coherence-certificate-tests")


def _same_as_enumeration(ra: RoutingAlgorithm) -> bool:
    """Assert the differential properties; return whether the certificate held."""
    certified = certifies_coherence(ra, TransitionCache(ra))
    if is_node_dest(ra):
        assert certified == per_state_certificate(ra, TransitionCache(ra)), ra.describe()
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


def test_row_certificate_matches_per_state_at_deep_verify_sizes():
    """The row certificate answers as the per-state one on every ``R(n, d)``
    registry relation at deep-verify sizes, where the full enumeration is
    too slow to be the reference."""
    from repro.pipeline.engine import catalog_specs

    seen = 0
    for spec in catalog_specs(mesh_dims=(8, 8), torus_dims=(6, 6), hypercube_dim=5):
        ra = spec.build()
        if is_node_dest(ra):
            tc = TransitionCache(ra)
            assert certifies_coherence(ra, tc) == per_state_certificate(ra, tc), spec
            seen += 1
    assert seen >= 15


@pytest.mark.parametrize("name", [
    "duato-mesh", "west-first", "duato-torus", "enhanced-fully-adaptive",
    "e-cube", "li-hypercube",
])
def test_service_overlays_match_enumeration(name):
    """Overlays of ``R(n, d)`` relations are ``R(n, d)`` too; after a link
    goes down and after a table edit (the service path) the row
    certificate and the flagged-pair enumeration still answer as the full
    enumeration on the session's own walks."""
    session = IncrementalSession(spec=catalog_spec(
        name, mesh_dims=(3, 3), torus_dims=(3, 3), hypercube_dim=3))
    session.baseline()
    assert is_node_dest(session.overlay)
    down, _up = default_fault_pair(session)
    edit, _revert = default_table_edit(session)
    for delta in (down, edit):
        session.apply(delta)
        ov, tc = session.overlay, session.tc
        assert certifies_coherence(ov, tc) == per_state_certificate(ov, tc)
        got = is_coherent(ov, transitions=tc)
        want = enumerate_coherence(ov)
        assert (got.holds, got.counterexample, got.details) == (
            want.holds, want.counterexample, want.details), (name, delta)


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


def test_duato_torus_words_its_counterexample_with_one_pair(monkeypatch):
    """Only flagged pairs are enumerated, and duato-torus's first flagged
    prefix pair is the failing one: one ``prefix_closed_pair`` call, and no
    other pair check, words the counterexample."""
    calls = []
    for check in ("prefix_closed_pair", "suffix_closed_pair", "revisit_free_pair"):
        real = getattr(properties, check)

        def counted(*args, _real=real, _name=check, **kwargs):
            calls.append((_name, args[1:3]))
            return _real(*args, **kwargs)

        monkeypatch.setattr(properties, check, counted)
    ra = catalog_spec("duato-torus").build()
    assert ra.network.name == "torus(4, 4)"
    rep = is_coherent(ra)
    assert rep.counterexample.startswith("not prefix-closed: path 2->0 via 3")
    assert calls == [("prefix_closed_pair", (2, 0))]


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
