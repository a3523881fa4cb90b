"""The prior-generation verifiers: Dally--Seitz and Duato's condition."""

from repro.routing import (
    DallySeitzTorus,
    DimensionOrderMesh,
    DuatoFullyAdaptiveHypercube,
    DuatoFullyAdaptiveMesh,
    EnhancedFullyAdaptive,
    HighestPositiveLast,
    IncoherentExample,
    NegativeFirst,
    UnrestrictedMinimal,
)
from repro.deps import escape_by_vc
from repro.verify import (
    applicability,
    dally_seitz,
    duato_condition,
    is_nonadaptive,
    search_escape,
)


class TestDallySeitz:
    def test_ecube_certified_iff(self, mesh33):
        v = dally_seitz(DimensionOrderMesh(mesh33))
        assert v.deadlock_free and v.necessary_and_sufficient

    def test_torus_dateline_certified(self, torus5_2vc):
        assert dally_seitz(DallySeitzTorus(torus5_2vc)).deadlock_free

    def test_adaptive_acyclic_sufficient_only(self, mesh33):
        v = dally_seitz(NegativeFirst(mesh33))
        assert v.deadlock_free and not v.necessary_and_sufficient

    def test_hpl_rejected_despite_safety(self, mesh33):
        """The headline gap: Dally-Seitz cannot certify HPL."""
        v = dally_seitz(HighestPositiveLast(mesh33))
        assert not v.deadlock_free and "cannot certify" in v.reason

    def test_is_nonadaptive(self, mesh33, cube3_2vc):
        assert is_nonadaptive(DimensionOrderMesh(mesh33))
        assert not is_nonadaptive(EnhancedFullyAdaptive(cube3_2vc))


class TestDuatoApplicability:
    def test_applicable_to_duato_algorithms(self, mesh33_2vc):
        ok, why = applicability(DuatoFullyAdaptiveMesh(mesh33_2vc))
        assert ok, why

    def test_rejects_cnd_form(self, mesh33):
        ok, why = applicability(HighestPositiveLast(mesh33))
        assert not ok and "form" in why

    def test_rejects_incoherent(self, cube3_2vc):
        ok, why = applicability(EnhancedFullyAdaptive(cube3_2vc))
        assert not ok and "coherent" in why


class TestDuatoCondition:
    def test_duato_mesh_certified(self, mesh33_2vc):
        ra = DuatoFullyAdaptiveMesh(mesh33_2vc)
        v = duato_condition(ra, escape_by_vc(ra, (0,)))
        assert v.deadlock_free and v.necessary_and_sufficient

    def test_bad_escape_not_fatal(self, mesh33_2vc):
        """A cyclic ECDG for one candidate R1 proves nothing (another R1
        might exist): the verdict must be sufficient-only."""
        ra = DuatoFullyAdaptiveMesh(mesh33_2vc)
        v = duato_condition(ra, frozenset(ra.network.link_channels))
        if not v.deadlock_free:
            assert not v.necessary_and_sufficient

    def test_search_escape_finds_vc0(self, mesh33_2vc, cube3_2vc):
        for ra in (DuatoFullyAdaptiveMesh(mesh33_2vc), DuatoFullyAdaptiveHypercube(cube3_2vc)):
            v = search_escape(ra)
            assert v.deadlock_free
            assert "vc classes (0,)" in v.reason

    def test_search_escape_certifies_ecube(self, mesh33):
        assert search_escape(DimensionOrderMesh(mesh33)).deadlock_free

    def test_search_escape_fails_on_unrestricted(self, mesh33):
        v = search_escape(UnrestrictedMinimal(mesh33))
        assert not v.deadlock_free and not v.necessary_and_sufficient

    def test_not_applicable_reported(self, cube3_2vc, figure1):
        v = search_escape(EnhancedFullyAdaptive(cube3_2vc))
        assert not v.deadlock_free and "not applicable" in v.reason
        v = search_escape(IncoherentExample(figure1))
        assert "not applicable" in v.reason


class TestAgreement:
    def test_all_conditions_agree_on_duato_mesh(self, mesh33_2vc):
        """Where Duato's hypotheses hold, his condition and the paper's
        must agree (both are necessary and sufficient)."""
        from repro.verify import verify

        ra = DuatoFullyAdaptiveMesh(mesh33_2vc)
        assert search_escape(ra).deadlock_free == verify(ra).deadlock_free == True

    def test_agreement_on_ecube(self, mesh33):
        from repro.verify import verify

        ra = DimensionOrderMesh(mesh33)
        assert dally_seitz(ra).deadlock_free
        assert search_escape(ra).deadlock_free
        assert verify(ra).deadlock_free
