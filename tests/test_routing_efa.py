"""Enhanced Fully Adaptive (Section 9.3) and its Theorem-6 relaxations."""

import pytest

from repro.routing import (
    EnhancedFullyAdaptive,
    RelaxedEFA,
    RoutingError,
    WaitPolicy,
    is_fully_adaptive,
    is_minimal,
    is_prefix_closed,
    is_suffix_closed,
)


@pytest.fixture(scope="module")
def efa(cube3_2vc):
    return EnhancedFullyAdaptive(cube3_2vc)


class TestFirstClassRule:
    def test_negative_mu_opens_first_class(self, efa):
        # node 0b011 -> dest 0b100: needs dims {0-,1-,2+}; mu=0 negative
        assert efa.first_class_dims(0b011, 0b100) == [0, 1, 2]

    def test_positive_mu_restricts_to_mu(self, efa):
        # node 0b000 -> dest 0b110: needs {1+,2+}; mu=1 positive
        assert efa.first_class_dims(0b000, 0b110) == [1]

    def test_route_channels(self, efa, cube3_2vc):
        out = efa.route_nd(0b000, 0b110)
        vc0 = {c for c in out if c.vc == 0}
        vc1 = {c for c in out if c.vc == 1}
        assert {c.dst for c in vc1} == {0b010, 0b100}  # second VC: any needed dim
        assert {c.dst for c in vc0} == {0b010}          # first VC: mu only

    def test_waiting_channel_is_c1_mu(self, efa, cube3_2vc):
        inj = cube3_2vc.injection_channel(0)
        waits = efa.waiting_channels(inj, 0b000, 0b110)
        (w,) = waits
        assert w.vc == 0 and w.dst == 0b010

    def test_delivered(self, efa):
        assert efa.route_nd(5, 5) == frozenset()


class TestStructure:
    def test_fully_adaptive_minimal(self, efa):
        assert is_fully_adaptive(efa)
        assert is_minimal(efa)

    def test_incoherent_not_prefix_closed(self, efa):
        assert is_suffix_closed(efa)  # R(n,d) form
        assert not is_prefix_closed(efa)

    def test_wait_policies(self, cube3_2vc):
        assert EnhancedFullyAdaptive(cube3_2vc).wait_policy is WaitPolicy.SPECIFIC
        wa = EnhancedFullyAdaptive(cube3_2vc, wait_any=True)
        assert wa.wait_policy is WaitPolicy.ANY
        inj = cube3_2vc.injection_channel(0)
        assert wa.waiting_channels(inj, 0, 6) == wa.route_nd(0, 6)

    def test_needs_two_vcs(self, cube3):
        with pytest.raises(RoutingError):
            EnhancedFullyAdaptive(cube3)

    def test_needs_hypercube(self, mesh33_2vc):
        with pytest.raises(RoutingError):
            EnhancedFullyAdaptive(mesh33_2vc)


class TestRelaxed:
    def test_single_pair_relaxation(self, cube3_2vc):
        rel = RelaxedEFA(cube3_2vc, pair=(1, 2))
        # mu=1 positive, needs dim 2 as well: first class now allows {1, 2}
        assert rel.first_class_dims(0b000, 0b110) == [1, 2]
        # a different mu is unaffected
        assert rel.first_class_dims(0b000, 0b101) == [0]

    def test_full_relaxation(self, cube3_2vc):
        rel = RelaxedEFA(cube3_2vc)
        assert rel.first_class_dims(0b000, 0b111) == [0, 1, 2]

    def test_negative_mu_unchanged(self, cube3_2vc):
        rel = RelaxedEFA(cube3_2vc, pair=(0, 1))
        assert rel.first_class_dims(0b001, 0b110) == [0, 1, 2]

    def test_invalid_pair(self, cube3_2vc):
        with pytest.raises(RoutingError):
            RelaxedEFA(cube3_2vc, pair=(2, 1))
        with pytest.raises(RoutingError):
            RelaxedEFA(cube3_2vc, pair=(0, 3))

    def test_still_fully_adaptive(self, cube3_2vc):
        # relaxation only *adds* permissions
        rel = RelaxedEFA(cube3_2vc, pair=(0, 1))
        efa = EnhancedFullyAdaptive(cube3_2vc)
        for s in cube3_2vc.nodes:
            for d in cube3_2vc.nodes:
                if s != d:
                    assert efa.route_nd(s, d) <= rel.route_nd(s, d)
