"""Section 9.1 prior hypercube algorithms: MECA, Yang-Tsai, Li-style."""

import pytest

from repro.deps import ChannelDependencyGraph
from repro.metrics import max_edge_disjoint_minimal_paths, minimal_path_matrix
from repro.routing import (
    DimensionOrderHypercube,
    DraperGhoshMECA,
    EnhancedFullyAdaptive,
    LiStyleHypercube,
    RoutingError,
    YangTsai,
    is_connected,
    is_minimal,
)
from repro.verify import verify


@pytest.fixture(scope="module")
def algos(cube3_2vc, cube3):
    return {
        "meca": DraperGhoshMECA(cube3_2vc),
        "yang-tsai": YangTsai(cube3_2vc),
        "li": LiStyleHypercube(cube3),
    }


class TestCommon:
    @pytest.mark.parametrize("key", ["meca", "yang-tsai", "li"])
    def test_connected_and_minimal(self, algos, key):
        assert is_connected(algos[key])
        assert is_minimal(algos[key])

    @pytest.mark.parametrize("key", ["meca", "yang-tsai", "li"])
    def test_deadlock_free(self, algos, key):
        assert verify(algos[key]).deadlock_free

    @pytest.mark.parametrize("key", ["meca", "yang-tsai", "li"])
    def test_waiting_is_single_channel(self, algos, key, cube3_2vc):
        ra = algos[key]
        net = ra.network
        for s in net.nodes:
            for d in net.nodes:
                if s != d:
                    inj = net.injection_channel(s)
                    assert len(ra.waiting_channels(inj, s, d)) == 1


class TestMECA:
    def test_first_class_skips_dimensions(self, algos, cube3_2vc):
        out = algos["meca"].route_nd(0b000, 0b101)  # needs dims 0 and 2
        vc0_dims = {c.meta["dim"] for c in out if c.vc == 0}
        assert vc0_dims == {0, 2}  # skipping dim 0 is permitted on class 0

    def test_second_class_is_strict_ecube(self, algos):
        out = algos["meca"].route_nd(0b000, 0b101)
        vc1_dims = {c.meta["dim"] for c in out if c.vc == 1}
        assert vc1_dims == {0}  # lowest needed dimension only

    def test_vc_requirement(self, cube3):
        with pytest.raises(RoutingError):
            DraperGhoshMECA(cube3)


class TestYangTsai:
    def test_positive_phase_first(self, algos):
        # node 010 -> dest 101: needs +0, -1, +2
        out = algos["yang-tsai"].route_nd(0b010, 0b101)
        vc0_dims = {c.meta["dim"] for c in out if c.vc == 0}
        assert vc0_dims == {0, 2}  # positive dims only, adaptively

    def test_negative_phase_when_no_positives(self, algos):
        # node 110 -> dest 000: needs -1, -2
        out = algos["yang-tsai"].route_nd(0b110, 0b000)
        vc0_dims = {c.meta["dim"] for c in out if c.vc == 0}
        assert vc0_dims == {1, 2}

    def test_acyclic_cdg(self, cube3_2vc):
        assert ChannelDependencyGraph(YangTsai(cube3_2vc)).is_acyclic()


class TestLiStyle:
    def test_one_vc_suffices(self, cube3):
        LiStyleHypercube(cube3)  # must not raise

    def test_negative_mu_opens_adaptivity(self, algos):
        out = algos["li"].route_nd(0b011, 0b100)  # mu=0 negative
        assert {c.meta["dim"] for c in out} == {0, 1, 2}

    def test_positive_mu_restricts(self, algos):
        out = algos["li"].route_nd(0b000, 0b111)  # mu=0 positive
        assert {c.meta["dim"] for c in out} == {0}

    def test_multiple_and_edge_disjoint_paths(self, algos):
        mat = minimal_path_matrix(algos["li"])
        assert sum(1 for v in mat.values() if v > 1) >= 18
        assert max_edge_disjoint_minimal_paths(algos["li"], 0b011, 0b100) == 3


class TestAdaptivenessOrdering:
    def test_efa_dominates_all_prior(self, cube3_2vc, cube3):
        """Section 9.3: EFA is more adaptive than every prior algorithm."""
        efa = sum(minimal_path_matrix(EnhancedFullyAdaptive(cube3_2vc)).values())
        for ra in (
            DraperGhoshMECA(cube3_2vc),
            YangTsai(cube3_2vc),
            LiStyleHypercube(cube3),
            DimensionOrderHypercube(cube3),
        ):
            assert sum(minimal_path_matrix(ra).values()) < efa

    def test_all_beat_ecube(self, cube3_2vc, cube3):
        ecube = sum(minimal_path_matrix(DimensionOrderHypercube(cube3)).values())
        for ra in (DraperGhoshMECA(cube3_2vc), YangTsai(cube3_2vc), LiStyleHypercube(cube3)):
            assert sum(minimal_path_matrix(ra).values()) > ecube
