"""Dimension-order routing: the nonadaptive baseline."""

import pytest

from repro.routing import (
    DimensionOrderHypercube,
    DimensionOrderMesh,
    RoutingError,
    count_paths,
    is_coherent,
    is_connected,
    is_minimal,
)
from repro.topology import build_mesh
from repro.verify import is_nonadaptive


@pytest.fixture(scope="module")
def ecm(mesh33):
    return DimensionOrderMesh(mesh33)


class TestMesh:
    def test_single_path_everywhere(self, ecm, mesh33):
        for s in mesh33.nodes:
            for d in mesh33.nodes:
                if s != d:
                    assert count_paths(ecm, s, d) == 1

    def test_dimension_order(self, ecm, mesh33):
        # 0=(0,0) -> 8=(2,2): first hop corrects dimension 0 (east)
        out = ecm.route(ecm.network.injection_channel(0), 0, 8)
        (c,) = out
        assert c.meta["dim"] == 0 and c.meta["sign"] == 1

    def test_y_only(self, ecm, mesh33):
        out = ecm.route(ecm.network.injection_channel(1), 1, 7)  # (1,0) -> (1,2)
        (c,) = out
        assert c.meta["dim"] == 1 and c.meta["sign"] == 1

    def test_delivered_empty(self, ecm):
        assert ecm.route(ecm.network.injection_channel(3), 3, 3) == frozenset()

    def test_nonadaptive(self, ecm):
        assert is_nonadaptive(ecm)

    def test_connected_minimal_coherent(self, ecm):
        assert is_connected(ecm)
        assert is_minimal(ecm)
        assert is_coherent(ecm)

    def test_all_vcs_variant(self):
        m = build_mesh((3, 3), num_vcs=2)
        ra = DimensionOrderMesh(m, vc=None)
        assert len(ra.route(ra.network.injection_channel(0), 0, 2)) == 2  # both VCs of the link

    def test_requires_mesh(self, torus44_3vc):
        with pytest.raises(RoutingError):
            DimensionOrderMesh(torus44_3vc)


class TestHypercube:
    def test_lowest_bit_first(self, cube3):
        ra = DimensionOrderHypercube(cube3)
        (c,) = ra.route(ra.network.injection_channel(0b000), 0b000, 0b110)
        assert c.dst == 0b010
        (c,) = ra.route(ra.network.injection_channel(0b010), 0b010, 0b110)
        assert c.dst == 0b110

    def test_matches_mesh_variant(self, cube3):
        # a hypercube is a (2,2,2) mesh: both e-cubes must agree
        ra_h = DimensionOrderHypercube(cube3)
        ra_m = DimensionOrderMesh(cube3)
        for s in cube3.nodes:
            for d in cube3.nodes:
                if s != d:
                    assert ra_h.route_nd(s, d) == ra_m.route_nd(s, d)

    def test_single_path_count(self, cube3):
        ra = DimensionOrderHypercube(cube3)
        assert all(
            count_paths(ra, s, d) == 1
            for s in cube3.nodes for d in cube3.nodes if s != d
        )

    def test_requires_hypercube(self, mesh33):
        with pytest.raises(RoutingError):
            DimensionOrderHypercube(mesh33)
