"""Turn-model algorithms: negative-first, west-first, north-last."""

import pytest

from repro.deps import ChannelDependencyGraph
from repro.routing import (
    NegativeFirst,
    NorthLast,
    RoutingError,
    WestFirst,
    is_coherent,
    is_connected,
    is_minimal,
)
from repro.topology import build_mesh


@pytest.mark.parametrize("cls", [NegativeFirst, WestFirst, NorthLast])
def test_connected_minimal_coherent(cls, mesh33):
    ra = cls(mesh33)
    assert is_connected(ra)
    assert is_minimal(ra)
    assert is_coherent(ra)


@pytest.mark.parametrize("cls", [NegativeFirst, WestFirst, NorthLast])
def test_acyclic_cdg(cls, mesh44):
    assert ChannelDependencyGraph(cls(mesh44)).is_acyclic()


class TestNegativeFirst:
    def test_negative_hops_first(self, mesh33):
        ra = NegativeFirst(mesh33)
        # 5=(2,1) -> 3=(0,1): needs -x only
        out = ra.route_nd(5, 3)
        assert all(c.meta["sign"] == -1 for c in out)
        # 2=(2,0) -> 3=(0,1): needs -x and +y; only -x offered first
        out = ra.route_nd(2, 3)
        assert {(c.meta["dim"], c.meta["sign"]) for c in out} == {(0, -1)}

    def test_adaptive_among_negatives(self, mesh33):
        ra = NegativeFirst(mesh33)
        out = ra.route_nd(8, 0)  # needs -x and -y
        assert {(c.meta["dim"], c.meta["sign"]) for c in out} == {(0, -1), (1, -1)}

    def test_adaptive_among_positives(self, mesh33):
        ra = NegativeFirst(mesh33)
        out = ra.route_nd(0, 8)
        assert {(c.meta["dim"], c.meta["sign"]) for c in out} == {(0, 1), (1, 1)}

    def test_works_in_3d(self, mesh332):
        ra = NegativeFirst(mesh332)
        assert is_connected(ra)


class TestWestFirst:
    def test_west_hops_first(self, mesh33):
        ra = WestFirst(mesh33)
        out = ra.route_nd(5, 0)  # (2,1) -> (0,0): needs -x,-y
        assert {(c.meta["dim"], c.meta["sign"]) for c in out} == {(0, -1)}

    def test_adaptive_otherwise(self, mesh33):
        ra = WestFirst(mesh33)
        out = ra.route_nd(0, 8)
        assert {(c.meta["dim"], c.meta["sign"]) for c in out} == {(0, 1), (1, 1)}

    def test_2d_only(self, mesh332):
        with pytest.raises(RoutingError):
            WestFirst(mesh332)


class TestNorthLast:
    def test_north_only_when_nothing_else(self, mesh33):
        ra = NorthLast(mesh33)
        out = ra.route_nd(0, 8)  # needs +x,+y: +y withheld
        assert {(c.meta["dim"], c.meta["sign"]) for c in out} == {(0, 1)}
        out = ra.route_nd(6, 8)  # (0,2) -> (2,2): needs +x only
        assert {(c.meta["dim"], c.meta["sign"]) for c in out} == {(0, 1)}
        out = ra.route_nd(2, 8)  # (2,0) -> (2,2): needs +y only
        assert {(c.meta["dim"], c.meta["sign"]) for c in out} == {(1, 1)}

    def test_south_adaptive(self, mesh33):
        ra = NorthLast(mesh33)
        out = ra.route_nd(8, 0)  # needs -x,-y: both allowed
        assert {(c.meta["dim"], c.meta["sign"]) for c in out} == {(0, -1), (1, -1)}

    def test_2d_only(self, mesh332):
        with pytest.raises(RoutingError):
            NorthLast(mesh332)


# ----------------------------------------------------------------------
# the per-node move tables answer as the channel-metadata scan did
# ----------------------------------------------------------------------
def _meta_scan(cls):
    """``cls`` reading every channel's ``meta`` dict per query (the reference)."""

    class MetaScan(cls):
        def _channels(self, node, dim, sign):
            return [c for c in self.network.out_channels(node)
                    if c.meta.get("dim") == dim and c.meta.get("sign") == sign]

        def _deltas(self, node, dest):
            here, there = self.network.coord(node), self.network.coord(dest)
            return [t - h for h, t in zip(here, there)]

    return MetaScan


@pytest.mark.parametrize("cls, dims, vcs", [
    (NegativeFirst, (4, 4), 1), (NegativeFirst, (3, 3, 3), 1),
    (WestFirst, (4, 4), 1), (NorthLast, (4, 4), 1), (WestFirst, (3, 3), 2),
])
def test_move_tables_match_metadata_scan(cls, dims, vcs):
    from tests.test_routing_hpl import assert_same_relation

    net = build_mesh(dims, num_vcs=vcs)
    assert_same_relation(cls(net), _meta_scan(cls)(net))
