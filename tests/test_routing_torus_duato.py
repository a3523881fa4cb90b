"""Dally--Seitz torus routing and Duato's fully adaptive algorithms."""

import pytest

from repro.deps import ChannelDependencyGraph
from repro.routing import (
    DallySeitzTorus,
    DuatoFullyAdaptiveHypercube,
    DuatoFullyAdaptiveMesh,
    DuatoFullyAdaptiveTorus,
    RoutingError,
    is_coherent,
    is_connected,
    is_fully_adaptive,
    is_minimal,
)
from repro.topology import build_torus
from repro.verify import is_nonadaptive


class TestDallySeitz:
    @pytest.fixture(scope="class")
    def ring(self, torus5_2vc):
        return DallySeitzTorus(torus5_2vc)

    def test_dateline_vc_switch(self, ring, torus5_2vc):
        # 4 -> 1 goes positive through the wrap: pre-dateline uses vc 0
        (c,) = ring.route_nd(4, 1)
        assert c.meta["wrap"] and c.vc == 0
        # after the wrap (at node 0 heading to 1): vc 1
        (c,) = ring.route_nd(0, 1)
        assert c.vc == 1

    def test_shortest_direction(self, ring):
        (c,) = ring.route_nd(0, 2)  # forward distance 2, backward 3
        assert c.meta["sign"] == 1
        (c,) = ring.route_nd(0, 3)  # backward distance 2
        assert c.meta["sign"] == -1

    def test_nonadaptive_connected_minimal(self, ring):
        assert is_nonadaptive(ring)
        assert is_connected(ring)
        assert is_minimal(ring)

    def test_acyclic_cdg(self, ring):
        assert ChannelDependencyGraph(ring).is_acyclic()

    def test_acyclic_cdg_2d(self):
        t = build_torus((4, 4), num_vcs=2)
        assert ChannelDependencyGraph(DallySeitzTorus(t)).is_acyclic()

    def test_needs_two_vcs(self):
        with pytest.raises(RoutingError):
            DallySeitzTorus(build_torus((5,), num_vcs=1))

    def test_requires_torus(self, mesh33):
        with pytest.raises(RoutingError):
            DallySeitzTorus(mesh33)


class TestDuatoMesh:
    @pytest.fixture(scope="class")
    def duato(self, mesh33_2vc):
        return DuatoFullyAdaptiveMesh(mesh33_2vc)

    def test_escape_is_dimension_order(self, duato, mesh33_2vc):
        out = duato.route_nd(0, 8)  # needs +x,+y
        esc = [c for c in out if c.vc == 0]
        assert len(esc) == 1 and esc[0].meta["dim"] == 0
        adaptive = [c for c in out if c.vc == 1]
        assert {c.meta["dim"] for c in adaptive} == {0, 1}

    def test_waits_on_escape(self, duato, mesh33_2vc):
        inj = mesh33_2vc.injection_channel(0)
        waits = duato.waiting_channels(inj, 0, 8)
        assert all(c.vc == 0 for c in waits) and len(waits) == 1

    def test_properties(self, duato):
        assert is_connected(duato)
        assert is_minimal(duato)
        assert is_fully_adaptive(duato)
        assert is_coherent(duato)

    def test_needs_two_vcs(self, mesh33):
        with pytest.raises(RoutingError):
            DuatoFullyAdaptiveMesh(mesh33)


class TestDuatoHypercube:
    def test_route_structure(self, cube3_2vc):
        duato = DuatoFullyAdaptiveHypercube(cube3_2vc)
        out = duato.route_nd(0b000, 0b110)
        esc = [c for c in out if c.vc == 0]
        assert len(esc) == 1 and esc[0].dst == 0b010  # lowest differing dim
        assert is_fully_adaptive(duato)

    def test_requires_hypercube(self, mesh33_2vc):
        with pytest.raises(RoutingError):
            DuatoFullyAdaptiveHypercube(mesh33_2vc)


class TestDuatoTorus:
    @pytest.fixture(scope="class")
    def duato(self, torus44_3vc):
        return DuatoFullyAdaptiveTorus(torus44_3vc)

    def test_connected_minimal(self, duato):
        assert is_connected(duato)
        assert is_minimal(duato)

    def test_escape_plus_adaptive(self, duato, torus44_3vc):
        out = duato.route_nd(0, 5)  # (0,0) -> (1,1)
        assert any(c.vc in (0, 1) for c in out)  # dateline escape
        assert {c.meta["dim"] for c in out if c.vc == 2} == {0, 1}

    def test_equidistant_offers_both_directions(self, duato):
        out = duato.route_nd(0, 2)  # distance 2 both ways in a radix-4 ring
        signs = {c.meta["sign"] for c in out if c.vc == 2}
        assert signs == {1, -1}

    def test_waits_on_escape_only(self, duato, torus44_3vc):
        inj = torus44_3vc.injection_channel(0)
        waits = duato.waiting_channels(inj, 0, 5)
        assert all(c.vc in (0, 1) for c in waits)

    def test_needs_three_vcs(self):
        from repro.topology import build_torus
        with pytest.raises(RoutingError):
            DuatoFullyAdaptiveTorus(build_torus((4, 4), num_vcs=2))
