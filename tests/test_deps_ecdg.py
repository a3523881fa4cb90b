"""Duato's extended channel dependency graph."""

import pytest

from repro.deps import (
    DependencyType,
    ExtendedChannelDependencyGraph,
    escape_by_vc,
)
from repro.routing import (
    DuatoFullyAdaptiveHypercube,
    DuatoFullyAdaptiveMesh,
    UnrestrictedMinimal,
)


@pytest.fixture(scope="module")
def duato_ecdg(mesh33_2vc):
    ra = DuatoFullyAdaptiveMesh(mesh33_2vc)
    return ra, ExtendedChannelDependencyGraph(ra, escape_by_vc(ra, (0,)))


class TestDuatoMesh:
    def test_acyclic(self, duato_ecdg):
        _, ecdg = duato_ecdg
        assert ecdg.is_acyclic()

    def test_subfunction_connected(self, duato_ecdg):
        _, ecdg = duato_ecdg
        ok, why = ecdg.subfunction_connected()
        assert ok, why

    def test_has_indirect_dependencies(self, duato_ecdg):
        """Messages detour through adaptive (vc1) channels and re-enter the
        escape layer: those are exactly Duato's indirect dependencies."""
        _, ecdg = duato_ecdg
        kinds = set().union(*ecdg.edge_types.values())
        assert DependencyType.DIRECT in kinds
        assert DependencyType.INDIRECT in kinds

    def test_vertices_are_escape_channels(self, duato_ecdg):
        ra, ecdg = duato_ecdg
        assert ecdg.escape_union() == escape_by_vc(ra, (0,))
        for (a, b) in ecdg.edges:
            assert a.vc == 0 and b.vc == 0


class TestHypercube:
    def test_duato_hypercube_certified(self, cube3_2vc):
        ra = DuatoFullyAdaptiveHypercube(cube3_2vc)
        ecdg = ExtendedChannelDependencyGraph(ra, escape_by_vc(ra, (0,)))
        assert ecdg.is_acyclic()
        assert ecdg.subfunction_connected()[0]


class TestBadEscapes:
    def test_unrestricted_escape_cyclic(self, mesh33):
        """Using *all* channels as the 'escape' layer of unrestricted
        minimal routing: the ECDG is the full cyclic CDG."""
        ra = UnrestrictedMinimal(mesh33)
        ecdg = ExtendedChannelDependencyGraph(ra, frozenset(mesh33.link_channels))
        assert not ecdg.is_acyclic()

    def test_disconnected_subfunction_detected(self, mesh33_2vc):
        """vc1 alone is not supplied by the escape-restricted relation in
        dimension-order fashion for every state, so R1 over an empty escape
        set is disconnected."""
        ra = DuatoFullyAdaptiveMesh(mesh33_2vc)
        ecdg = ExtendedChannelDependencyGraph(ra, frozenset())
        ok, why = ecdg.subfunction_connected()
        assert not ok and "does not connect" in why


class TestPerDestinationEscape:
    def test_cross_dependencies_detected(self, mesh33_2vc):
        """Give odd and even destinations disjoint escape halves: channels
        escape-for-one-destination feeding another's escape layer must show
        up as cross dependencies."""
        ra = DuatoFullyAdaptiveMesh(mesh33_2vc)
        vc0 = escape_by_vc(ra, (0,))
        vc1 = escape_by_vc(ra, (1,))

        def escape(dest: int):
            return vc0 if dest % 2 == 0 else vc1

        ecdg = ExtendedChannelDependencyGraph(ra, escape)
        kinds = set().union(*ecdg.edge_types.values())
        assert DependencyType.DIRECT_CROSS in kinds or DependencyType.INDIRECT_CROSS in kinds

    def test_fixed_escape_has_no_cross(self, duato_ecdg):
        _, ecdg = duato_ecdg
        kinds = set().union(*ecdg.edge_types.values())
        assert DependencyType.DIRECT_CROSS not in kinds
        assert DependencyType.INDIRECT_CROSS not in kinds
