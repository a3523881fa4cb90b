"""The channel dependency graph (Dally & Seitz)."""

from repro.deps import ChannelDependencyGraph
from repro.routing import (
    DallySeitzTorus,
    DimensionOrderMesh,
    HighestPositiveLast,
    NegativeFirst,
    UnrestrictedMinimal,
)
from repro.topology import build_ring
from tests.nx_reference import nx_view


class TestAcyclicity:
    def test_ecube_acyclic(self, mesh33):
        cdg = ChannelDependencyGraph(DimensionOrderMesh(mesh33))
        assert cdg.is_acyclic()

    def test_negative_first_acyclic(self, mesh44):
        assert ChannelDependencyGraph(NegativeFirst(mesh44)).is_acyclic()

    def test_dateline_torus_acyclic(self, torus5_2vc):
        assert ChannelDependencyGraph(DallySeitzTorus(torus5_2vc)).is_acyclic()

    def test_hpl_cyclic(self, mesh33):
        assert not ChannelDependencyGraph(HighestPositiveLast(mesh33)).is_acyclic()

    def test_unrestricted_mesh_cyclic(self, mesh33):
        assert not ChannelDependencyGraph(UnrestrictedMinimal(mesh33)).is_acyclic()


class TestNumbering:
    def test_numbering_strictly_increasing(self, mesh33):
        cdg = ChannelDependencyGraph(DimensionOrderMesh(mesh33))
        num = cdg.numbering()
        assert num is not None
        for (a, b) in cdg.edges:
            assert num[a] < num[b]

    def test_numbering_none_when_cyclic(self, mesh33):
        assert ChannelDependencyGraph(HighestPositiveLast(mesh33)).numbering() is None


class TestEdges:
    def test_ecube_dependencies_follow_dimension_order(self, mesh33):
        cdg = ChannelDependencyGraph(DimensionOrderMesh(mesh33))
        for (a, b) in cdg.edges:
            # e-cube: never from a higher dimension back to a lower one
            assert a.meta["dim"] <= b.meta["dim"]

    def test_edges_have_destination_witnesses(self, mesh33):
        cdg = ChannelDependencyGraph(DimensionOrderMesh(mesh33))
        for a, b in cdg.edges:
            assert cdg.dep.mask_of(a.cid, b.cid)

    def test_unused_states_excluded(self, mesh33):
        """Dependencies are only recorded from channels actually reachable
        by some message (usable), so e.g. e-cube has no dependency out of a
        dim-1 channel into a dim-0 channel even though the mesh permits the
        turn physically."""
        cdg = ChannelDependencyGraph(DimensionOrderMesh(mesh33))
        assert all(
            not (a.meta["dim"] == 1 and b.meta["dim"] == 0) for (a, b) in cdg.edges
        )

    def test_graph_removed_view(self, mesh33):
        cdg = ChannelDependencyGraph(DimensionOrderMesh(mesh33))
        e = cdg.edges[0]
        assert not nx_view(cdg.dep, removed=[e]).has_edge(*e)

    def test_repr(self, mesh33):
        assert "CDG" in repr(ChannelDependencyGraph(DimensionOrderMesh(mesh33)))


def test_unidirectional_ring_single_vc_cyclic():
    """The classic motivating example: a ring with one VC has a cyclic CDG."""
    from repro.routing import NodeDestRouting

    net = build_ring(4, bidirectional=False)

    class Minimal(NodeDestRouting):
        name = "ring-minimal"

        def route_nd(self, node, dest):
            if node == dest:
                return frozenset()
            return frozenset(self.network.out_channels(node))

    assert not ChannelDependencyGraph(Minimal(net)).is_acyclic()
