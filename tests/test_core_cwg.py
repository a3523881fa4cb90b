"""The channel waiting graph and wait-connectivity (Definitions 9-10)."""

import pytest

from repro.core import ChannelWaitingGraph, wait_connected
from repro.deps import ChannelDependencyGraph
from repro.routing import (
    DimensionOrderMesh,
    EnhancedFullyAdaptive,
    HighestPositiveLast,
    IncoherentExample,
    NodeDestRouting,
)
from repro.topology import build_figure1_network
from tests.nx_reference import nx_view


class TestFigure1CWG:
    @pytest.fixture(scope="class")
    def cwg(self, figure1):
        return ChannelWaitingGraph(IncoherentExample(figure1))

    def e(self, figure1, a, b):
        by = figure1.channel_by_label
        return (by(a), by(b))

    def test_detour_loop_edges_present(self, cwg, figure1):
        # the closure makes {cA1, cL2, cB2} mutually waiting, incl. self-loops
        for a in ("cA1", "cL2", "cB2"):
            for b in ("cA1", "cL2", "cB2", "cL1"):
                assert self.e(figure1, a, b) in cwg

    def test_no_edges_from_sink(self, cwg, figure1):
        by = figure1.channel_by_label
        assert not any(a == by("cL1") for (a, b) in cwg.edges)

    def test_rightward_chain(self, cwg, figure1):
        assert self.e(figure1, "cH0", "cH1") in cwg
        assert self.e(figure1, "cH0", "cH2") in cwg  # downstream closure
        assert self.e(figure1, "cH1", "cH0") not in cwg

    def test_no_cross_traffic_edges(self, cwg, figure1):
        # a rightward message never waits on a detour-loop channel
        assert self.e(figure1, "cH0", "cA1") not in cwg
        assert self.e(figure1, "cH1", "cL2") not in cwg

    def test_edge_destinations(self, cwg, figure1):
        a, b = self.e(figure1, "cA1", "cL2")
        assert cwg.dep.mask_of(a.cid, b.cid) == 1 << 0

    def test_edge_count_matches_paper_analysis(self, cwg):
        # 3x4 closure edges in the detour loop + (cL3 -> 4) + rightward chain
        # (cH0->cH1, cH0->cH2, cH1->cH2): 12 + 4 + 3 = 19
        assert len(cwg) == 19

    def test_cwg_subset_of_cdg_vertices(self, cwg, figure1):
        assert set(cwg.vertices) == set(figure1.link_channels)

    def test_removed_edges_view(self, cwg, figure1):
        edge = self.e(figure1, "cA1", "cL2")
        g = nx_view(cwg.dep, removed=[edge])
        assert not g.has_edge(*edge)
        assert len(g.edges) == len(cwg) - 1


class TestCWGvsCDG:
    def test_cwg_is_subgraph_of_cdg_for_single_wait(self, mesh33):
        """For e-cube (wait == route == single channel) the CWG closure may
        add long-range edges, but every *immediate* CDG edge whose target is
        waited on appears in the CWG."""
        ra = DimensionOrderMesh(mesh33)
        cwg = ChannelWaitingGraph(ra)
        cdg = ChannelDependencyGraph(ra)
        for (a, b) in cdg.edges:
            assert (a, b) in cwg

    def test_cwg_edges_within_closured_cdg(self, mesh33):
        """Section 5: the CWG is a subgraph of the (transitively closured)
        channel dependency graph -- every waiting dependency is in particular
        a usage dependency."""
        import networkx as nx

        ra = HighestPositiveLast(mesh33)
        cwg = ChannelWaitingGraph(ra)
        cdg_closure = nx.transitive_closure(nx_view(ChannelDependencyGraph(ra).dep))
        for (a, b) in cwg.edges:
            assert cdg_closure.has_edge(a, b)

    def test_hpl_cwg_targets_fewer_than_cdg_targets(self, mesh44):
        """The CWG ignores dependencies onto channels no message waits on:
        its target set is strictly smaller, and (Theorem 4) it is acyclic
        where the CDG is not."""
        ra = HighestPositiveLast(mesh44)
        cwg_targets = {b for (_, b) in ChannelWaitingGraph(ra).edges}
        cdg_targets = {b for (_, b) in ChannelDependencyGraph(ra).edges}
        assert cwg_targets < cdg_targets


class TestWaitConnected:
    def test_positive(self, mesh33, cube3_2vc):
        ok, why = wait_connected(DimensionOrderMesh(mesh33))
        assert ok, why
        ok, why = wait_connected(EnhancedFullyAdaptive(cube3_2vc))
        assert ok, why

    def test_detects_missing_waiting_channel(self, figure1):
        class NoWait(IncoherentExample):
            def waiting_subset(self, c_in, node, dest, permitted):
                if node == 2 and dest == 0:
                    return frozenset()
                return super().waiting_subset(c_in, node, dest, permitted)

        ok, why = wait_connected(NoWait(figure1))
        assert not ok and "no waiting channel" in why

    def test_detects_waiting_outside_route(self, figure1):
        class BadWait(IncoherentExample):
            def waiting_subset(self, c_in, node, dest, permitted):
                if node == 1 and dest == 0:
                    return frozenset([self.cH[1]])  # not a permitted output
                return super().waiting_subset(c_in, node, dest, permitted)

        ok, why = wait_connected(BadWait(figure1))
        assert not ok and "subset" in why


# ----------------------------------------------------------------------
# Definition 10 on masks: the counterexample text is unchanged
# ----------------------------------------------------------------------
class _NoRouteAt4(DimensionOrderMesh):
    """e-cube with no output at (node 4, dest 8)."""

    def route_nd(self, node, dest):
        return frozenset() if (node, dest) == (4, 8) else super().route_nd(node, dest)


class _NoRouteButAWait(_NoRouteAt4):
    def waiting_subset(self, c_in, node, dest, permitted):
        if (node, dest) == (4, 8):
            return frozenset(self.network.out_channels(4)[:1])
        return permitted


class _LinkInputNoWait(HighestPositiveLast):
    def waiting_subset(self, c_in, node, dest, permitted):
        if c_in.is_link and (node, dest) == (4, 8):
            return frozenset()
        return super().waiting_subset(c_in, node, dest, permitted)


class _LinkInputWaitsOutside(HighestPositiveLast):
    def waiting_subset(self, c_in, node, dest, permitted):
        if c_in.is_link and (node, dest) == (4, 0):
            return frozenset(self.network.out_channels(4))
        return super().waiting_subset(c_in, node, dest, permitted)


@pytest.mark.parametrize("cls, message", [
    (_NoRouteAt4,
     "state (input=<inj4:4->4/vc0>, node=4, dest=8) has no waiting channel"),
    (_NoRouteButAWait,
     "waiting set at (input=<inj4:4->4/vc0>, node=4, dest=8) is not a subset "
     "of the route set"),
    (_LinkInputNoWait,
     "state (input=<c1,+0@3:3->4/vc0>, node=4, dest=8) has no waiting channel"),
    (_LinkInputWaitsOutside,
     "waiting set at (input=<c1,+0@3:3->4/vc0>, node=4, dest=0) is not a "
     "subset of the route set"),
])
def test_wait_connected_counterexample_text(mesh33, cls, message):
    """The first failing state in BFS order, named as before the check
    moved onto masks.  A state without outputs always fails one of these
    two checks, so there is no separate "no output channel" message."""
    assert wait_connected(cls(mesh33)) == (False, message)
