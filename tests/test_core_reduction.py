"""The Section 8 CWG -> CWG' reduction algorithm."""

import pytest

from repro.core import (
    ChannelWaitingGraph,
    CWGReducer,
    CycleClass,
    CycleClassifier,
    find_cycles,
)
from repro.routing import IncoherentExample, NodeDestRouting, WaitPolicy
from repro.topology import build_ring


@pytest.fixture(scope="module")
def reduced(figure1):
    ra = IncoherentExample(figure1)
    cwg = ChannelWaitingGraph(ra)
    reducer = CWGReducer(cwg)
    return cwg, reducer, reducer.run()


class TestWorkedExample:
    """The paper's Section 8 trace on the incoherent example."""

    def test_success(self, reduced):
        _, _, res = reduced
        assert res.success

    def test_five_true_cycles_resolved_with_five_removals(self, reduced):
        _, _, res = reduced
        assert len(res.true_cycles) == 5
        assert len(res.false_cycles) == 3
        assert len(res.removed) == 5

    def test_no_backtracking_needed(self, reduced):
        _, _, res = reduced
        assert all(s.action == "remove" for s in res.steps)

    def test_cwg_prime_has_only_false_cycles(self, reduced):
        cwg, reducer, res = reduced
        g = res.cwg_prime(cwg)
        classifier = CycleClassifier(cwg)
        remaining = find_cycles(g)
        assert remaining  # the False Resource Cycle survives (paper Fig. 3)
        for cy in remaining:
            assert classifier.classify(cy).kind is CycleClass.FALSE_RESOURCE

    def test_wait_connectivity_preserved(self, reduced):
        _, reducer, res = reduced
        waits = reducer.surviving_waits(res.removed)
        assert waits is not None
        assert all(ws for ws in waits.values())

    def test_steps_render(self, reduced):
        _, _, res = reduced
        for s in res.steps:
            assert "remove" in str(s)


class TestFailure:
    def test_unidirectional_ring_unreducible(self):
        """Minimal routing on a 1-VC unidirectional ring deadlocks under any
        waiting discipline: every CWG' retains a True Cycle, so the Section
        8 search must fail."""
        net = build_ring(4, bidirectional=False)

        class RingMinimal(NodeDestRouting):
            name = "ring-minimal"
            wait_policy = WaitPolicy.ANY

            def route_nd(self, node, dest):
                if node == dest:
                    return frozenset()
                return frozenset(self.network.out_channels(node))

        ra = RingMinimal(net)
        res = CWGReducer(ChannelWaitingGraph(ra)).run()
        assert not res.success
        assert "no wait-connected CWG'" in res.reason

    def test_acyclic_cwg_short_circuits(self, mesh33):
        from repro.routing import DimensionOrderMesh

        cwg = ChannelWaitingGraph(DimensionOrderMesh(mesh33))
        res = CWGReducer(cwg).run()
        assert res.success and not res.removed
        assert "CWG' = CWG" in res.reason


class TestSurvivingWaits:
    def test_injection_states_always_survive(self, reduced, figure1):
        cwg, reducer, res = reduced
        waits = reducer.surviving_waits(res.removed)
        inj = figure1.injection_channel(3)
        assert waits[(inj.cid, 0)]  # source state at n3 toward n0

    def test_removing_all_leading_edges_breaks(self, figure1):
        ra = IncoherentExample(figure1)
        cwg = ChannelWaitingGraph(ra)
        reducer = CWGReducer(cwg)
        by = figure1.channel_by_label
        # state (cA1 at n2, dest 0) waits on {cL2, cB2}: removing both
        # leading edges starves it
        removed = frozenset({(by("cA1"), by("cL2")), (by("cA1"), by("cB2"))})
        assert reducer.surviving_waits(removed) is None
        assert not reducer.is_wait_connected(removed)
