"""The direct True-Cycle search (segment chains, no cycle enumeration)."""

from repro.core import ChannelWaitingGraph, CycleClass, CycleClassifier, find_cycles
from repro.core.deadlock_search import TrueCycleSearch
from repro.routing import (
    EnhancedFullyAdaptive,
    HighestPositiveLast,
    IncoherentExample,
    RingExample,
    UnrestrictedMinimal,
)
from repro.topology import build_mesh


class TestAgainstEnumeration:
    def test_figure1_finds_true_cycle(self, figure1):
        cwg = ChannelWaitingGraph(IncoherentExample(figure1))
        outcome = TrueCycleSearch(cwg).search()
        assert outcome.true_cycle is not None
        assert outcome.true_cycle.kind is CycleClass.TRUE

    def test_consistency_with_classifier(self, figure1):
        """Enumeration+classification and the direct search agree on
        existence of True Cycles."""
        cwg = ChannelWaitingGraph(IncoherentExample(figure1))
        cycles = find_cycles(cwg.dep)
        classifier = CycleClassifier(cwg)
        any_true = any(classifier.classify(c).kind is CycleClass.TRUE for c in cycles)
        outcome = TrueCycleSearch(cwg).search()
        assert (outcome.true_cycle is not None) == any_true


class TestNegativeProofs:
    def test_acyclic_cwg_trivially_clean(self, mesh33):
        cwg = ChannelWaitingGraph(HighestPositiveLast(mesh33))
        outcome = TrueCycleSearch(cwg).search()
        assert outcome.proves_no_true_cycle

    def test_ring_exhaustive_no_true_cycle(self, figure4):
        cwg = ChannelWaitingGraph(RingExample(figure4))
        outcome = TrueCycleSearch(cwg).search()
        assert outcome.proves_no_true_cycle
        assert outcome.nodes_explored > 0

    def test_ring_noflip_finds_single_ca_witness(self, figure4):
        cwg = ChannelWaitingGraph(RingExample(figure4, flip_class=False))
        outcome = TrueCycleSearch(cwg).search()
        assert outcome.true_cycle is not None
        held_cA = [
            seg for seg in outcome.true_cycle.witness
            if any(c.label == "cA" for c in seg.held)
        ]
        assert len(held_cA) == 1  # exactly one message rides cA


class TestBudget:
    def test_budget_exhaustion_reported(self, figure4):
        cwg = ChannelWaitingGraph(RingExample(figure4))
        outcome = TrueCycleSearch(cwg, max_nodes=50).search()
        assert not outcome.exhaustive
        assert not outcome.proves_no_true_cycle


class TestSingleWaitOnly:
    def test_unrestricted_mesh_single_wait_cycle(self):
        m = build_mesh((3, 3))
        cwg = ChannelWaitingGraph(UnrestrictedMinimal(m))
        outcome = TrueCycleSearch(cwg, single_wait_only=True).search()
        assert outcome.true_cycle is not None
        # every witness segment ends at a single-waiting-channel state
        ra = cwg.algorithm
        for seg in outcome.true_cycle.witness:
            final = seg.path[-1]
            dt = cwg.transitions[seg.dest]
            assert dt.wait_masks[final.cid].bit_count() == 1

    def test_safe_algorithm_clean_under_single_wait(self, cube3_2vc):
        cwg = ChannelWaitingGraph(EnhancedFullyAdaptive(cube3_2vc, wait_any=True))
        outcome = TrueCycleSearch(cwg, single_wait_only=True).search()
        assert outcome.true_cycle is None


class TestSegmentPruning:
    def test_domination_keeps_minimal(self, figure1):
        cwg = ChannelWaitingGraph(IncoherentExample(figure1))
        search = TrueCycleSearch(cwg)
        by = figure1.channel_by_label
        segs = search.segments_from(by("cA1"))
        # for each waited channel only held-minimal segments survive
        for b in {s.waits_on for s in segs}:
            helds = [s.held for s in segs if s.waits_on == b]
            for h in helds:
                assert not any(o < h for o in helds)

    def test_alt_dests_recorded(self, figure1):
        cwg = ChannelWaitingGraph(IncoherentExample(figure1))
        search = TrueCycleSearch(cwg)
        by = figure1.channel_by_label
        search.segments_from(by("cL3"))
        assert search._alt_dests  # merged destinations live here
