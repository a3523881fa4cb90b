"""The Section 7.2 True vs. False Resource Cycle classifier."""

import pytest

from repro.core import (
    ChannelWaitingGraph,
    CycleClass,
    CycleClassifier,
    find_cycles,
)
from repro.routing import IncoherentExample, RingExample


@pytest.fixture(scope="module")
def setup(figure1):
    ra = IncoherentExample(figure1)
    cwg = ChannelWaitingGraph(ra)
    cycles = find_cycles(cwg.dep)
    classifier = CycleClassifier(cwg)
    return figure1, cwg, cycles, classifier


class TestFigure1Census:
    """The paper's Section 6/8 analysis of the incoherent example."""

    def test_eight_simple_cycles(self, setup):
        _, _, cycles, _ = setup
        assert len(cycles) == 8

    def test_five_true_cycles(self, setup):
        _, _, cycles, classifier = setup
        kinds = [classifier.classify(c).kind for c in cycles]
        assert kinds.count(CycleClass.TRUE) == 5
        assert kinds.count(CycleClass.FALSE_RESOURCE) == 3
        assert kinds.count(CycleClass.UNDETERMINED) == 0

    def test_cl2_cb2_cycle_is_false(self, setup):
        """The paper's flagship False Resource Cycle: cL2 <-> cB2 requires
        both messages to occupy cA1 simultaneously."""
        figure1, _, cycles, classifier = setup
        by = figure1.channel_by_label
        target = {by("cL2"), by("cB2")}
        (cy,) = [c for c in cycles if set(c.channels) == target]
        cls = classifier.classify(cy)
        assert cls.kind is CycleClass.FALSE_RESOURCE
        assert "disjoint" in cls.reason

    def test_two_edge_true_cycles(self, setup):
        figure1, _, cycles, classifier = setup
        by = figure1.channel_by_label
        for pair in ({"cA1", "cL2"}, {"cA1", "cB2"}):
            (cy,) = [c for c in cycles if {ch.label for ch in c.channels} == pair]
            cls = classifier.classify(cy)
            assert cls.kind is CycleClass.TRUE
            # witness segments are channel-disjoint
            held = [s.held for s in cls.witness]
            assert not (held[0] & held[1])

    def test_self_loops_are_true(self, setup):
        """A message can occupy cL2, detour over cA1, and wait on cL2 itself
        (the N=1 deadlock of Definition 12)."""
        _, _, cycles, classifier = setup
        selfloops = [c for c in cycles if len(c) == 1]
        assert len(selfloops) == 3
        for cy in selfloops:
            assert classifier.classify(cy).kind is CycleClass.TRUE


class TestWitnessValidity:
    def test_witness_paths_follow_the_relation(self, setup):
        figure1, _, cycles, classifier = setup
        ra = IncoherentExample(figure1)
        for cy in cycles:
            cls = classifier.classify(cy)
            if cls.kind is not CycleClass.TRUE:
                continue
            for seg in cls.witness:
                # replay the segment through the routing relation
                c_prev = seg.path[0]
                for c in seg.path[1:]:
                    assert c in ra.route(c_prev, c_prev.dst, seg.dest)
                    c_prev = c
                # the waited channel is a waiting channel at the final state
                final = seg.path[-1]
                assert seg.waits_on in ra.waiting_channels(final, final.dst, seg.dest)

    def test_segments_for_edge_sorted_shortest_first(self, setup):
        figure1, _, _, classifier = setup
        by = figure1.channel_by_label
        segs = classifier.segments_for_edge(by("cL3"), by("cL1"))
        assert segs
        assert all(len(a.path) <= len(b.path) for a, b in zip(segs, segs[1:]))

    def test_nonexistent_edge_has_no_segments(self, setup):
        figure1, _, _, classifier = setup
        by = figure1.channel_by_label
        assert classifier.segments_for_edge(by("cH0"), by("cL1")) == []


class TestRingClassification:
    def test_ring_cycles_all_false(self, figure4):
        """Figure 4: every CWG cycle needs cA twice -> all False Resource."""
        ra = RingExample(figure4)
        cwg = ChannelWaitingGraph(ra)
        classifier = CycleClassifier(cwg)
        # full enumeration explodes (hundreds of thousands of simple
        # cycles); classify the first 25 Johnson's-algorithm cycles -- the
        # exhaustive no-True-Cycle proof is TrueCycleSearch's job
        from repro.core.cycles import iter_simple_cycles

        checked = 0
        for cy in iter_simple_cycles(cwg.dep, limit=None):
            cls = classifier.classify(cy)
            assert cls.kind is CycleClass.FALSE_RESOURCE
            checked += 1
            if checked >= 25:
                break
        assert checked == 25
