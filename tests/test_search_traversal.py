"""The deadlock searches' traversal, pinned; and their budget contract.

:class:`~repro.core.deadlock_search.TrueCycleSearch` and
:class:`~repro.core.deadlock_search.AnyWaitConfigSearch` carry their held
and waiting sets as channel-id bitmasks.  The traversal is pinned two ways:

* node counts and outcomes on named cases, so any change in the order the
  DFS visits segments shows up as a changed count;
* a small reference DFS over ``frozenset[Channel]`` held sets must explore
  the same number of nodes and return the same witness (or configuration)
  as both searches on Hypothesis-drawn tiny routing tables, and on the two
  named cases where the searches' failure memo skips most of the tree,
  under budgets that run out inside memoized subtrees.

``nodes_explored`` counts the logical DFS tree (the budget's unit);
``nodes_expanded`` counts the states actually expanded, and is pinned
beside it.

Every search that runs out of budget must report ``exhaustive=False`` and
never a "free" verdict.
"""

from __future__ import annotations

from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChannelWaitingGraph, bits
from repro.core.deadlock_search import (
    AnyWaitConfigSearch,
    ConfigOutcome,
    SearchOutcome,
    TrueCycleSearch,
)
from repro.core.false_cycles import Segment
from repro.fuzz.generators import CaseSpec, build_case
from repro.fuzz.table import TableCase
from repro.routing.catalog import CATALOG
from repro.topology.channel import Channel
from repro.verify.necsuf import theorem2, theorem3
from tests.generative import build_random_network, derive_seed, network_specs

#: the fuzz case whose any-wait configuration search is budget-bound
ESCAPE_WILD = CaseSpec("escape-wild", 2828857453)


def _cwg(name: str, dims: Any = None) -> ChannelWaitingGraph:
    return ChannelWaitingGraph(CATALOG[name].instantiate(dims=dims))


def _seg(seg: Segment) -> tuple[int, tuple[int, ...], int]:
    return seg.dest, tuple(c.cid for c in seg.path), seg.waits_on.cid


# ----------------------------------------------------------------------
# pinned node counts and outcomes
# ----------------------------------------------------------------------
def test_ring_figure4_proof_node_count():
    outcome = TrueCycleSearch(_cwg("ring-figure4")).search()
    assert (outcome.nodes_explored, outcome.nodes_expanded) == (120_943, 199)
    assert outcome.proves_no_true_cycle


def test_unrestricted_minimal_any_wait_witness():
    outcome = TrueCycleSearch(
        _cwg("unrestricted-minimal", (5, 5)), any_wait_blocked=True
    ).search()
    assert (outcome.nodes_explored, outcome.exhaustive) == (8_641, True)
    assert outcome.true_cycle is not None
    assert len(outcome.true_cycle.cycle) == 44
    assert _seg(outcome.true_cycle.witness[0]) == (2, (0,), 2)


def test_pillar_diag_true_cycle():
    outcome = TrueCycleSearch(_cwg("pillar-diag-3d")).search()
    assert (outcome.nodes_explored, outcome.exhaustive) == (34, True)
    assert outcome.true_cycle is not None
    assert len(outcome.true_cycle.cycle) == 32
    assert _seg(outcome.true_cycle.witness[0]) == (2, (0,), 6)


def test_relaxed_efa_true_cycle():
    outcome = TrueCycleSearch(_cwg("relaxed-efa", 5)).search()
    assert (outcome.nodes_explored, outcome.exhaustive) == (4, True)
    assert outcome.true_cycle is not None
    assert [_seg(s) for s in outcome.true_cycle.witness] == [
        (3, (0,), 12), (2, (12,), 30), (0, (30,), 22), (1, (22,), 0),
    ]


def test_incoherent_example_config_search():
    outcome = AnyWaitConfigSearch(_cwg("incoherent-example")).search()
    assert outcome.nodes_explored == 11
    assert outcome.proves_deadlock_free


def test_escape_wild_config_search_budget():
    cwg = ChannelWaitingGraph(build_case(ESCAPE_WILD))
    outcome = AnyWaitConfigSearch(cwg).search()
    assert (outcome.nodes_explored, outcome.exhaustive) == (200_000, False)
    assert outcome.nodes_expanded == 22_281
    assert outcome.deadlock is None and not outcome.undetermined


# ----------------------------------------------------------------------
# frozenset reference DFS
# ----------------------------------------------------------------------
def reference_true_cycle(search: TrueCycleSearch) -> SearchOutcome:
    """The True-Cycle DFS over ``frozenset[Channel]`` held sets."""
    outcome = SearchOutcome()
    channel = search.cwg.algorithm.network.channel
    budget = search.max_nodes
    for start in sorted(search._waitable, key=lambda c: c.cid):
        reach = {channel(c) for c in
                 search.cwg.dep.reverse_reachable(start.cid, min_cid=start.cid)}
        chain: list[Segment] = []

        def dfs(head: Channel, used: frozenset[Channel]) -> bool:
            nonlocal budget
            budget -= 1
            if budget <= 0:
                outcome.exhaustive = False
                return False
            for seg in search.segments_from(head):
                if seg.waits_on.cid < start.cid or used & seg.held:
                    continue
                chain.append(seg)
                if seg.waits_on == start:
                    if search._accept(chain, outcome):
                        return True
                elif seg.waits_on in reach and dfs(seg.waits_on, used | seg.held):
                    return True
                chain.pop()
            return False

        if dfs(start, frozenset()) or not outcome.exhaustive:
            break
    outcome.nodes_explored = search.max_nodes - budget
    return outcome


def reference_config(search: AnyWaitConfigSearch) -> ConfigOutcome:
    """The any-wait configuration DFS over ``frozenset[Channel]`` sets,
    rescanning every head's segments for the lowest uncovered wait."""
    outcome = ConfigOutcome()
    transitions = search.cwg.transitions
    budget = search.max_nodes
    heads = sorted(search._waitable, key=lambda c: c.cid)

    channel = search.cwg.algorithm.network.channel

    def waits(seg: Segment) -> frozenset[Channel]:
        mask = transitions[seg.dest].wait_masks[seg.path[-1].cid]
        return frozenset(channel(b) for b in bits(mask))

    def done() -> ConfigOutcome:
        outcome.nodes_explored = search.max_nodes - budget
        return outcome

    for start in heads:
        chosen: list[Segment] = []

        def dfs(held: frozenset[Channel], pending: frozenset[Channel]) -> bool:
            nonlocal budget
            budget -= 1
            if budget <= 0:
                outcome.exhaustive = False
                return False
            if not pending:
                return search._accept(chosen, outcome)
            w = min(pending, key=lambda c: c.cid)
            for h in heads:
                if h.cid < start.cid:
                    continue
                for seg, _ in search.segments_from(h):
                    if w not in seg.held or held & seg.held:
                        continue
                    nheld = held | seg.held
                    chosen.append(seg)
                    if dfs(nheld, (pending | waits(seg)) - nheld):
                        return True
                    chosen.pop()
                    if not outcome.exhaustive:
                        return False
            return False

        for seg, _ in search.segments_from(start):
            chosen.append(seg)
            if dfs(seg.held, waits(seg) - seg.held) or not outcome.exhaustive:
                return done()
            chosen.pop()
    return done()


def _cycle_view(outcome: SearchOutcome) -> tuple[Any, ...]:
    def cls(c: Any) -> tuple[Any, ...]:
        return (tuple(ch.cid for ch in c.cycle.channels), c.kind,
                [_seg(s) for s in c.witness], c.reason)

    return (outcome.nodes_explored, outcome.exhaustive,
            cls(outcome.true_cycle) if outcome.true_cycle else None,
            [cls(u) for u in outcome.undetermined])


def _config_view(outcome: ConfigOutcome) -> tuple[Any, ...]:
    return (outcome.nodes_explored, outcome.exhaustive,
            [_seg(s) for s in outcome.deadlock] if outcome.deadlock else None,
            [[_seg(s) for s in cfg] for cfg in outcome.undetermined])


@st.composite
def tiny_tables(draw):
    """A random routing table with random waiting subsets on a network of
    at most four nodes; ``minimal`` tables (only distance-reducing
    channels) tend to need deep searches, the others find deadlocks fast."""
    net = build_random_network(*draw(network_specs()))
    nd = draw(st.booleans())
    minimal = draw(st.booleans())
    dist = net.shortest_distances()
    routes: dict[str, list[int]] = {}
    waits: dict[str, list[int]] = {}
    inputs = [net.injection_channel(n) for n in net.nodes]
    if not nd:
        inputs += list(net.link_channels)
    for dest in net.nodes:
        for c_in in inputs:
            node = c_in.dst
            if node == dest:
                continue
            options = [
                c.cid for c in net.out_channels(node)
                if not minimal or dist[c.dst][dest] < dist[node][dest]
            ]
            pick = draw(st.integers(min_value=1, max_value=2 ** len(options) - 1))
            chosen = [cid for i, cid in enumerate(options) if pick >> i & 1]
            wpick = draw(st.integers(min_value=1, max_value=2 ** len(chosen) - 1))
            key = f"n{node}->{dest}" if nd else (
                f"c{c_in.cid}->{dest}" if c_in.is_link else f"i{node}->{dest}"
            )
            routes[key] = chosen
            waits[key] = [cid for i, cid in enumerate(chosen) if wpick >> i & 1]
    case = TableCase(
        name=f"table-{derive_seed(nd, len(routes))}",
        num_nodes=net.num_nodes,
        channels=[(c.src, c.dst, c.vc) for c in net.link_channels],
        nd=nd,
        wait_policy=draw(st.sampled_from(["any", "specific"])),
        routes=routes,
        waits=waits,
    )
    return case.build()


@settings(max_examples=60)
@given(tiny_tables(), st.sampled_from([8, 60, 400]))
def test_masks_match_frozenset_reference(ra, max_nodes):
    cwg = ChannelWaitingGraph(ra)
    for flags in ({}, {"any_wait_blocked": True}, {"single_wait_only": True}):
        search = TrueCycleSearch(cwg, max_nodes=max_nodes, max_segment_len=4, **flags)
        reference = TrueCycleSearch(cwg, max_nodes=max_nodes, max_segment_len=4, **flags)
        outcome = search.search()
        assert _cycle_view(outcome) == _cycle_view(reference_true_cycle(reference)), flags
        assert outcome.nodes_expanded <= outcome.nodes_explored
    config = AnyWaitConfigSearch(cwg, max_nodes=max_nodes, max_segment_len=4)
    reference = AnyWaitConfigSearch(cwg, max_nodes=max_nodes, max_segment_len=4)
    found = config.search()
    assert _config_view(found) == _config_view(reference_config(reference))
    assert found.nodes_expanded <= found.nodes_explored


# ----------------------------------------------------------------------
# the failure memo, where it hits
# ----------------------------------------------------------------------
#: ring-figure4's proof is 120,943 logical nodes but 199 expansions, so
#: nearly every logical node lies inside a memoized subtree and each cap
#: below runs out inside one (the search must then expand it rather than
#: charge its recorded count); 120,943 runs out on the proof's last node
RING_BUDGETS = [
    ({}, 777), ({}, 30_011), ({}, 120_943), ({}, 120_944),
    ({"any_wait_blocked": True}, 50), ({"any_wait_blocked": True}, 4_321),
    ({"single_wait_only": True}, 50), ({"single_wait_only": True}, 4_321),
]


@pytest.mark.parametrize("flags, max_nodes", RING_BUDGETS)
def test_ring_figure4_memo_matches_reference(flags, max_nodes):
    cwg = _cwg("ring-figure4")
    outcome = TrueCycleSearch(cwg, max_nodes=max_nodes, **flags).search()
    reference = reference_true_cycle(TrueCycleSearch(cwg, max_nodes=max_nodes, **flags))
    assert _cycle_view(outcome) == _cycle_view(reference)
    assert outcome.nodes_expanded < outcome.nodes_explored


@pytest.mark.parametrize("max_nodes", [1_200, 1_500])
def test_escape_wild_memo_matches_reference(max_nodes):
    """The first memo hit comes after about 1,040 nodes."""
    cwg = ChannelWaitingGraph(build_case(ESCAPE_WILD))
    outcome = AnyWaitConfigSearch(cwg, max_nodes=max_nodes).search()
    reference = reference_config(AnyWaitConfigSearch(cwg, max_nodes=max_nodes))
    assert _config_view(outcome) == _config_view(reference)
    assert outcome.nodes_expanded < outcome.nodes_explored


# ----------------------------------------------------------------------
# budget exhaustion: never a "free" verdict
# ----------------------------------------------------------------------
def test_config_search_budget_exhaustion():
    cwg = ChannelWaitingGraph(build_case(ESCAPE_WILD))
    outcome = AnyWaitConfigSearch(cwg, max_nodes=50).search()
    assert not outcome.exhaustive
    assert not outcome.proves_deadlock_free


@pytest.mark.parametrize("flag", ["any_wait_blocked", "single_wait_only"])
def test_true_cycle_search_budget_exhaustion(flag):
    outcome = TrueCycleSearch(_cwg("ring-figure4"), max_nodes=50, **{flag: True}).search()
    assert not outcome.exhaustive
    assert not outcome.proves_no_true_cycle


def test_theorem2_budget_exhaustion_is_not_authoritative():
    verdict = theorem2(CATALOG["ring-figure4"].instantiate(), max_nodes=100)
    assert not verdict.deadlock_free
    assert not verdict.necessary_and_sufficient
    assert verdict.evidence["nodes_explored"] >= 100


def test_theorem3_budget_exhaustion_names_the_budget():
    verdict = theorem3(build_case(ESCAPE_WILD), max_nodes=50)
    assert not verdict.deadlock_free
    assert not verdict.necessary_and_sufficient
    # the exact configuration search ran out: its budget is named
    assert verdict.evidence["config_search_max_nodes"] == 10_000
    assert verdict.evidence["nodes_explored"] == 10_000
    assert "exhausted its budget of 10,000 nodes (10,000 explored)" in verdict.reason
