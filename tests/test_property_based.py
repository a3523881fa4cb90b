"""Property-based invariants of the CWG theory on random networks.

Hypothesis generates small strongly connected networks (2-4 nodes, 1-3
virtual channels per link) paired with seeded minimal routing relations
(:mod:`tests.generative`), and checks invariants the theorems themselves
guarantee:

* Theorem 3 "deadlock-free" implies the exhaustive single-wait
  TrueCycleSearch finds no True Cycle (such a cycle survives *every*
  wait-connected CWG', so its existence refutes any Theorem 3 certificate);
* the Section 8 reduction never removes an edge that breaks
  wait-connectivity (replayed step by step against Definition 10);
* Theorem 2's direct witness-segment search and its enumerate-then-classify
  variant agree on every verdict;
* Theorem 1 (sufficiency only) never certifies an algorithm the full
  condition refutes;
* fingerprints are deterministic across rebuilds and change when the
  routing table changes.

All tests run under the derandomized "ci" profile (see conftest.py), so a
failing example is reproducible by re-running the same test.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cwg import ChannelWaitingGraph
from repro.core.cycles import CycleExplosion, find_one_cycle
from repro.core.deadlock_search import TrueCycleSearch
from repro.core.reduction import CWGReducer
from repro.routing.relation import WaitPolicy
from repro.verify import theorem1, theorem2, theorem3, verify
from tests.generative import (
    RandomMinimalRouting,
    build_random_network,
    network_specs,
    routed_networks,
)

seeds = st.integers(min_value=0, max_value=2**16)


@pytest.mark.slow
@settings(max_examples=50)
@given(routed_networks(wait_policy=WaitPolicy.ANY))
def test_theorem3_free_implies_no_single_wait_true_cycle(pair):
    """A single-wait True Cycle deadlocks under ANY-wait semantics and
    survives every wait-connected CWG', so Theorem 3 freedom excludes it."""
    net, ra = pair
    verdict = theorem3(ra, cycle_limit=2_000, max_nodes=100_000)
    if not (verdict.deadlock_free and verdict.necessary_and_sufficient):
        return
    cwg = ChannelWaitingGraph(ra)
    outcome = TrueCycleSearch(cwg, single_wait_only=True, max_nodes=100_000).search()
    if not outcome.exhaustive:
        return  # budget hit: the invariant is vacuous for this example
    assert outcome.true_cycle is None, (
        f"{ra.name} on {net.name}: Theorem 3 certified deadlock freedom but a "
        f"single-wait True Cycle exists: {outcome.true_cycle}"
    )


@settings(max_examples=40)
@given(routed_networks(wait_policy=WaitPolicy.ANY))
def test_reduction_never_breaks_wait_connectivity(pair):
    """Replay of the Section 8 trace: after every 'remove' step the removal
    set must still satisfy Definition 10, and the final set must too."""
    net, ra = pair
    cwg = ChannelWaitingGraph(ra)
    if find_one_cycle(cwg.dep) is None:
        return  # acyclic: the reduction is trivially CWG' = CWG
    reducer = CWGReducer(cwg, cycle_limit=2_000)
    try:
        result = reducer.run()
    except CycleExplosion:
        return  # tiny networks should not hit this; treat as vacuous if so
    removed: set = set()
    for step in result.steps:
        if step.action == "remove":
            removed.add(step.edge)
            assert reducer.is_wait_connected(frozenset(removed)), (
                f"{ra.name} on {net.name}: reduction removed {step.edge} "
                "and broke wait-connectivity"
            )
        elif step.action == "backtrack" and step.edge is not None:
            removed.discard(step.edge)
    if result.success:
        assert reducer.is_wait_connected(result.removed)


@settings(max_examples=50)
@given(routed_networks(wait_policy=WaitPolicy.SPECIFIC))
def test_theorem2_search_agrees_with_enumeration(pair):
    """The direct witness-segment search and enumerate-then-classify are two
    deciders for the same question; their verdicts must match."""
    net, ra = pair
    direct = theorem2(ra, max_nodes=100_000)
    try:
        enumerated = theorem2(ra, enumerate_cycles=True, cycle_limit=5_000)
    except CycleExplosion:
        return
    if not (direct.necessary_and_sufficient and enumerated.necessary_and_sufficient):
        return  # one side ran out of budget or hit an undetermined cycle
    assert direct.deadlock_free == enumerated.deadlock_free, (
        f"{ra.name} on {net.name}: direct search says "
        f"{direct.deadlock_free} ({direct.reason}) but enumeration says "
        f"{enumerated.deadlock_free} ({enumerated.reason})"
    )


@settings(max_examples=40)
@given(routed_networks())
def test_theorem1_certificates_are_sound(pair):
    """Theorem 1 is sufficiency-only: whenever it certifies, the full
    necessary-and-sufficient condition must certify too."""
    net, ra = pair
    if theorem1(ra).deadlock_free:
        full = verify(ra)
        assert full.deadlock_free, (
            f"{ra.name} on {net.name}: Theorem 1 certified (acyclic CWG) but "
            f"the iff condition refutes: {full.reason}"
        )


@settings(max_examples=30)
@given(network_specs(), seeds)
def test_fingerprints_deterministic_and_table_sensitive(spec, seed):
    """Rebuilding the same (network, relation) gives the same fingerprint;
    fingerprints differ exactly when the routing tables differ."""
    net_a = build_random_network(*spec)
    net_b = build_random_network(*spec)
    ra_a = RandomMinimalRouting(net_a, seed)
    ra_b = RandomMinimalRouting(net_b, seed)
    assert net_a.fingerprint() == net_b.fingerprint()
    assert ra_a.fingerprint() == ra_b.fingerprint()

    other = RandomMinimalRouting(net_a, seed + 1)
    tables_equal = all(
        ra_a.route_nd(n, d) == other.route_nd(n, d)
        and ra_a.waiting_channels(None, n, d) == other.waiting_channels(None, n, d)
        for n in range(net_a.num_nodes)
        for d in range(net_a.num_nodes)
    )
    fingerprints_equal = ra_a.fingerprint() == other.fingerprint()
    assert fingerprints_equal == tables_equal
