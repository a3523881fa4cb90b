"""RouteTable: the shared R(n, d) rows and the relation contract they rely on.

For a :class:`NodeDestRouting` relation the table evaluates the relation
once per ``(node, dest)`` row and serves that row to every input channel at
the node, falling back to a per-input build only when a candidate leads
back to the input's source node.  These tests pin the contract that makes
the sharing sound (route and waiting sets ignore the input channel) and
compare every reachable entry against a straightforward per-input build.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro import scenario
from repro.core.transitions import TransitionCache
from repro.fuzz.generators import CaseSpec, EscapeWildRouting, build_case, stable_bits
from repro.routing import make
from repro.routing.ecube import DimensionOrderMesh
from repro.routing.relation import NodeDestRouting, RouteEntry, RouteTable
from repro.sim import BernoulliTraffic, SimConfig, WormholeSimulator
from repro.topology import build_mesh
from tests.generative import SESSION_SEED

MASTER = stable_bits(SESSION_SEED, "route-table-tests")

#: fuzz families whose relations are NodeDestRouting (RandomMinimalRouting,
#: EscapeWildRouting); adaptive-3d is covered through the registry
_ND_FAMILIES = ("irregular", "faulty-mesh", "faulty-torus", "faulty-hypercube", "escape-wild")

#: an escape-wild relation on which the U-turn term of the sort key
#: reorders some entries -- the case the per-input fallback exists for
_UTURN_SEED = 0


def _uturn_relation() -> EscapeWildRouting:
    return EscapeWildRouting(build_mesh((3, 2), num_vcs=2), _UTURN_SEED)


def _states(algo):
    """Every reachable routing state ``(c_in, dest)`` short of the destination."""
    net = algo.network
    for dt in TransitionCache(algo).all_destinations():
        for a in dt.succ_masks:
            if net.heads[a] != dt.dest:
                yield net.channel(a), dt.dest


def _fuzz_nd_relations() -> list[NodeDestRouting]:
    cases = [build_case(CaseSpec(family, stable_bits(MASTER, family, i)))
             for family in _ND_FAMILIES for i in range(4)]
    assert all(isinstance(a, NodeDestRouting) for a in cases)
    return cases + [_uturn_relation()]


def _reference_entry(algo, c_in, dest, dist) -> RouteEntry:
    """The entry a table without row sharing builds for ``(c_in, dest)``."""
    node = c_in.dst
    permitted = algo.route(c_in, node, dest)
    waiting = algo.waiting_channels(c_in, node, dest)
    prev = c_in.src if c_in.is_link else -1
    if dist is None:
        def key(c):
            return c.cid
    else:
        def key(c):
            return (dist[c.dst][dest], c.dst == prev, c.vc, c.cid)
    cands = tuple(sorted(permitted, key=key))
    waits = tuple(sorted(waiting, key=key))
    return RouteEntry(tuple(c.cid for c in cands), tuple(c.cid for c in waits))


def _assert_ignores_input_channel(algo) -> None:
    by_row = defaultdict(list)
    for c_in, dest in _states(algo):
        by_row[c_in.dst, dest].append(c_in)
    for (node, dest), inputs in by_row.items():
        first = inputs[0]
        route = algo.route(first, node, dest)
        wait = algo.waiting_channels(first, node, dest)
        for c_in in inputs[1:]:
            assert algo.route(c_in, node, dest) == route, (algo.name, c_in, dest)
            assert algo.waiting_channels(c_in, node, dest) == wait, (algo.name, c_in, dest)


def test_registry_nd_relations_ignore_input_channel():
    relations = [spec.instantiate() for spec in scenario.all_specs()]
    nd = [a for a in relations if isinstance(a, NodeDestRouting)]
    assert len(nd) >= 15
    for algo in nd:
        _assert_ignores_input_channel(algo)


def test_fuzz_nd_relations_ignore_input_channel():
    for algo in _fuzz_nd_relations():
        _assert_ignores_input_channel(algo)


def _check_table(algo, dist) -> RouteTable:
    table = RouteTable(algo, dist=dist)
    states = list(_states(algo))
    for c_in, dest in states:
        assert table.entry(c_in.cid, dest) == _reference_entry(algo, c_in, dest, dist), \
            (algo.name, c_in, dest)
    assert table.misses == table.stats()["entries"] == len(states)
    if not isinstance(algo, NodeDestRouting):
        assert table.rows == len(states)
        return table
    # one evaluation per (node, dest) row, plus one per U-turn input
    uturns = 0
    if dist is not None:
        heads = algo.network.heads
        for c_in, dest in states:
            e = table.entry(c_in.cid, dest)
            prev = c_in.src if c_in.is_link else -1
            uturns += any(heads[c] == prev for c in e.cand_cids + e.wait_cids)
    assert table.rows == len({(c.dst, d) for c, d in states}) + uturns
    return table


@pytest.mark.parametrize("ordered", [True, False], ids=["dist", "no-dist"])
@pytest.mark.parametrize("name", scenario.names())
def test_registry_entries_match_per_input_build(name, ordered):
    algo = scenario.get(name).instantiate()
    _check_table(algo, algo.network.shortest_distances() if ordered else None)


@pytest.mark.parametrize("ordered", [True, False], ids=["dist", "no-dist"])
def test_fuzz_nd_entries_match_per_input_build(ordered):
    for algo in _fuzz_nd_relations():
        _check_table(algo, algo.network.shortest_distances() if ordered else None)


def test_uturn_inputs_get_their_own_order():
    """The escape-wild case really exercises the per-input fallback: some
    input's order differs from its row's, and the table still matches."""
    algo = _uturn_relation()
    dist = algo.network.shortest_distances()
    table = _check_table(algo, dist)
    reordered = 0
    for c_in, dest in _states(algo):
        row = _reference_entry(algo, algo.network.injection_channel(c_in.dst), dest, dist)
        reordered += table.entry(c_in.cid, dest) != row
    assert reordered > 0


class _WaitsOffRoute(DimensionOrderMesh):
    """A broken relation: it waits on every output, not only its route set."""

    name = "waits-off-route"

    def route_masks(self, c_in_cid, node, dest):
        route, _ = super().route_masks(c_in_cid, node, dest)
        if not route:
            return 0, 0
        return route, sum(1 << c.cid for c in self.network.out_channels(node))


@pytest.mark.parametrize("ordered", [True, False], ids=["dist", "no-dist"])
def test_waits_outside_the_route_set_are_sorted_on_their_own(ordered):
    algo = _WaitsOffRoute(build_mesh((3, 3)))
    table = _check_table(algo, algo.network.shortest_distances() if ordered else None)
    wider = [e for e in table._entries if e is not None and e.wait_cids != e.cand_cids]
    assert wider and all(len(e.wait_cids) > len(e.cand_cids) for e in wider)


def test_perf_counters_report_rows():
    net = build_mesh((4, 4), num_vcs=2)
    algo = make("duato-mesh", net)
    traffic = BernoulliTraffic(net, rate=0.2, length=4, stop_at=200)
    sim = WormholeSimulator(algo, traffic, SimConfig(seed=3))
    sim.run(200)
    perf = sim.perf_counters()
    assert perf["route_table_entries"] == perf["route_table_misses"]
    # rows are shared across input channels: fewer evaluations than entries
    assert 0 < perf["route_table_rows"] < perf["route_table_misses"]
