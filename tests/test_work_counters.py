"""Work-counter guard: exact, host-independent counts of checker and simulator work.

A wall-time guard depends on the machine; a count of work does not.  The
fixed job set below (every mesh, torus and hypercube scenario of the
registry at the benchmark's ``--quick`` sizes, theorem only, triage off)
is run with the relation and the checker's layer entry points wrapped by
counters, and these counts are pinned exactly:

* relation evaluations -- outermost ``route_masks``, ``route`` or
  ``route_nd`` calls (a wrapper relation delegating to its inner relation
  is one evaluation, and so are ``NodeDestRouting.route`` calling
  ``route_nd``, the derived ``route_masks`` calling ``route`` and a
  mask-native relation's derived ``route_nd`` calling ``route_masks``; a
  call made from anywhere else, such as a waiting hook recomputing its
  row, counts as one more);
* CWG edges built;
* :class:`~repro.core.transitions.DestinationTransitions` builds;
* True-Cycle / any-wait search nodes, logical (the budget's unit) and
  actually expanded (a memoized failed subtree costs none).

The simulator's work is pinned the same way: duato-mesh on the
benchmark's ``--quick`` network (``mesh:6x6:v2``) below saturation (1,000
cycles at 0.05 flits/node/cycle) and past it (500 cycles at 0.25), with
fixed seeds, pinning the run's ``perf_counters()`` -- route-table rows and
misses, allocator wakeups, flit hops -- and the relation evaluations behind
the rows.  These pins, not wall-time asserts, guard the simulator's speed.
The route table fills its entries from cid masks: filling duato-mesh's
makes no ``Channel.__hash__`` call, and an entry builds its Channel forms
only when a message blocks on it.

The same counts, plus the edges of every extended CDG Duato's
condition builds, are pinned for CI's checker-smoke job set (the whole
registry at the ``--quick`` sizes, theorem and Duato, triage on), so
that job guards the checker's speed without a wall-time assert.  The
steps of the ECDG's cycle check (one SCC pass) are not counted.
The checker reads its transition graphs as cid masks only: no module under
``src/`` reads ``usable``, the one Channel view they keep, no registry job
builds it, and Theorem 3's
CWG' candidates reuse the relation's own walks instead of walking a
wrapper relation again (no transition build, no relation evaluation).

A change that does more work fails here on any host.  A change that does
less updates the pins and says so.

The gate tests pin the row rule itself: an ``R(n, d)`` relation is
evaluated once per reachable ``(node, destination)`` row, and a wrapper
that only copies ``form="ND"`` is still evaluated once per state.  They
also pin "route once, then narrow": a waiting set is derived from the route
set the consumer just evaluated (``waiting_subset``), so neither the
checker's transition walk nor the simulator's route table evaluates a
relation twice for one decision, and no relation class overrides
``waiting_channels``.  Both consumers ask that one question as
``route_masks``.
"""

from __future__ import annotations

import ast
import functools
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.core.cwg import ChannelWaitingGraph
from repro.core.deadlock_search import AnyWaitConfigSearch, TrueCycleSearch
from repro.core.transitions import DestinationTransitions, TransitionCache
from repro.deps.cdg import ChannelDependencyGraph
from repro.deps.ecdg import ExtendedChannelDependencyGraph
from repro.pipeline import run_job
from repro.pipeline.engine import DEFAULT_CONDITIONS, catalog_specs
from repro.routing import RestrictedWaiting, make
from repro.routing.duato_adaptive import DuatoFullyAdaptiveMesh
from repro.routing.hpl import HighestPositiveLast
from repro.routing.relation import NodeDestRouting, RouteEntry, RouteTable, RoutingAlgorithm
from repro.scenario import registry
from repro.sim import BernoulliTraffic, SimConfig, WormholeSimulator
from repro.topology import build_figure1_network, build_mesh
from repro.topology.channel import Channel

_ROOT = Path(__file__).resolve().parent.parent

#: the benchmark's --quick sizes
QUICK = {"mesh_dims": (3, 3), "torus_dims": (4, 4), "hypercube_dim": 3}

#: route_calls was 3,557 while the walk evaluated the relation per state, and
#: 2,204 before waiting sets were narrowed from the route set the consumer had
#: just evaluated: 1,652 ``route`` calls (HPL's waiting set re-routing among
#: them) plus 552 ``route_nd`` calls from waiting sets recomputing their rows
PINNED = {
    "route_calls": 1_478,
    "cwg_edges": 2_836,
    "dest_builds": 151,
    "search_nodes": 26,
    "search_expanded": 26,
}


#: CI's checker-smoke job set (``benchmarks/bench_checker_scaling.py``);
#: search_expanded was 120,994 before the searches memoized failed states
#: (ring-figure4's proof is 120,943 logical nodes); route_calls was 6,867 and
#: dest_builds 270 while Theorem 3's CWG' candidates (incoherent-example's)
#: walked a wrapper relation again
SMOKE_PINNED = {
    "route_calls": 3_987,
    "cwg_edges": 10_314,
    "dest_builds": 246,
    "search_nodes": 120_994,
    "search_expanded": 248,
    "ecdg_edges": 5_739,
}


def quick_jobs():
    names = [s.name for s in registry.all_specs()
             if s.family in ("mesh", "torus", "hypercube")]
    return catalog_specs(names, conditions=("theorem",), triage=False, **QUICK)


def smoke_jobs():
    return catalog_specs(conditions=("theorem", "duato"), **QUICK)


def _relation_methods():
    """``(class, name)`` for every concrete ``route_masks`` / ``route`` /
    ``route_nd`` a loaded relation class defines itself."""
    todo, seen = [RoutingAlgorithm], set()
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.add(sub)
                todo.append(sub)
                for name in ("route_masks", "route", "route_nd"):
                    fn = sub.__dict__.get(name)
                    if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                        yield sub, name


def count_evaluations(monkeypatch, counts: Counter) -> None:
    """Count outermost relation evaluations into ``counts["route_calls"]``."""
    busy = [False]

    def outermost_route(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if busy[0]:
                return fn(*args, **kwargs)
            busy[0] = True
            try:
                counts["route_calls"] += 1
                return fn(*args, **kwargs)
            finally:
                busy[0] = False
        return wrapper

    for cls, name in list(_relation_methods()):
        monkeypatch.setattr(cls, name, outermost_route(cls.__dict__[name]))


def count_work(monkeypatch, jobs) -> Counter:
    counts: Counter = Counter()
    count_evaluations(monkeypatch, counts)

    def after(fn, hook):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            result = fn(self, *args, **kwargs)
            hook(self, result)
            return result
        return wrapper

    monkeypatch.setattr(ChannelWaitingGraph, "__init__", after(
        ChannelWaitingGraph.__init__,
        lambda g, _r: counts.update(cwg_edges=len(g))))
    monkeypatch.setattr(ExtendedChannelDependencyGraph, "__init__", after(
        ExtendedChannelDependencyGraph.__init__,
        lambda g, _r: counts.update(ecdg_edges=len(g))))
    monkeypatch.setattr(DestinationTransitions, "__init__", after(
        DestinationTransitions.__init__,
        lambda _dt, _r: counts.update(dest_builds=1)))
    for search in (TrueCycleSearch, AnyWaitConfigSearch):
        monkeypatch.setattr(search, "search", after(
            search.search,
            lambda _s, out: counts.update(search_nodes=out.nodes_explored,
                                          search_expanded=out.nodes_expanded)))
    for spec in jobs:
        job = run_job(spec)
        assert job.error is None, job.error
    return counts


def test_quick_theorem_work_is_pinned(monkeypatch):
    counts = count_work(monkeypatch, quick_jobs())
    assert {k: counts[k] for k in PINNED} == PINNED


def test_checker_smoke_work_is_pinned(monkeypatch):
    counts = count_work(monkeypatch, smoke_jobs())
    assert {k: counts[k] for k in SMOKE_PINNED} == SMOKE_PINNED


def test_quick_theorem_jobs_build_no_channel_view(monkeypatch):
    """Every relation of the ``--quick`` theorem job set (the mesh, torus
    and hypercube families) is mask-native, so the checker asks
    ``route_masks`` alone and never a derived Channel view."""
    calls: Counter = Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    todo, classes = [RoutingAlgorithm], []
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    for cls in classes:
        for name in ("route", "route_nd", "waiting_subset"):
            if name in cls.__dict__:
                monkeypatch.setattr(cls, name, counted(name, cls.__dict__[name]))
    for spec in quick_jobs():
        job = run_job(spec)
        assert job.error is None, job.error
    assert calls == Counter()


def test_registry_verify_builds_one_cdg_per_job(monkeypatch):
    """Triage's ordering screen and Dally--Seitz read one CDG per job
    (42 for these 21 jobs while each built its own)."""
    built: Counter = Counter()
    init = ChannelDependencyGraph.__init__

    def counted(g, *args, **kwargs):
        init(g, *args, **kwargs)
        built["cdgs"] += 1
    monkeypatch.setattr(ChannelDependencyGraph, "__init__", counted)
    jobs = catalog_specs()
    for spec in jobs:
        job = run_job(spec)
        assert job.error is None, job.error
    assert len(jobs) == 21
    assert built["cdgs"] == 21


def count_views(monkeypatch) -> Counter:
    """Count the Channel-keyed ``usable`` views built, keyed by reading module."""
    built: Counter = Counter()
    view = DestinationTransitions.usable

    def get(dt):
        if dt._usable is None:
            reader = Path(sys._getframe(1).f_code.co_filename)
            built[f"{reader.parent.name}/{reader.name}"] += 1
        return view.fget(dt)
    monkeypatch.setattr(DestinationTransitions, "usable", property(get))
    return built


def test_acyclic_theorem_jobs_build_no_channel_views(monkeypatch):
    built = count_views(monkeypatch)
    acyclic: list[bool] = []
    init = ChannelWaitingGraph.__init__

    def record(g, *args, **kwargs):
        init(g, *args, **kwargs)
        acyclic.append(g.is_acyclic())
    monkeypatch.setattr(ChannelWaitingGraph, "__init__", record)
    views = {}
    for spec in quick_jobs():
        acyclic.clear()
        before = sum(built.values())
        job = run_job(spec)
        assert job.error is None, job.error
        views[spec.algorithm] = (acyclic == [True], sum(built.values()) - before)
    assert sum(free for free, _ in views.values()) == 14
    # the two cyclic jobs' True-Cycle searches read cid masks as well
    assert {n: v for n, (_, v) in views.items() if v} == {}


def test_default_condition_jobs_build_no_channel_views(monkeypatch):
    """Duato's check (coherence, ECDG, R1), Dally--Seitz, triage and the
    Section 8 reduction (incoherent-example's theorem verdict) read cid masks
    on the whole registry at the ``--quick`` sizes."""
    built = count_views(monkeypatch)
    for spec in catalog_specs(**QUICK):
        assert spec.conditions == DEFAULT_CONDITIONS and spec.triage
        job = run_job(spec)
        assert job.error is None, job.error
    assert built == Counter()


def test_no_src_module_reads_usable():
    """The checker reads cid masks only: ``usable``, the one Channel view
    :class:`~repro.core.transitions.DestinationTransitions` keeps, has no
    reader under ``src/``."""
    readers = []
    for path in sorted((_ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "usable":
                readers.append(f"{path.relative_to(_ROOT)}:{node.lineno}")
    assert readers == []


# ----------------------------------------------------------------------
# the (node, destination) row gate
# ----------------------------------------------------------------------
def _reachable_states(tc: TransitionCache) -> tuple[int, set[tuple[int, int]]]:
    heads = tc.algorithm.network.heads
    states, rows = 0, set()
    for dt in tc.all_destinations():
        for a in dt.succ_masks:
            if heads[a] != dt.dest:
                states += 1
                rows.add((heads[a], dt.dest))
    return states, rows


def _counting(algorithm: RoutingAlgorithm) -> Counter:
    """Count route_masks / route / waiting_subset calls on this instance,
    per (node, dest) for the first two."""
    calls: Counter = Counter()
    masks, route, waiting = algorithm.route_masks, algorithm.route, algorithm.waiting_subset

    def counted_masks(c_in_cid, node, dest):
        calls["route_masks"] += 1
        calls[("route_masks", node, dest)] += 1
        return masks(c_in_cid, node, dest)

    def counted_route(c_in, node, dest):
        calls["route"] += 1
        calls[("route", node, dest)] += 1
        return route(c_in, node, dest)

    def counted_waiting(c_in, node, dest, permitted):
        calls["waiting"] += 1
        return waiting(c_in, node, dest, permitted)

    algorithm.route_masks = counted_masks
    algorithm.route = counted_route
    algorithm.waiting_subset = counted_waiting
    return calls


def _once_per_row(ra: RoutingAlgorithm) -> tuple[Counter, set]:
    calls = _counting(ra)
    states, rows = _reachable_states(TransitionCache(ra))
    assert states > len(rows)
    assert calls["route_masks"] == len(rows)
    assert all(calls[("route_masks", n, d)] == 1 for n, d in rows)
    return calls, rows


def test_node_dest_relation_is_evaluated_once_per_row():
    """Mask-native duato-mesh answers the one query per row and never
    builds its Channel views."""
    calls, _ = _once_per_row(make("duato-mesh", build_mesh((4, 4), num_vcs=2)))
    assert calls["route"] == calls["waiting"] == 0


def test_channel_authored_row_is_one_route_and_one_hook():
    """A Channel-authored relation's derived query is one ``route`` call and
    one waiting hook per row (incoherent-example transcribes Figure 1 in
    the Channel form)."""
    calls, rows = _once_per_row(make("incoherent-example", build_figure1_network()))
    assert calls["route"] == calls["waiting"] == len(rows)


def test_form_nd_wrapper_is_evaluated_once_per_state():
    inner = make("duato-mesh", build_mesh((4, 4), num_vcs=2))
    wrapped = RestrictedWaiting(inner)
    assert wrapped.form == "ND"
    calls = _counting(wrapped)
    states, rows = _reachable_states(TransitionCache(wrapped))
    assert states > len(rows)
    assert calls["route_masks"] == calls["route"] == calls["waiting"] == states


@pytest.mark.parametrize("name", ["duato-mesh", "west-first", "e-cube-mesh"])
def test_row_memo_keeps_the_transition_graph(name):
    """Same states, successors and waiting sets as a per-state walk."""
    ra = make(name, build_mesh((4, 4), num_vcs=2 if name == "duato-mesh" else 1))
    per_state = RestrictedWaiting(ra)
    for dest in ra.network.nodes:
        rows, states = DestinationTransitions(ra, dest), DestinationTransitions(per_state, dest)
        assert rows.succ_masks == states.succ_masks
        assert list(rows.succ_masks) == list(states.succ_masks)
        assert rows.wait_masks == states.wait_masks


# ----------------------------------------------------------------------
# route once, then narrow
# ----------------------------------------------------------------------
class CountingDuatoMesh(DuatoFullyAdaptiveMesh):
    """duato-mesh (mask-native) counting every evaluation of its one query."""

    def __init__(self, network) -> None:
        super().__init__(network)
        self.evals: Counter = Counter()

    def route_masks(self, c_in_cid, node, dest):
        self.evals[node, dest] += 1
        return super().route_masks(c_in_cid, node, dest)


class CountingHPL(HighestPositiveLast):
    """HPL (its route set depends on the input channel) counting evaluations."""

    def __init__(self, network) -> None:
        super().__init__(network)
        self.evals: Counter = Counter()

    def route_masks(self, c_in_cid, node, dest):
        self.evals[c_in_cid, dest] += 1
        return super().route_masks(c_in_cid, node, dest)


def _fill(table: RouteTable, states) -> None:
    for c_in, dest in states:
        table.entry(c_in.cid, dest)


def _states(algorithm: RoutingAlgorithm) -> list:
    net = algorithm.network
    return [(net.channel(a), dt.dest) for dt in TransitionCache(algorithm).all_destinations()
            for a in dt.succ_masks if net.heads[a] != dt.dest]


def test_transition_walk_evaluates_each_node_dest_row_once():
    ra = CountingDuatoMesh(build_mesh((4, 4), num_vcs=2))
    states, rows = _reachable_states(TransitionCache(ra))
    assert states > len(rows)
    assert set(ra.evals) == rows
    assert set(ra.evals.values()) == {1}


@pytest.mark.parametrize("ordered", [True, False], ids=["dist", "no-dist"])
def test_route_table_fill_evaluates_each_node_dest_row_once(ordered):
    net = build_mesh((4, 4), num_vcs=2)
    states = _states(make("duato-mesh", net))
    ra = CountingDuatoMesh(net)
    table = RouteTable(ra, dist=net.shortest_distances() if ordered else None)
    _fill(table, states)
    rows = {(c.dst, d) for c, d in states}
    assert table.misses == len(states) > len(rows)
    # a minimal relation never leads back to an input's source: no U-turn builds
    assert table.rows == len(rows)
    assert set(ra.evals) == rows
    assert set(ra.evals.values()) == {1}


def test_input_channel_relation_is_evaluated_once_per_state():
    net = build_mesh((3, 3))
    ra = CountingHPL(net)
    states = set()
    for dt in TransitionCache(ra).all_destinations():
        states |= {(a, dt.dest) for a in dt.succ_masks if net.heads[a] != dt.dest}
    assert set(ra.evals) == states
    assert set(ra.evals.values()) == {1}
    ra.evals.clear()
    table = RouteTable(ra, dist=net.shortest_distances())
    _fill(table, _states(HighestPositiveLast(net)))
    assert table.rows == table.misses == len(states)
    assert set(ra.evals) == states
    assert set(ra.evals.values()) == {1}


def test_overriding_waiting_channels_is_rejected():
    with pytest.raises(TypeError, match="waiting_subset"):
        class OldStyle(NodeDestRouting):
            def route_nd(self, node, dest):
                return frozenset()

            def waiting_channels(self, c_in, node, dest):
                return frozenset()


def test_no_relation_class_overrides_waiting_channels():
    """Only the base class defines ``waiting_channels``, anywhere in the tree."""
    found = []
    for top in ("src", "examples", "tests"):
        for path in sorted((_ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.ClassDef) or node.name == "RoutingAlgorithm":
                    continue
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "waiting_channels":
                        found.append(f"{path.relative_to(_ROOT)}:{node.name}")
    assert found == ["tests/test_work_counters.py:OldStyle"]


# ----------------------------------------------------------------------
# simulator work
# ----------------------------------------------------------------------
#: (rate, cycles, seed) -> pinned counts; relation evaluations ("route_calls")
#: were 1,082 and 1,552, twice the rows, while duato-mesh's waiting set
#: recomputed its route set
SIM_PINNED = {
    (0.05, 1000, 3): {"route_table_rows": 541, "route_table_misses": 722,
                      "alloc_wakeups": 1_289, "flit_hops": 8_196, "route_calls": 541},
    (0.25, 500, 5): {"route_table_rows": 776, "route_table_misses": 1_354,
                     "alloc_wakeups": 2_801, "flit_hops": 17_133, "route_calls": 776},
}


@pytest.mark.parametrize("rate, cycles, seed", list(SIM_PINNED), ids=["light", "saturated"])
def test_quick_sim_work_is_pinned(monkeypatch, rate, cycles, seed):
    net = build_mesh((6, 6), num_vcs=2)
    ra = make("duato-mesh", net)
    counts: Counter = Counter()
    count_evaluations(monkeypatch, counts)
    traffic = BernoulliTraffic(net, rate=rate, length=8, stop_at=cycles)
    sim = WormholeSimulator(ra, traffic, SimConfig(seed=seed))
    sim.run(cycles)
    assert sim.deadlock is None
    counts.update(sim.perf_counters())
    assert {k: counts[k] for k in SIM_PINNED[rate, cycles, seed]} == SIM_PINNED[rate, cycles, seed]


#: distinct route-table entries a message blocked on in the light run below
BLOCKED_ENTRIES = 5


def test_route_table_fill_builds_channel_forms_only_for_blocks(monkeypatch):
    """duato-mesh's route table fills from cid masks: a cold fill on a network
    whose per-channel singleton sets exist hashes no channel, and an entry
    builds its Channel forms only when a message blocks on it -- its waiting
    set, once; the candidate tuples never, under the default selection."""
    net = build_mesh((6, 6), num_vcs=2)
    ra = make("duato-mesh", net)
    hashes: Counter = Counter()
    channel_hash = Channel.__hash__

    def counted_hash(c):
        hashes[c.cid] += 1
        return channel_hash(c)
    monkeypatch.setattr(Channel, "__hash__", counted_hash)
    asked: list[RouteEntry] = []
    wait_set = RouteEntry.wait_set

    def asked_wait_set(e):
        asked.append(e)
        return wait_set.fget(e)
    monkeypatch.setattr(RouteEntry, "wait_set", property(asked_wait_set))

    def run() -> RouteTable:
        traffic = BernoulliTraffic(net, rate=0.05, length=8, stop_at=1000)
        sim = WormholeSimulator(ra, traffic, SimConfig(seed=3))
        sim.run(1000)
        return sim._route_table

    run()
    # the network's singleton sets, built at the first block: one hash per channel
    assert hashes == Counter(range(net.num_channels))
    hashes.clear()
    asked.clear()
    table = run()
    assert hashes == Counter()
    entries = list({id(e): e for e in table._entries if e is not None}.values())
    assert not any(e._cands or e._waits for e in entries)
    built = {id(e) for e in entries if e._wait_set is not None}
    assert built == {id(e) for e in asked}
    assert (len(built), len(entries), table.misses) == (BLOCKED_ENTRIES, 541, 722)
