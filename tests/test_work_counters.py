"""Work-counter guard: exact, host-independent counts of checker work.

A wall-time guard depends on the machine; a count of work does not.  The
fixed job set below (every mesh, torus and hypercube scenario of the
registry at the benchmark's ``--quick`` sizes, theorem only, triage off)
is run with the relation and the checker's layer entry points wrapped by
counters, and four counts are pinned exactly:

* relation evaluations -- outermost ``route`` calls (a wrapper relation
  delegating to its inner relation is one evaluation);
* CWG edges built;
* :class:`~repro.core.transitions.DestinationTransitions` builds;
* True-Cycle / any-wait search nodes.

A change that does more work fails here on any host.  A change that does
less updates the pins and says so.

The gate tests pin the row rule itself: an ``R(n, d)`` relation is
evaluated once per reachable ``(node, destination)`` row, and a wrapper
that only copies ``form="ND"`` is still evaluated once per state.
"""

from __future__ import annotations

import functools
from collections import Counter

import pytest

from repro.core.cwg import ChannelWaitingGraph
from repro.core.deadlock_search import AnyWaitConfigSearch, TrueCycleSearch
from repro.core.transitions import DestinationTransitions, TransitionCache
from repro.pipeline import run_job
from repro.pipeline.engine import catalog_specs
from repro.routing import RestrictedWaiting, make
from repro.routing.relation import RoutingAlgorithm
from repro.scenario import registry
from repro.topology import build_mesh

#: the benchmark's --quick sizes
QUICK = {"mesh_dims": (3, 3), "torus_dims": (4, 4), "hypercube_dim": 3}

#: route_calls was 3,557 while the walk evaluated the relation per state
PINNED = {
    "route_calls": 1_652,
    "cwg_edges": 2_836,
    "dest_builds": 151,
    "search_nodes": 26,
}


def quick_jobs():
    names = [s.name for s in registry.all_specs()
             if s.family in ("mesh", "torus", "hypercube")]
    return catalog_specs(names, conditions=("theorem",), triage=False, **QUICK)


def _relation_classes():
    todo, seen = [RoutingAlgorithm], set()
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.add(sub)
                todo.append(sub)
                fn = sub.__dict__.get("route")
                if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                    yield sub


def count_work(monkeypatch, jobs) -> Counter:
    counts: Counter = Counter()
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

    def after(fn, hook):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            result = fn(self, *args, **kwargs)
            hook(self, result)
            return result
        return wrapper

    for cls in list(_relation_classes()):
        monkeypatch.setattr(cls, "route", outermost_route(cls.__dict__["route"]))
    monkeypatch.setattr(ChannelWaitingGraph, "__init__", after(
        ChannelWaitingGraph.__init__,
        lambda g, _r: counts.update(cwg_edges=len(g))))
    monkeypatch.setattr(DestinationTransitions, "__init__", after(
        DestinationTransitions.__init__,
        lambda _dt, _r: counts.update(dest_builds=1)))
    for search in (TrueCycleSearch, AnyWaitConfigSearch):
        monkeypatch.setattr(search, "search", after(
            search.search,
            lambda _s, out: counts.update(search_nodes=out.nodes_explored)))
    for spec in jobs:
        job = run_job(spec)
        assert job.error is None, job.error
    return counts


def test_quick_theorem_work_is_pinned(monkeypatch):
    counts = count_work(monkeypatch, quick_jobs())
    assert {k: counts[k] for k in PINNED} == PINNED


# ----------------------------------------------------------------------
# the (node, destination) row gate
# ----------------------------------------------------------------------
def _reachable_states(tc: TransitionCache) -> tuple[int, set[tuple[int, int]]]:
    states, rows = 0, set()
    for dt in tc.all_destinations():
        for c in dt.succ:
            if c.dst != dt.dest:
                states += 1
                rows.add((c.dst, dt.dest))
    return states, rows


def _counting(algorithm: RoutingAlgorithm) -> Counter:
    """Count route / waiting_channels calls on this instance, per (node, dest)."""
    calls: Counter = Counter()
    route, waiting = algorithm.route, algorithm.waiting_channels

    def counted_route(c_in, node, dest):
        calls["route"] += 1
        calls[("route", node, dest)] += 1
        return route(c_in, node, dest)

    def counted_waiting(c_in, node, dest):
        calls["waiting"] += 1
        return waiting(c_in, node, dest)

    algorithm.route = counted_route
    algorithm.waiting_channels = counted_waiting
    return calls


def test_node_dest_relation_is_evaluated_once_per_row():
    ra = make("duato-mesh", build_mesh((4, 4), num_vcs=2))
    calls = _counting(ra)
    tc = TransitionCache(ra)
    states, rows = _reachable_states(tc)
    assert states > len(rows)
    assert calls["route"] == calls["waiting"] == len(rows)
    assert all(calls[("route", n, d)] == 1 for n, d in rows)


def test_form_nd_wrapper_is_evaluated_once_per_state():
    inner = make("duato-mesh", build_mesh((4, 4), num_vcs=2))
    wrapped = RestrictedWaiting(inner)
    assert wrapped.form == "ND"
    calls = _counting(wrapped)
    states, rows = _reachable_states(TransitionCache(wrapped))
    assert states > len(rows)
    assert calls["route"] == calls["waiting"] == states


@pytest.mark.parametrize("name", ["duato-mesh", "west-first", "e-cube-mesh"])
def test_row_memo_keeps_the_transition_graph(name):
    """Same states, successors and waiting sets as a per-state walk."""
    ra = make(name, build_mesh((4, 4), num_vcs=2 if name == "duato-mesh" else 1))
    per_state = RestrictedWaiting(ra)
    for dest in ra.network.nodes:
        rows, states = DestinationTransitions(ra, dest), DestinationTransitions(per_state, dest)
        assert rows.succ == states.succ and list(rows.succ) == list(states.succ)
        assert rows.wait == states.wait
