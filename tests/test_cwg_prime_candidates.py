"""Theorem 3's CWG' candidates, built on cid masks, vs wrapper relations.

Theorem 3 tries per-state waiting disciplines as CWG' candidates: Section
9's two narrowings, the discipline that survives the Section 8 reduction,
and the repairs of that discipline.  The checker builds each candidate's
CWG from the relation's own walks with the waiting masks replaced
(:meth:`~repro.core.transitions.DestinationTransitions.with_waits`).  The
reference here is the candidate as a specific-waiting *wrapper relation*
whose waiting hook returns the discipline's set, walked from scratch; both
must give the same CWG, edges and destination witnesses alike.

A repaired discipline is keyed by input channel, not by node, so the
candidate's closure must run on the state graph even for an ``R(n, d)``
relation: the escape-wild, faulty-torus, irregular and faulty-mesh cases
below are such relations, decided by the repair loop.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

import pytest

from repro.core import ChannelWaitingGraph, bits
from repro.core.cycles import CycleExplosion
from repro.core.reduction import CWGReducer
from repro.fuzz.generators import CaseSpec, build_case
from repro.fuzz.oracles import BOUNDS
from repro.pipeline.engine import catalog_specs
from repro.routing import HighestPositiveLast, make
from repro.routing.relation import RoutingAlgorithm, WaitPolicy
from repro.topology import build_mesh
from repro.topology.channel import Channel
from repro.verify import necsuf

#: ``narrow(c_in, dest, waiting set) -> the candidate's waiting set``
Narrow = Callable[[Channel, int, frozenset[Channel]], frozenset[Channel]]


class DisciplineWaiting(RoutingAlgorithm):
    """A CWG' candidate as a specific-waiting relation: the inner relation's
    routes, with each state's waiting set passed through ``narrow``."""

    def __init__(self, inner: RoutingAlgorithm, narrow: Narrow) -> None:
        super().__init__(inner.network)
        self.inner = inner
        self.narrow = narrow
        self.name = f"{inner.name}#cwg-prime"
        self.form = inner.form
        self.wait_policy = WaitPolicy.SPECIFIC

    def route(self, c_in, node, dest):
        return self.inner.route(c_in, node, dest)

    def waiting_subset(self, c_in, node, dest, permitted):
        return self.narrow(c_in, dest, self.inner.waiting_subset(c_in, node, dest, permitted))


def witnesses(cwg: ChannelWaitingGraph) -> dict[tuple[int, int], int]:
    """Every edge with its destination bitmask."""
    return {(u, v): m for u, v, m in cwg.dep.iter_edges()}


def least(key) -> Narrow:
    return lambda _c, _d, waits: frozenset([min(waits, key=key)]) if waits else waits


def surviving(removed) -> Narrow:
    return lambda c, _d, waits: frozenset(w for w in waits if (c, w) not in removed)


def given(discipline: dict[tuple[int, int], int], channel) -> Narrow:
    """The discipline's set where it names the state, else the relation's."""
    def narrow(c, d, waits):
        mask = discipline.get((c.cid, d))
        return waits if mask is None else frozenset(channel(b) for b in bits(mask))
    return narrow


def candidates(algorithm: RoutingAlgorithm):
    """``(label, mask-built CWG', reference narrowing)`` for both narrowings
    and, when the Section 8 reduction succeeds, its surviving discipline."""
    cwg = ChannelWaitingGraph(algorithm)
    for label, key in necsuf._NARROWINGS:
        yield label, necsuf._discipline_cwg(cwg, necsuf._narrowed(cwg, key)), least(key)
    reducer = CWGReducer(cwg, cycle_limit=BOUNDS["cycle_limit"])
    try:
        result = reducer.run()
    except CycleExplosion:
        return
    if result.success:
        waits = reducer.surviving_waits(result.removed)
        yield "surviving", necsuf._discipline_cwg(cwg, waits), surviving(result.removed)


def _build_spec(spec):
    return make(spec.algorithm, spec.topology.build())


def _hpl_wait_any_3x3():
    return HighestPositiveLast(build_mesh((3, 3)), wait_any=True)


def _registry_any_wait():
    out = []
    for sizes, tag in (({"mesh_dims": (3, 3), "torus_dims": (4, 4), "hypercube_dim": 3}, "quick"),
                       ({}, "batch")):
        for spec in catalog_specs(conditions=("theorem",), **sizes):
            if _build_spec(spec).wait_policy is WaitPolicy.ANY:
                out.append(pytest.param(partial(_build_spec, spec), id=f"{spec.algorithm}-{tag}"))
    return out


#: fuzz cases whose Theorem 3 verdict the reduction-seeded repair loop decides
REPAIR_DECIDED = [
    ("escape-wild", 2229895588), ("escape-wild", 2235178177),
    ("escape-wild", 3580465662), ("escape-wild", 3734902479),
    ("faulty-torus", 2564698348), ("faulty-torus", 2881601410),
    ("faulty-torus", 3125999507), ("faulty-torus", 547093598),
    ("irregular", 1303066716), ("irregular", 2086943906),
    ("irregular", 120373108), ("irregular", 679532177),
    ("arbitrary", 3085207307), ("arbitrary", 1037750752),
    ("faulty-mesh", 4165802334), ("faulty-mesh", 1879092238),
]

_DECIDED = [pytest.param(_hpl_wait_any_3x3, id="hpl-wait-any-3x3")] + [
    pytest.param(partial(build_case, CaseSpec(f, s)), id=f"{f}:{s}") for f, s in REPAIR_DECIDED
]


@pytest.mark.parametrize("build", _registry_any_wait() + _DECIDED)
def test_candidates_match_wrapper_relations(build):
    algorithm = build()
    labels = []
    for label, got, narrow in candidates(algorithm):
        ref = ChannelWaitingGraph(DisciplineWaiting(algorithm, narrow))
        assert witnesses(got) == witnesses(ref), label
        labels.append(label)
    assert labels[:2] == ["lowest VC class", "lowest cid"]


@pytest.mark.parametrize("build", _DECIDED)
def test_every_discipline_theorem3_tries_matches_its_wrapper(monkeypatch, build):
    """The narrowings, the surviving discipline and each repair of it."""
    algorithm = build()
    channel = algorithm.network.channel
    tried = []
    real = necsuf._discipline_cwg

    def record(cwg, discipline):
        got = real(cwg, discipline)
        tried.append((dict(discipline), got))
        return got
    monkeypatch.setattr(necsuf, "_discipline_cwg", record)
    verdict = necsuf.theorem3(algorithm, **BOUNDS)
    assert verdict.deadlock_free and "edges removed" in verdict.reason
    assert len(tried) >= 3
    for discipline, got in tried:
        ref = ChannelWaitingGraph(DisciplineWaiting(algorithm, given(discipline, channel)))
        assert witnesses(got) == witnesses(ref)


def test_hpl_wait_any_reason_is_pinned():
    verdict = necsuf.verify(_hpl_wait_any_3x3())
    assert verdict.deadlock_free and verdict.necessary_and_sufficient
    assert verdict.reason == (
        "wait-connected CWG' with no True Cycles found (16 edges removed, "
        "26 True Cycles resolved, 18 False Resource Cycles ignored)"
    )
