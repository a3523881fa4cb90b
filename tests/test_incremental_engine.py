"""Unit tests for the incremental engine's load-bearing pieces.

The metamorphic battery (``test_incremental_equivalence.py``) checks the
end-to-end contract; this file pins the mechanisms it rests on: the
delta-aware Tarjan refresh and its differential tripwire, the dirty-SCC
frontier, the transition-cache seams, the overlay's base-row memo, delta
(de)serialization, table-edit validation, and the planted ``stale_scc``
knob actually being unsound.
"""

from __future__ import annotations

import pytest

from repro.core.cwg import ChannelWaitingGraph
from repro.core.depgraph import DepGraph, dirty_components
from repro.core.transitions import DestinationTransitions, TransitionCache
from repro.deps.cdg import ChannelDependencyGraph
from repro.incremental import (
    IncrementalSession,
    LinkDown,
    LinkUp,
    TableEdit,
    VcAdd,
    default_fault_pair,
    default_table_edit,
    delta_from_json,
    delta_to_json,
    format_delta,
    parse_delta,
    parse_table_key,
)
from repro.incremental.overlay import OverlayRouting, RouteRecorder
from repro.pipeline.engine import catalog_spec
from repro.routing import make
from repro.topology import build_mesh


def _ra(name: str = "west-first", dims=(3, 3)):
    return make(name, build_mesh(dims))


# ----------------------------------------------------------------------
# DepGraph.refresh_scc_from + dirty_components
# ----------------------------------------------------------------------
def _two_cycles_graph(net):
    # two disjoint 2-cycles over channel ids 0..3, everything else isolated
    return DepGraph(net, {(0, 1): 1, (1, 0): 1, (2, 3): 1, (3, 2): 1})


def test_payload_only_delta_transfers_scc_verbatim():
    net = build_mesh((2, 2))
    old = _two_cycles_graph(net)
    old_scc = old.scc()
    new = DepGraph(net, {(0, 1): 3, (1, 0): 7, (2, 3): 1, (3, 2): 1})
    stats = new.refresh_scc_from(old, touched=[0, 1])
    assert stats["scc_transferred"] == 1
    assert stats["scc_frontier_violations"] == 0
    assert new.scc() is old_scc  # the very same decomposition object


def test_structural_delta_recomputes_canonically_within_frontier():
    net = build_mesh((2, 2))
    old = _two_cycles_graph(net)
    new = DepGraph(net, {(0, 1): 1, (2, 3): 1, (3, 2): 1})  # cycle 0<->1 broken
    stats = new.refresh_scc_from(old, touched=[0, 1])
    assert stats["scc_transferred"] == 0
    assert stats["scc_frontier_violations"] == 0
    assert stats["scc_dirty_components"] == 1   # only the broken cycle
    assert stats["scc_dirty_vertices"] == 2
    assert stats["scc_reused_components"] >= 1  # the 2<->3 cycle survived
    # labels are the canonical decomposition, identical to a cold build
    cold = DepGraph(net, {(0, 1): 1, (2, 3): 1, (3, 2): 1})
    assert new.scc() == cold.scc()


def test_frontier_tripwire_fires_on_a_lying_touched_set():
    """Passing ``touched`` from a delta that was not the actual structural
    change makes the frontier unsound -- the differential guard must say so
    (it is the counter the incremental session asserts to be zero)."""
    net = build_mesh((2, 2))
    old = _two_cycles_graph(net)
    new = DepGraph(net, {(0, 1): 1, (2, 3): 1, (3, 2): 1})
    stats = new.refresh_scc_from(old, touched=[2])  # lie: 0<->1 changed
    assert stats["scc_frontier_violations"] > 0


def test_vertex_count_change_marks_everything_dirty():
    old = _two_cycles_graph(build_mesh((2, 2)))
    bigger = build_mesh((3, 3))
    new = DepGraph(bigger, {(0, 1): 1})
    stats = new.refresh_scc_from(old, touched=[0])
    assert stats["scc_dirty_vertices"] == new.num_vertices
    assert stats["scc_reused_components"] == 0


def test_dirty_components_is_the_touched_closure_intersection():
    net = build_mesh((2, 2))
    dep = _two_cycles_graph(net)
    labels, _ = dep.scc()
    assert dirty_components(dep, [0]) == {labels[0]}
    assert labels[2] not in dirty_components(dep, [0, 1])
    # a chain comp_a -> comp_b -> comp_c: touching a and c dirties b too
    chain = DepGraph(net, {(0, 1): 1, (1, 0): 1, (1, 2): 1, (2, 3): 1, (3, 2): 1})
    lab, _ = chain.scc()
    dirty = dirty_components(chain, [0, 3])
    assert {lab[0], lab[2]} <= dirty
    assert lab[1] in dirty or lab[1] == lab[0]  # the bridge vertex is between them
    assert dirty_components(chain, []) == set()


# ----------------------------------------------------------------------
# transition-cache seams and from_depgraph constructors
# ----------------------------------------------------------------------
def test_transition_cache_peek_store_invalidate():
    ra = _ra()
    tc = TransitionCache(ra)
    assert tc.peek(0) is None
    dt = tc[0]
    assert tc.peek(0) is dt
    tc.invalidate(0)
    assert tc.peek(0) is None
    tc.invalidate(0)  # absent: a no-op, not an error
    rebuilt = tc[0]
    assert rebuilt is not dt
    tc.store(0, dt)
    assert tc.peek(0) is dt


@pytest.mark.parametrize("cls", [ChannelWaitingGraph, ChannelDependencyGraph])
def test_from_depgraph_reuses_the_kernel_verbatim(cls):
    ra = _ra()
    built = cls(ra)
    adopted = cls.from_depgraph(ra, built.dep, transitions=built.transitions)
    assert adopted.dep is built.dep
    assert adopted.dep.indptr == built.dep.indptr
    assert adopted.kind == built.kind


# ----------------------------------------------------------------------
# the overlay's base-row memo
# ----------------------------------------------------------------------
def _fresh_overlay(session: IncrementalSession) -> OverlayRouting:
    ov = session.overlay
    return OverlayRouting(session.base, down=ov.down, edits=dict(ov.edits))


def _assert_overlay_matches_fresh(session: IncrementalSession) -> None:
    """Every reachable query answers as on an overlay with an empty memo."""
    ov, fresh = session.overlay, _fresh_overlay(session)
    for dt in TransitionCache(fresh).all_destinations():
        for a in dt.succ_masks:
            c = fresh.network.channel(a)
            q = (c, c.dst, dt.dest)
            assert ov.route(*q) == fresh.route(*q), q
            assert ov.waiting_channels(*q) == fresh.waiting_channels(*q), q


def _cold_dirty(session: IncrementalSession, cid: int) -> set[int]:
    """Destinations whose recorded walk on a fresh overlay consults ``cid``."""
    fresh = _fresh_overlay(session)
    dirty = set()
    for dest in fresh.network.nodes:
        rec = RouteRecorder()
        fresh.begin_recording(rec)
        DestinationTransitions(fresh, dest)
        fresh.end_recording()
        if rec.mask >> cid & 1:
            dirty.add(dest)
    return dirty


def _apply_and_compare(session: IncrementalSession, delta) -> None:
    if isinstance(delta, (LinkDown, LinkUp)):
        cid = session._link_index[(delta.src, delta.dst, delta.vc)].cid
        want = _cold_dirty(session, cid)
        assert want, f"{delta!r} touches no destination"
        assert {d for d, m in session._relevant.items() if m >> cid & 1} == want
        assert session.apply(delta)["dirty_destinations"] == len(want)
    else:
        session.apply(delta)
    _assert_overlay_matches_fresh(session)
    assert session.check(delta).digest == session.full_check().digest


@pytest.mark.parametrize("name", ["duato-mesh", "west-first"])
def test_overlay_memo_survives_every_delta_kind(name):
    """duato-mesh overrides waiting_channels; west-first shares the route slot."""
    session = IncrementalSession(spec=catalog_spec(name, mesh_dims=(3, 3)))
    session.baseline()
    _assert_overlay_matches_fresh(session)
    for phase in range(2):
        if phase:  # a vc change renumbers channels and drops the overrides
            _apply_and_compare(session, VcAdd(1))
        down, up = default_fault_pair(session)
        edit, revert = default_table_edit(session)
        for delta in (down, edit, up, revert, down):
            _apply_and_compare(session, delta)


# ----------------------------------------------------------------------
# delta (de)serialization
# ----------------------------------------------------------------------
@pytest.mark.parametrize("delta", [
    LinkDown(0, 1, 0),
    LinkUp(3, 2, 1),
    TableEdit("n4->1", routes=(10, 11)),
    TableEdit("n4->1", routes=(10,), waits=(10,)),
    TableEdit("c7->0"),   # a clear
    VcAdd(2),
])
def test_delta_roundtrips(delta):
    assert parse_delta(format_delta(delta)) == delta
    assert delta_from_json(delta_to_json(delta)) == delta


@pytest.mark.parametrize("text", [
    "nonsense", "down:1-2", "down:1>2", "edit:zz->3", "vc:2", "flip:0>1@0",
])
def test_malformed_compact_deltas_are_rejected(text):
    with pytest.raises(ValueError):
        parse_delta(text)


def test_parse_table_key():
    assert parse_table_key("n3->7") == ("n", 3, 7)
    assert parse_table_key("c12->0") == ("c", 12, 0)
    assert parse_table_key("i5->2") == ("i", 5, 2)
    with pytest.raises(ValueError):
        parse_table_key("x1->2")


# ----------------------------------------------------------------------
# table-edit validation (the session refuses nonsense instead of diverging)
# ----------------------------------------------------------------------
def test_table_edit_validation_errors():
    session = IncrementalSession(_ra())  # ND-form relation
    with pytest.raises(ValueError, match="does not match form"):
        session.apply(TableEdit("c3->1", routes=(0,)))
    with pytest.raises(ValueError, match="out of range"):
        session.apply(TableEdit("n4->99", routes=(0,)))
    with pytest.raises(ValueError, match="routes at the destination"):
        session.apply(TableEdit("n4->4", routes=(0,)))
    with pytest.raises(ValueError, match="does not leave node"):
        # channel 0 does not originate at node 4
        out = [c.cid for c in session.base.network.out_channels(0) if c.is_link]
        session.apply(TableEdit("n4->1", routes=(out[0],)))
    with pytest.raises(ValueError, match="subset of the route set"):
        out4 = [c.cid for c in session.base.network.out_channels(4) if c.is_link]
        session.apply(TableEdit("n4->1", routes=(out4[0],), waits=(out4[1],)))


def test_unknown_link_deltas_are_rejected():
    session = IncrementalSession(_ra())
    with pytest.raises(ValueError, match="no link channel"):
        session.apply(LinkDown(0, 8, 0))  # nodes not adjacent in a 3x3 mesh
    with pytest.raises(ValueError, match="no link channel"):
        session.apply(LinkUp(0, 0, 5))
    with pytest.raises(ValueError, match="needs a session built from a JobSpec"):
        session.apply(VcAdd(1))


def test_clearing_an_absent_override_is_a_noop():
    session = IncrementalSession(_ra())
    base = session.baseline()
    cleared = session.reverify(TableEdit("n4->1"))  # nothing to clear
    assert cleared.digest == base.digest


# ----------------------------------------------------------------------
# session-level frontier accounting and the planted knob
# ----------------------------------------------------------------------
def test_session_frontier_counters_stay_clean():
    session = IncrementalSession(_ra())
    session.baseline()
    down, up = default_fault_pair(session)
    edit, revert = default_table_edit(session)
    for delta in (down, up, edit, revert):
        session.reverify(delta)
    counters = session.metrics.counters
    assert counters.get("cwg_scc_frontier_violations", 0) == 0
    assert counters.get("cdg_scc_frontier_violations", 0) == 0
    # the machinery actually reused work at some point in the sweep
    assert counters.get("cwg_scc_reused_components", 0) > 0


def test_default_delta_derivations_are_deterministic():
    a, b = IncrementalSession(_ra()), IncrementalSession(_ra())
    assert default_fault_pair(a) == default_fault_pair(b)
    assert default_table_edit(a) == default_table_edit(b)
    down, up = default_fault_pair(a)
    assert (down.src, down.dst, down.vc) == (up.src, up.dst, up.vc)
    edit, revert = default_table_edit(a)
    assert revert == TableEdit(edit.key)


def test_stale_scc_knob_is_observably_unsound():
    """``stale_scc=True`` (the fuzz campaign's planted variant) skips the
    dirty-destination expansion on link faults; the session must then
    diverge from a full rebuild -- if it did not, the planted bug would be
    undetectable and the campaign's negative control would prove nothing."""
    broken = IncrementalSession(_ra(), stale_scc=True)
    broken.baseline()
    down, _up = default_fault_pair(broken)
    result = broken.reverify(down)
    full = broken.full_check()
    assert result.digest != full.digest

    honest = IncrementalSession(_ra())
    honest.baseline()
    assert honest.reverify(down).digest == honest.full_check().digest
