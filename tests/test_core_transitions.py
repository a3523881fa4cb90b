"""Per-destination routing-state graphs (the substrate of all graph theory)."""

import pytest

from repro.core import DestinationTransitions, TransitionCache, bits
from repro.routing import CATALOG, DimensionOrderMesh, IncoherentExample, make
from repro.topology import build_mesh


class TestFigure1:
    def setup_method(self):
        from repro.topology import build_figure1_network

        self.net = build_figure1_network()
        self.ra = IncoherentExample(self.net)
        self.by = self.net.channel_by_label

    def test_usable_channels_for_dest0(self):
        dt = DestinationTransitions(self.ra, 0)
        labels = {c.label for c in dt.usable}
        # every leftward channel plus the detour channels; no rightward cH*
        assert labels == {"cL1", "cL2", "cL3", "cA1", "cB2"}

    def test_usable_channels_for_dest3(self):
        dt = DestinationTransitions(self.ra, 3)
        assert {c.label for c in dt.usable} == {"cH0", "cH1", "cH2"}

    def test_succ_respects_relation(self):
        dt = DestinationTransitions(self.ra, 0)
        assert dt.succ[self.by("cA1")] == frozenset([self.by("cL2"), self.by("cB2")])
        assert dt.succ[self.by("cL2")] == frozenset([self.by("cL1"), self.by("cA1")])

    def test_delivered_states_have_no_succ(self):
        dt = DestinationTransitions(self.ra, 0)
        assert dt.succ[self.by("cL1")] == frozenset()

    def test_downstream_wait_closure(self):
        dt = DestinationTransitions(self.ra, 0)
        down = dt.downstream_wait
        # from cL3 every waiting channel of the detour loop is downstream
        assert {c.label for c in down[self.by("cL3")]} == {"cL1", "cL2", "cB2", "cA1"}

    def test_upstream_includes_detour_loop(self):
        dt = DestinationTransitions(self.ra, 0)
        up = dt.upstream
        # a message at state cA1 may hold any loop channel or cL3
        assert {c.label for c in up[self.by("cA1")]} >= {"cA1", "cL2", "cB2", "cL3"}

    def test_reachable_from(self):
        dt = DestinationTransitions(self.ra, 0)
        reach = dt.reachable_from(self.by("cL2"))
        assert self.by("cL1") in reach and self.by("cB2") in reach


class TestCache:
    def test_cache_returns_same_object(self, mesh33):
        cache = TransitionCache(DimensionOrderMesh(mesh33))
        assert cache[0] is cache[0]
        assert len(list(cache.all_destinations())) == mesh33.num_nodes

    def test_ecube_single_successor(self, mesh33):
        cache = TransitionCache(DimensionOrderMesh(mesh33))
        dt = cache[8]
        for c, outs in dt.succ.items():
            if c.dst != 8:
                assert len(outs) == 1

    def test_wait_subset_of_succ(self, mesh33):
        cache = TransitionCache(DimensionOrderMesh(mesh33))
        for dt in cache.all_destinations():
            for c in dt.succ:
                assert dt.wait[c] <= dt.succ[c]


def test_mask_views_match_frozenset_adapters():
    net = build_mesh((4, 4), num_vcs=CATALOG["duato-mesh"].min_vcs)
    tc = TransitionCache(make("duato-mesh", net))
    for dest in (0, 5, 12):
        dt = tc[dest]
        dw_masks = dt.downstream_wait_masks
        up_masks = dt.upstream_masks
        for cid in dt.usable_cids:
            assert {c.cid for c in dt.downstream_wait[net.channel(cid)]} \
                == set(bits(dw_masks[cid]))
            assert {c.cid for c in dt.upstream[net.channel(cid)]} \
                == set(bits(up_masks[cid]))


def _reach(dt, start):
    """States reachable from ``start`` (inclusive), by plain search."""
    seen, stack = {start}, [start]
    while stack:
        for o in dt.succ[stack.pop()]:
            if o not in seen:
                seen.add(o)
                stack.append(o)
    return seen


@pytest.mark.parametrize("name, dims, vcs", [
    ("duato-mesh", (3, 3), 2),            # R(n, d): the node graph
    ("incoherent-example", None, 1),      # R(n, d) with a detour loop
    ("highest-positive-last", (3, 3), 1),  # R(c_in, n, d): the state graph
])
def test_propagations_match_plain_reachability(name, dims, vcs):
    from repro.topology import build_figure1_network

    net = build_figure1_network() if dims is None else build_mesh(dims, num_vcs=vcs)
    tc = TransitionCache(make(name, net))
    for dt in tc.all_destinations():
        for c in dt.succ:
            down = _reach(dt, c)
            up = {p for p in dt.succ if c in _reach(dt, p)}
            assert set(bits(dt.downstream_wait_masks[c.cid])) \
                == {w.cid for s in down for w in dt.wait[s]}
            assert set(bits(dt.downstream_node_masks[c.cid])) == {s.dst for s in down}
            assert set(bits(dt.upstream_masks[c.cid])) == {p.cid for p in up if p.is_link}


# ----------------------------------------------------------------------
# masks filled by the walk vs the Channel adapter views
# ----------------------------------------------------------------------
def _reference_walk(algorithm, dest):
    """A Channel-keyed walk, one relation evaluation per state: states in
    BFS order with their route and waiting sets."""
    net = algorithm.network
    succ, wait = {}, {}
    frontier = [net.injection_channel(n) for n in net.nodes if n != dest]
    seen = set(frontier)
    while frontier:
        nxt = []
        for c in frontier:
            if c.dst == dest:
                succ[c] = wait[c] = frozenset()
                continue
            out = algorithm.route(c, c.dst, dest)
            succ[c], wait[c] = out, algorithm.waiting_subset(c, c.dst, dest, out)
            for o in out:
                if o not in seen:
                    seen.add(o)
                    nxt.append(o)
        frontier = nxt
    return succ, wait


def _mask(channels):
    m = 0
    for c in channels:
        m |= 1 << c.cid
    return m


def assert_views_match_masks(algorithm):
    for dest in algorithm.network.nodes:
        dt = DestinationTransitions(algorithm, dest)
        ref_succ, ref_wait = _reference_walk(algorithm, dest)
        # the views, read after the masks, keep the walk's BFS order
        assert list(dt.succ) == list(ref_succ) == list(dt.wait)
        assert list(dt.succ_masks) == [c.cid for c in ref_succ]
        assert dt.succ == ref_succ and dt.wait == ref_wait
        assert dt.succ_masks == {c.cid: _mask(out) for c, out in dt.succ.items()}
        assert dt.wait_masks == {c.cid: _mask(w) for c, w in dt.wait.items()}
        assert dt.usable_cids == sorted(c.cid for c in dt.succ if c.is_link)
        assert dt.usable == {c for c in dt.succ if c.is_link}


def _quick_scenarios():
    from repro.pipeline.engine import catalog_specs

    specs = catalog_specs(mesh_dims=(3, 3), torus_dims=(4, 4), hypercube_dim=3,
                          conditions=("theorem",))
    return [(s.algorithm, s.topology) for s in specs]


@pytest.mark.parametrize("name, topology", _quick_scenarios(),
                         ids=[n for n, _ in _quick_scenarios()])
def test_walk_masks_match_channel_views(name, topology):
    assert_views_match_masks(make(name, topology.build()))


def test_walk_masks_match_channel_views_on_an_overlay():
    from repro.incremental import IncrementalSession, default_fault_pair, default_table_edit
    from repro.pipeline.engine import catalog_spec

    for name in ("west-first", "highest-positive-last"):
        session = IncrementalSession(spec=catalog_spec(name, mesh_dims=(3, 3)))
        down, _ = default_fault_pair(session)
        edit, _ = default_table_edit(session)
        session.apply(down)
        session.apply(edit)
        assert session.overlay.down and session.overlay.edits
        assert_views_match_masks(session.overlay)
        for dest in session.overlay.network.nodes:
            # the session's own walks, rebuilt under the recorder, agree too
            dt = session.tc[dest]
            assert dt.succ_masks == {c.cid: _mask(o) for c, o in dt.succ.items()}
            assert dt.wait_masks == {c.cid: _mask(w) for c, w in dt.wait.items()}
