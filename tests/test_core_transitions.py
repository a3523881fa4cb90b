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
