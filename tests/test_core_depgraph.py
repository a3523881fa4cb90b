"""The integer-indexed dependency-graph kernel (repro.core.depgraph)."""

import networkx as nx
from hypothesis import given
from hypothesis import strategies as st

from repro.core.depgraph import (
    DepGraph,
    bits,
    find_cycle_adj,
    iter_cycles_adj,
    mask_of_ints,
    tarjan_scc,
)


class FakeNetwork:
    """Just enough network for DepGraph: a channel-id space."""

    def __init__(self, num_channels: int) -> None:
        self.num_channels = num_channels

    def channel(self, cid: int) -> int:
        return cid


def dg(n, edges, masks=None):
    edge_masks = {e: 1 for e in edges}
    if masks:
        edge_masks.update(masks)
    return DepGraph(FakeNetwork(n), edge_masks)


def edge_sets(n):
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return st.sets(pairs, max_size=n * n)


def canon(cycle):
    k = cycle.index(min(cycle))
    return tuple(cycle[k:] + cycle[:k])


class TestBits:
    def test_roundtrip(self):
        assert list(bits(mask_of_ints([0, 3, 64, 200]))) == [0, 3, 64, 200]

    def test_empty(self):
        assert list(bits(0)) == []
        assert mask_of_ints([]) == 0

    @given(st.sets(st.integers(0, 300)))
    def test_property(self, values):
        assert set(bits(mask_of_ints(values))) == values


class TestTarjan:
    def test_labels_reverse_topological(self):
        # 0 -> 1 -> 2, plus a 2-cycle {3, 4} fed by 2
        indptr, indices = [0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 3]
        labels, ncomp = tarjan_scc(5, indptr, indices)
        assert ncomp == 4
        assert labels[3] == labels[4]
        # every inter-component edge points to a smaller label
        assert labels[0] > labels[1] > labels[2] > labels[3]

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), edge_sets(n))))
    def test_matches_networkx(self, case):
        n, edges = case
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        indptr = [0] * (n + 1)
        indices = []
        for u in range(n):
            indices.extend(sorted(v for (a, v) in edges if a == u))
            indptr[u + 1] = len(indices)
        labels, ncomp = tarjan_scc(n, indptr, indices)
        assert ncomp == nx.number_strongly_connected_components(g)
        ours = {frozenset(v for v in range(n) if labels[v] == c) for c in range(ncomp)}
        assert ours == {frozenset(c) for c in nx.strongly_connected_components(g)}
        for u, v in edges:
            if labels[u] != labels[v]:
                assert labels[u] > labels[v]


class TestStructure:
    def test_csr_and_lookups(self):
        g = dg(4, [], masks={(0, 2): 0b101, (0, 1): 1, (2, 0): 1 << 70})
        assert g.num_edges == 3
        assert g.edge_cids() == [(0, 1), (0, 2), (2, 0)]
        assert list(g.iter_edges()) == [(0, 1, 1), (0, 2, 0b101), (2, 0, 1 << 70)]
        assert g.succ_cids(0) == [1, 2]
        assert g.succ_cids(1) == []
        assert g.has_edge(0, 2) and not g.has_edge(2, 1)
        assert g.mask_of(0, 2) == 0b101
        assert g.mask_of(1, 0) == 0
        assert g.target_cids() == {0, 1, 2}
        assert len(g) == 3

    def test_isolated_vertices_are_free(self):
        g = dg(100, [(3, 4)])
        assert g.num_vertices == 100
        assert g.is_acyclic()

    def test_channel_edges_uses_network(self):
        g = dg(3, [(1, 2)])
        assert g.channel_edges() == [(1, 2)]


class TestCycleStructure:
    def test_acyclic(self):
        g = dg(4, [(0, 1), (1, 2), (0, 2)])
        assert g.is_acyclic()
        assert g.find_cycle_cids() is None
        assert list(g.iter_cycle_cids()) == []

    def test_self_loop_is_a_cycle(self):
        g = dg(3, [(0, 1), (1, 1)])
        assert not g.is_acyclic()
        assert g.find_cycle_cids() == [1]
        assert list(g.iter_cycle_cids()) == [[1]]

    def test_topo_order(self):
        g = dg(5, [(3, 1), (1, 0), (3, 0), (4, 2)])
        topo = g.topo_cids()
        pos = {v: i for i, v in enumerate(topo)}
        for u, v, _ in g.iter_edges():
            assert pos[u] < pos[v]
        assert dg(3, [(0, 1), (1, 0)]).topo_cids() is None

    def test_witness_is_a_real_cycle(self):
        g = dg(6, [(0, 1), (1, 2), (2, 3), (3, 1), (4, 5)])
        cyc = g.find_cycle_cids()
        assert cyc is not None
        for i, u in enumerate(cyc):
            assert g.has_edge(u, cyc[(i + 1) % len(cyc)])

    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), edge_sets(n))))
    def test_enumeration_matches_networkx(self, case):
        n, edges = case
        g = dg(n, edges)
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(edges)
        ours = {canon(c) for c in g.iter_cycle_cids()}
        theirs = {canon(c) for c in nx.simple_cycles(nxg)}
        assert ours == theirs
        assert g.is_acyclic() == (not ours)
        assert (g.find_cycle_cids() is None) == (not ours)

    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), edge_sets(n))))
    def test_adj_variants_agree_with_csr(self, case):
        n, edges = case
        g = dg(n, edges)
        adj = {u: g.succ_cids(u) for u in range(n)}
        assert {canon(c) for c in iter_cycles_adj({u: a for u, a in adj.items() if a})} \
            == {canon(c) for c in g.iter_cycle_cids()}
        assert find_cycle_adj(set(range(n)), adj) == g.find_cycle_cids()


class TestReachability:
    def test_reverse_reachable(self):
        g = dg(6, [(0, 1), (1, 2), (3, 2), (4, 3), (2, 5)])
        assert g.reverse_reachable(2) == {0, 1, 3, 4}
        assert g.reverse_reachable(2, min_cid=1) == {1, 3, 4}
        assert g.reverse_reachable(5, min_cid=3) == set()

    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), edge_sets(n))))
    def test_matches_networkx_ancestors(self, case):
        n, edges = case
        g = dg(n, edges)
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(edges)
        for t in range(n):
            # a is reverse-reachable from t iff a has a nonempty path to t
            # (nx.descendants always excludes the source, so t itself needs
            # the on-a-cycle check via its successors)
            expected = {a for a in range(n) if a != t and t in nx.descendants(nxg, a)}
            if any(s == t or t in nx.descendants(nxg, s) for s in nxg.successors(t)):
                expected.add(t)
            assert g.reverse_reachable(t) == expected


class TestFingerprintAndSummary:
    def test_fingerprint_content_addressed(self):
        a = dg(4, [], masks={(0, 1): 0b11})
        b = dg(4, [], masks={(0, 1): 0b11})
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != dg(4, [], masks={(0, 1): 0b01}).fingerprint()  # payload
        assert a.fingerprint() != dg(4, [], masks={(0, 2): 0b11}).fingerprint()  # edge
        assert a.fingerprint() != dg(5, [], masks={(0, 1): 0b11}).fingerprint()  # vertices

    def test_summary(self):
        g = dg(5, [(0, 1), (1, 0), (2, 2), (3, 4)])
        s = g.summary()
        assert s == {
            "vertices": 5,
            "edges": 4,
            "self_loops": 1,
            "sccs": 4,
            "nontrivial_sccs": 1,
            "largest_scc": 2,
            "acyclic": False,
        }

    def test_repr(self):
        assert "acyclic" in repr(dg(2, [(0, 1)]))
