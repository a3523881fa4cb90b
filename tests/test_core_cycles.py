"""Cycle enumeration and canonicalization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Cycle, CycleExplosion, DepGraph, find_cycles, find_one_cycle, has_cycle
from repro.topology import Channel, Network


def chans(n):
    return [Channel(cid=i, src=0, dst=1) for i in range(n)]


class TestCycle:
    def test_canonical_rotation(self):
        a, b, c = chans(3)
        assert Cycle.from_nodes([b, c, a]) == Cycle.from_nodes([a, b, c])
        assert Cycle.from_nodes([c, a, b]) == Cycle.from_nodes([a, b, c])

    def test_edges_wrap(self):
        a, b = chans(2)
        cy = Cycle.from_nodes([a, b])
        assert cy.edges == ((a, b), (b, a))

    def test_self_loop(self):
        (a,) = chans(1)
        cy = Cycle.from_nodes([a])
        assert cy.edges == ((a, a),)
        assert len(cy) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cycle.from_nodes([])

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=7))
    def test_rotation_invariance_property(self, n, k):
        cs = chans(n)
        rotated = cs[k % n:] + cs[:k % n]
        assert Cycle.from_nodes(rotated) == Cycle.from_nodes(cs)


def dep_graph(edges, n=6):
    """A DepGraph over ``n`` parallel channels ``0 -> 1`` with the given arcs."""
    net = Network()
    net.add_nodes(2)
    cs = net.add_link_channels(0, 1, n)
    return DepGraph(net, {(i, j): 1 for i, j in edges}), cs


def complete(n):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


class TestEnumeration:
    def graph(self, edges, n=6):
        return dep_graph(edges, n)

    def test_finds_all_simple_cycles(self):
        g, cs = self.graph([(0, 1), (1, 0), (1, 2), (2, 1), (2, 2)])
        cycles = find_cycles(g)
        assert len(cycles) == 3
        assert cycles[0] == Cycle.from_nodes([cs[2]])  # shortest first

    def test_acyclic(self):
        g, _ = self.graph([(0, 1), (1, 2), (0, 2)])
        assert find_cycles(g) == []
        assert not has_cycle(g)
        assert find_one_cycle(g) is None

    def test_has_cycle_and_witness(self):
        g, cs = self.graph([(0, 1), (1, 2), (2, 0)])
        assert has_cycle(g)
        w = find_one_cycle(g)
        assert w is not None and len(w) == 3

    def test_explosion_limit(self):
        # complete digraph on 8 vertices has thousands of simple cycles
        g, _ = dep_graph(complete(8), 8)
        with pytest.raises(CycleExplosion):
            find_cycles(g, limit=100)
        assert len(find_cycles(g, limit=None)) > 100

    def test_limit_is_exact(self):
        # regression: limit=N used to yield N+1 cycles before raising
        g, _ = self.graph([(0, 0), (1, 1), (2, 2)])  # exactly 3 simple cycles
        assert len(find_cycles(g, limit=3)) == 3  # at the limit: no explosion
        from repro.core.cycles import iter_simple_cycles

        yielded = []
        with pytest.raises(CycleExplosion):
            for cy in iter_simple_cycles(g, limit=2):
                yielded.append(cy)
        assert len(yielded) == 2  # never more than the limit

    def test_limit_zero(self):
        # limit=0 is "prove acyclic or raise": yields nothing either way
        from repro.core.cycles import iter_simple_cycles

        acyclic, _ = self.graph([(0, 1), (1, 2)])
        assert find_cycles(acyclic, limit=0) == []
        assert list(iter_simple_cycles(acyclic, limit=0)) == []
        cyclic, _ = self.graph([(0, 1), (1, 0)])
        with pytest.raises(CycleExplosion):
            find_cycles(cyclic, limit=0)
        it = iter_simple_cycles(cyclic, limit=0)
        with pytest.raises(CycleExplosion):
            next(it)

    def test_limit_none_is_unbounded(self):
        # complete digraph on 5 vertices: sum_{k=2..5} C(5,k)(k-1)! = 84
        g, _ = dep_graph(complete(5), 5)
        assert len(find_cycles(g, limit=None)) == 84
        with pytest.raises(CycleExplosion):
            find_cycles(g, limit=83)
        assert len(find_cycles(g, limit=84)) == 84
