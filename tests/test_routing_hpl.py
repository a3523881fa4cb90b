"""Highest Positive Last (Section 9.2): the paper's mesh algorithm.

Covers the routing rules one by one, including the East/North worked
example from the text, and the structural facts Theorem 4 rests on.
"""

import pytest

from repro.core import ChannelWaitingGraph, find_one_cycle
from repro.deps import ChannelDependencyGraph
from repro.routing import (
    HighestPositiveLast,
    RoutingAlgorithm,
    RoutingError,
    WaitPolicy,
    is_coherent,
    is_connected,
)
from repro.topology import build_mesh


@pytest.fixture(scope="module")
def hpl(mesh33):
    return HighestPositiveLast(mesh33)


def chan(net, node, dim, sign, vc=0):
    for c in net.out_channels(node):
        if c.meta.get("dim") == dim and c.meta.get("sign") == sign and c.vc == vc:
            return c
    raise AssertionError(f"no channel dim={dim} sign={sign} at {node}")


class TestRules:
    def test_negative_needed_waits_on_highest(self, hpl, mesh33):
        # (2,2)=8 -> (0,0)=0: needs -x and -y; p = dim 1 (y)
        inj = mesh33.injection_channel(8)
        waits = hpl.waiting_channels(inj, 8, 0)
        assert waits == frozenset([chan(mesh33, 8, 1, -1)])

    def test_lower_dim_freedom_below_p(self, hpl, mesh33):
        # 8 -> 0: any dim-0 channel (both signs) plus -y permitted
        inj = mesh33.injection_channel(8)
        out = hpl.route(inj, 8, 0)
        assert chan(mesh33, 8, 0, -1) in out
        assert chan(mesh33, 8, 1, -1) in out
        # misroute +x does not exist at the border node 8=(2,2); at (1,2)=7:
        out7 = hpl.route(mesh33.injection_channel(7), 7, 0)
        assert chan(mesh33, 7, 0, +1) in out7  # nonminimal freedom below p

    def test_positive_only_increasing_dimension_order(self, hpl, mesh33):
        # 0 -> 8: needs +x,+y; must use +x (lowest) first
        inj = mesh33.injection_channel(0)
        out = hpl.route(inj, 0, 8)
        assert chan(mesh33, 0, 0, +1) in out
        assert chan(mesh33, 0, 1, +1) not in out

    def test_positive_only_waiting_channel(self, hpl, mesh33):
        inj = mesh33.injection_channel(0)
        assert hpl.waiting_channels(inj, 0, 8) == frozenset([chan(mesh33, 0, 0, +1)])

    def test_positive_only_may_misroute_higher_negative(self, hpl, mesh33):
        # 0 -> 2: needs +x only; may misroute -y? y is higher than... the
        # lowest positive dim is 0, so -1 (dim 1) misroute is offered where
        # the channel exists: at node 3=(0,1) heading to 5=(2,1):
        inj = mesh33.injection_channel(3)
        out = hpl.route(inj, 3, 5)
        assert chan(mesh33, 3, 0, +1) in out
        assert chan(mesh33, 3, 1, -1) in out  # negative misroute in higher dim

    def test_papers_east_north_example(self, mesh33):
        """The Section 9.2 example: due South of the destination, a message
        needing only North may go South if it came in heading East, but not
        if it came in heading North."""
        hpl = HighestPositiveLast(mesh33)
        # node 4=(1,1), dest 7=(1,2): needs +y only
        east_in = chan(mesh33, 3, 0, +1)   # 3 -> 4 heading east
        north_in = chan(mesh33, 1, 1, +1)  # 1 -> 4 heading north
        south_out = chan(mesh33, 4, 1, -1)
        assert south_out in hpl.route(east_in, 4, 7)
        assert south_out not in hpl.route(north_in, 4, 7)

    def test_pos_to_neg_turn_requires_higher_negative(self, mesh332):
        hpl = HighestPositiveLast(mesh332)
        # 3D mesh: message at (1,1,0), came in +x, dest (0,1,1):
        # needs -x and +z; p = 0 -> 180-degree +x -> -x forbidden (no
        # *higher* negative dimension needed)
        node = mesh332.node_at((1, 1, 0))
        prev = mesh332.node_at((0, 1, 0))
        dest = mesh332.node_at((0, 1, 1))
        x_in = [c for c in mesh332.channels_between(prev, node)][0]
        back = mesh332.channels_between(node, prev)[0]
        assert back not in hpl.route(x_in, node, dest)
        # but with a higher negative needed (dest (0,1,0) after misrouting
        # in z... construct: dest needs -x and -z; p=2: now +x -> -x allowed
        dest2 = mesh332.node_at((0, 0, 0))
        node2 = mesh332.node_at((1, 0, 1))
        prev2 = mesh332.node_at((0, 0, 1))
        x_in2 = mesh332.channels_between(prev2, node2)[0]
        back2 = mesh332.channels_between(node2, prev2)[0]
        assert x_in2.meta["dim"] == 0 and x_in2.meta["sign"] == 1
        assert back2 in hpl.route(x_in2, node2, dest2)

    def test_neg_to_pos_turn_allowed_when_needed(self, hpl, mesh33):
        # came in -x at node 3=(0,1), dest 5=(2,1): needs +x -> allowed
        west_in = chan(mesh33, 4, 0, -1)  # 4 -> 3 heading west
        out = hpl.route(west_in, 3, 5)
        assert chan(mesh33, 3, 0, +1) in out


class TestStructure:
    def test_connected(self, hpl):
        assert is_connected(hpl, max_hops=10)

    def test_incoherent_even_minimal(self, mesh332):
        # Section 9.2: "the routing algorithm is not coherent even for
        # minimal paths".  With >= 3 dimensions a message bound past the
        # negative hop of a high dimension may take its positive hops out of
        # increasing order, but the same partial path is forbidden when the
        # intermediate node is the destination.
        rep = is_coherent(HighestPositiveLast(mesh332, misroute=False), max_hops=7)
        assert not rep.holds

    def test_incoherent_with_misrouting_2d(self, mesh33):
        # In 2D the violation needs the nonminimal moves
        rep = is_coherent(HighestPositiveLast(mesh33), max_hops=6)
        assert not rep.holds

    def test_cyclic_cdg_acyclic_cwg(self, hpl):
        assert find_one_cycle(ChannelDependencyGraph(hpl).dep) is not None
        assert find_one_cycle(ChannelWaitingGraph(hpl).dep) is None

    def test_wait_policy_variants(self, mesh33):
        assert HighestPositiveLast(mesh33).wait_policy is WaitPolicy.SPECIFIC
        wa = HighestPositiveLast(mesh33, wait_any=True)
        assert wa.wait_policy is WaitPolicy.ANY
        # wait-any Note variant: waits on every channel toward the destination
        inj = mesh33.injection_channel(8)
        waits = wa.waiting_channels(inj, 8, 0)
        assert len(waits) >= 2

    def test_minimal_variant_no_misroute(self, mesh33):
        ra = HighestPositiveLast(mesh33, misroute=False)
        inj = mesh33.injection_channel(3)
        out = ra.route(inj, 3, 5)  # (0,1)->(2,1): needs +x only
        assert all(c.meta["sign"] * (1 if c.meta["dim"] == 0 else -1) > 0 or True for c in out)
        assert len(out) == 1  # no misroute offered

    def test_requires_mesh(self, torus44_3vc):
        with pytest.raises(RoutingError):
            HighestPositiveLast(torus44_3vc)

    def test_waiting_is_subset_of_route(self, hpl, mesh33):
        for s in mesh33.nodes:
            for d in mesh33.nodes:
                if s == d:
                    continue
                inj = mesh33.injection_channel(s)
                assert hpl.waiting_channels(inj, s, d) <= hpl.route(inj, s, d)


# ----------------------------------------------------------------------
# the per-node move tables answer as the channel-metadata scan did
# ----------------------------------------------------------------------
class MetaScanHPL(RoutingAlgorithm):
    """HPL in the Channel form, reading every channel's ``meta`` dict per
    query (the reference)."""

    name = HighestPositiveLast.name

    def __init__(self, network, *, misroute=True, wait_any=False):
        super().__init__(network)
        self.ndims = len(network.meta["dims"])
        self.misroute = misroute
        self._wait_any = wait_any
        self.wait_policy = WaitPolicy.ANY if wait_any else WaitPolicy.SPECIFIC

    def _scan(self, node, dim, sign):
        return [c for c in self.network.out_channels(node)
                if c.meta.get("dim") == dim and c.meta.get("sign") == sign]

    def _delta(self, node, dest):
        here, there = self.network.coord(node), self.network.coord(dest)
        return [t - h for h, t in zip(here, there)]

    def _turn_ok(self, c_in, dim, sign, deltas):
        if not c_in.is_link:
            return True
        if c_in.meta.get("dim") != dim or c_in.meta.get("sign") == sign:
            return True
        if sign > 0:
            return deltas[dim] > 0
        if deltas[dim] >= 0:
            return False
        return any(deltas[q] < 0 for q in range(dim + 1, self.ndims))

    def route(self, c_in, node, dest):
        if node == dest:
            return frozenset()
        deltas = self._delta(node, dest)
        negs = [d for d in range(self.ndims) if deltas[d] < 0]
        cand = []
        if negs:
            p = max(negs)
            cand.append((p, -1))
            for dim in range(p):
                if self.misroute or deltas[dim] != 0:
                    signs = (+1, -1) if self.misroute else ((+1,) if deltas[dim] > 0 else (-1,))
                    cand += [(dim, s) for s in signs]
        else:
            low = min(d for d in range(self.ndims) if deltas[d] > 0)
            cand.append((low, +1))
            if self.misroute:
                cand += [(q, -1) for q in range(low, self.ndims)]
        out = []
        for dim, sign in cand:
            if self._turn_ok(c_in, dim, sign, deltas):
                out.extend(self._scan(node, dim, sign))
        return frozenset(out)

    def waiting_subset(self, c_in, node, dest, permitted):
        if not permitted:
            return permitted
        deltas = self._delta(node, dest)
        if self._wait_any:
            toward = frozenset(c for c in permitted
                               if deltas[c.meta["dim"]] * c.meta["sign"] > 0)
            return toward or permitted
        negs = [d for d in range(self.ndims) if deltas[d] < 0]
        if negs:
            dim, sign = max(negs), -1
        else:
            dim, sign = min(d for d in range(self.ndims) if deltas[d] > 0), +1
        return frozenset(c for c in permitted
                         if c.meta.get("dim") == dim and c.meta.get("sign") == sign)


def assert_same_relation(fast, reference):
    """Same route and waiting sets on every reachable state."""
    from repro.core import TransitionCache

    for dt in TransitionCache(fast).all_destinations():
        for a in dt.succ_masks:
            c = fast.network.channel(a)
            q = (c, c.dst, dt.dest)
            out = fast.route(*q)
            ref = reference.route(*q)
            assert out == ref, q
            assert fast.waiting_subset(*q, out) == reference.waiting_subset(*q, ref), q


@pytest.mark.parametrize("dims, vcs", [((4, 4), 1), ((3, 3, 3), 1), ((3, 3), 2)])
@pytest.mark.parametrize("misroute", [True, False])
@pytest.mark.parametrize("wait_any", [False, True], ids=["specific", "any"])
def test_move_tables_match_metadata_scan(dims, vcs, misroute, wait_any):
    net = build_mesh(dims, num_vcs=vcs)
    assert_same_relation(
        HighestPositiveLast(net, misroute=misroute, wait_any=wait_any),
        MetaScanHPL(net, misroute=misroute, wait_any=wait_any))
