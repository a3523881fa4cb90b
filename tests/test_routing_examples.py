"""The paper's example algorithms: Figure-1 incoherent line, Figure-4 ring,
and the unrestricted negative fixture."""

import pytest

from repro.routing import (
    IncoherentExample,
    RingExample,
    RoutingError,
    UnrestrictedMinimal,
    WaitPolicy,
    is_connected,
    is_fully_adaptive,
    is_prefix_closed,
    is_suffix_closed,
    never_revisits_node,
)


class TestIncoherent:
    @pytest.fixture(scope="class")
    def inc(self, figure1):
        return IncoherentExample(figure1)

    def test_minimal_routes(self, inc, figure1):
        by = figure1.channel_by_label
        assert inc.route_nd(0, 3) == frozenset([by("cH0")])
        assert inc.route_nd(1, 3) == frozenset([by("cH1")])
        assert inc.route_nd(3, 1) == frozenset([by("cL3")])
        assert inc.route_nd(2, 1) == frozenset([by("cL2")])  # dest n1: no cB2

    def test_detour_only_for_dest_n0(self, inc, figure1):
        by = figure1.channel_by_label
        assert inc.route_nd(1, 0) == frozenset([by("cL1"), by("cA1")])
        assert inc.route_nd(2, 0) == frozenset([by("cL2"), by("cB2")])
        assert by("cA1") not in inc.route_nd(1, 2)
        assert by("cA1") not in inc.route_nd(1, 3)

    def test_incoherence_witness(self, inc):
        # "a message from n1 to n0 can be routed through n2 using cA1,
        #  however, a message from n1 to n2 cannot use cA1"
        rep = is_prefix_closed(inc, max_hops=6)
        assert not rep.holds
        # revisits n1 on the detour path, so node-revisit-freedom fails too
        assert not never_revisits_node(inc, max_hops=6).holds

    def test_connected(self, inc):
        assert is_connected(inc, max_hops=6)

    def test_wait_policy_variants(self, figure1):
        assert IncoherentExample(figure1).wait_policy is WaitPolicy.ANY
        assert IncoherentExample(figure1, wait_any=False).wait_policy is WaitPolicy.SPECIFIC

    def test_no_detour_variant(self, figure1):
        plain = IncoherentExample(figure1, detour=False)
        by = figure1.channel_by_label
        assert plain.route_nd(1, 0) == frozenset([by("cL1")])
        # cB2 (dest-n0-only) still breaks prefix-closure, but the detour and
        # the node revisits it enables are gone
        assert never_revisits_node(plain, max_hops=6).holds

    def test_requires_figure1(self, mesh33):
        with pytest.raises(RoutingError):
            IncoherentExample(mesh33)


class TestRingExample:
    @pytest.fixture(scope="class")
    def ring(self, figure4):
        return RingExample(figure4)

    def test_fresh_message_class_and_level(self, ring, figure4):
        inj = figure4.injection_channel(0)
        (c,) = ring.route(inj, 0, 2)  # even dest: class even, level 1 -> vc 0
        assert c.vc == 0
        (c,) = ring.route(inj, 0, 3)  # odd dest -> vc 2
        assert c.vc == 2

    def test_level_toggles_at_wrap(self, ring, figure4):
        wrap = [c for c in figure4.channels_between(9, 0) if c.vc == 0][0]
        (c,) = ring.route(wrap, 0, 2)  # crossed dateline on even level 1
        assert c.vc == 1  # now level 2

    def test_class_sticky_from_input(self, ring, figure4):
        lvl2 = [c for c in figure4.channels_between(1, 2) if c.vc == 1][0]
        (c,) = ring.route(lvl2, 2, 4)
        assert c.vc == 1  # stays even level 2

    def test_cA_offered_at_extra_link(self, ring, figure4):
        inj = figure4.injection_channel(8)
        out = ring.route(inj, 8, 0)
        labels = {c.label for c in out}
        assert "cA" in labels and len(out) == 2

    def test_cA_never_a_waiting_channel(self, ring, figure4):
        inj = figure4.injection_channel(8)
        waits = ring.waiting_channels(inj, 8, 0)
        assert all(c.label != "cA" for c in waits)
        assert waits  # still wait-connected

    def test_post_cA_crossed_class_level2(self, ring, figure4):
        cA = figure4.channel_by_label("cA")
        (c,) = ring.route(cA, 9, 1)  # odd dest -> even class (flipped), level 2
        assert c.vc == 1
        (c,) = ring.route(cA, 9, 2)  # even dest -> odd class, level 2
        assert c.vc == 3

    def test_noflip_keeps_class(self, figure4):
        noflip = RingExample(figure4, flip_class=False)
        cA = figure4.channel_by_label("cA")
        (c,) = noflip.route(cA, 9, 1)  # odd dest keeps odd class, level 2
        assert c.vc == 3

    def test_connected(self, ring):
        assert is_connected(ring)

    def test_requires_figure4(self, mesh33):
        with pytest.raises(RoutingError):
            RingExample(mesh33)


class TestUnrestricted:
    def test_fully_adaptive(self, mesh33):
        ra = UnrestrictedMinimal(mesh33)
        assert is_fully_adaptive(ra)
        assert is_suffix_closed(ra)

    def test_all_minimal_moves(self, mesh33):
        ra = UnrestrictedMinimal(mesh33)
        out = ra.route_nd(0, 8)
        assert {(c.meta["dim"], c.meta["sign"]) for c in out} == {(0, 1), (1, 1)}

    def test_wait_specific_variant(self, mesh33):
        ra = UnrestrictedMinimal(mesh33, wait_any=False)
        assert ra.wait_policy is WaitPolicy.SPECIFIC
        inj = mesh33.injection_channel(0)
        assert len(ra.waiting_channels(inj, 0, 8)) == 1

    def test_requires_grid(self, figure1):
        with pytest.raises(RoutingError):
            UnrestrictedMinimal(figure1)
