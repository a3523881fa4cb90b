"""Selection functions (Definition 3)."""

import pytest

from repro.routing import (
    CreditSelection,
    RandomSelection,
    RoundRobinSelection,
    first_free,
    highest_vc_first,
    lowest_vc_first,
    straight_first,
)
from repro.routing.selection import SELECTIONS, make_selection
from repro.topology import build_mesh


@pytest.fixture(scope="module")
def mesh_chans(mesh33):
    inj = mesh33.injection_channel(4).cid
    cands = sorted(c.cid for c in mesh33.out_channels(4))
    return mesh33, inj, cands


def test_first_free_picks_lowest(mesh_chans):
    net, inj, cands = mesh_chans
    assert first_free(net, inj, cands, lambda c: True) == cands[0]
    assert first_free(net, inj, cands, lambda c: c == cands[2]) == cands[2]
    assert first_free(net, inj, cands, lambda c: False) is None


def test_straight_first_prefers_same_direction(mesh33):
    # input heading east into node 4: prefer continuing east
    east = {"dim": 0, "sign": 1}
    east_in = next(c.cid for c in mesh33.in_channels(4) if c.meta == east)
    cands = sorted(c.cid for c in mesh33.out_channels(4))
    meta = [c.meta for c in mesh33.channels]
    pick = straight_first(mesh33, east_in, cands, lambda c: True)
    assert meta[pick] == east
    # falls back when the straight channel is busy
    pick2 = straight_first(mesh33, east_in, cands, lambda c: meta[c] != east)
    assert pick2 is not None and meta[pick2] != east


def test_random_selection_reproducible(mesh_chans):
    net, inj, cands = mesh_chans
    a = RandomSelection(42)
    b = RandomSelection(42)
    seq_a = [a(net, inj, cands, lambda c: True) for _ in range(10)]
    seq_b = [b(net, inj, cands, lambda c: True) for _ in range(10)]
    assert seq_a == seq_b
    assert RandomSelection(0)(net, inj, cands, lambda c: False) is None


def test_random_selection_only_free(mesh_chans):
    net, inj, cands = mesh_chans
    sel = RandomSelection(7)
    free = cands[1]
    for _ in range(5):
        assert sel(net, inj, cands, lambda c: c == free) == free


def test_round_robin_rotates(mesh_chans):
    net, inj, cands = mesh_chans
    rr = RoundRobinSelection()
    picks = [rr(net, inj, cands, lambda c: True) for _ in range(len(cands))]
    assert set(picks) == set(cands)
    assert rr(net, inj, [], lambda c: True) is None


def test_vc_order_preferences():
    m = build_mesh((2, 2), num_vcs=3)
    inj = m.injection_channel(0).cid
    cands = [c.cid for c in m.channels_between(0, 1)]
    vc = [c.vc for c in m.channels]
    assert vc[lowest_vc_first(m, inj, cands, lambda c: True)] == 0
    assert vc[highest_vc_first(m, inj, cands, lambda c: True)] == 2
    assert vc[lowest_vc_first(m, inj, cands, lambda c: vc[c] == 1)] == 1
    assert lowest_vc_first(m, inj, cands, lambda c: False) is None
    assert highest_vc_first(m, inj, cands, lambda c: False) is None


# ----------------------------------------------------------------------
# credit-based adaptive selection with escape fallback
# ----------------------------------------------------------------------
@pytest.fixture()
def vc2_chans():
    m = build_mesh((2, 2), num_vcs=2)
    inj = m.injection_channel(0).cid
    # candidates at node 0: east and north hops, vc0 (escape) and vc1
    cands = sorted(c.cid for c in m.out_channels(0))
    return m, inj, cands


def test_credit_selection_picks_most_credits(vc2_chans):
    net, inj, cands = vc2_chans
    adaptive = [c for c in cands if net.channels[c].vc >= 1]
    fat, thin = adaptive[0], adaptive[1]
    sel = CreditSelection(credits=lambda c: 4 if c == fat else 1)
    assert sel(net, inj, cands, lambda c: True) == fat
    # the same policy respects the free mask
    assert sel(net, inj, cands, lambda c: c == thin) == thin


def test_credit_selection_escape_fallback(vc2_chans):
    net, inj, cands = vc2_chans
    escape = {c for c in cands if net.channels[c].vc == 0}
    sel = CreditSelection(credits=lambda c: 4)
    # all adaptive candidates busy: fall back to the first free escape VC
    assert sel(net, inj, cands, lambda c: c in escape) == min(escape)
    # adaptive candidates free but fully backpressured: also escape
    starved = CreditSelection(credits=lambda c: 0)
    assert starved(net, inj, cands, lambda c: True) == min(escape)
    # nothing free at all
    assert sel(net, inj, cands, lambda c: False) is None
    assert sel(net, inj, [], lambda c: True) is None


def test_credit_selection_round_robin_tie_break(vc2_chans):
    net, inj, cands = vc2_chans
    sel = CreditSelection(credits=lambda c: 2)  # all ties
    adaptive = [c for c in cands if net.channels[c].vc >= 1]
    picks = {sel(net, inj, cands, lambda c: True) for _ in range(len(adaptive))}
    assert picks == set(adaptive)  # load spread over both hops


def test_credit_selection_binds_engine_buffers():
    from repro.routing import make
    from repro.sim import BernoulliTraffic, SimConfig, WormholeSimulator

    net = build_mesh((3, 3), num_vcs=2)
    sel = CreditSelection()
    sim = WormholeSimulator(
        make("duato-mesh", net),
        BernoulliTraffic(net, rate=0.3, length=4, stop_at=200),
        SimConfig(seed=5, selection=sel, deadlock_check_interval=32),
    )
    assert sel._credits is not None  # bind_engine ran in the constructor
    sim.run(400)
    # credits are each channel id's free buffer slots
    depth = sim.config.buffer_depth
    assert [sel._credits(c) for c in range(net.num_channels)] == \
        [depth - len(buf) for buf in sim._buf]
    assert sim.deadlock is None
    assert sim.drain()


def test_make_selection_registry():
    assert make_selection("first-free") is first_free  # keeps the fast path
    a, b = make_selection("credit"), make_selection("credit")
    assert isinstance(a, CreditSelection) and a is not b  # fresh per call
    assert isinstance(make_selection("round-robin"), RoundRobinSelection)
    with pytest.raises(KeyError, match="unknown selection policy"):
        make_selection("no-such-policy")
    assert set(SELECTIONS) >= {"first-free", "straight-first", "lowest-vc-first",
                               "highest-vc-first", "round-robin", "random", "credit"}
