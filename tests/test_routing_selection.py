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
    inj = mesh33.injection_channel(4)
    cands = sorted(mesh33.out_channels(4), key=lambda c: c.cid)
    return inj, cands


def test_first_free_picks_lowest(mesh_chans):
    inj, cands = mesh_chans
    assert first_free(inj, cands, lambda c: True) is cands[0]
    assert first_free(inj, cands, lambda c: c is cands[2]) is cands[2]
    assert first_free(inj, cands, lambda c: False) is None


def test_straight_first_prefers_same_direction(mesh33):
    # input heading east into node 4: prefer continuing east
    east_in = [c for c in mesh33.in_channels(4) if c.meta == {"dim": 0, "sign": 1} or
               (c.meta.get("dim") == 0 and c.meta.get("sign") == 1)][0]
    cands = sorted(mesh33.out_channels(4), key=lambda c: c.cid)
    pick = straight_first(east_in, cands, lambda c: True)
    assert pick.meta["dim"] == 0 and pick.meta["sign"] == 1
    # falls back when the straight channel is busy
    pick2 = straight_first(east_in, cands, lambda c: not (c.meta["dim"] == 0 and c.meta["sign"] == 1))
    assert pick2 is not None and not (pick2.meta["dim"] == 0 and pick2.meta["sign"] == 1)


def test_random_selection_reproducible(mesh_chans):
    inj, cands = mesh_chans
    a = RandomSelection(42)
    b = RandomSelection(42)
    seq_a = [a(inj, cands, lambda c: True).cid for _ in range(10)]
    seq_b = [b(inj, cands, lambda c: True).cid for _ in range(10)]
    assert seq_a == seq_b
    assert RandomSelection(0)(inj, cands, lambda c: False) is None


def test_random_selection_only_free(mesh_chans):
    inj, cands = mesh_chans
    sel = RandomSelection(7)
    free = cands[1]
    for _ in range(5):
        assert sel(inj, cands, lambda c: c is free) is free


def test_round_robin_rotates(mesh_chans):
    inj, cands = mesh_chans
    rr = RoundRobinSelection()
    picks = [rr(inj, cands, lambda c: True) for _ in range(len(cands))]
    assert len(set(p.cid for p in picks)) == len(cands)
    assert rr(inj, [], lambda c: True) is None


def test_vc_order_preferences():
    m = build_mesh((2, 2), num_vcs=3)
    inj = m.injection_channel(0)
    cands = m.channels_between(0, 1)
    assert lowest_vc_first(inj, cands, lambda c: True).vc == 0
    assert highest_vc_first(inj, cands, lambda c: True).vc == 2
    assert lowest_vc_first(inj, cands, lambda c: c.vc == 1).vc == 1
    assert lowest_vc_first(inj, cands, lambda c: False) is None
    assert highest_vc_first(inj, cands, lambda c: False) is None


# ----------------------------------------------------------------------
# credit-based adaptive selection with escape fallback
# ----------------------------------------------------------------------
@pytest.fixture()
def vc2_chans():
    m = build_mesh((2, 2), num_vcs=2)
    inj = m.injection_channel(0)
    # candidates at node 0: east and north hops, vc0 (escape) and vc1
    cands = sorted(m.out_channels(0), key=lambda c: c.cid)
    return inj, cands


def test_credit_selection_picks_most_credits(vc2_chans):
    inj, cands = vc2_chans
    adaptive = [c for c in cands if c.vc >= 1]
    fat, thin = adaptive[0], adaptive[1]
    sel = CreditSelection(credits=lambda c: 4 if c is fat else 1)
    assert sel(inj, cands, lambda c: True) is fat
    # the same policy respects the free mask
    assert sel(inj, cands, lambda c: c is thin) is thin


def test_credit_selection_escape_fallback(vc2_chans):
    inj, cands = vc2_chans
    sel = CreditSelection(credits=lambda c: 4)
    # all adaptive candidates busy: fall back to the first free escape VC
    pick = sel(inj, cands, lambda c: c.vc == 0)
    assert pick is not None and pick.vc == 0
    # adaptive candidates free but fully backpressured: also escape
    starved = CreditSelection(credits=lambda c: 0)
    pick = starved(inj, cands, lambda c: True)
    assert pick is not None and pick.vc == 0
    # nothing free at all
    assert sel(inj, cands, lambda c: False) is None
    assert sel(inj, [], lambda c: True) is None


def test_credit_selection_round_robin_tie_break(vc2_chans):
    inj, cands = vc2_chans
    sel = CreditSelection(credits=lambda c: 2)  # all ties
    adaptive = [c for c in cands if c.vc >= 1]
    picks = {sel(inj, cands, lambda c: True).cid for _ in range(len(adaptive))}
    assert picks == {c.cid for c in adaptive}  # load spread over both hops


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
