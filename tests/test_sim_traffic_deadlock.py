"""Traffic generators and the runtime deadlock detector."""

import numpy as np
import pytest

from repro.routing import DimensionOrderMesh, RingExample, UnrestrictedMinimal
from repro.sim import (
    BernoulliTraffic,
    CombinedTraffic,
    ScriptedTraffic,
    SimConfig,
    WormholeSimulator,
    bit_complement_pattern,
    bit_reverse_pattern,
    hotspot_pattern,
    tornado_pattern,
    transpose_pattern,
    uniform_pattern,
)


class TestPatterns:
    def test_uniform_never_self(self, mesh33):
        pick = uniform_pattern(mesh33)
        rng = np.random.default_rng(0)
        for _ in range(200):
            src = int(rng.integers(9))
            d = pick(src, rng)
            assert 0 <= d < 9 and d != src

    def test_bit_complement(self, cube3):
        pick = bit_complement_pattern(cube3)
        rng = np.random.default_rng(0)
        assert pick(0b000, rng) == 0b111
        assert pick(0b101, rng) == 0b010

    def test_bit_complement_needs_power_of_two(self, mesh33):
        with pytest.raises(ValueError):
            bit_complement_pattern(mesh33)

    def test_bit_reverse(self, cube3):
        pick = bit_reverse_pattern(cube3)
        rng = np.random.default_rng(0)
        assert pick(0b100, rng) == 0b001
        assert pick(0b010, rng) == 0b010

    def test_transpose(self, mesh33):
        pick = transpose_pattern(mesh33)
        rng = np.random.default_rng(0)
        src = mesh33.node_at((2, 0))
        assert pick(src, rng) == mesh33.node_at((0, 2))

    def test_transpose_needs_square(self, mesh332):
        with pytest.raises(ValueError):
            transpose_pattern(mesh332)

    def test_tornado(self, torus44_3vc):
        pick = tornado_pattern(torus44_3vc)
        rng = np.random.default_rng(0)
        d = pick(torus44_3vc.node_at((0, 0)), rng)
        assert torus44_3vc.coord(d) == (1, 1)

    def test_hotspot_bias(self, mesh33):
        pick = hotspot_pattern(mesh33, hotspots=[8], fraction=0.5)
        rng = np.random.default_rng(1)
        hits = sum(pick(0, rng) == 8 for _ in range(500))
        assert hits > 150  # ~50% plus uniform share


class TestSources:
    def test_bernoulli_rate(self, mesh33):
        t = BernoulliTraffic(mesh33, rate=0.5, length=5)
        rng = np.random.default_rng(0)
        msgs = [m for c in range(2000) for m in t.messages_for_cycle(c, rng)]
        # expected: 2000 cycles * 9 nodes * 0.1 = 1800 messages
        assert 1500 < len(msgs) < 2100
        assert all(0 <= s < 9 and 0 <= d < 9 and s != d for s, d, _ in msgs)

    def test_bernoulli_stop_at(self, mesh33):
        t = BernoulliTraffic(mesh33, rate=1.0, length=1, stop_at=5)
        rng = np.random.default_rng(0)
        assert t.messages_for_cycle(5, rng) == []
        assert t.messages_for_cycle(4, rng)

    def test_variable_lengths(self, mesh33):
        t = BernoulliTraffic(mesh33, rate=0.9, length=(2, 6))
        rng = np.random.default_rng(0)
        lengths = {l for c in range(200) for (_, _, l) in t.messages_for_cycle(c, rng)}
        assert lengths <= set(range(2, 7)) and len(lengths) >= 3

    @pytest.mark.parametrize("rate, length, match", [
        (-1.0, 8, "non-negative"),
        (float("nan"), 8, "non-negative"),
        (5.0, 4, "exceeds the mean message length 4"),
        (4.5, (2, 6), "exceeds the mean message length 4"),
    ])
    def test_bernoulli_rejects_impossible_rates(self, mesh33, rate, length, match):
        with pytest.raises(ValueError, match=match):
            BernoulliTraffic(mesh33, rate=rate, length=length)

    @pytest.mark.parametrize("length", [0, -3, (0, 4), (3, 2)])
    def test_bernoulli_rejects_lengths_below_one_flit(self, mesh33, length):
        # blamed on the length, not on the rate it makes impossible
        with pytest.raises(ValueError, match="message length must be at least 1 flit"):
            BernoulliTraffic(mesh33, rate=0.1, length=length)

    def test_bernoulli_accepts_the_boundary_rates(self, mesh33):
        BernoulliTraffic(mesh33, rate=0.0, length=4)
        BernoulliTraffic(mesh33, rate=4.0, length=4)

    def test_scripted(self):
        t = ScriptedTraffic([(3, 0, 1, 4), (3, 1, 2, 4), (7, 2, 0, 4)])
        rng = np.random.default_rng(0)
        assert len(t.messages_for_cycle(3, rng)) == 2
        assert t.messages_for_cycle(5, rng) == []
        assert t.messages_for_cycle(7, rng) == [(2, 0, 4)]

    def test_combined(self, mesh33):
        t = CombinedTraffic(
            ScriptedTraffic([(0, 0, 1, 2)]),
            ScriptedTraffic([(0, 3, 4, 2)]),
        )
        rng = np.random.default_rng(0)
        assert len(t.messages_for_cycle(0, rng)) == 2


class TestDeadlockDetector:
    def test_no_false_positive_on_safe_algorithm(self, mesh33):
        ra = DimensionOrderMesh(mesh33)
        sim = WormholeSimulator(
            ra, BernoulliTraffic(mesh33, rate=0.6, length=12, stop_at=3000),
            SimConfig(seed=13, buffer_depth=2, deadlock_check_interval=16),
        )
        sim.run(3000)
        assert sim.deadlock is None
        assert sim.drain()

    def test_detects_unrestricted_deadlock(self, mesh33):
        ra = UnrestrictedMinimal(mesh33)
        hit = False
        for seed in range(4):
            sim = WormholeSimulator(
                ra, BernoulliTraffic(mesh33, rate=0.6, length=24),
                SimConfig(seed=seed, buffer_depth=2),
            )
            sim.run(8000)
            if sim.deadlock is not None:
                hit = True
                rep = sim.deadlock
                assert len(rep) >= 2 or rep.message_ids
                assert "deadlock detected" in rep.describe()
                # every reported message's waiting channels are held by
                # other reported members
                ids = set(rep.message_ids)
                for mid in rep.message_ids:
                    m = sim.messages[mid]
                    assert all(sim.owner[sim.network.channels[w]] in ids for w in m.waiting_for)
                break
        assert hit

    def test_detector_slack_avoids_short_message_false_alarm(self, mesh33):
        """Short messages can always drain forward: blockage is transient."""
        ra = DimensionOrderMesh(mesh33)
        sim = WormholeSimulator(
            ra, BernoulliTraffic(mesh33, rate=0.8, length=2, stop_at=2000),
            SimConfig(seed=1, buffer_depth=4, deadlock_check_interval=8),
        )
        sim.run(2000)
        assert sim.deadlock is None

    def test_ring_theory_sim_agreement(self, figure4):
        """The Figure-4 pair: paper's algorithm never deadlocks, the no-flip
        strawman does."""
        good = RingExample(figure4)
        bad = RingExample(figure4, flip_class=False)
        bad_hit = False
        for seed in range(3):
            s1 = WormholeSimulator(
                good, BernoulliTraffic(figure4, rate=0.5, length=20),
                SimConfig(seed=seed, buffer_depth=2),
            )
            s1.run(6000)
            assert s1.deadlock is None
            s2 = WormholeSimulator(
                bad, BernoulliTraffic(figure4, rate=0.5, length=20),
                SimConfig(seed=seed, buffer_depth=2),
            )
            s2.run(6000)
            bad_hit = bad_hit or s2.deadlock is not None
        assert bad_hit
