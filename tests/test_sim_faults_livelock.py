"""Fault injection (Definition 3's faulty status) and livelock analysis
(Section 4)."""

import pytest

from repro.routing import DimensionOrderMesh, HighestPositiveLast
from repro.sim import BernoulliTraffic, ScriptedTraffic, SimConfig, WormholeSimulator


def chan(net, node, dim, sign):
    for c in net.out_channels(node):
        if c.meta.get("dim") == dim and c.meta.get("sign") == sign:
            return c
    raise AssertionError


class TestFaultInjection:
    def test_only_idle_link_channels_can_fail(self, mesh33):
        sim = WormholeSimulator(DimensionOrderMesh(mesh33), ScriptedTraffic([(0, 0, 2, 40)]), SimConfig())
        with pytest.raises(ValueError):
            sim.fail_channel(mesh33.injection_channel(0))
        sim.run(3)
        busy = next(c for c, o in sim.owner.items() if o is not None)
        with pytest.raises(ValueError, match="occupied"):
            sim.fail_channel(busy)

    def test_ecube_stalls_on_its_only_path(self, mesh33):
        """Nonadaptive routing has no alternative: a fault on the unique
        path leaves the message blocked forever (a stall, not a deadlock)."""
        ra = DimensionOrderMesh(mesh33)
        sim = WormholeSimulator(ra, ScriptedTraffic([(0, 0, 2, 4)]), SimConfig(seed=1))
        sim.fail_channel(chan(mesh33, 1, 0, +1))  # the 1->2 east channel
        sim.run(300)
        assert not sim.drain(max_cycles=300)
        assert sim.deadlock is None  # not a cyclic deadlock
        assert len(sim.stalled_messages()) == 1

    def test_hpl_routes_around_fault(self, mesh33):
        """HPL's nonminimal freedom delivers around the same fault -- the
        Section 1 fault-tolerance motivation.  The wait-on-any Note variant
        is the fault-tolerant discipline: a message committed to a single
        designated waiting channel would wait on the dead channel forever."""
        ra = HighestPositiveLast(mesh33, wait_any=True)
        sim = WormholeSimulator(ra, ScriptedTraffic([(0, 6, 0, 6)]), SimConfig(seed=1))
        # message 6 -> 0 (needs -y...): kill a channel on one minimal path
        sim.fail_channel(chan(mesh33, 6, 1, -1))  # (0,2) -> (0,1) south
        sim.run(5)
        assert sim.drain(max_cycles=500)
        (m,) = sim.messages.values()
        assert m.delivered

    def test_cut_destination_row_stalls_even_adaptive(self, mesh33):
        """Adaptivity only helps while an alternative exists: with every
        southbound channel into row 0 dead, a message bound for (0,0) stalls
        no matter how it wanders (wait-connectivity -- and with it the
        deadlock-freedom guarantee -- silently assumes fault-free waiting
        channels)."""
        ra = HighestPositiveLast(mesh33, wait_any=True)
        sim = WormholeSimulator(ra, ScriptedTraffic([(0, 3, 0, 4)]), SimConfig(seed=1))
        for node in (3, 4, 5):  # all of row 1's south channels
            sim.fail_channel(chan(mesh33, node, 1, -1))
        sim.run(5)
        assert not sim.drain(max_cycles=800)
        assert not sim.messages[0].delivered
        assert sim.stalled_messages() or sim.blocked_messages()

    def test_repair_restores_delivery(self, mesh33):
        ra = DimensionOrderMesh(mesh33)
        sim = WormholeSimulator(ra, ScriptedTraffic([(0, 0, 2, 4)]), SimConfig(seed=1))
        bad = chan(mesh33, 1, 0, +1)
        sim.fail_channel(bad)
        sim.run(100)
        assert not sim.messages[0].delivered
        sim.repair_channel(bad)
        assert sim.drain(max_cycles=300)

    def test_fault_induced_jam_is_wormhole_physics(self, mesh44):
        """A fault that leaves some routing state with only the dead channel
        in its waiting set stalls a worm *permanently*, and -- because
        wormhole messages hold their whole path -- traffic jams up behind
        it.  The simulator reproduces that failure cascade: some messages
        stall on the fault, many more block behind them, and the runtime
        detector correctly does NOT call it a (cyclic) deadlock."""
        ra = HighestPositiveLast(mesh44, wait_any=True)
        sim = WormholeSimulator(
            ra, BernoulliTraffic(mesh44, rate=0.15, length=4, stop_at=1500),
            SimConfig(seed=23, deadlock_check_interval=32),
        )
        sim.fail_channel(chan(mesh44, 5, 0, +1))
        sim.fail_channel(chan(mesh44, 10, 1, +1))
        sim.run(1500)
        sim.drain(max_cycles=4000)
        delivered = sum(m.delivered for m in sim.messages.values())
        assert delivered > 0
        assert sim.stalled_messages(), "some worm stalls on the dead channel"
        assert len(sim.blocked_messages()) > len(sim.stalled_messages()), \
            "the jam spreads behind the stalled worms"
        assert sim.deadlock is None, "a fault stall is not a Definition-12 knot"


class TestFaultFastPath:
    """Fault injection against the event-driven engine's bookkeeping.

    The fast allocator only revisits a blocked message when something it
    waits on changes, so faults exercise its trickiest paths: a repair must
    *wake* waiters (the full-scan engine rediscovered them for free), and
    the faulty mask must stay coherent with the public ``faulty`` set.
    """

    def test_source_blocked_message_wakes_on_repair(self, mesh33):
        """A message blocked *in its source queue* by a fault must be woken
        by the repair, not silently forgotten by the dirty-set allocator."""
        ra = DimensionOrderMesh(mesh33)
        sim = WormholeSimulator(ra, ScriptedTraffic([(5, 0, 1, 4)]), SimConfig(seed=1))
        bad = chan(mesh33, 0, 0, +1)  # the only e-cube first hop of 0 -> 1
        sim.fail_channel(bad)
        sim.run(50)
        (m,) = sim.messages.values()
        assert m.started is None and m.waiting_for == (bad.cid,)
        assert sim.stalled_messages() == [m]
        sim.repair_channel(bad)
        assert sim.drain(max_cycles=200)
        assert m.delivered

    def test_faulty_channel_is_never_allocated(self, mesh33):
        ra = HighestPositiveLast(mesh33, wait_any=True)
        sim = WormholeSimulator(
            ra, BernoulliTraffic(mesh33, rate=0.3, length=4, stop_at=400),
            SimConfig(seed=11),
        )
        bad = chan(mesh33, 4, 0, +1)  # a center channel uniform traffic wants
        sim.fail_channel(bad)
        for _ in range(400):
            sim.step()
            assert sim.owner[bad] is None
            assert len(sim.buffers[bad]) == 0
        assert sim.faulty == {bad}

    def test_fail_repair_cycles_keep_state_coherent(self, mesh33):
        """Repeated fail/repair of the same channel mid-sweep: the mask, the
        public set, and delivery all stay consistent."""
        ra = HighestPositiveLast(mesh33, wait_any=True)
        sim = WormholeSimulator(
            ra, BernoulliTraffic(mesh33, rate=0.2, length=4, stop_at=600),
            SimConfig(seed=5),
        )
        bad = chan(mesh33, 6, 1, -1)
        for cycle in range(600):
            if cycle % 100 == 50 and sim.owner[bad] is None and bad not in sim.faulty:
                sim.fail_channel(bad)
            elif cycle % 100 == 0:
                sim.repair_channel(bad)
            sim.step()
        sim.repair_channel(bad)
        assert sim.faulty == set()
        assert sim.drain(max_cycles=3000)
        assert all(m.delivered for m in sim.messages.values())

    def test_mid_sweep_fault_runs_are_deterministic(self, mesh33):
        """The same fault schedule produces byte-identical runs, and the
        fault does change the run (the digests prove both)."""

        def run(with_fault: bool) -> str:
            ra = HighestPositiveLast(mesh33, wait_any=True)
            sim = WormholeSimulator(
                ra, BernoulliTraffic(mesh33, rate=0.25, length=4, stop_at=300),
                SimConfig(seed=13),
            )
            bad = chan(mesh33, 4, 0, +1)
            failed = False
            for cycle in range(400):
                # first idle moment at or after cycle 80 (deterministic too)
                if with_fault and not failed and cycle >= 80 and cycle < 250 \
                        and sim.owner[bad] is None:
                    sim.fail_channel(bad)
                    failed = True
                if with_fault and cycle == 250 and failed:
                    sim.repair_channel(bad)
                sim.step()
            sim.drain(max_cycles=2000)
            return sim.stats.digest()

        assert run(True) == run(True)
        assert run(True) != run(False)


class TestLivelockAnalysis:
    def test_minimal_algorithms_never_misroute(self, mesh33):
        ra = DimensionOrderMesh(mesh33)
        dist = mesh33.shortest_distances()
        sim = WormholeSimulator(
            ra, BernoulliTraffic(mesh33, rate=0.3, length=4, stop_at=800),
            SimConfig(seed=7),
        )
        sim.run(800)
        sim.drain()
        for m in sim.messages.values():
            assert m.hops == dist[m.src][m.dest]

    def test_hpl_misroutes_are_bounded_in_practice(self, mesh33):
        """Section 4: livelock needs unbounded misrouting; HPL's misroutes
        under load stay small multiples of the distance and every message
        arrives."""
        ra = HighestPositiveLast(mesh33)
        dist = mesh33.shortest_distances()
        sim = WormholeSimulator(
            ra, BernoulliTraffic(mesh33, rate=0.35, length=4, stop_at=2000),
            SimConfig(seed=3),
        )
        sim.run(2000)
        assert sim.drain()
        excess = [m.hops - dist[m.src][m.dest] for m in sim.messages.values()]
        assert all(e >= 0 for e in excess)
        assert max(excess) <= 8  # bounded detours, no livelock spiral
        assert all(m.delivered for m in sim.messages.values())
