"""The wormhole simulator: invariants and behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import (
    DimensionOrderMesh,
    DuatoFullyAdaptiveMesh,
    HighestPositiveLast,
    make,
)
from repro.routing.selection import RoundRobinSelection, first_free
from repro.sim import BernoulliTraffic, ScriptedTraffic, SimConfig, WormholeSimulator
from repro.topology import build_hypercube, build_mesh, build_torus


def make_sim(net, ra, traffic, **cfg):
    return WormholeSimulator(ra, traffic, SimConfig(**cfg))


class TestSingleMessage:
    def test_delivery_and_latency(self, mesh33):
        ra = DimensionOrderMesh(mesh33)
        sim = make_sim(mesh33, ra, ScriptedTraffic([(0, 0, 8, 5)]))
        sim.run(2)
        assert sim.drain()
        (m,) = sim.messages.values()
        assert m.delivered and m.flits_consumed == 5
        # distance 4, 5 flits: latency >= hops + flits - 1
        assert m.latency >= 4 + 5 - 1

    def test_single_flit_message(self, mesh33):
        ra = DimensionOrderMesh(mesh33)
        sim = make_sim(mesh33, ra, ScriptedTraffic([(0, 0, 1, 1)]))
        sim.run(2)
        assert sim.drain()
        (m,) = sim.messages.values()
        assert m.delivered

    def test_long_message_spans_path(self, mesh33):
        """A message longer than the total buffering holds every channel of
        its path simultaneously at some point."""
        ra = DimensionOrderMesh(mesh33)
        sim = make_sim(mesh33, ra, ScriptedTraffic([(0, 0, 8, 64)]), buffer_depth=2)
        max_held = 0
        for _ in range(200):
            sim.step()
            for m in sim.messages.values():
                max_held = max(max_held, len(m.held))
        assert max_held == 4  # all 4 hops of the path

    def test_drain_counts_its_last_cycle(self):
        """A network that empties on drain's last allowed cycle has drained:
        a 4-flit message across a 3x3 mesh needs exactly 8 cycles."""
        net = build_mesh((3, 3), num_vcs=2)
        results = []
        for budget in (7, 8):
            sim = make_sim(net, DuatoFullyAdaptiveMesh(net), ScriptedTraffic([]))
            sim.inject_message(0, 8, 4)
            results.append((sim.drain(budget), len(sim.in_flight), sim.cycle))
        assert results == [(False, 1, 7), (True, 0, 8)]

    def test_rejects_bad_messages(self, mesh33):
        sim = make_sim(mesh33, DimensionOrderMesh(mesh33), ScriptedTraffic([]))
        with pytest.raises(ValueError):
            sim.inject_message(0, 0, 5)
        with pytest.raises(ValueError):
            sim.inject_message(0, 1, 0)
        # nodes outside the network: -1 would wrap to node 8, the others
        # would fail inside the routing relation
        for src, dest, bad in [(-1, 3, -1), (0, 9, 9), (0, -2, -2), (0, 40, 40)]:
            with pytest.raises(ValueError, match=f"^node {bad} out of range for 9 nodes$"):
                sim.inject_message(src, dest, 4)
        assert not sim.messages


class TestInvariants:
    def run_and_check(self, sim, cycles):
        """Step the simulator checking structural invariants as we go."""
        for _ in range(cycles):
            sim.step()
            # single ownership: each channel's buffer holds only its owner's flits
            for c, buf in sim.buffers.items():
                owner = sim.owner[c]
                if buf:
                    assert owner is not None
                    assert all(f[0] == owner for f in buf)
                assert len(buf) <= sim.config.buffer_depth
            # held channels form a connected chain ending at the header
            net = sim.network
            for m in sim.in_flight:
                for a, b in zip(m.held, m.held[1:]):
                    assert net.heads[a] == net.channels[b].src

    def test_invariants_under_load(self, mesh33):
        ra = DimensionOrderMesh(mesh33)
        sim = make_sim(
            mesh33, ra,
            BernoulliTraffic(mesh33, rate=0.3, length=6, stop_at=300), seed=3,
        )
        self.run_and_check(sim, 400)
        assert sim.drain()

    def test_flit_conservation(self, mesh33):
        ra = HighestPositiveLast(mesh33)
        sim = make_sim(
            mesh33, ra,
            BernoulliTraffic(mesh33, rate=0.25, length=5, stop_at=500), seed=11,
        )
        sim.run(500)
        assert sim.drain()
        offered = sum(m.length for m in sim.messages.values())
        consumed = sum(m.flits_consumed for m in sim.messages.values())
        assert offered == consumed == sim.stats.consumed_flits

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           rate=st.floats(min_value=0.05, max_value=0.35))
    def test_always_drains_property(self, seed, rate):
        """Property: a proved-deadlock-free algorithm always drains."""
        net = build_mesh((3, 3))
        ra = DimensionOrderMesh(net)
        sim = make_sim(net, ra, BernoulliTraffic(net, rate=rate, length=4, stop_at=200), seed=seed)
        sim.run(200)
        assert sim.drain()
        assert sim.deadlock is None

    def test_determinism(self, mesh33):
        def run():
            ra = DimensionOrderMesh(mesh33)
            sim = make_sim(mesh33, ra, BernoulliTraffic(mesh33, rate=0.3, length=6, stop_at=300), seed=5)
            sim.run(400)
            return [(m.mid, m.finished) for m in sim.messages.values()]

        assert run() == run()


def _check_bookkeeping(sim):
    """The engine's derived state agrees with the state it is derived from."""
    owned = [sum(1 for cid in vcs if sim._owner[cid] >= 0) for vcs in sim._link_vcs]
    assert sim._link_owned == owned
    assert sim._busy == {li for li, n in enumerate(owned) if n}
    undelivered = sorted(mid for mid, m in sim.messages.items() if m.finished is None)
    assert list(sim._active) == undelivered


#: (algorithm, network builder) per topology family
_BOOKKEEPING_NETS = {
    "mesh": ("duato-mesh", lambda: build_mesh((3, 3), num_vcs=2)),
    "torus": ("duato-torus", lambda: build_torus((3, 3), num_vcs=3)),
    "hypercube": ("duato-hypercube", lambda: build_hypercube(3, num_vcs=2)),
}


class TestBookkeeping:
    """Busy links, per-link owned counts and the undelivered-message dict
    must match the owner array and the messages after every ``step()``."""

    @settings(max_examples=12, deadline=None)
    @given(family=st.sampled_from(sorted(_BOOKKEEPING_NETS)),
           seed=st.integers(min_value=0, max_value=10_000),
           rate=st.floats(min_value=0.05, max_value=0.4),
           round_robin=st.booleans(),
           fault_at=st.one_of(st.none(), st.integers(min_value=0, max_value=60)))
    def test_invariants_after_every_step(self, family, seed, rate, round_robin, fault_at):
        algorithm, build = _BOOKKEEPING_NETS[family]
        net = build()
        config = SimConfig(seed=seed, buffer_depth=2, deadlock_check_interval=16,
                           selection=RoundRobinSelection() if round_robin else first_free)
        sim = WormholeSimulator(make(algorithm, net),
                                BernoulliTraffic(net, rate=rate, length=4, stop_at=80),
                                config)
        step = sim.step

        def checked_step():
            step()
            _check_bookkeeping(sim)

        sim.step = checked_step  # drain() steps through the instance too
        failed = None
        for cycle in range(100):
            if fault_at is not None and cycle == fault_at:
                idle = [c for c in net.link_channels if sim.owner[c] is None]
                failed = idle[seed % len(idle)]
                sim.fail_channel(failed)
            if failed is not None and cycle == fault_at + 20:
                sim.repair_channel(failed)
            sim.step()
        assert sim.drain(2000)
        assert not sim._busy and not sim._active


class TestFlowControl:
    def test_one_flit_per_link_per_cycle(self, mesh33):
        ra = DimensionOrderMesh(mesh33)
        # two messages sharing the physical link 0->1 on different... e-cube
        # with 1 VC serializes them entirely; check hop counting stays sane
        sim = make_sim(mesh33, ra, ScriptedTraffic([(0, 0, 2, 4), (0, 0, 2, 4)]))
        before = sim.stats.flit_hops
        sim.step()
        sim.step()
        # at most #physical-links flits move per cycle
        links = len(sim._link_vcs)
        assert sim.stats.flit_hops - before <= 2 * links

    def test_injection_serialized_per_node(self, mesh33):
        ra = DimensionOrderMesh(mesh33)
        sim = make_sim(mesh33, ra, ScriptedTraffic([(0, 0, 8, 4), (0, 0, 2, 4)]))
        sim.step()
        m0, m1 = sim.messages[0], sim.messages[1]
        assert m0.held and not m1.held  # the second waits its turn

    def test_backpressure_limits_buffer(self, mesh33):
        ra = DimensionOrderMesh(mesh33)
        sim = make_sim(mesh33, ra, ScriptedTraffic([(0, 0, 2, 40)]), buffer_depth=3)
        sim.run(100)
        for buf in sim.buffers.values():
            assert len(buf) <= 3


class TestConfigValidation:
    """Settings that would stall silently or crash are refused up front."""

    @pytest.mark.parametrize("field, value", [
        ("buffer_depth", 0),             # no queue could ever hold a flit
        ("ejection_rate", 0),            # nothing would ever be consumed
        ("deadlock_check_interval", -1), # would disable the detector silently
        ("seed", -1),                    # NumPy refuses it deep inside the run
    ])
    def test_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be >= "):
            SimConfig(**{field: value})

    def test_boundary_values_run(self, mesh33):
        cfg = SimConfig(buffer_depth=1, ejection_rate=1, deadlock_check_interval=0, seed=0)
        sim = WormholeSimulator(DimensionOrderMesh(mesh33),
                                ScriptedTraffic([(0, 0, 8, 5)]), cfg)
        sim.run(1)
        assert sim.drain(200)
        assert sim.stats.consumed_flits == 5


class TestStats:
    def test_summary_fields(self, mesh33):
        ra = DimensionOrderMesh(mesh33)
        sim = make_sim(mesh33, ra, BernoulliTraffic(mesh33, rate=0.2, length=4, stop_at=300), seed=2)
        sim.run(300)
        sim.drain()
        s = sim.stats.summary(cycles=sim.cycle, num_nodes=9, warmup=50)
        assert s.messages_delivered > 0
        assert s.avg_latency > 0
        assert s.p95_latency >= s.avg_latency * 0.5
        assert s.throughput_flits_per_node_cycle > 0
        assert "msgs=" in s.row()

    def test_empty_summary_is_nan(self, mesh33):
        ra = DimensionOrderMesh(mesh33)
        sim = make_sim(mesh33, ra, ScriptedTraffic([]))
        sim.run(10)
        s = sim.stats.summary(cycles=10, num_nodes=9)
        assert s.messages_delivered == 0
        assert s.avg_latency != s.avg_latency  # NaN
