"""Coverage for the remaining public surface: relation helpers, config
knobs, stats warmup, and cross-cutting invariants."""

import networkx as nx
import pytest

from repro.core import ChannelWaitingGraph
from repro.deps import ChannelDependencyGraph, escape_by_vc
from repro.routing import (
    DimensionOrderMesh,
    HighestPositiveLast,
    RestrictedWaiting,
    RoutingError,
    WaitPolicy,
    make,
)
from repro.sim import BernoulliTraffic, ScriptedTraffic, SimConfig, WormholeSimulator
from tests.nx_reference import nx_view


class TestRelationHelpers:
    def test_describe_and_repr(self, mesh33):
        ra = DimensionOrderMesh(mesh33)
        assert "e-cube-mesh" in ra.describe()
        assert "wait=specific" in ra.describe()
        assert "DimensionOrderMesh" in repr(ra)

    def test_restricted_waiting_wrapper(self, mesh33):
        inner = HighestPositiveLast(mesh33)
        wrapped = RestrictedWaiting(inner, wait_policy=WaitPolicy.ANY)
        inj = mesh33.injection_channel(0)
        assert wrapped.route(inj, 0, 8) == inner.route(inj, 0, 8)
        assert wrapped.wait_policy is WaitPolicy.ANY
        assert wrapped.form == inner.form

    def test_unfrozen_network_rejected(self):
        from repro.topology import Network

        net = Network()
        net.add_nodes(2)
        net.add_channel(0, 1)
        net.add_channel(1, 0)
        with pytest.raises(RoutingError, match="frozen"):
            DimensionOrderMesh(net)

    def test_check_route_set_validates(self, mesh33):
        ra = DimensionOrderMesh(mesh33)
        good = mesh33.out_channels(0)
        assert ra.check_route_set(good, 0) == frozenset(good)
        with pytest.raises(RoutingError):
            ra.check_route_set(mesh33.out_channels(4), 0)
        with pytest.raises(RoutingError):
            ra.check_route_set([mesh33.injection_channel(0)], 0)

    def test_route_from_source(self, mesh33):
        """A message at its source presents the injection channel."""
        ra = DimensionOrderMesh(mesh33)
        inj = mesh33.injection_channel(0)
        (c,) = ra.route(inj, 0, 8)
        assert (c.src, c.dst) == (0, 1)
        assert ra.route_masks(inj.cid, 0, 8) == (1 << c.cid, 1 << c.cid)


class TestSimConfigKnobs:
    def test_wait_policy_override(self, mesh33):
        ra = HighestPositiveLast(mesh33)  # SPECIFIC natively
        sim = WormholeSimulator(
            ra, ScriptedTraffic([]), SimConfig(wait_policy_override=WaitPolicy.ANY)
        )
        assert sim.wait_policy is WaitPolicy.ANY

    def test_ejection_rate(self, mesh33):
        ra = DimensionOrderMesh(mesh33)
        lat = {}
        for rate in (1, 4):
            sim = WormholeSimulator(
                ra, ScriptedTraffic([(0, 0, 1, 12)]),
                SimConfig(ejection_rate=rate, buffer_depth=8),
            )
            sim.run(2)
            assert sim.drain()
            lat[rate] = sim.messages[0].latency
        assert lat[4] <= lat[1]

    def test_prefer_minimal_off_uses_cid_order(self, mesh33):
        ra = HighestPositiveLast(mesh33)
        sim = WormholeSimulator(
            ra, ScriptedTraffic([(0, 8, 0, 4)]),
            SimConfig(prefer_minimal=False),
        )
        sim.run(2)
        assert sim.drain()  # still delivers, just via cid preference

    def test_deadlock_check_disabled(self, mesh33):
        ra = DimensionOrderMesh(mesh33)
        sim = WormholeSimulator(
            ra, BernoulliTraffic(mesh33, rate=0.2, length=4, stop_at=100),
            SimConfig(deadlock_check_interval=0),
        )
        sim.run(200)
        assert sim.deadlock is None


class TestStatsWarmup:
    def test_warmup_excludes_early_messages(self, mesh33):
        ra = DimensionOrderMesh(mesh33)
        sim = WormholeSimulator(
            ra, ScriptedTraffic([(0, 0, 8, 4), (50, 0, 8, 4)]), SimConfig()
        )
        sim.run(60)
        sim.drain()
        all_msgs = sim.stats.summary(cycles=sim.cycle, num_nodes=9, warmup=0)
        late_only = sim.stats.summary(cycles=sim.cycle, num_nodes=9, warmup=10)
        assert all_msgs.messages_delivered == 2
        assert late_only.messages_delivered == 1


class TestCrossCuttingInvariants:
    @pytest.mark.parametrize(
        "name", ["e-cube-mesh", "negative-first", "highest-positive-last"]
    )
    def test_cwg_within_cdg_closure(self, name, mesh33):
        """Section 5: every waiting dependency is a usage dependency."""
        ra = make(name, mesh33)
        closure = nx.transitive_closure(nx_view(ChannelDependencyGraph(ra).dep))
        for (a, b) in ChannelWaitingGraph(ra).edges:
            assert closure.has_edge(a, b)

    def test_escape_by_vc(self, mesh33_2vc):
        from repro.routing import DuatoFullyAdaptiveMesh

        ra = DuatoFullyAdaptiveMesh(mesh33_2vc)
        esc = escape_by_vc(ra, (1,))
        assert esc and all(c.vc == 1 for c in esc)
        both = escape_by_vc(ra, (0, 1))
        assert len(both) == len(mesh33_2vc.link_channels)
