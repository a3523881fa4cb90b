"""Unit tests for the Network multigraph substrate."""

import pytest

from repro.topology import ChannelKind, Network, NetworkError, network_from_edges


def ring2() -> Network:
    net = Network("tiny")
    net.add_nodes(2)
    net.add_channel(0, 1)
    net.add_channel(1, 0)
    return net


class TestConstruction:
    def test_add_nodes_returns_range(self):
        net = Network()
        assert list(net.add_nodes(3)) == [0, 1, 2]
        assert list(net.add_nodes(2)) == [3, 4]
        assert net.num_nodes == 5

    def test_negative_node_count_rejected(self):
        with pytest.raises(NetworkError):
            Network().add_nodes(-1)

    def test_link_self_loop_rejected(self):
        net = Network()
        net.add_nodes(1)
        with pytest.raises(NetworkError, match="self-loop"):
            net.add_channel(0, 0)

    def test_terminal_channel_must_be_self_loop(self):
        net = Network()
        net.add_nodes(2)
        with pytest.raises(NetworkError):
            net.add_channel(0, 1, kind=ChannelKind.INJECTION)

    def test_duplicate_injection_rejected(self):
        net = Network()
        net.add_nodes(1)
        net.add_channel(0, 0, kind=ChannelKind.INJECTION)
        with pytest.raises(NetworkError, match="already has"):
            net.add_channel(0, 0, kind=ChannelKind.INJECTION)

    def test_duplicate_label_rejected(self):
        net = ring2()
        net.add_channel(0, 1, vc=1, label="x")
        with pytest.raises(NetworkError, match="duplicate"):
            net.add_channel(0, 1, vc=2, label="x")

    def test_node_out_of_range(self):
        net = Network()
        net.add_nodes(2)
        with pytest.raises(NetworkError):
            net.add_channel(0, 5)

    def test_frozen_is_immutable(self):
        net = ring2().freeze()
        with pytest.raises(NetworkError, match="frozen"):
            net.add_nodes(1)
        with pytest.raises(NetworkError, match="frozen"):
            net.add_channel(0, 1)

    def test_freeze_idempotent(self):
        net = ring2().freeze()
        assert net.freeze() is net

    def test_freeze_requires_strong_connectivity(self):
        net = Network("oneway")
        net.add_nodes(2)
        net.add_channel(0, 1)
        with pytest.raises(NetworkError, match="strongly"):
            net.freeze()

    def test_freeze_connectivity_check_can_be_skipped(self):
        net = Network("oneway")
        net.add_nodes(2)
        net.add_channel(0, 1)
        net.freeze(require_strongly_connected=False)
        assert net.frozen


class TestQueries:
    def test_terminal_channels_added_on_freeze(self):
        net = ring2().freeze()
        for n in (0, 1):
            assert net.injection_channel(n).is_injection
            assert net.ejection_channel(n).is_ejection

    def test_link_channels_excludes_terminals(self):
        net = ring2().freeze()
        assert len(net.link_channels) == 2
        assert all(c.is_link for c in net.link_channels)
        assert net.num_channels == 6  # 2 link + 2 inj + 2 ej

    def test_out_in_channels(self):
        net = ring2().freeze()
        assert [c.dst for c in net.out_channels(0)] == [1]
        assert [c.src for c in net.in_channels(0)] == [1]

    def test_channels_between_and_vcs(self):
        net = Network()
        net.add_nodes(2)
        net.add_link_channels(0, 1, 3)
        net.add_channel(1, 0)
        net = net.freeze()
        chans = net.channels_between(0, 1)
        assert [c.vc for c in chans] == [0, 1, 2]
        assert net.max_vcs() == 3

    def test_channel_by_label(self):
        net = Network()
        net.add_nodes(2)
        net.add_channel(0, 1, label="fwd")
        net.add_channel(1, 0, label="bwd")
        net = net.freeze()
        assert net.channel_by_label("fwd").dst == 1
        with pytest.raises(NetworkError):
            net.channel_by_label("nope")

    def test_neighbors_out_dedupes_multilinks(self):
        net = Network()
        net.add_nodes(2)
        net.add_link_channels(0, 1, 2)
        net.add_channel(1, 0)
        net = net.freeze()
        assert net.neighbors_out(0) == [1]

    def test_physical_links(self):
        net = Network()
        net.add_nodes(2)
        net.add_link_channels(0, 1, 2)
        net.add_channel(1, 0)
        net = net.freeze()
        assert sorted(net.physical_links()) == [(0, 1), (1, 0)]

    def test_coords_roundtrip(self, mesh33):
        for n in mesh33.nodes:
            assert mesh33.node_at(mesh33.coord(n)) == n

    def test_coord_missing(self):
        net = ring2().freeze()
        with pytest.raises(NetworkError):
            net.coord(0)
        with pytest.raises(NetworkError):
            net.node_at((9, 9))

    def test_shortest_distances_ring(self):
        net = network_from_edges(4, [(i, (i + 1) % 4) for i in range(4)])
        d = net.shortest_distances()
        assert d[0][3] == 3  # unidirectional ring
        assert d[3][0] == 1
        assert d[2][2] == 0

    def test_iter_and_repr(self):
        net = ring2().freeze()
        assert len(list(iter(net))) == net.num_channels
        assert "2 nodes" in repr(net)


def test_network_from_edges_with_vc_counts():
    net = network_from_edges(3, [(0, 1, 2), (1, 2), (2, 0)])
    assert len(net.channels_between(0, 1)) == 2
    assert len(net.channels_between(1, 2)) == 1


def test_one_all_pairs_bfs_per_frozen_network(monkeypatch):
    """Two simulators and a distance-reading relation share one BFS."""
    from repro.routing import make
    from repro.sim import BernoulliTraffic, SimConfig, WormholeSimulator
    from repro.topology import build_mesh

    calls = []
    bfs = Network._bfs_distances
    monkeypatch.setattr(Network, "_bfs_distances",
                        lambda self: calls.append(self) or bfs(self))
    net = build_mesh((3, 3))
    ra = make("unrestricted-minimal", net)
    for seed in (1, 2):
        sim = WormholeSimulator(ra, BernoulliTraffic(net, rate=0.1, length=4),
                                SimConfig(seed=seed))
        sim.run(20)
    assert calls == [net]
    dist = net.shortest_distances()
    assert dist is ra._dist and isinstance(dist[0], tuple)
