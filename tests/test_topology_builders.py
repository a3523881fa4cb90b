"""Tests for the topology generators (mesh, torus, hypercube, examples)."""

import pytest

from repro.topology import (
    FIGURE1_LABELS,
    build_figure4_ring,
    build_hypercube,
    build_mesh,
    build_mesh3d,
    build_ring,
    build_sparse_pillar_3d,
    build_torus,
    default_pillars,
    hamming_distance,
    differing_dimensions,
)


class TestMesh:
    def test_channel_count_2d(self, mesh44):
        # 4x4 mesh: 2*4*3 = 24 bidirectional physical links, 48 channels
        assert len(mesh44.link_channels) == 48
        assert mesh44.num_nodes == 16

    def test_channel_count_3d(self, mesh332):
        # links: per dim: (d-1) * prod(others); x: 2*3*2=12, y: 2*3*2=12, z: 1*9=9 => 33*2
        assert len(mesh332.link_channels) == 66

    def test_vcs(self):
        m = build_mesh((3, 3), num_vcs=2)
        assert m.max_vcs() == 2
        assert len(m.channels_between(0, 1)) == 2

    def test_metadata(self, mesh33):
        c = mesh33.channels_between(0, 1)[0]
        assert c.meta["dim"] == 0 and c.meta["sign"] == 1
        c = mesh33.channels_between(4, 1)[0]
        assert c.meta["dim"] == 1 and c.meta["sign"] == -1

    def test_no_wraparound(self, mesh33):
        assert not mesh33.channels_between(2, 0)
        assert not mesh33.channels_between(6, 0)

    def test_border_nodes_have_fewer_channels(self, mesh33):
        assert len(mesh33.out_channels(0)) == 2  # corner
        assert len(mesh33.out_channels(4)) == 4  # center

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            build_mesh(())
        with pytest.raises(ValueError):
            build_mesh((0, 3))
        with pytest.raises(ValueError):
            build_mesh((3, 3), num_vcs=0)

    def test_length_one_dimension(self):
        m = build_mesh((3, 1))
        assert m.num_nodes == 3
        assert len(m.link_channels) == 4


class TestTorus:
    def test_wrap_channels_marked(self):
        t = build_torus((4,))
        wraps = [c for c in t.link_channels if c.meta.get("wrap")]
        # positive wrap at 3->0 and negative wrap at 0->3
        assert {(c.src, c.dst) for c in wraps} == {(3, 0), (0, 3)}

    def test_radix2_single_channel_pair(self):
        t = build_torus((2, 2))
        assert len(t.channels_between(0, 1)) == 1  # not doubled

    def test_radix1_contributes_nothing(self):
        t = build_torus((4, 1))
        assert t.num_nodes == 4
        assert all(c.meta["dim"] == 0 for c in t.link_channels)

    def test_4x4_channel_count(self):
        t = build_torus((4, 4))
        # every node has 4 out-channels (one per direction per dim)
        assert len(t.link_channels) == 16 * 4

    def test_unidirectional_ring(self):
        r = build_ring(5, bidirectional=False)
        assert all(c.dst == (c.src + 1) % 5 for c in r.link_channels)
        assert r.meta["unidirectional"]

    def test_bidirectional_ring_is_torus(self):
        r = build_ring(5)
        assert r.meta["topology"] == "torus"

    def test_invalid(self):
        with pytest.raises(ValueError):
            build_torus((0,))
        with pytest.raises(ValueError):
            build_ring(1)


class TestHypercube:
    def test_structure(self, cube3):
        assert cube3.num_nodes == 8
        assert len(cube3.link_channels) == 8 * 3
        for src in cube3.nodes:
            for c in cube3.out_channels(src):
                assert hamming_distance(c.src, c.dst) == 1

    def test_sign_metadata(self, cube3):
        c = cube3.channels_between(0, 1)[0]
        assert c.meta["sign"] == 1  # flips 0 -> 1
        c = cube3.channels_between(1, 0)[0]
        assert c.meta["sign"] == -1

    def test_coords_are_bits(self, cube3):
        assert cube3.coord(5) == (1, 0, 1)

    def test_differing_dimensions(self):
        assert differing_dimensions(0b101, 0b011) == [1, 2]
        assert differing_dimensions(7, 7) == []

    def test_invalid(self):
        with pytest.raises(ValueError):
            build_hypercube(0)


class TestMesh3D:
    def test_dense_structure(self):
        net = build_mesh3d((3, 3, 3), num_vcs=2)
        assert net.num_nodes == 27
        # per dim: 2*(3-1)*9 = 36 directed links, x2 VCs
        assert len(net.link_channels) == 3 * 36 * 2
        assert net.meta["topology"] == "mesh3d"
        assert net.max_vcs() == 2

    def test_node_numbering_is_mixed_radix(self):
        net = build_mesh3d((3, 3, 3))
        assert net.coord(0) == (0, 0, 0)
        assert net.coord(1 + 3 * 2 + 9 * 1) == (1, 2, 1)  # dim 0 fastest

    def test_channel_metadata(self):
        net = build_mesh3d((3, 3, 3), num_vcs=1)
        up = net.channels_between(0, 9)[0]  # +z from (0,0,0)
        assert up.meta["dim"] == 2 and up.meta["sign"] == 1
        down = net.channels_between(9, 0)[0]
        assert down.meta["sign"] == -1

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            build_mesh3d((3, 3))
        with pytest.raises(ValueError):
            build_mesh3d((3, 0, 3))
        with pytest.raises(ValueError):
            build_mesh3d((3, 3, 3), num_vcs=0)


class TestSparsePillar3D:
    def test_z_links_only_at_pillars(self):
        net = build_sparse_pillar_3d((3, 3, 3), pillars=[(0, 0), (1, 0), (2, 0)],
                                     num_vcs=2)
        z_cols = {(net.coord(c.src)[0], net.coord(c.src)[1])
                  for c in net.link_channels if c.meta["dim"] == 2}
        assert z_cols == {(0, 0), (1, 0), (2, 0)}
        # xy planes stay fully connected: same in-plane channels as dense
        dense = build_mesh3d((3, 3, 3), num_vcs=2)
        plane = [c for c in net.link_channels if c.meta["dim"] != 2]
        assert len(plane) == len([c for c in dense.link_channels
                                  if c.meta["dim"] != 2])
        assert net.meta["pillars"] == ((0, 0), (1, 0), (2, 0))
        assert net.meta["topology"] == "sparse-pillar"

    def test_pillars_are_sorted_and_deduplicated(self):
        net = build_sparse_pillar_3d((3, 3, 3), pillars=[(2, 2), (0, 0), (2, 2)])
        assert net.meta["pillars"] == ((0, 0), (2, 2))

    def test_default_pillars_checkerboard(self):
        kept = default_pillars((3, 3, 3))
        assert (0, 0) in kept
        assert all((x + y) % 2 == 0 for x, y in kept)
        net = build_sparse_pillar_3d((3, 3, 3))
        assert net.meta["pillars"] == kept

    def test_sparse_distances_exceed_manhattan(self):
        # with only the (0,0) pillar, (2,2,0)->(2,2,1) must detour through it
        net = build_sparse_pillar_3d((3, 3, 3), pillars=[(0, 0)], num_vcs=1)
        src = net.node_at((2, 2, 0))
        dst = net.node_at((2, 2, 1))
        dist = net.shortest_distances()
        assert dist[src][dst] == 9  # 4 in-plane + 1 up + 4 back, not 1

    def test_invalid_pillars(self):
        with pytest.raises(ValueError, match="at least one"):
            build_sparse_pillar_3d((3, 3, 3), pillars=[])
        with pytest.raises(ValueError, match="outside"):
            build_sparse_pillar_3d((3, 3, 3), pillars=[(3, 0)])


class TestExamples:
    def test_figure1_labels(self, figure1):
        for label in FIGURE1_LABELS:
            c = figure1.channel_by_label(label)
            assert c.is_link

    def test_figure1_structure(self, figure1):
        assert figure1.channel_by_label("cA1").endpoints == (1, 2)
        assert figure1.channel_by_label("cB2").endpoints == (2, 1)
        assert figure1.channel_by_label("cH0").endpoints == (0, 1)
        assert figure1.channel_by_label("cL3").endpoints == (3, 2)
        assert len(figure1.link_channels) == 8

    def test_figure4_structure(self, figure4):
        assert figure4.num_nodes == 10
        assert len(figure4.channels_between(8, 9)) == 5  # 4 VCs + cA
        assert len(figure4.channels_between(0, 1)) == 4
        cA = figure4.channel_by_label("cA")
        assert cA.endpoints == (8, 9) and cA.vc == 4
        wrap = figure4.channels_between(9, 0)
        assert all(c.meta["wrap"] for c in wrap)

    def test_figure4_validates_extra_link(self):
        with pytest.raises(ValueError):
            build_figure4_ring(extra_link=(3, 7))
        with pytest.raises(ValueError):
            build_figure4_ring(2)
