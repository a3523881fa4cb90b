"""Mask-native relations against Channel references, and the one-form rule.

duato-mesh / duato-hypercube and the three turn models answer the one
relation query, ``route_masks``, from per-node cid-mask tables; their
``route`` / ``route_nd`` / ``waiting_subset`` are derived Channel views.
The references below are the Channel bodies those classes had before
(``route_nd`` over ``direction_moves`` plus the waiting hook), and at every
state reachable under the reference, on the registry networks at the
benchmark's ``--quick`` sizes and at the batch sizes, both the masks and
the derived views must equal them.
"""

from __future__ import annotations

import pytest

from repro.pipeline.engine import catalog_specs
from repro.routing import make
from repro.routing.duato_adaptive import DuatoFullyAdaptiveHypercube, DuatoFullyAdaptiveMesh
from repro.routing.ecube import DimensionOrderMesh
from repro.routing.relation import MaskNodeDestRouting, RoutingError
from repro.routing.turn_model import NegativeFirst, NorthLast, WestFirst
from repro.topology import build_mesh
from repro.topology.grid import direction_moves

QUICK = {"mesh_dims": (3, 3), "torus_dims": (4, 4), "hypercube_dim": 3}


# ----------------------------------------------------------------------
# Channel references: the pre-mask route_nd bodies and waiting hooks
# ----------------------------------------------------------------------
def _deltas(net, node, dest):
    return [t - h for h, t in zip(net.coords[node], net.coords[dest])]


def _duato(net, moves, node, dest):
    deltas = _deltas(net, node, dest)
    for esc, delta in enumerate(deltas):
        if delta:
            break
    route = frozenset([c for (dim, sign), chans in moves[node].items() for c in chans
                       if deltas[dim] * sign > 0
                       and (c.vc == 1 or (c.vc == 0 and dim == esc))])
    return route, frozenset([c for c in route if c.vc == 0])


def _negative_first(net, moves, node, dest):
    deltas = _deltas(net, node, dest)
    out = []
    negs = [d for d, delta in enumerate(deltas) if delta < 0]
    if negs:
        for dim in negs:
            out.extend(moves[node].get((dim, -1), ()))
    else:
        for dim, delta in enumerate(deltas):
            if delta > 0:
                out.extend(moves[node].get((dim, +1), ()))
    return frozenset(out), frozenset(out)


def _west_first(net, moves, node, dest):
    dx, dy = _deltas(net, node, dest)
    out = []
    if dx < 0:
        out.extend(moves[node].get((0, -1), ()))
    else:
        if dx > 0:
            out.extend(moves[node].get((0, +1), ()))
        if dy != 0:
            out.extend(moves[node].get((1, +1 if dy > 0 else -1), ()))
    return frozenset(out), frozenset(out)


def _north_last(net, moves, node, dest):
    dx, dy = _deltas(net, node, dest)
    out = []
    if dx != 0:
        out.extend(moves[node].get((0, +1 if dx > 0 else -1), ()))
    if dy < 0:
        out.extend(moves[node].get((1, -1), ()))
    if dy > 0 and dx == 0:
        out.extend(moves[node].get((1, +1), ()))
    return frozenset(out), frozenset(out)


REFERENCES = {
    DuatoFullyAdaptiveMesh: _duato,
    DuatoFullyAdaptiveHypercube: _duato,
    NegativeFirst: _negative_first,
    WestFirst: _west_first,
    NorthLast: _north_last,
}


def _mask(channels) -> int:
    m = 0
    for c in channels:
        m |= 1 << c.cid
    return m


def _reference_states(net, reference):
    """Every ``(c_in, dest)`` state short of the destination that the
    reference reaches from an injection channel, with its two sets."""
    moves = direction_moves(net)
    for dest in net.nodes:
        frontier = [net.injection_channel(n) for n in net.nodes if n != dest]
        seen = set(frontier)
        while frontier:
            nxt = []
            for c in frontier:
                if c.dst == dest:
                    continue
                route, wait = reference(net, moves, c.dst, dest)
                yield c, dest, route, wait
                for o in sorted(route, key=lambda ch: ch.cid):
                    if o not in seen:
                        seen.add(o)
                        nxt.append(o)
            frontier = nxt


def _mask_native_specs():
    """The registry's mask-native relations, each distinct network once."""
    specs = catalog_specs(conditions=("theorem",), **QUICK) + catalog_specs(conditions=("theorem",))
    out = {}
    for spec in specs:
        algorithm = make(spec.algorithm, spec.topology.build())
        if isinstance(algorithm, MaskNodeDestRouting):
            dims = "x".join(map(str, spec.topology.dims))
            out.setdefault(f"{spec.algorithm}-{dims}", algorithm)
    return list(out.items())


_SPECS = _mask_native_specs()


def test_every_mask_native_registry_relation_has_a_reference():
    assert {type(a) for _, a in _SPECS} == set(REFERENCES)
    # the mesh relations at both sizes (the hypercube is 3-D at both)
    assert len(_SPECS) == 9


@pytest.mark.parametrize("algorithm", [a for _, a in _SPECS], ids=[n for n, _ in _SPECS])
def test_masks_and_views_match_the_channel_reference(algorithm):
    net = algorithm.network
    reference = REFERENCES[type(algorithm)]
    states = 0
    for c, dest, route, wait in _reference_states(net, reference):
        node = c.dst
        assert algorithm.route_masks(c.cid, node, dest) == (_mask(route), _mask(wait)), (c, dest)
        got = algorithm.route(c, node, dest)
        assert got == route and algorithm.route_nd(node, dest) == route
        assert algorithm.waiting_subset(c, node, dest, got) == wait
        assert algorithm.waiting_channels(c, node, dest) == wait
        states += 1
    assert states > net.num_nodes
    # at the destination both sets are empty
    for dest in net.nodes:
        inj = net.injection_channel(dest)
        assert algorithm.route_masks(inj.cid, dest, dest) == (0, 0)
        assert algorithm.route(inj, dest, dest) == frozenset()


def test_missing_escape_channel_is_reported():
    algorithm = make("duato-mesh", build_mesh((3, 3), num_vcs=2))
    algorithm._escape[0] = [0] * len(algorithm._escape[0])
    with pytest.raises(RoutingError, match="escape channel missing"):
        algorithm.route_masks(algorithm.network.injection_channel(0).cid, 0, 8)


def test_channel_set_is_the_set_of_the_mask():
    net = build_mesh((3, 3), num_vcs=2)
    assert net.channel_set(0) == frozenset()
    for mask in (1 << 5, (1 << 3) | (1 << 17) | (1 << 30), net.link_mask):
        assert net.channel_set(mask) == frozenset(c for c in net.channels if mask >> c.cid & 1)
    # one-channel sets are shared, not rebuilt
    assert net.channel_set(1 << 7) is net.channel_set(1 << 7)


# ----------------------------------------------------------------------
# one form per class
# ----------------------------------------------------------------------
def test_defining_both_forms_is_rejected():
    with pytest.raises(TypeError, match="both route_masks and route_nd"):
        class BothForms(MaskNodeDestRouting):
            def route_masks(self, c_in_cid, node, dest):
                return 0, 0

            def route_nd(self, node, dest):
                return frozenset()


def test_overriding_a_derived_view_of_a_mask_native_relation_is_rejected():
    with pytest.raises(TypeError, match="both route_masks and route_nd"):
        class CountingRows(DuatoFullyAdaptiveMesh):
            def route_nd(self, node, dest):
                return super().route_nd(node, dest)
    with pytest.raises(TypeError, match="both route_masks and waiting_subset"):
        class NarrowerWaits(WestFirst):
            def waiting_subset(self, c_in, node, dest, permitted):
                return permitted


def test_masks_on_a_channel_authored_relation_are_rejected():
    with pytest.raises(TypeError, match="both route_masks and route_nd"):
        class FastECube(DimensionOrderMesh):
            def route_masks(self, c_in_cid, node, dest):
                return 0, 0
