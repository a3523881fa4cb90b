"""Mask-native relations against Channel references, and the one-form rule.

Every registry relation on the mesh, torus, hypercube and 3D networks
answers the one relation query, ``route_masks``, from cid-mask tables;
its ``route`` / ``route_nd`` / ``waiting_subset`` are derived Channel
views.  The references (:mod:`tests.channel_references`) are the Channel
bodies those classes had before, and at every state reachable under the
reference, on the registry networks at the benchmark's ``--quick``, batch
and deep-verify sizes, both the masks and the derived views must equal
them.
"""

from __future__ import annotations

import pytest

from repro.pipeline.engine import catalog_specs
from repro.routing import CATALOG, HighestPositiveLast, make
from repro.routing.duato_adaptive import DuatoFullyAdaptiveMesh
from repro.routing.incoherent import IncoherentExample
from repro.routing.relation import NodeDestRouting, RoutingAlgorithm, RoutingError
from repro.routing.turn_model import WestFirst
from repro.topology import build_mesh
from tests.channel_references import REFERENCES, HPLReference, reference_for

QUICK = {"mesh_dims": (3, 3), "torus_dims": (4, 4), "hypercube_dim": 3}
#: deep-verify's sizes; unrestricted-minimal runs there at 5x5
DEEP = {"mesh_dims": (8, 8), "torus_dims": (6, 6), "hypercube_dim": 5}


def _mask(channels) -> int:
    m = 0
    for c in channels:
        m |= 1 << c.cid
    return m


def _reference_states(reference):
    """Every ``(c_in, dest)`` state short of the destination that the
    reference reaches from an injection channel, with its two sets."""
    net = reference.network
    for dest in net.nodes:
        frontier = [net.injection_channel(n) for n in net.nodes if n != dest]
        seen = set(frontier)
        while frontier:
            nxt = []
            for c in frontier:
                if c.dst == dest:
                    continue
                route = reference.route(c, c.dst, dest)
                yield c, dest, route, reference.waiting_subset(c, c.dst, dest, route)
                for o in sorted(route, key=lambda ch: ch.cid):
                    if o not in seen:
                        seen.add(o)
                        nxt.append(o)
            frontier = nxt


def _registry_relations():
    """Every registry relation at the three sizes, each distinct network once."""
    names = sorted(set(CATALOG) - {"unrestricted-minimal"})
    specs = (catalog_specs(conditions=("theorem",), **QUICK)
             + catalog_specs(conditions=("theorem",))
             + catalog_specs(names, conditions=("theorem",), **DEEP)
             + catalog_specs(["unrestricted-minimal"], conditions=("theorem",), mesh_dims=(5, 5)))
    out = {}
    for spec in specs:
        dims = "x".join(map(str, spec.topology.dims or ()))
        key = f"{spec.algorithm}-{dims or spec.topology.family}"
        if key not in out:
            out[key] = make(spec.algorithm, spec.topology.build())
    return out


_RELATIONS = _registry_relations()
_SPECS = [(n, a) for n, a in _RELATIONS.items() if a.mask_native]


def test_every_mask_native_registry_relation_has_a_reference():
    assert {type(a) for _, a in _SPECS} == set(REFERENCES)
    # only the two figure transcriptions stay Channel-authored
    assert {a.name for a in _RELATIONS.values() if not a.mask_native} == {
        "incoherent-example", "ring-figure4"}
    # seven mesh relations at three sizes, two torus and seven hypercube
    # ones at two (--quick and batch share theirs), and the three 3D ones
    assert len(_SPECS) == 7 * 3 + 2 * 2 + 7 * 2 + 3


def _assert_matches_reference(algorithm, reference):
    net = algorithm.network
    node_dest = isinstance(algorithm, NodeDestRouting)
    states = 0
    for c, dest, route, wait in _reference_states(reference):
        node = c.dst
        assert algorithm.route_masks(c.cid, node, dest) == (_mask(route), _mask(wait)), (c, dest)
        got = algorithm.route(c, node, dest)
        assert got == route
        if node_dest:
            assert algorithm.route_nd(node, dest) == route
        assert algorithm.waiting_subset(c, node, dest, got) == wait
        assert algorithm.waiting_channels(c, node, dest) == wait
        states += 1
    assert states > net.num_nodes
    # at the destination both sets are empty
    for dest in net.nodes:
        inj = net.injection_channel(dest)
        assert algorithm.route_masks(inj.cid, dest, dest) == (0, 0)
        assert algorithm.route(inj, dest, dest) == frozenset()


@pytest.mark.parametrize("algorithm", [a for _, a in _SPECS], ids=[n for n, _ in _SPECS])
def test_masks_and_views_match_the_channel_reference(algorithm):
    _assert_matches_reference(algorithm, reference_for(algorithm))


@pytest.mark.parametrize("dims", [(4, 4), (3, 3, 3)], ids=["4x4", "3x3x3"])
@pytest.mark.parametrize("misroute", [True, False], ids=["misroute", "minimal"])
@pytest.mark.parametrize("wait_any", [False, True], ids=["specific", "any"])
def test_hpl_variants_match_the_channel_reference(dims, misroute, wait_any):
    net = build_mesh(dims)
    _assert_matches_reference(
        HighestPositiveLast(net, misroute=misroute, wait_any=wait_any),
        HPLReference(net, misroute=misroute, wait_any=wait_any))


def test_hpl_raises_its_designated_waiting_error_from_route_masks():
    """An input whose 180-degree turn rule removes the designated waiting
    direction but leaves other outputs (unreachable in HPL itself): the
    query raises, so the derived views do too, as the Channel body's
    waiting hook did."""
    net = build_mesh((3, 3))
    hpl, reference = HighestPositiveLast(net), HPLReference(net)
    # node 3 = (0, 1) heading to 0 = (0, 0), arrived moving +y from node 0;
    # at node 4 = (1, 1) heading to 0, arrived moving +y from node 1
    for src, node in ((0, 3), (1, 4)):
        (c,) = net.channels_between(src, node)
        message = (f"designated waiting channel dim=1 sign=-1 not in permitted set "
                   f"at node {node} \\(input <c1,\\+1@{src}:{src}->{node}/vc0>\\)")
        with pytest.raises(RoutingError, match=message):
            reference.waiting_channels(c, node, 0)
        with pytest.raises(RoutingError, match=message):
            hpl.route_masks(c.cid, node, 0)
        with pytest.raises(RoutingError, match=message):
            hpl.route(c, node, 0)
        with pytest.raises(RoutingError, match=message):
            hpl.waiting_channels(c, node, 0)


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
        class BothForms(NodeDestRouting):
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
        class FastFigure1(IncoherentExample):
            def route_masks(self, c_in_cid, node, dest):
                return 0, 0


def test_defining_neither_form_is_rejected():
    class Neither(RoutingAlgorithm):
        pass

    class NeitherND(NodeDestRouting):
        pass

    for cls in (Neither, NeitherND, RoutingAlgorithm):
        with pytest.raises(TypeError, match="authors no form of the relation"):
            cls(build_mesh((3, 3)))
