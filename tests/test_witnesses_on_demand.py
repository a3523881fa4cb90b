"""Destination witnesses are computed on demand, and only where read.

The CWG and CDG are built from one adjacency row per source channel; the
destinations realizing each edge are computed by the kernel the first
time a consumer reads them (:attr:`DepGraph.witnessed_edges` counts
them).  Pinned here: an acyclic graph computes none, a witness read inside
a cycle computes only the edges inside strongly connected components, and a
graph keeps the transition graphs it was built from across an incremental
session's later rebuilds.
"""

from __future__ import annotations

import pytest

from repro.core.cwg import ChannelWaitingGraph
from repro.deps.cdg import ChannelDependencyGraph
from repro.incremental import IncrementalSession
from repro.incremental.session import default_fault_pair
from repro.pipeline.engine import catalog_spec
from repro.routing import make
from repro.topology import build_figure4_ring, build_mesh
from repro.verify import dally_seitz, verify


@pytest.mark.parametrize("graph", [ChannelWaitingGraph, ChannelDependencyGraph])
def test_acyclic_graph_computes_no_witnesses(graph):
    ra = make("e-cube-mesh", build_mesh((4, 4)))
    g = graph(ra)
    assert g.is_acyclic() and len(g) > 0
    if graph is ChannelWaitingGraph:
        assert verify(ra, cwg=g).deadlock_free
    else:
        assert dally_seitz(ra, cdg=g).deadlock_free
    assert g.dep.witnessed_edges == 0


def test_cycle_witness_reads_only_edges_inside_components():
    ra = make("ring-figure4", build_figure4_ring())
    cwg = ChannelWaitingGraph(ra)
    dep = cwg.dep
    labels, _ = dep.scc()
    inside = [(u, v) for u, v in dep.edge_cids() if labels[u] == labels[v]]
    assert 0 < len(inside) < dep.num_edges
    u, v = inside[0]
    assert dep.mask_of(u, v)
    assert dep.witnessed_edges == len(inside)
    # a full read computes the rest, and agrees with the partial one
    full = {(a, b): m for a, b, m in dep.iter_edges()}
    assert all(dep.mask_of(a, b) == full[(a, b)] for a, b in inside)


def test_graph_keeps_its_witnesses_across_a_session_rebuild():
    spec = catalog_spec("duato-mesh", mesh_dims=(3, 3))
    session = IncrementalSession(spec=spec, conditions=("theorem",))
    before = ChannelWaitingGraph.from_depgraph(
        session.overlay, session._dep, transitions=session.tc)
    assert before.dep.witnessed_edges == 0
    down, _up = default_fault_pair(session)
    stats = session.apply(down)
    assert stats["dirty_destinations"] > 0
    after = ChannelWaitingGraph.from_depgraph(
        session.overlay, session._dep, transitions=session.tc)
    cold = ChannelWaitingGraph(spec.build())

    def witnesses(graph):
        return {(u, v): m for u, v, m in graph.dep.iter_edges()}
    assert witnesses(before) == witnesses(cold)
    assert witnesses(after) != witnesses(cold)
    for (u, v), mask in witnesses(cold).items():
        assert before.dep.mask_of(u, v) == mask
