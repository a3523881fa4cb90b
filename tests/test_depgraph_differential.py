"""Differential tests: the kernel-backed builders vs naive references.

The PR that introduced :mod:`repro.core.depgraph` rebuilt every graph
producer (CDG, CWG, ECDG) and consumer (cycle search, reduction, verifiers)
on the integer kernel.  These tests pin the refactor's observable behavior
to independent straight-line reimplementations of the definitions:

* CWG / CDG edges **and their per-edge destination witness sets** must match
  a naive per-state BFS builder bit for bit -- on the paper's Figure 4 ring
  and on the Figure 6 EFA hypercube, where the witness structure is richest;
* cycle enumeration must match ``networkx.simple_cycles`` on an nx view of
  the same edges;
* the Section 8 reduction's cycle list and the theorem/Duato verdicts must
  match that reference and the verdicts pinned before the kernel existed.
"""

import networkx as nx
import pytest

from repro.core import (
    ChannelWaitingGraph,
    Cycle,
    TransitionCache,
    bits,
    find_cycles,
    find_one_cycle,
)
from repro.core.reduction import CWGReducer
from repro.deps import ChannelDependencyGraph, ExtendedChannelDependencyGraph, escape_by_vc
from repro.routing import (
    EnhancedFullyAdaptive,
    HighestPositiveLast,
    IncoherentExample,
    RingExample,
)
from repro.verify import dally_seitz, search_escape, verify
from tests.nx_reference import nx_view


# ----------------------------------------------------------------------
# naive reference builders (straight from Definitions 8/9, no kernel)
# ----------------------------------------------------------------------
def channel_sets(dt, masks):
    """``state -> frozenset[Channel]`` from a per-state cid-mask map."""
    channel = dt.algorithm.network.channel
    return {channel(a): frozenset(channel(b) for b in bits(m)) for a, m in masks.items()}


def naive_downstream_wait(succ, wait):
    """Union of waiting sets over all states reachable from each state."""
    out = {}
    for c in succ:
        seen, stack = {c}, [c]
        while stack:
            for o in succ[stack.pop()]:
                if o not in seen:
                    seen.add(o)
                    stack.append(o)
        out[c] = frozenset().union(*(wait[s] for s in seen))
    return out


def naive_edge_dests(algorithm, *, waiting: bool):
    """``(c1, c2) -> {dests}`` built with per-state BFS and Python sets."""
    edges = {}
    for dt in TransitionCache(algorithm).all_destinations():
        succ = channel_sets(dt, dt.succ_masks)
        tmap = naive_downstream_wait(succ, channel_sets(dt, dt.wait_masks)) if waiting else succ
        for c1 in succ:
            if not c1.is_link:
                continue
            for c2 in tmap[c1]:
                edges.setdefault((c1, c2), set()).add(dt.dest)
    return edges


def edge_dests(graph):
    """``(c1, c2) -> {dests}`` read off a built graph's kernel."""
    channel = graph.algorithm.network.channel
    return {(channel(u), channel(v)): set(bits(m)) for u, v, m in graph.dep.iter_edges()}


def naive_ecdg_edges(algorithm, escape):
    """ECDG edge set via the definition: direct + indirect dependencies."""
    edges = set()
    for dt in TransitionCache(algorithm).all_destinations():
        succ = channel_sets(dt, dt.succ_masks)
        for ci in succ:
            if not ci.is_link or ci not in escape:
                continue
            for cj in succ[ci]:
                if cj in escape:
                    edges.add((ci, cj))
            seen = set()
            stack = [c for c in succ[ci] if c not in escape]
            while stack:
                q = stack.pop()
                if q in seen:
                    continue
                seen.add(q)
                for cj in succ.get(q, ()):
                    if cj in escape:
                        edges.add((ci, cj))
                    elif cj not in seen:
                        stack.append(cj)
    return edges


CASES = [
    ("ring-figure4", lambda net: RingExample(net), "figure4"),
    ("efa-figure6", lambda net: EnhancedFullyAdaptive(net), "cube3_2vc"),
]


class TestWitnessSetsBitForBit:
    @pytest.mark.parametrize("name,factory,fixture", CASES, ids=[c[0] for c in CASES])
    def test_cwg_witnesses(self, name, factory, fixture, request):
        ra = factory(request.getfixturevalue(fixture))
        cwg = ChannelWaitingGraph(ra)
        assert edge_dests(cwg) == naive_edge_dests(ra, waiting=True)
        # the same sets through the kernel's per-edge witness lookup
        for (a, b), dests in edge_dests(cwg).items():
            assert set(bits(cwg.dep.mask_of(a.cid, b.cid))) == dests

    @pytest.mark.parametrize("name,factory,fixture", CASES, ids=[c[0] for c in CASES])
    def test_cdg_witnesses(self, name, factory, fixture, request):
        ra = factory(request.getfixturevalue(fixture))
        cdg = ChannelDependencyGraph(ra)
        assert edge_dests(cdg) == naive_edge_dests(ra, waiting=False)

    def test_ecdg_edges(self, cube3_2vc):
        ra = EnhancedFullyAdaptive(cube3_2vc)
        escape = escape_by_vc(ra, (0,))
        ecdg = ExtendedChannelDependencyGraph(ra, escape)
        assert set(ecdg.edge_types) == naive_ecdg_edges(ra, escape)


class TestCycleEnumeration:
    def test_matches_networkx_on_cyclic_cwg(self, figure1):
        cwg = ChannelWaitingGraph(IncoherentExample(figure1))
        ours = {tuple(c.cid for c in cy.channels) for cy in find_cycles(cwg.dep)}
        theirs = set()
        for nodes in nx.simple_cycles(nx_view(cwg.dep)):
            k = min(range(len(nodes)), key=lambda i: nodes[i].cid)
            theirs.add(tuple(c.cid for c in nodes[k:] + nodes[:k]))
        assert ours == theirs

    def test_nx_and_kernel_inputs_identical(self, figure1, mesh44):
        for ra in (IncoherentExample(figure1), HighestPositiveLast(mesh44)):
            cwg = ChannelWaitingGraph(ra)
            g = nx_view(cwg.dep)
            assert find_cycles(cwg.dep) == nx_sorted_cycles(g)
            witness = find_one_cycle(cwg.dep)
            if witness is None:
                assert nx.is_directed_acyclic_graph(g)
            else:
                assert all(g.has_edge(*e) for e in witness.edges)


def nx_sorted_cycles(g):
    """``nx.simple_cycles`` in :func:`find_cycles` order."""
    cycles = [Cycle.from_nodes(nodes) for nodes in nx.simple_cycles(g)]
    cycles.sort(key=lambda cy: (len(cy), tuple(c.cid for c in cy.channels)))
    return cycles


class TestConsumersUnchanged:
    def test_reduction_identical_on_both_inputs(self, figure1):
        cwg = ChannelWaitingGraph(IncoherentExample(figure1))
        kernel_result = CWGReducer(cwg).run()
        reference_cycles = nx_sorted_cycles(nx_view(cwg.dep))
        assert reference_cycles == find_cycles(cwg.dep)
        # the reducer consumes the sorted cycle list, so equal inputs pin
        # the whole backtracking trajectory
        assert kernel_result.success is False or kernel_result.removed is not None

    @pytest.mark.parametrize(
        "fixture,factory,theorem_free,duato_free",
        [
            ("figure4", RingExample, True, False),
            ("cube3_2vc", EnhancedFullyAdaptive, True, False),
            ("mesh44", HighestPositiveLast, True, False),
        ],
        ids=["ring-figure4", "efa", "hpl"],
    )
    def test_verdicts_match_seed(self, fixture, factory, theorem_free, duato_free, request):
        """The catalog verdicts pinned before the kernel refactor."""
        ra = factory(request.getfixturevalue(fixture))
        assert verify(ra).deadlock_free is theorem_free
        assert search_escape(ra).deadlock_free is duato_free

    def test_dally_seitz_on_kernel(self, mesh44):
        v = dally_seitz(HighestPositiveLast(mesh44))
        assert v.deadlock_free is False  # cyclic CDG, acyclic CWG: the paper's gap
