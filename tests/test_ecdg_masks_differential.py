"""Differential test: Duato's ECDG and R1 check vs straight-line references.

:class:`~repro.deps.ecdg.ExtendedChannelDependencyGraph` builds its
dependencies and decides ``R1`` connectivity on the per-destination cid
masks of the transition graphs.  Here both are recomputed from the
definitions, with Channel sets and ``algorithm.route`` alone, for every
registry scenario at the benchmark's ``--quick`` sizes:

* the ECDG's ``(u, v, type mask)`` triples must equal a per-escape-channel
  DFS over a state graph walked with ``route`` (direct, indirect and their
  cross variants, bit ``i`` = the ``i``-th :class:`DependencyType`);
* ``subfunction_connected`` must return the verdict and message of a
  per-source DFS through escape states.

The candidates are every escape set :func:`~repro.verify.search_escape`
tries plus one per-destination callable (a different VC class per
destination), so cross dependencies and disconnected ``R1``s both occur.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.deps import DependencyType, ExtendedChannelDependencyGraph, escape_by_vc
from repro.pipeline.engine import catalog_specs
from repro.topology.channel import Channel

#: the benchmark's --quick sizes
QUICK = {"mesh_dims": (3, 3), "torus_dims": (4, 4), "hypercube_dim": 3}
SPECS = catalog_specs(**QUICK)
TYPE_BIT = {t: 1 << i for i, t in enumerate(DependencyType)}


def route_graph(algorithm, dest: int) -> dict[Channel, frozenset[Channel]]:
    """State -> permitted outputs for ``dest``, walked with ``route`` from
    every injection channel (states at ``dest`` have none)."""
    net = algorithm.network
    succ: dict[Channel, frozenset[Channel]] = {}
    stack = [net.injection_channel(n) for n in net.nodes if n != dest]
    while stack:
        c = stack.pop()
        if c in succ:
            continue
        succ[c] = frozenset() if c.dst == dest else algorithm.route(c, c.dst, dest)
        stack.extend(o for o in succ[c] if o not in succ)
    return succ


def reference_triples(algorithm, escape_for) -> list[tuple[int, int, int]]:
    """ECDG edges by the definition: per escape channel, its R1 successors
    and the R1 channels behind a run of non-escape states."""
    net = algorithm.network
    union = frozenset().union(*(escape_for(d) for d in net.nodes))
    masks: dict[tuple[int, int], int] = {}
    for dest in net.nodes:
        succ = route_graph(algorithm, dest)
        c1 = escape_for(dest)
        for ci in succ:
            if not ci.is_link or ci not in union:
                continue
            own = ci in c1
            direct = TYPE_BIT[DependencyType.DIRECT if own else DependencyType.DIRECT_CROSS]
            indirect = TYPE_BIT[DependencyType.INDIRECT if own else DependencyType.INDIRECT_CROSS]
            for cj in succ[ci]:
                if cj in c1:
                    k = (ci.cid, cj.cid)
                    masks[k] = masks.get(k, 0) | direct
            seen: set[Channel] = set()
            stack = [c for c in succ[ci] if c not in c1]
            while stack:
                q = stack.pop()
                if q in seen:
                    continue
                seen.add(q)
                for cj in succ[q]:
                    if cj in c1:
                        k = (ci.cid, cj.cid)
                        masks[k] = masks.get(k, 0) | indirect
                    elif cj not in seen:
                        stack.append(cj)
    return sorted((u, v, m) for (u, v), m in masks.items())


def reference_r1(algorithm, escape_for) -> tuple[bool, str]:
    """``R1`` connectivity by one DFS per source through escape states."""
    net = algorithm.network
    for dest in net.nodes:
        succ = route_graph(algorithm, dest)
        c1 = escape_for(dest)
        missing = []
        for src in net.nodes:
            if src == dest:
                continue
            inj = net.injection_channel(src)
            stack, seen, found = [inj], {inj}, False
            while stack and not found:
                for nxt in succ[stack.pop()]:
                    if nxt not in c1:
                        continue
                    if nxt.dst == dest:
                        found = True
                        break
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            if not found:
                missing.append(src)
        if missing:
            return False, f"R1 does not connect source(s) {missing[:4]} to destination {dest}"
    return True, ""


def candidates(algorithm):
    """``search_escape``'s escape sets, then one per-destination callable."""
    net = algorithm.network
    vcs = sorted({c.vc for c in net.link_channels})
    out = []
    for r in (1, 2):
        for combo in combinations(vcs, r):
            out.append((f"vc {combo}", escape_by_vc(algorithm, combo)))
    out.append(("all channels", frozenset(net.link_channels)))
    by_class = {vc: escape_by_vc(algorithm, (vc,)) for vc in vcs}
    out.append(("per destination",
                lambda dest: by_class[vcs[dest % len(vcs)]]))
    return out


def _as_fn(escape):
    return escape if callable(escape) else (lambda dest: escape)


@pytest.mark.parametrize("spec", SPECS, ids=[s.algorithm for s in SPECS])
def test_ecdg_and_r1_match_references(spec):
    algorithm = spec.build()
    for label, escape in candidates(algorithm):
        ecdg = ExtendedChannelDependencyGraph(algorithm, escape)
        fn = _as_fn(escape)
        assert sorted(ecdg.dep.iter_edges()) == reference_triples(algorithm, fn), label
        assert ecdg.subfunction_connected() == reference_r1(algorithm, fn), label


def test_candidates_cover_cross_dependencies_and_disconnected_r1():
    """The candidate set exercises what the mask code must get right: cross
    dependencies (per-destination escape sets) and ``R1`` failures."""
    kinds: set[DependencyType] = set()
    disconnected = 0
    for spec in SPECS:
        algorithm = spec.build()
        for _, escape in candidates(algorithm):
            ecdg = ExtendedChannelDependencyGraph(algorithm, escape)
            kinds |= set().union(*ecdg.edge_types.values())
            disconnected += not ecdg.subfunction_connected()[0]
    assert kinds == set(DependencyType)
    assert disconnected > 0


def test_disconnected_r1_reports_the_first_missing_sources(mesh33_2vc):
    """An empty escape layer strands every source of destination 0; the
    message names the first four."""
    from repro.routing import DuatoFullyAdaptiveMesh

    ra = DuatoFullyAdaptiveMesh(mesh33_2vc)
    ecdg = ExtendedChannelDependencyGraph(ra, frozenset())
    assert ecdg.subfunction_connected() == (
        False, "R1 does not connect source(s) [1, 2, 3, 4] to destination 0")
    assert reference_r1(ra, lambda dest: frozenset()) == ecdg.subfunction_connected()
