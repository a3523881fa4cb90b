"""The checker's NumPy kernels must be byte-identical to the pure-Python reference.

The batched edge collection (CWG/CDG kernels) and the mask-vs-frozenset
adapter views must agree exactly under both backends.  The simulator has a
single engine path; the golden-digest matrix in ``test_sim_determinism.py``
pins its output.
"""

from __future__ import annotations

import pytest

from repro import _kernel
from repro.core.cwg import ChannelWaitingGraph
from repro.core.depgraph import bits
from repro.deps.cdg import ChannelDependencyGraph
from repro.routing import CATALOG, make
from repro.topology import build_hypercube, build_mesh

BACKENDS = ("pure", "numpy")


def _force(monkeypatch, backend: str) -> None:
    if backend == "numpy" and not _kernel.HAVE_NUMPY:
        pytest.skip("numpy not installed")
    monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
    monkeypatch.setenv("REPRO_BACKEND", backend)


# ----------------------------------------------------------------------
# checker: batched edge collection and adapter views
# ----------------------------------------------------------------------
_CHECKER_ALGOS = ("duato-mesh", "highest-positive-last", "enhanced-fully-adaptive")


def _build_graphs(algorithm: str):
    entry = CATALOG[algorithm]
    if entry.family == "mesh":
        net = build_mesh((4, 4), num_vcs=entry.min_vcs)
    else:
        net = build_hypercube(3, num_vcs=entry.min_vcs)
    ra = make(algorithm, net)
    cwg = ChannelWaitingGraph(ra)
    cdg = ChannelDependencyGraph(ra, transitions=cwg.transitions)
    return cwg, cdg


@pytest.mark.skipif(not _kernel.HAVE_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize("algorithm", _CHECKER_ALGOS)
def test_edge_collection_agrees_across_backends(algorithm, monkeypatch):
    monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
    monkeypatch.setenv("REPRO_BACKEND", "pure")
    cwg_p, cdg_p = _build_graphs(algorithm)
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    cwg_n, cdg_n = _build_graphs(algorithm)
    assert list(cwg_p.dep.iter_edges()) == list(cwg_n.dep.iter_edges())
    assert list(cdg_p.dep.iter_edges()) == list(cdg_n.dep.iter_edges())
    assert cwg_p.dep.fingerprint() == cwg_n.dep.fingerprint()


@pytest.mark.parametrize("backend", BACKENDS)
def test_mask_views_match_frozenset_adapters(backend, monkeypatch):
    _force(monkeypatch, backend)
    cwg, _ = _build_graphs("duato-mesh")
    tc = cwg.transitions
    net = tc.algorithm.network
    for dest in (0, 5, 12):
        dt = tc[dest]
        dw_masks = dt.downstream_wait_masks
        up_masks = dt.upstream_masks
        for cid in dt.usable_cids:
            assert {c.cid for c in dt.downstream_wait[net.channel(cid)]} \
                == set(bits(dw_masks[cid]))
            assert {c.cid for c in dt.upstream[net.channel(cid)]} \
                == set(bits(up_masks[cid]))
