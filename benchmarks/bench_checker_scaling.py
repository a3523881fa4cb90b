"""SCALE: cost and structure of the checkers as networks grow.

Two ablations from DESIGN.md:

* **CWG vs CDG as verification object** -- for HPL the CWG stays acyclic at
  every size while the CDG is cyclic, and the CWG's *waited-target* set is a
  small fraction of the CDG's target set: the paper's point that most
  dependencies cannot deadlock;
* **checker runtime scaling** -- building the CWG and verifying Theorem 2
  across mesh/hypercube sizes (the worst case is exponential; these
  instances are the polynomial fast path because the CWGs are acyclic);
* **batch pipeline modes** -- the full-catalog sweep serial-vs-parallel and
  cold-vs-warm-cache: the content-addressed verdict cache must make warm
  re-runs at least 2x faster than a cold serial sweep.
"""

import time

import pytest

from repro.core import ChannelWaitingGraph, find_one_cycle
from repro.deps import ChannelDependencyGraph
from repro.pipeline import BatchVerifier, VerificationCache, catalog_specs
from repro.routing import EnhancedFullyAdaptive, HighestPositiveLast
from repro.topology import build_hypercube, build_mesh
from repro.verify import verify


def test_scaling_hpl_meshes(benchmark, once, table):
    sizes = [(3, 3), (4, 4), (6, 6), (8, 8), (4, 4, 4)]

    def sweep():
        rows = []
        for dims in sizes:
            net = build_mesh(dims)
            ra = HighestPositiveLast(net)
            t0 = time.perf_counter()
            cwg = ChannelWaitingGraph(ra)
            cdg = ChannelDependencyGraph(ra)
            verdict = verify(ra, cwg=cwg)
            dt = time.perf_counter() - t0
            cwg_targets = len({b for (_, b) in cwg.edges})
            cdg_targets = len({b for (_, b) in cdg.edges})
            rows.append((
                dims, len(net.link_channels), len(cwg), len(cdg),
                cwg_targets, cdg_targets,
                find_one_cycle(cwg.dep) is None,
                not cdg.is_acyclic(),
                verdict.deadlock_free,
                f"{dt:.2f}s",
            ))
        return rows

    rows = once(benchmark, sweep)
    table("Checker scaling: HPL on growing meshes",
          ["mesh", "channels", "CWG edges", "CDG edges",
           "waited targets", "CDG targets", "CWG acyclic", "CDG cyclic",
           "deadlock-free", "time"], rows)
    for r in rows:
        assert r[6] and r[7] and r[8]
        assert r[4] < r[5]  # waiting targets are the smaller set


def test_scaling_efa_hypercubes(benchmark, once, table):
    def sweep():
        rows = []
        for n in (2, 3, 4, 5):
            net = build_hypercube(n, num_vcs=2)
            ra = EnhancedFullyAdaptive(net)
            t0 = time.perf_counter()
            v = verify(ra)
            dt = time.perf_counter() - t0
            rows.append((n, len(net.link_channels), v.evidence.get("cwg_edges"),
                         v.deadlock_free, f"{dt:.2f}s"))
        return rows

    rows = once(benchmark, sweep)
    table("Checker scaling: EFA on growing hypercubes",
          ["dim", "channels", "CWG edges", "deadlock-free", "time"], rows)
    assert all(r[3] for r in rows)


#: algorithm -> (Theorem-1/2/3 verdict, Duato verdict) on the smoke
#: topologies, pinned before the depgraph-kernel refactor -- the checkers
#: may get faster, never different.
EXPECTED_SMOKE_VERDICTS = {
    "adaptive-mesh3d": (True, True),
    "dally-seitz-torus": (True, False),
    "draper-ghosh-meca": (True, True),
    "duato-hypercube": (True, True),
    "duato-mesh": (True, True),
    "duato-torus": (True, False),
    "e-cube": (True, True),
    "e-cube-mesh": (True, True),
    "enhanced-fully-adaptive": (True, False),
    "highest-positive-last": (True, False),
    "incoherent-example": (True, False),
    "li-hypercube": (True, False),
    "negative-first": (True, True),
    "north-last": (True, True),
    "pillar-diag-3d": (False, False),
    "pillar-wall-3d": (True, True),
    "relaxed-efa": (False, False),
    "ring-figure4": (True, False),
    "unrestricted-minimal": (False, False),
    "west-first": (True, True),
    "yang-tsai": (True, True),
}


@pytest.mark.checker_smoke
def test_checker_smoke_quick(benchmark, once, table):
    """The CI checker tier: Theorem + Duato verdicts on the whole catalog.

    Small topologies (3x3 mesh / 4x4 torus / 3-cube, plus the canonical
    3x3x3 instances of the 3D scenarios) keep it to a couple of seconds;
    the full 21-algorithm verdict matrix is asserted against the pinned
    values (the original 18 recorded before the depgraph-kernel refactor,
    the 3D rows when they were registered).  The work this job set does is
    pinned exactly in ``tests/test_work_counters.py``.
    """
    specs = catalog_specs(mesh_dims=(3, 3), torus_dims=(4, 4), hypercube_dim=3,
                          conditions=("theorem", "duato"))

    report = once(benchmark, lambda: BatchVerifier().run(specs))
    assert not report.errors, report.errors
    theorem = report.verdicts("theorem")
    duato = report.verdicts("duato")
    got = {name: (theorem[name], duato[name]) for name in theorem}
    table("Checker smoke: catalog verdicts (theorem, duato)",
          ["algorithm", "theorem", "duato"],
          [(n, t, d) for n, (t, d) in sorted(got.items())])
    assert got == EXPECTED_SMOKE_VERDICTS


def test_scaling_batch_pipeline(benchmark, once, table, tmp_path):
    """Catalog sweep through the batch engine: serial/parallel, cold/warm.

    The largest standard configuration (whole catalog, all three conditions,
    4x4 mesh / 4x4 torus / 3-cube).  Parallel numbers are *reported* only --
    on a single-core runner a process pool cannot win -- but the warm-cache
    speedup is asserted: verdict memoization must pay for the fingerprinting.
    """
    specs = catalog_specs(mesh_dims=(4, 4), torus_dims=(4, 4), hypercube_dim=3)

    def sweep():
        rows = []
        mem = VerificationCache()
        cold = BatchVerifier(cache=mem).run(specs)
        rows.append(("serial cold", cold.seconds, 1.0, len(cold.errors)))
        warm = BatchVerifier(cache=mem).run(specs)
        rows.append(("serial warm", warm.seconds, cold.seconds / warm.seconds,
                     len(warm.errors)))
        disk = str(tmp_path / "cache")
        pcold = BatchVerifier(workers=2, cache_dir=disk).run(specs)
        rows.append(("parallel x2 cold", pcold.seconds,
                     cold.seconds / pcold.seconds, len(pcold.errors)))
        pwarm = BatchVerifier(workers=2, cache_dir=disk).run(specs)
        rows.append(("parallel x2 warm", pwarm.seconds,
                     cold.seconds / pwarm.seconds, len(pwarm.errors)))
        assert cold.verdicts() == warm.verdicts() == pcold.verdicts() == pwarm.verdicts()
        return rows

    rows = once(benchmark, sweep)
    table("Batch pipeline: full catalog, 3 conditions",
          [("mode"), "seconds", "speedup vs cold serial", "errors"],
          [(m, f"{s:.2f}", f"{x:.1f}x", e) for m, s, x, e in rows])
    assert all(r[3] == 0 for r in rows)
    warm_speedup = rows[1][2]
    assert warm_speedup >= 2.0, f"warm cache only {warm_speedup:.1f}x over cold serial"
