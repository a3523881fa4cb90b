"""The parallel sweep runner: grids, determinism across worker counts, CLI."""

import json

import pytest

from repro.__main__ import main
from repro.sim import (
    SimPoint,
    SweepRunner,
    clear_build_cache,
    grid_points,
    run_point,
    sweep_table,
    sweep_to_json,
)

POINTS = [
    SimPoint(algorithm="e-cube-mesh", topology="mesh:4x4",
             pattern="uniform", rate=0.15, seed=3, cycles=600),
    SimPoint(algorithm="highest-positive-last", topology="mesh:4x4",
             pattern="transpose", rate=0.2, seed=7, cycles=600),
    SimPoint(algorithm="enhanced-fully-adaptive", topology="hypercube:3:v2",
             pattern="bit-reverse", rate=0.3, seed=5, cycles=600),
]


def test_grid_points_crosses_all_axes():
    pts = grid_points(
        ["e-cube-mesh", "enhanced-fully-adaptive"],
        patterns=("uniform", "transpose"),
        rates=(0.1, 0.2),
        seeds=(1, 2, 3),
        mesh_dims=(4, 4),
        hypercube_dim=3,
    )
    assert len(pts) == 2 * 2 * 2 * 3
    # topology/dims/vcs come from the scenario registry entry
    by_algo = {p.algorithm: p for p in pts}
    assert by_algo["e-cube-mesh"].topology.family == "mesh"
    assert by_algo["e-cube-mesh"].topology.dims == (4, 4)
    assert by_algo["enhanced-fully-adaptive"].topology.family == "hypercube"
    assert by_algo["enhanced-fully-adaptive"].topology.vcs == 2
    # plain data: picklable by construction, hashable for dedup
    assert len(set(pts)) == len(pts)


def test_run_point_reports_stats_and_counters():
    clear_build_cache()  # cold start: the route table must report misses
    r = run_point(POINTS[0])
    assert r.ok and r.digest and r.seconds > 0 and r.cycles_per_sec > 0
    assert r.messages_delivered > 0
    assert r.metrics["counters"]["cycles"] == 600
    assert r.metrics["counters"]["route_table_misses"] > 0
    assert set(r.metrics["timers"]) == {"build", "run", "summarize"}


def test_shared_route_table_is_behaviorally_invisible():
    clear_build_cache()
    cold = run_point(POINTS[0])
    warm = run_point(POINTS[0])  # same axes: reuses the memoized route table
    assert warm.digest == cold.digest
    assert warm.metrics["counters"]["route_table_misses"] == 0
    assert warm.metrics["counters"]["route_table_hits"] > 0


def test_run_point_error_is_result_not_crash():
    bad = SimPoint(algorithm="e-cube-mesh", topology="mesh:4x4",
                   pattern="no-such-pattern", rate=0.1, seed=1, cycles=100)
    r = run_point(bad)
    assert not r.ok and "no-such-pattern" in r.error


def test_serial_and_parallel_sweeps_are_bit_identical():
    serial = SweepRunner(workers=0).run(POINTS)
    parallel = SweepRunner(workers=2).run(POINTS)
    assert [r.point for r in serial.points] == POINTS  # order preserved
    assert serial.digests() == parallel.digests()
    assert all(r.ok for r in parallel.points)
    assert parallel.workers == 2 and serial.workers == 1


def test_sweep_report_renders_table_and_json():
    report = SweepRunner().run(POINTS[:1])
    text = sweep_table(report)
    assert "e-cube-mesh" in text and "cyc/s" in text and "stage timers" in text
    data = json.loads(sweep_to_json(report))
    assert data["points"][0]["digest"] == report.points[0].digest
    assert data["points"][0]["metrics"]["counters"]["cycles"] == 600
    assert data["metrics"]["counters"]["alloc_wakeups"] > 0


def test_cli_sim_sweep_smoke(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    rc = main([
        "sim-sweep", "--algorithms", "e-cube-mesh", "--patterns", "uniform",
        "--rates", "0.1", "--seeds", "3", "--cycles", "300",
        "--mesh-dims", "4,4", "--format", "json", "--output", str(out),
    ])
    assert rc == 0
    assert "wrote json report for 1 points" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["points"][0]["algorithm"] == "e-cube-mesh"
    assert data["points"][0]["error"] is None


def test_cli_sim_sweep_rejects_unknown_algorithm():
    with pytest.raises(SystemExit):
        main(["sim-sweep", "--algorithms", "definitely-not-real"])


@pytest.mark.parametrize("flag, value, match", [
    ("--seeds", "1,-1", "bad --seeds: seed must be >= 0, got -1"),
    ("--cycles", "-5", "bad --cycles: must be at least 1, got -5"),
    ("--length", "0", "bad --length: message length must be at least 1 flit, got 0"),
])
def test_cli_sim_sweep_rejects_inputs_that_crash_or_print_nan(flag, value, match, capsys):
    with pytest.raises(SystemExit, match=f"^{match}$"):
        main(["sim-sweep", "--algorithms", "e-cube-mesh", "--rates", "0.1",
              "--jobs", "0", flag, value])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("rates", ["0.1,-0.2", "0.1,12"])
def test_cli_sim_sweep_rejects_impossible_rates(rates, capsys):
    with pytest.raises(SystemExit, match="bad --rates: injection rate"):
        main(["sim-sweep", "--algorithms", "e-cube-mesh", "--rates", rates,
              "--length", "8"])
    assert capsys.readouterr().out == ""
