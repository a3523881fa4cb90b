"""SIM-3D: the scenario registry's 3D instances under load.

Sweeps the two deadlock-free 3D scenarios -- the dense 3x3x3 mesh and the
collinear pillar wall -- resolved purely through ``repro.scenario`` (no
builder imports here: the registry IS the experiment description).  Each
point runs under both plain ``first-free`` VC selection and the registry's
credit-based adaptive selection with escape-VC fallback, so the sweep
doubles as the selection-policy ablation.

Shape expectations: the pillar wall funnels every inter-plane message
through three columns, so it saturates earlier and carries higher latency
than the dense mesh at the same offered load; and since the verified
relation is identical either way (selection never changes reachability,
Definition 3), both policies must stay deadlock-free at every point.
"""

import pytest

from repro import scenario
from repro.routing.selection import make_selection
from repro.sim import BernoulliTraffic, SimConfig, WormholeSimulator

CYCLES = 2000
WARMUP = 300
LENGTH = 5

#: the registry scenarios this bench sweeps (both certified deadlock-free
#: by the exact theorem AND by Duato's escape-subfunction condition)
SCENARIOS = ("adaptive-mesh3d", "pillar-wall-3d")
SELECTIONS = ("first-free", "credit")


def run_point(name: str, selection: str, rate: float,
              cycles: int = CYCLES, seed: int = 3):
    entry = scenario.get(name)
    ra = entry.instantiate()
    net = ra.network
    sim = WormholeSimulator(
        ra,
        BernoulliTraffic(net, rate=rate, length=LENGTH, stop_at=cycles),
        SimConfig(seed=seed, buffer_depth=4, deadlock_check_interval=128,
                  selection=make_selection(selection)),
    )
    sim.run(cycles)
    assert sim.deadlock is None, f"{name}/{selection} must not deadlock"
    s = sim.stats.summary(cycles=cycles, num_nodes=net.num_nodes, warmup=WARMUP)
    return s.avg_latency, s.throughput_flits_per_node_cycle


@pytest.mark.slow
def test_sim_3d_latency_vs_load(benchmark, once, table):
    rates = [0.05, 0.15, 0.25]

    def sweep():
        return {
            (name, sel): [run_point(name, sel, r) for r in rates]
            for name in SCENARIOS for sel in SELECTIONS
        }

    grid = once(benchmark, sweep)
    cols = [(n, s) for n in SCENARIOS for s in SELECTIONS]
    table("SIM-3D latency vs load (3x3x3, uniform traffic, "
          f"{LENGTH}-flit messages)",
          ["load"] + [f"{n}/{s}" for n, s in cols],
          [(f"{r:.2f}",) + tuple(f"{grid[c][i][0]:8.1f}" for c in cols)
           for i, r in enumerate(rates)])
    table("SIM-3D accepted throughput (flits/node/cycle)",
          ["load"] + [f"{n}/{s}" for n, s in cols],
          [(f"{r:.2f}",) + tuple(f"{grid[c][i][1]:.4f}" for c in cols)
           for i, r in enumerate(rates)])

    for col in cols:
        # latency grows with load for every scenario/selection pair
        assert grid[col][0][0] < grid[col][-1][0]
    for sel in SELECTIONS:
        # the pillar funnel costs latency vs the dense mesh at high load
        assert (grid[("pillar-wall-3d", sel)][-1][0]
                > grid[("adaptive-mesh3d", sel)][-1][0])


@pytest.mark.sim_smoke
def test_sim_3d_smoke_quick(benchmark, once, table):
    """CI tier: both 3D scenarios at one load point under their registered
    selection policy (``credit``); latency and throughput checks only."""
    smoke_cycles = 800

    def sweep():
        return {name: run_point(name, scenario.get(name).selection, 0.15,
                                cycles=smoke_cycles)
                for name in SCENARIOS}

    points = once(benchmark, sweep)
    table("SIM-3D smoke (3x3x3, uniform 0.15, credit selection)",
          ["scenario", "avg latency", "throughput"],
          [(n, f"{lat:8.1f}", f"{thpt:.4f}") for n, (lat, thpt) in points.items()])
    for name, (lat, thpt) in points.items():
        assert 3 < lat < 100, f"{name}: implausible smoke latency {lat}"
        assert thpt > 0.05, f"{name}: smoke throughput collapsed ({thpt})"
