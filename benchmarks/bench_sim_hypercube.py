"""SIM-CUBE: latency vs offered load on a hypercube: EFA vs Duato vs e-cube.

The paper's Section 10 notes that the degree-of-adaptiveness advantage of
EFA over Duato's fully adaptive algorithm (Figure 5) should translate into
simulation performance "with a variety of message traffic patterns".  All
three algorithms run on the *same* 2-VC 5-cube (e-cube pinned to VC 0), so
differences are purely routing restrictions.  Bit-reverse is the
adversarial permutation (dimension-order routing serializes it), uniform
the benign baseline.

Also sweeps VC buffer depth (DESIGN.md ablation #4).
"""

import pytest

from repro.routing import (
    DimensionOrderHypercube,
    DuatoFullyAdaptiveHypercube,
    EnhancedFullyAdaptive,
)
from repro.sim import BernoulliTraffic, SimConfig, WormholeSimulator
from repro.topology import build_hypercube

DIM = 5
CYCLES = 2500
WARMUP = 400
LENGTH = 8

ALGOS = {
    "e-cube": DimensionOrderHypercube,
    "duato": DuatoFullyAdaptiveHypercube,
    "enhanced": EnhancedFullyAdaptive,
}


def run_point(net, algo_cls, pattern, rate, *, depth=4, seed=5):
    ra = algo_cls(net)
    sim = WormholeSimulator(
        ra,
        BernoulliTraffic(net, rate=rate, pattern=pattern, length=LENGTH, stop_at=CYCLES),
        SimConfig(seed=seed, buffer_depth=depth, deadlock_check_interval=128),
    )
    sim.run(CYCLES)
    assert sim.deadlock is None, f"{ra.name} must not deadlock"
    s = sim.stats.summary(cycles=CYCLES, num_nodes=net.num_nodes, warmup=WARMUP)
    return s.avg_latency, s.throughput_flits_per_node_cycle


@pytest.mark.slow
@pytest.mark.parametrize("pattern", ["uniform", "bit-reverse"])
def test_sim_hypercube_latency_vs_load(benchmark, once, table, pattern):
    net = build_hypercube(DIM, num_vcs=2)
    rates = [0.1, 0.25, 0.4, 0.55]

    def sweep():
        return {
            name: [run_point(net, cls, pattern, r) for r in rates]
            for name, cls in ALGOS.items()
        }

    grid = once(benchmark, sweep)
    rows = [
        (f"{r:.2f}",) + tuple(f"{grid[n][i][0]:8.1f}" for n in ALGOS)
        for i, r in enumerate(rates)
    ]
    table(f"SIM-CUBE latency vs load, {DIM}-cube, {pattern} traffic",
          ["load"] + list(ALGOS), rows)

    # shape: under the adversarial permutation the adaptive algorithms beat
    # e-cube decisively past saturation, with Enhanced at or below Duato --
    # the Figure-5 ordering carried into measured latency; and latency grows
    # with load for everyone
    if pattern == "bit-reverse":
        assert grid["enhanced"][-1][0] < grid["e-cube"][-1][0] * 0.5
        assert grid["duato"][-1][0] < grid["e-cube"][-1][0] * 0.5
        assert grid["enhanced"][-1][0] <= grid["duato"][-1][0] * 1.05
        assert grid["enhanced"][-1][1] >= grid["e-cube"][-1][1]  # throughput
    for name in ALGOS:
        assert grid[name][0][0] < grid[name][-1][0]


@pytest.mark.slow
def test_sim_buffer_depth_ablation(benchmark, once, table):
    net = build_hypercube(DIM, num_vcs=2)
    depths = [1, 2, 4, 8]

    def sweep():
        return {
            d: run_point(net, EnhancedFullyAdaptive, "uniform", 0.25, depth=d)
            for d in depths
        }

    out = once(benchmark, sweep)
    table("Ablation: VC buffer depth (EFA, 5-cube, uniform load 0.25)",
          ["depth", "avg latency", "throughput"], [
              (d, f"{lat:8.1f}", f"{thpt:.4f}") for d, (lat, thpt) in out.items()
          ])
    # deeper buffers can only help average latency (more slack), strongly so
    # from depth 1 to 4
    assert out[4][0] < out[1][0]
