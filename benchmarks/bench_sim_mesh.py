"""SIM-MESH: latency vs offered load on an 8x8 mesh (Section 10's call for
"simulations with a variety of message traffic patterns").

All algorithms use one virtual channel per link: e-cube, west-first,
negative-first, and the paper's Highest Positive Last in its minimal
restriction ("hpl-min") and full nonminimal form ("hpl-full").

Shape expectations (DESIGN.md): under the adversarial transpose permutation
at moderate-to-high load, HPL's extra adaptivity beats both e-cube and
negative-first -- the Section 9.2 claim carried into measured latency and
throughput.  The nonminimal variant doubles as an ablation: misrouting
spends bandwidth, so past saturation it loses to its own minimal
restriction (the classic nonminimal-routing trade-off).

Absolute numbers are properties of *this* simulator (Section 3's abstract
model), not the authors' 1994 hardware; the comparison shape is the claim.
"""

import pytest

from repro.routing import (
    DimensionOrderMesh,
    HighestPositiveLast,
    NegativeFirst,
    WestFirst,
)
from repro.sim import BernoulliTraffic, SimConfig, WormholeSimulator
from repro.topology import build_mesh

MESH = (8, 8)
CYCLES = 2500
WARMUP = 400
LENGTH = 8

ALGOS = {
    "e-cube": lambda net: DimensionOrderMesh(net),
    "west-first": lambda net: WestFirst(net),
    "negative-first": lambda net: NegativeFirst(net),
    "hpl-min": lambda net: HighestPositiveLast(net, misroute=False),
    "hpl-full": lambda net: HighestPositiveLast(net),
}


def run_point(net, factory, pattern: str, rate: float, seed: int = 3):
    ra = factory(net)
    sim = WormholeSimulator(
        ra,
        BernoulliTraffic(net, rate=rate, pattern=pattern, length=LENGTH, stop_at=CYCLES),
        SimConfig(seed=seed, buffer_depth=4, deadlock_check_interval=128),
    )
    sim.run(CYCLES)
    assert sim.deadlock is None, f"{ra.name} must not deadlock"
    s = sim.stats.summary(cycles=CYCLES, num_nodes=net.num_nodes, warmup=WARMUP)
    return s.avg_latency, s.throughput_flits_per_node_cycle


@pytest.mark.slow
@pytest.mark.parametrize("pattern", ["uniform", "transpose"])
def test_sim_mesh_latency_vs_load(benchmark, once, table, pattern):
    net = build_mesh(MESH)
    rates = [0.05, 0.15, 0.25, 0.35]

    def sweep():
        return {
            name: [run_point(net, f, pattern, r) for r in rates]
            for name, f in ALGOS.items()
        }

    grid = once(benchmark, sweep)
    rows = [
        (f"{r:.2f}",) + tuple(f"{grid[n][i][0]:8.1f}" for n in ALGOS)
        for i, r in enumerate(rates)
    ]
    table(f"SIM-MESH latency vs load, 8x8 mesh, {pattern} traffic "
          f"(avg latency, {LENGTH}-flit messages)",
          ["load"] + list(ALGOS), rows)
    trows = [
        (f"{r:.2f}",) + tuple(f"{grid[n][i][1]:.4f}" for n in ALGOS)
        for i, r in enumerate(rates)
    ]
    table(f"SIM-MESH accepted throughput (flits/node/cycle), {pattern}",
          ["load"] + list(ALGOS), trows)

    # latency grows with load for every algorithm
    for name in ALGOS:
        assert grid[name][0][0] < grid[name][-1][0]
    if pattern == "transpose":
        # the Section 9.2 claim: minimal HPL beats e-cube and negative-first
        # past the onset of congestion, in latency and throughput
        for i in (2, 3):
            assert grid["hpl-min"][i][0] < grid["e-cube"][i][0]
            assert grid["hpl-min"][i][0] < grid["negative-first"][i][0]
            assert grid["hpl-min"][i][1] >= grid["e-cube"][i][1]
        # ablation: misrouting costs bandwidth past saturation
        assert grid["hpl-full"][3][1] <= grid["hpl-min"][3][1]


@pytest.mark.sim_smoke
def test_sim_smoke_quick(benchmark, once, table):
    """The ``--quick`` tier: two algorithms at one moderate load point.

    Checks latency and throughput only.  The simulator's speed is guarded
    by exact work counts (``tests/test_work_counters.py``), which do not
    depend on the host.
    """
    net = build_mesh(MESH)
    smoke_cycles = 800
    quick = {"e-cube": ALGOS["e-cube"], "hpl-min": ALGOS["hpl-min"]}

    def sweep():
        out = {}
        for name, factory in quick.items():
            ra = factory(net)
            sim = WormholeSimulator(
                ra,
                BernoulliTraffic(net, rate=0.15, pattern="uniform",
                                 length=LENGTH, stop_at=smoke_cycles),
                SimConfig(seed=3, buffer_depth=4, deadlock_check_interval=128),
            )
            sim.run(smoke_cycles)
            assert sim.deadlock is None
            s = sim.stats.summary(cycles=smoke_cycles, num_nodes=net.num_nodes,
                                  warmup=200)
            out[name] = (s.avg_latency, s.throughput_flits_per_node_cycle)
        return out

    points = once(benchmark, sweep)
    table("SIM-MESH smoke (8x8 mesh, uniform 0.15)",
          ["algorithm", "avg latency", "throughput"],
          [(n, f"{lat:8.1f}", f"{thpt:.4f}") for n, (lat, thpt) in points.items()])
    for name, (lat, thpt) in points.items():
        assert 5 < lat < 100, f"{name}: implausible smoke latency {lat}"
        assert thpt > 0.10, f"{name}: smoke throughput collapsed ({thpt})"
