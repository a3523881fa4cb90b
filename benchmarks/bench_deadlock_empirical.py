"""DEADLOCK: the theory's verdicts hold empirically in the simulator.

For each (algorithm, verdict) pair the simulator runs adversarial traffic
over several seeds:

* algorithms *proved* deadlock-free (Theorem 2/3) never trip the runtime
  deadlock detector;
* algorithms *proved* deadlock-prone (True Cycle witnesses) deadlock within
  a few thousand cycles at saturating load with long messages -- including
  the Figure-4 no-flip strawman and unrestricted minimal routing.

This is the end-to-end soundness check connecting the graph theory to the
flit-level system model.
"""

from repro.routing import (
    DimensionOrderMesh,
    HighestPositiveLast,
    RingExample,
    UnrestrictedMinimal,
)
from repro.sim import BernoulliTraffic, SimConfig, WormholeSimulator
from repro.topology import build_figure4_ring, build_mesh
from repro.verify import verify

SEEDS = range(4)
CYCLES = 8000


def deadlock_rate(ra, net, *, rate, length):
    hits = 0
    first = None
    for seed in SEEDS:
        sim = WormholeSimulator(
            ra,
            BernoulliTraffic(net, rate=rate, length=length),
            SimConfig(seed=seed, buffer_depth=2, deadlock_check_interval=32),
        )
        sim.run(CYCLES)
        if sim.deadlock is not None:
            hits += 1
            if first is None:
                first = sim.deadlock
    return hits, first


def test_deadlock_theory_vs_simulation(benchmark, once, table):
    mesh = build_mesh((4, 4))
    ring = build_figure4_ring()
    cases = [
        ("e-cube (safe)", DimensionOrderMesh(mesh), mesh, 0.6, 24),
        ("HPL (safe)", HighestPositiveLast(mesh), mesh, 0.6, 24),
        ("ring fig-4 (safe)", RingExample(ring), ring, 0.6, 24),
        ("unrestricted (unsafe)", UnrestrictedMinimal(mesh), mesh, 0.6, 24),
        ("ring no-flip (unsafe)", RingExample(ring, flip_class=False), ring, 0.6, 24),
    ]

    def sweep():
        rows = []
        for label, ra, net, rate, length in cases:
            verdict = verify(ra)
            hits, first = deadlock_rate(ra, net, rate=rate, length=length)
            rows.append((label, verdict.deadlock_free, f"{hits}/{len(SEEDS)}",
                         first.cycle if first else "-"))
        return rows

    rows = once(benchmark, sweep)
    table("Theory vs simulation: deadlock occurrence at saturating load",
          ["algorithm", "proved deadlock-free", "deadlocked runs", "first at cycle"], rows)

    for label, proved_free, hits, _ in rows:
        h = int(hits.split("/")[0])
        if proved_free:
            assert h == 0, f"{label}: safe algorithm deadlocked"
        else:
            assert h > 0, f"{label}: unsafe algorithm never deadlocked"


def test_deadlock_report_is_definition12(benchmark, once):
    """The detector's report is a genuine Definition-12 configuration."""
    mesh = build_mesh((4, 4))
    ra = UnrestrictedMinimal(mesh)

    def find():
        for seed in range(8):
            sim = WormholeSimulator(
                ra, BernoulliTraffic(mesh, rate=0.6, length=24),
                SimConfig(seed=seed, buffer_depth=2, deadlock_check_interval=32),
            )
            sim.run(CYCLES)
            if sim.deadlock is not None:
                return sim
        raise AssertionError("no deadlock found in 8 seeds")

    sim = once(benchmark, find)
    rep = sim.deadlock
    print(rep.describe())
    ids = set(rep.message_ids)
    for mid in rep.message_ids:
        m = sim.messages[mid]
        assert m.held, "every member occupies at least one channel"
        assert m.waiting_for, "every member is blocked on waiting channels"
        for w in m.waiting_for:
            assert sim.owner[sim.network.channels[w]] in ids, \
                "waiting channels held within the set"
