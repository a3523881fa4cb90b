"""Cold rebuild vs incremental re-verification across the catalog.

The service scenario: one long-lived session per algorithm absorbing a
stream of reconfiguration events -- a link flapping twice (down, up, down,
up) and a routing-table edit applied and reverted twice -- with a shared
content-addressed verdict store, exactly how ``python -m repro serve``
deploys the engine.  For every event we time the incremental ``reverify``
*and* an honest cold ``full_check`` of the same mutated relation (fresh
overlay, fresh transition cache, no verdict store), assert the two digests
are bit-identical, and report the per-algorithm and aggregate speedups.

The speedups are printed, not asserted: wall time depends on the host.
The acceptance bar is a count of work instead: for every event, the
session rebuilds fewer destination transition graphs
(``dirty_destinations``) than the cold check builds.
"""

from __future__ import annotations

import time

from repro.core.transitions import DestinationTransitions
from repro.incremental import (
    IncrementalSession,
    default_fault_pair,
    default_table_edit,
)
from repro.pipeline import VerificationCache, catalog_spec
from repro.routing import CATALOG

#: flap cycles per scenario -- repeats revisit known fingerprints, which is
#: what the verdict store is for (faults in real fabrics flap, they don't
#: strike exactly once)
CYCLES = 3

#: service-scale topologies (bigger than the smoke dims: the engine's whole
#: point is that cold-rebuild cost grows much faster than delta cost)
DIMS = {"mesh_dims": (5, 5), "torus_dims": (6, 6), "hypercube_dim": 4}


def _episode(name: str, cache: VerificationCache, builds: list[int]) -> dict | None:
    """One algorithm's event stream; returns timings or None if the
    catalog entry admits neither scenario.  ``builds[0]`` counts every
    :class:`DestinationTransitions` built."""
    session = IncrementalSession(spec=catalog_spec(name, **DIMS), cache=cache,
                                 triage=True)
    session.baseline()  # session warm-up is amortized state, not per-event cost

    events = []
    try:
        down, up = default_fault_pair(session)
        events += [down, up] * CYCLES
    except ValueError:
        pass
    try:
        edit, revert = default_table_edit(session)
        events += [edit, revert] * CYCLES
    except ValueError:
        pass
    if not events:
        return None

    inc = cold = 0.0
    for delta in events:
        t0 = time.perf_counter()
        result = session.reverify(delta)
        inc += time.perf_counter() - t0
        before = builds[0]
        full = session.full_check()
        cold += full.seconds
        assert result.digest == full.digest, f"{name}: diverged after {delta!r}"
        dirty = result.stats["dirty_destinations"]
        assert dirty < builds[0] - before, (
            f"{name}: {delta!r} rebuilt {dirty} destinations, the cold check "
            f"{builds[0] - before}"
        )
    return {
        "events": len(events),
        "cold_seconds": round(cold, 3),
        "incremental_seconds": round(inc, 3),
        "speedup": round(cold / inc, 1) if inc > 0 else None,
    }


def test_incremental_flap_sweep(benchmark, once, table, monkeypatch):
    cache = VerificationCache(max_entries=1024)
    rows: dict[str, dict] = {}
    builds = [0]
    init = DestinationTransitions.__init__

    def counted(self, *args, **kwargs):
        builds[0] += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(DestinationTransitions, "__init__", counted)

    def sweep():
        for name in sorted(CATALOG):
            episode = _episode(name, cache, builds)
            if episode is not None:
                rows[name] = episode

    once(benchmark, sweep)

    cold = sum(r["cold_seconds"] for r in rows.values())
    inc = sum(r["incremental_seconds"] for r in rows.values())
    aggregate = cold / inc
    table(
        "incremental re-verification vs cold rebuild (flap episodes)",
        ["algorithm", "events", "cold s", "incremental s", "speedup"],
        [
            (n, r["events"], r["cold_seconds"], r["incremental_seconds"],
             f"x{r['speedup']}")
            for n, r in sorted(rows.items())
        ]
        + [("TOTAL", sum(r["events"] for r in rows.values()),
            round(cold, 3), round(inc, 3), f"x{aggregate:.1f}")],
    )
    print(f"verdict store: {cache.stats()}")
