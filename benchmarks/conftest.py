"""Shared helpers for the benchmark/reproduction harness.

Every bench regenerates one of the paper's figures/tables: it computes the
artifact inside a pytest-benchmark timer (one round -- these are
reproductions, not micro-benchmarks) and *prints* the reproduced rows so
``pytest benchmarks/ --benchmark-only -s`` doubles as the experiment log.
EXPERIMENTS.md records the printed outputs against the paper's claims.

Speed is measured by ``bench/`` (see ``bench/README.md``) and guarded by the
exact work counts in ``tests/test_work_counters.py``; a bench here writes
no file.
"""

from __future__ import annotations

import pytest


def run_once(benchmark, fn):
    """Time ``fn`` exactly once (reproductions are not micro-benchmarks)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def once():
    return run_once


def print_table(title: str, headers: list[str], rows: list[tuple]) -> None:
    print(f"\n=== {title} ===")
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) for i, h in enumerate(headers)]
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


@pytest.fixture
def table():
    return print_table
