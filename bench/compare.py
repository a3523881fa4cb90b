"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 bench/compare.py A.json B.json

A holds the parent's runs and B the change's, each a file that
``bench/run.py --json`` appended records to.  The i-th untraced run of a
workload in A is paired with the i-th in B, so alternate the two sides
when collecting them.  For each workload and end-to-end metric the verdict
is one of:

* ``incomparable`` -- the workload keys (inputs), ``--quick``, run lengths
  (``--seconds``), Python versions or processor counts differ, so no
  number is compared;
* ``improved`` -- at least 10 pairs, B better in at least 9 of every 10
  (ties count for neither), and the medians differ by more than A's
  interquartile range;
* ``unresolved`` -- A's or B's spread (interquartile range over median)
  exceeds the metric's bound, and not every B run beats every A run;
* ``worse`` -- B's median is worse than A's by more than the bound, or B
  fails operations A did not;
* ``unchanged`` -- otherwise.

The exit code is 1 when any verdict is ``worse`` or ``incomparable``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
#: stamp fields that must match for two runs to be compared: the inputs, the
#: run length (every time is a median over the passes that fit in it) and the host
COMPARABLE = ("key", "quick", "seconds", "python", "nproc")


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = quantiles(values, n=4)
    return q[2] - q[0]


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - a) > 0 means B is worse
    med_a, med_b = median(a), median(b)
    worse_by = sign * (med_b - med_a) / med_a
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and worse_by < 0 \
            and abs(med_b - med_a) > _iqr(a):
        return "improved"
    spread = max(_iqr(a) / med_a, _iqr(b) / med_b)
    if spread > bound and not all(sign * (y - x) < 0 for x in a for y in b):
        return "unresolved"
    return "worse" if worse_by > bound else "unchanged"


def _runs(records: list[dict[str, Any]], workload: str) -> list[dict[str, Any]]:
    return [r for r in records if r["stamp"]["workload"] == workload and r["stamp"]["trace"] == 0]


def compare(a_records: list[dict[str, Any]], b_records: list[dict[str, Any]],
            metrics: list[dict[str, Any]]) -> tuple[list[str], bool]:
    lines = []
    bad = False
    names = sorted({r["stamp"]["workload"] for r in a_records + b_records})
    for workload in names:
        a, b = _runs(a_records, workload), _runs(b_records, workload)
        if not a or not b:
            lines.append(f"{workload}: no untraced runs in {'A' if not a else 'B'}")
            continue
        stamps = {tuple(r["stamp"][k] for k in COMPARABLE) for r in a + b}
        if len(stamps) > 1:
            lines.append(f"{workload}: incomparable -- ({', '.join(COMPARABLE)}) differ: "
                         f"{sorted(stamps)}")
            bad = True
            continue
        fail_a = sum(r["failed"] for r in a)
        fail_b = sum(r["failed"] for r in b)
        lines.append(f"{workload}: {len(a)} runs in A, {len(b)} in B, "
                     f"{min(len(a), len(b))} pairs; failed operations A={fail_a} B={fail_b}")
        for m in metrics:
            va = [r["end_to_end"][m["name"]] for r in a]
            vb = [r["end_to_end"][m["name"]] for r in b]
            status = "worse" if fail_b > fail_a else verdict(va, vb, m["better"], m["bound"])
            bad |= status == "worse"
            change = (median(vb) / median(va) - 1) * 100
            lines.append(
                f"  {m['name']:14} {median(va):12.6g} -> {median(vb):12.6g} {m['unit']:4} "
                f"{change:+7.2f}%  (bound {m['bound'] * 100:.0f}%, IQR A {_iqr(va):.3g} "
                f"B {_iqr(vb):.3g})  {status}")
    return lines, bad


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_records, b_records = (json.loads(Path(p).read_text()) for p in argv)
    lines, bad = compare(a_records, b_records, spec["end_to_end"])
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
