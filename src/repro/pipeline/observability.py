"""Lightweight observability for the batch pipeline.

Per-stage wall-clock timers and named counters, accumulated into plain
dictionaries so they serialize into reports unchanged and merge across
workers.  Nothing here samples or threads: stages are timed with a context
manager around the code that runs them, and counters are bumped explicitly
where the quantity is known (cache hits, cycles enumerated, reduction
backtracks, search nodes explored).
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager


class StageMetrics:
    """Accumulated per-stage timers (seconds) and counters."""

    def __init__(self) -> None:
        self.timers: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.observations: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------------
    @contextmanager
    def timer(self, stage: str) -> Iterator[None]:
        """Time a ``with`` block under ``stage`` (accumulating on re-entry)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timers[stage] = self.timers.get(stage, 0.0) + (time.perf_counter() - t0)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        """Record one sample of a distribution (latencies, frontier sizes).

        Kept as running ``count/total/min/max`` aggregates -- enough for the
        service's latency reporting without storing per-sample history.
        """
        obs = self.observations.get(name)
        if obs is None:
            self.observations[name] = {
                "count": 1.0, "total": value, "min": value, "max": value,
            }
            return
        obs["count"] += 1.0
        obs["total"] += value
        if value < obs["min"]:
            obs["min"] = value
        if value > obs["max"]:
            obs["max"] = value

    # ------------------------------------------------------------------
    def merge(self, other: "StageMetrics | dict") -> None:
        """Fold another metrics object (or its snapshot) into this one."""
        snap = other.snapshot() if isinstance(other, StageMetrics) else other
        for k, v in snap.get("timers", {}).items():
            self.timers[k] = self.timers.get(k, 0.0) + v
        for k, v in snap.get("counters", {}).items():
            self.counters[k] = self.counters.get(k, 0) + v
        for k, o in snap.get("observations", {}).items():
            mine = self.observations.get(k)
            if mine is None:
                self.observations[k] = {
                    "count": o["count"], "total": o["total"],
                    "min": o["min"], "max": o["max"],
                }
                continue
            mine["count"] += o["count"]
            mine["total"] += o["total"]
            mine["min"] = min(mine["min"], o["min"])
            mine["max"] = max(mine["max"], o["max"])

    def snapshot(self) -> dict:
        """Plain-dict view suitable for JSON reports."""
        return {
            "timers": {k: round(v, 6) for k, v in sorted(self.timers.items())},
            "counters": dict(sorted(self.counters.items())),
            "observations": {
                k: {
                    "count": o["count"],
                    "total": o["total"],
                    "min": o["min"],
                    "max": o["max"],
                    "mean": o["total"] / o["count"] if o["count"] else 0.0,
                }
                for k, o in sorted(self.observations.items())
            },
        }

    def describe(self) -> str:
        """Multi-line text rendering for the CLI report footer."""
        lines = []
        if self.timers:
            lines.append("stage timers:")
            lines.extend(
                f"  {k:<24} {v:8.3f}s" for k, v in sorted(self.timers.items())
            )
        if self.counters:
            lines.append("counters:")
            lines.extend(f"  {k:<24} {v:8d}" for k, v in sorted(self.counters.items()))
        if self.observations:
            lines.append("observations:")
            for k, o in sorted(self.observations.items()):
                mean = o["total"] / o["count"] if o["count"] else 0.0
                lines.append(
                    f"  {k:<24} n={int(o['count'])} mean={mean:.6f} "
                    f"min={o['min']:.6f} max={o['max']:.6f}"
                )
        return "\n".join(lines)
