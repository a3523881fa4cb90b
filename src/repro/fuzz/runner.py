"""The fuzz campaign runner: budgeted case streams, parallel oracle runs,
shrinking, and corpus maintenance.

A campaign is deterministic given its configuration: the case stream is a
pure function of the master seed, each case's oracle verdicts are a pure
function of its spec, and the pool only changes *where* cases run, never
what they compute -- parallel and serial campaigns over the same budget of
cases find identical discrepancies.  (A wall-clock budget naturally covers
a machine-dependent number of cases; for reproducible runs use
``max_cases``.)

Execution mirrors :class:`repro.pipeline.engine.BatchVerifier`: specs are
plain picklable data, chunks go to a ``ProcessPoolExecutor`` when
``workers > 1``, a failed future is retried in-process, and a pool that
cannot start at all degrades to serial execution.  Shrinking and corpus
writes always happen in the parent process, serially, in case order.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..pipeline.observability import StageMetrics
from .corpus import CorpusEntry, ReplayResult, load_corpus, replay_entry, save_entry
from .generators import DEFAULT_FAMILIES, CaseSpec, build_case, case_stream
from .oracles import OracleStack, run_stack
from .shrink import discrepancy_predicate, shrink
from .table import TableCase


@dataclass(frozen=True)
class FuzzConfig:
    """One campaign's parameters (all of them; nothing is ambient)."""

    seed: int = 0
    #: stop after this many cases (None = unbounded, budget by time instead)
    max_cases: int | None = 200
    #: stop once this much wall-clock time has elapsed (None = cases only)
    max_seconds: float | None = None
    families: tuple[str, ...] = DEFAULT_FAMILIES
    #: "real" or "planted:<variant>"
    stack: str = "real"
    #: worker processes; 0/1 = deterministic in-process execution
    workers: int = 0
    #: where shrunk reproducers land (None = don't write a corpus)
    corpus_dir: str | None = None
    shrink_budget: int = 600
    #: cases per pool task (amortizes process round-trips)
    chunk: int = 8


@dataclass
class CaseOutcome:
    """One case's oracle outcome -- the picklable unit pool workers return."""

    spec: CaseSpec
    network: str = ""
    algorithm: str = ""
    seconds: float = 0.0
    discrepancy_keys: list[str] = field(default_factory=list)
    checker_errors: list[str] = field(default_factory=list)
    error: str | None = None

    @property
    def clean(self) -> bool:
        return self.error is None and not self.discrepancy_keys


@dataclass
class FoundDiscrepancy:
    """A discrepancy after shrinking, ready for triage."""

    spec: CaseSpec
    keys: list[str]
    shrunk: TableCase
    shrink_evaluations: int
    shrink_minimal: bool
    corpus_path: str | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_json(),
            "keys": self.keys,
            "shrunk": self.shrunk.to_json(),
            "shrink_evaluations": self.shrink_evaluations,
            "shrink_minimal": self.shrink_minimal,
            "corpus_path": self.corpus_path,
        }


@dataclass
class FuzzReport:
    """A whole campaign: outcomes, shrunk discrepancies, observability."""

    config: FuzzConfig
    cases: list[CaseOutcome]
    discrepancies: list[FoundDiscrepancy]
    seconds: float
    metrics: dict[str, Any] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.discrepancies and not self.case_errors

    @property
    def case_errors(self) -> list[CaseOutcome]:
        return [c for c in self.cases if c.error is not None]


def _resolve_stack(name: str) -> OracleStack:
    from .corpus import resolve_stack

    return resolve_stack(name)


def run_case(spec: CaseSpec, stack: OracleStack) -> CaseOutcome:
    """Run one case in-process; generator crashes become error outcomes."""
    t0 = time.perf_counter()
    out = CaseOutcome(spec=spec)
    try:
        algorithm = build_case(spec)
        out.network = algorithm.network.name
        out.algorithm = algorithm.name
        report = run_stack(algorithm, stack)
        out.discrepancy_keys = sorted(report.discrepancy_keys())
        out.checker_errors = [
            f"{r.checker}: {r.error}" for r in report.results if r.error
        ]
    except Exception as exc:  # noqa: BLE001 -- a broken generator is a finding
        out.error = f"{type(exc).__name__}: {exc}"
    out.seconds = time.perf_counter() - t0
    return out


def _pool_run_chunk(specs: list[CaseSpec], stack_name: str) -> list[CaseOutcome]:
    """Process-pool entry point: rebuild the stack by name, run a chunk."""
    stack = _resolve_stack(stack_name)
    return [run_case(s, stack) for s in specs]


class FuzzRunner:
    """Runs a campaign described by a :class:`FuzzConfig`."""

    def __init__(self, config: FuzzConfig) -> None:
        if config.max_cases is None and config.max_seconds is None:
            raise ValueError("campaign needs a budget: max_cases and/or max_seconds")
        self.config = config
        self.stack = _resolve_stack(config.stack)

    # ------------------------------------------------------------------
    def run(self) -> FuzzReport:
        cfg = self.config
        metrics = StageMetrics()
        t0 = time.perf_counter()
        outcomes: list[CaseOutcome] = []
        pool: ProcessPoolExecutor | None = None
        if cfg.workers > 1:
            try:
                pool = ProcessPoolExecutor(max_workers=cfg.workers)
            except OSError:  # sandboxed / fork-restricted host: degrade to serial
                pool = None
        try:
            with metrics.timer("cases"):
                for chunk in self._chunks(t0):
                    outcomes.extend(self._run_chunk(pool, chunk))
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        for oc in outcomes:
            metrics.count(f"family:{oc.spec.family}", 1)
            if oc.error is not None:
                metrics.count("case_errors", 1)
            if oc.checker_errors:
                metrics.count("checker_errors", len(oc.checker_errors))
        found: list[FoundDiscrepancy] = []
        with metrics.timer("shrink"):
            for oc in outcomes:
                if oc.error is None and oc.discrepancy_keys:
                    metrics.count("discrepancies", 1)
                    found.append(self._shrink_and_save(oc, metrics))
        return FuzzReport(
            config=cfg,
            cases=outcomes,
            discrepancies=found,
            seconds=time.perf_counter() - t0,
            metrics=metrics.snapshot(),
        )

    # ------------------------------------------------------------------
    def _chunks(self, t0: float):
        """Yield spec chunks until the case or time budget runs out."""
        cfg = self.config
        stream = case_stream(cfg.seed, cfg.families)
        produced = 0
        while True:
            if cfg.max_seconds is not None and time.perf_counter() - t0 >= cfg.max_seconds:
                return
            chunk: list[CaseSpec] = []
            while len(chunk) < max(cfg.chunk, 1):
                if cfg.max_cases is not None and produced >= cfg.max_cases:
                    break
                chunk.append(next(stream))
                produced += 1
            if not chunk:
                return
            yield chunk

    def _run_chunk(
        self, pool: ProcessPoolExecutor | None, specs: list[CaseSpec]
    ) -> list[CaseOutcome]:
        if pool is None:
            return [run_case(s, self.stack) for s in specs]
        try:
            return pool.submit(_pool_run_chunk, specs, self.config.stack).result()
        except Exception:  # worker death / transport failure: retry in-process
            return [run_case(s, self.stack) for s in specs]

    def _shrink_and_save(self, oc: CaseOutcome, metrics: StageMetrics) -> FoundDiscrepancy:
        algorithm = build_case(oc.spec)
        case = TableCase.materialize(algorithm)
        keys = list(oc.discrepancy_keys)
        try:
            result = shrink(
                case,
                discrepancy_predicate(keys, self.stack),
                max_evaluations=self.config.shrink_budget,
            )
            shrunk, evals, minimal = result.case, result.evaluations, result.minimal
        except ValueError:
            # The discrepancy did not re-fire on the materialized table
            # (a generator/table mismatch worth keeping visible): ship the
            # unshrunk table so the case is still reproducible.
            metrics.count("shrink_did_not_refire", 1)
            shrunk, evals, minimal = case, 0, False
        metrics.count("shrink_evaluations", evals)
        found = FoundDiscrepancy(
            spec=oc.spec, keys=keys, shrunk=shrunk,
            shrink_evaluations=evals, shrink_minimal=minimal,
        )
        if self.config.corpus_dir is not None:
            entry = CorpusEntry(
                stack=self.config.stack,
                table=shrunk,
                discrepancy_keys=keys,
                spec=oc.spec,
                note=f"found by fuzz campaign seed={self.config.seed}",
            )
            found.corpus_path = str(save_entry(self.config.corpus_dir, entry))
            metrics.count("corpus_entries", 1)
        return found


def run_campaign(config: FuzzConfig) -> FuzzReport:
    """One-call campaign: ``run_campaign(cfg)`` == CLI ``python -m repro fuzz``."""
    return FuzzRunner(config).run()


# ----------------------------------------------------------------------
# corpus replay
# ----------------------------------------------------------------------
@dataclass
class ReplayReport:
    """Outcome of replaying a whole corpus directory."""

    results: list[ReplayResult]
    seconds: float

    @property
    def failures(self) -> list[tuple[ReplayResult, str]]:
        """(result, why) for every entry CI should fail on."""
        out = []
        for r in self.results:
            ok, why = replay_verdict(r)
            if not ok:
                out.append((r, why))
        return out

    @property
    def ok(self) -> bool:
        return not self.failures


def replay_verdict(result: ReplayResult) -> tuple[bool, str]:
    """CI semantics for one replayed entry (polarity-aware).

    * any replay error or nondeterminism fails;
    * ``planted:*`` entries must reproduce -- they prove the oracles still
      catch the injected checker bug;
    * ``real`` entries must NOT reproduce -- one that still fires is a live
      verifier bug (the entry exists to keep the reproducer, not the bug).
    """
    if result.error:
        return False, f"replay error: {result.error}"
    if not result.deterministic:
        return False, "nondeterministic replay: two runs produced different discrepancies"
    planted = result.entry.stack.startswith("planted:")
    if planted and not result.reproduced:
        return False, (
            "planted-bug reproducer no longer fires: the oracle stack lost "
            f"its teeth for {result.entry.stack}"
        )
    if not planted and result.reproduced:
        return False, "reproducer still fires on the real stack: live verifier bug"
    return True, ""


def replay_corpus(corpus_dir: str | Path) -> ReplayReport:
    """Replay every corpus entry under ``corpus_dir``."""
    t0 = time.perf_counter()
    results = [replay_entry(entry, path) for path, entry in load_corpus(corpus_dir)]
    return ReplayReport(results=results, seconds=time.perf_counter() - t0)


# ----------------------------------------------------------------------
# report rendering (CLI)
# ----------------------------------------------------------------------
def fuzz_table(report: FuzzReport) -> str:
    """Human-readable campaign summary."""
    cfg = report.config
    lines = [
        f"fuzz campaign: seed={cfg.seed} stack={cfg.stack} "
        f"cases={len(report.cases)} time={report.seconds:.1f}s "
        f"workers={max(cfg.workers, 1)}",
    ]
    counters = report.metrics.get("counters", {})
    fams = {k.split(":", 1)[1]: v for k, v in counters.items() if k.startswith("family:")}
    if fams:
        lines.append("  cases by family: "
                     + ", ".join(f"{k}={v}" for k, v in sorted(fams.items())))
    errs = report.case_errors
    if errs:
        lines.append(f"  case errors: {len(errs)}")
        for oc in errs[:5]:
            lines.append(f"    {oc.spec.key()}: {oc.error}")
    if not report.discrepancies:
        lines.append("  discrepancies: none")
        return "\n".join(lines)
    lines.append(f"  discrepancies: {len(report.discrepancies)}")
    for d in report.discrepancies:
        size = d.shrunk.size()
        lines.append(
            f"    {d.spec.key()}: {', '.join(d.keys)} -> shrunk to "
            f"{size[0]} channels / {size[1]} nodes / {size[2]} entries "
            f"({d.shrink_evaluations} evals"
            + ("" if d.shrink_minimal else ", budget exhausted")
            + (f") -> {d.corpus_path}" if d.corpus_path else ")")
        )
    return "\n".join(lines)


def replay_table(report: ReplayReport) -> str:
    """Human-readable corpus replay summary."""
    lines = [f"corpus replay: {len(report.results)} entries in {report.seconds:.1f}s"]
    for r in report.results:
        name = r.path.name if r.path else r.entry.filename()
        ok, why = replay_verdict(r)
        status = "ok" if ok else "FAIL"
        detail = why if why else (
            "reproduced" if r.reproduced else "quiet (as expected)"
        )
        lines.append(f"  [{status}] {name}: {detail}")
    return "\n".join(lines)
