"""Batch verification engine: many (topology, routing algorithm) pairs at once.

The ROADMAP's production goal is verifying *catalogs* of routing algorithms,
not one algorithm per process invocation.  This module turns a list of
:class:`JobSpec` descriptions into a :class:`BatchReport`:

* each job builds its network and algorithm, fingerprints the pair
  (:mod:`repro.pipeline.fingerprint`), and decides the requested
  conditions -- the paper's Theorem 2/3, Duato's ECDG condition, and
  Dally--Seitz -- through the one condition dispatcher
  (:func:`repro.verify.dispatch.decide`) and the content-addressed cache
  (:mod:`repro.pipeline.cache`);
* jobs run either in-process (deterministic serial fallback, also the mode
  tests compare against) or concurrently on a ``concurrent.futures``
  process pool -- cycle enumeration and the True-Cycle search are CPU-bound
  pure Python, so processes, not threads;
* per-stage timers and counters (cache hits, cycles enumerated, search
  nodes, reduction backtracks) are accumulated per job and merged into the
  report (:mod:`repro.pipeline.observability`).

Job specs are plain picklable data (catalog names + topology parameters,
never live objects), so the same spec list drives both execution modes and
the on-disk cache directory is the only state workers share.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..analyze.rules import AnalysisContext
from ..core.transitions import TransitionCache
from ..routing.catalog import CATALOG, make
from ..routing.relation import RoutingAlgorithm
from ..scenario import TopologySpec
from ..topology.network import Network
from ..verify.dispatch import CONDITIONS as CONDITIONS  # re-exported
from ..verify.dispatch import DEFAULT_CONDITIONS, decide
from .cache import VerificationCache, slim_evidence
from .observability import StageMetrics

#: verification-sized default dims per resizable family -- the instances the
#: pinned verdict matrices have always used (callers may override)
_DEFAULT_DIMS: dict[str, tuple[int, ...]] = {
    "mesh": (4, 4),
    "torus": (4, 4),
    "hypercube": (3,),
    "mesh3d": (3, 3, 3),
    "sparse-pillar": (3, 3, 3),
}


def build_topology(
    topology: str | TopologySpec,
    dims: tuple[int, ...] | None = None,
    vcs: int | None = None,
) -> Network:
    """Instantiate a topology from a family name or spec string.

    Thin shim over the scenario registry (shared with the CLI): ``topology``
    may be a bare family name (``"mesh"``), a full
    :class:`~repro.scenario.TopologySpec` string (``"mesh:4x4:v2"``), or an
    already-parsed spec.  Explicit ``dims``/``vcs`` override the spec;
    missing dims fall back to the family's verification-sized default.
    """
    spec = TopologySpec.parse(topology) if isinstance(topology, str) else topology
    spec = spec.with_dims(dims).with_vcs(vcs)
    if spec.dims is None and spec.family in _DEFAULT_DIMS:
        spec = spec.with_dims(_DEFAULT_DIMS[spec.family])
    return spec.build()


@dataclass(frozen=True)
class JobSpec:
    """One (algorithm, topology) verification job -- plain picklable data.

    ``topology`` is a full :class:`~repro.scenario.TopologySpec`; the stable
    string codec (``"mesh:3x3"``, ``"hypercube:3:v2"``) is accepted and
    parsed, so hand-written specs stay one-liners.
    """

    algorithm: str
    topology: TopologySpec
    conditions: tuple[str, ...] = DEFAULT_CONDITIONS
    #: run the repro.analyze triage screens before the theorem checker and
    #: skip it when a screen decides (False forces the full check)
    triage: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.topology, str):
            object.__setattr__(self, "topology", TopologySpec.parse(self.topology))

    @property
    def dims(self) -> tuple[int, ...] | None:
        return self.topology.dims

    @property
    def vcs(self) -> int | None:
        return self.topology.vcs

    def build(self) -> RoutingAlgorithm:
        net = build_topology(self.topology)
        return make(self.algorithm, net)

    def describe(self) -> str:
        return f"{self.algorithm} on {self.topology.describe()}"


def catalog_specs(
    names: list[str] | None = None,
    *,
    mesh_dims: tuple[int, ...] = (4, 4),
    torus_dims: tuple[int, ...] = (4, 4),
    hypercube_dim: int = 3,
    conditions: tuple[str, ...] = DEFAULT_CONDITIONS,
    triage: bool = True,
) -> list[JobSpec]:
    """Job specs for (a subset of) the scenario registry on default topologies.

    Each spec's topology comes from the registered scenario's canonical
    :class:`~repro.scenario.TopologySpec`, resized per family by the
    ``*_dims`` arguments; families without an override (figure1/figure4 and
    the 3D scenarios) keep their canonical instances.
    """
    family_dims: dict[str, tuple[int, ...] | int] = {
        "mesh": mesh_dims,
        "torus": torus_dims,
        "hypercube": hypercube_dim,
    }
    specs = []
    for name in sorted(names if names is not None else CATALOG):
        entry = CATALOG[name]
        specs.append(JobSpec(
            algorithm=name,
            topology=entry.topology_for(family_dims),
            conditions=conditions,
            triage=triage,
        ))
    return specs


def catalog_spec(name: str, **kwargs) -> JobSpec:
    """The single-job convenience variant of :func:`catalog_specs`."""
    return catalog_specs([name], **kwargs)[0]


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class ConditionResult:
    """One condition's outcome on one job."""

    key: str                   # "theorem" | "duato" | "dally-seitz"
    condition: str             # verdict label, e.g. "Theorem 2"
    deadlock_free: bool
    necessary_and_sufficient: bool
    reason: str
    seconds: float
    cached: bool
    evidence: dict[str, Any] = field(default_factory=dict)


@dataclass
class JobResult:
    """Outcome of one job: per-condition verdicts or an error."""

    spec: JobSpec
    network: str = ""
    fingerprint: str = ""
    results: list[ConditionResult] = field(default_factory=list)
    error: str | None = None
    seconds: float = 0.0
    metrics: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None

    def result_for(self, key: str) -> ConditionResult | None:
        for r in self.results:
            if r.key == key:
                return r
        return None


@dataclass
class BatchReport:
    """A whole batch run: ordered job results plus aggregate observability."""

    jobs: list[JobResult]
    seconds: float
    workers: int
    cache: dict[str, int] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)

    @property
    def errors(self) -> list[JobResult]:
        return [j for j in self.jobs if not j.ok]

    def verdicts(self, key: str = "theorem") -> dict[str, bool]:
        """algorithm name -> deadlock_free under ``key`` (completed jobs only)."""
        out: dict[str, bool] = {}
        for j in self.jobs:
            r = j.result_for(key)
            if j.ok and r is not None:
                out[j.spec.algorithm] = r.deadlock_free
        return out


# ----------------------------------------------------------------------
# single-job execution
# ----------------------------------------------------------------------
def run_job(spec: JobSpec, cache: VerificationCache | None = None) -> JobResult:
    """Run one job in-process; exceptions become an error result, not a crash."""
    metrics = StageMetrics()
    t0 = time.perf_counter()
    hits0 = cache.hits if cache is not None else 0
    miss0 = cache.misses if cache is not None else 0
    out = JobResult(spec=spec)
    try:
        with metrics.timer("build"):
            ra = spec.build()
        out.network = ra.network.name
        transitions = TransitionCache(ra)
        with metrics.timer("fingerprint"):
            fp = ra.fingerprint(transitions=transitions)
        out.fingerprint = fp
        graphs = AnalysisContext(ra, transitions=transitions)
        for key in spec.conditions:
            tc = time.perf_counter()
            with metrics.timer(f"verify:{key}"):
                verdict, was_cached = decide(
                    key, graphs, triage=spec.triage, cache=cache,
                    fingerprint=fp, metrics=metrics,
                )
            out.results.append(ConditionResult(
                key=key,
                condition=verdict.condition,
                deadlock_free=verdict.deadlock_free,
                necessary_and_sufficient=verdict.necessary_and_sufficient,
                reason=verdict.reason,
                seconds=time.perf_counter() - tc,
                cached=was_cached,
                evidence=slim_evidence(verdict.evidence),
            ))
    except Exception as exc:  # graceful degradation: report, don't propagate
        out.error = f"{type(exc).__name__}: {exc}"
    if cache is not None:
        metrics.count("cache_hits", cache.hits - hits0)
        metrics.count("cache_misses", cache.misses - miss0)
    out.seconds = time.perf_counter() - t0
    out.metrics = metrics.snapshot()
    return out


def _pool_run_job(spec: JobSpec, cache_dir: str | None) -> JobResult:
    """Process-pool entry point: workers share the on-disk cache layer only."""
    cache = VerificationCache(cache_dir) if cache_dir else None
    return run_job(spec, cache)


# ----------------------------------------------------------------------
# the batch verifier
# ----------------------------------------------------------------------
class BatchVerifier:
    """Runs job specs serially or on a process pool, through one cache.

    Parameters
    ----------
    workers:
        ``None``, 0, or 1 selects the deterministic in-process mode; ``n > 1``
        a ``ProcessPoolExecutor`` with ``n`` workers.  Pool failures (a dead
        worker, an unpicklable result, a sandbox that forbids forking)
        degrade to in-process execution of the affected jobs -- a batch
        always produces one result per spec, in spec order.
    cache / cache_dir:
        A :class:`VerificationCache` to reuse, or a directory for a shared
        on-disk cache (the only option that benefits pool workers, which
        cannot see this process's memory).  Neither given = no caching.
    """

    def __init__(
        self,
        *,
        workers: int | None = None,
        cache: VerificationCache | None = None,
        cache_dir: str | Path | None = None,
    ) -> None:
        self.workers = int(workers or 0)
        if cache is None and cache_dir is not None:
            cache = VerificationCache(cache_dir)
        self.cache = cache

    # ------------------------------------------------------------------
    def run(self, specs: list[JobSpec]) -> BatchReport:
        t0 = time.perf_counter()
        if self.workers > 1:
            results = self._run_pool(specs)
        else:
            results = [run_job(s, self.cache) for s in specs]
        merged = StageMetrics()
        for r in results:
            merged.merge(r.metrics)
        return BatchReport(
            jobs=results,
            seconds=time.perf_counter() - t0,
            workers=max(self.workers, 1),
            cache=self.cache.stats() if self.cache is not None else {},
            metrics=merged.snapshot(),
        )

    def _run_pool(self, specs: list[JobSpec]) -> list[JobResult]:
        cache_dir = (
            str(self.cache.directory)
            if self.cache is not None and self.cache.directory is not None
            else None
        )
        try:
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                futures = [pool.submit(_pool_run_job, s, cache_dir) for s in specs]
                results = []
                for spec, fut in zip(specs, futures):
                    try:
                        results.append(fut.result())
                    except Exception:  # worker death/transport failure: retry here
                        results.append(run_job(spec, self.cache))
                return results
        except OSError:
            # pool could not start at all: deterministic serial fallback
            return [run_job(s, self.cache) for s in specs]


def verify_catalog(
    names: list[str] | None = None,
    *,
    workers: int | None = None,
    cache: VerificationCache | None = None,
    cache_dir: str | Path | None = None,
    conditions: tuple[str, ...] = DEFAULT_CONDITIONS,
    **spec_kwargs,
) -> BatchReport:
    """One-call catalog sweep: ``verify_catalog()`` == CLI ``verify-batch``."""
    specs = catalog_specs(names, conditions=conditions, **spec_kwargs)
    return BatchVerifier(workers=workers, cache=cache, cache_dir=cache_dir).run(specs)
