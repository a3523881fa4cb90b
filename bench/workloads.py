"""The benchmark's five workloads: fixed inputs, timed passes, checked outputs.

A workload is a set of inputs and a *pass* over them.  ``params`` holds
everything that defines the inputs apart from the seed; it is hashed into
the workload key, so results are compared only when their inputs match.
``setup(seed)`` builds the state the passes share and is timed as set-up.
``run_pass`` times each operation -- one job's verdicts, one
re-verification, ten simulated cycles -- and checks every output.  Passes
on one state repeat the same operations (a workload rebuilds or restores
whatever a pass changes), so a run can take each operation's median time.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import median
from typing import Any

from repro import pipeline
from repro.incremental import IncrementalSession, LinkDown, LinkUp, default_table_edit
from repro.pipeline import DEFAULT_CONDITIONS, JobResult, JobSpec, VerificationCache, catalog_specs
from repro.routing import CATALOG, RoutingAlgorithm, make
from repro.scenario import TopologySpec
from repro.sim import BernoulliTraffic, SimConfig, WormholeSimulator
from repro.topology.channel import Channel
from stopwatch import Stopwatch
from tracing import Tracer, traced


@dataclass
class PassResult:
    """One pass: per-operation times and what the checks found."""

    #: seconds of an uncontended host (see ``stopwatch``)
    op_s: list[float]
    #: the host's slowdown during the pass
    slowdown: float
    attempted: int
    #: operations whose output failed a check
    failed: int
    #: digest of the outputs, independent of the order the seed chose
    digest: str
    #: per-layer values the workload measures itself (not from the tracer)
    layer: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _digest(rows: Any) -> str:
    return hashlib.blake2b(json.dumps(rows, sort_keys=True).encode(), digest_size=16).hexdigest()


# ----------------------------------------------------------------------
# checker workloads: registry-verify, deep-verify
# ----------------------------------------------------------------------
def _job_problems(job: JobResult) -> list[str]:
    """Every way a job's verdicts can be wrong against the registry."""
    where = job.spec.describe()
    if job.error is not None:
        return [f"{where}: {job.error}"]
    expected = CATALOG[job.spec.algorithm].deadlock_free
    problems = []
    thm = job.result_for("theorem")
    if thm is None or thm.deadlock_free != expected:
        problems.append(f"{where}: theorem verdict differs from the registry ({expected})")
    elif not thm.necessary_and_sufficient:
        problems.append(f"{where}: theorem verdict is not authoritative: {thm.reason}")
    if not expected:
        for key in ("duato", "dally-seitz"):
            r = job.result_for(key)
            if r is not None and r.deadlock_free:
                problems.append(f"{where}: {key} certifies a relation that deadlocks")
    return problems


class VerifyWorkload:
    """Cold verdicts for a fixed job set, one ``run_job`` per job, no cache."""

    def __init__(self, name: str, specs: list[JobSpec]) -> None:
        self.name = name
        self.specs = specs
        self.params = {"jobs": [
            [s.algorithm, s.topology.describe(), list(s.conditions), s.triage] for s in specs
        ]}

    def setup(self, seed: int) -> list[JobSpec]:
        # The seed orders the jobs; verdicts must not depend on the order.
        # run_job builds every network and relation itself, inside the pass.
        order = list(self.specs)
        random.Random(seed).shuffle(order)
        return order

    def run_pass(self, order: list[JobSpec], tracer: Tracer | None) -> PassResult:
        sw = Stopwatch()
        rows = []
        problems: list[str] = []
        failed = 0
        build_s = fingerprint_s = 0.0
        with traced(tracer):
            for spec in order:
                sw.start()
                job = pipeline.run_job(spec)
                sw.stop()
                found = _job_problems(job)
                failed += bool(found)
                problems += found
                timers = job.metrics.get("timers", {})
                build_s += timers.get("build", 0.0)
                fingerprint_s += timers.get("fingerprint", 0.0)
                rows += [[spec.describe(), r.key, r.deadlock_free, r.necessary_and_sufficient,
                          r.reason] for r in job.results]
                if job.error is not None:
                    rows.append([spec.describe(), "error", job.error])
        return PassResult(
            op_s=sw.host_s(), slowdown=sw.slowdown(), attempted=len(order), failed=failed,
            digest=_digest(sorted(rows)),
            layer={"pipeline.build_s": build_s, "pipeline.fingerprint_s": fingerprint_s},
            problems=problems,
        )


# ----------------------------------------------------------------------
# flap-reverify: the incremental service path
# ----------------------------------------------------------------------
def flapped_links(session: IncrementalSession) -> list[Channel]:
    """The busiest and the least used link channel.

    Links are ranked by how many destinations route over them (lowest cid
    first on ties).  A fixed rule rather than a seeded pick: the cost of one
    flap varies several-fold between links of one relation, so seeded links
    would make the seed, not the program, set the spread between runs.
    """
    use: Counter[Channel] = Counter()
    for dest in session.base.network.nodes:
        use.update(session.tc[dest].usable)
    ranked = sorted(use, key=lambda c: (-use[c], c.cid))
    return list(dict.fromkeys([ranked[0], ranked[-1]]))


#: verdict-store capacity of the service deployment the workload models
CACHE_ENTRIES = 1024
#: the event stream runs this often per pass: repeats hit the verdict store
STREAM_REPEATS = 2
#: one in this many of the first pass's down and edit events is audited
AUDIT_SHARE = 8


@dataclass
class _Event:
    scenario: str
    session: IncrementalSession
    baseline: str
    delta: Any
    kind: str
    #: the delta returns the relation to its baseline
    restores: bool


@dataclass
class FlapState:
    sessions: list[IncrementalSession]
    stream: list[_Event]
    audited: set[int]
    cache: VerificationCache
    passes: int = 0


class FlapWorkload:
    """One session per registry scenario absorbing link flaps and table edits."""

    name = "flap-reverify"

    def __init__(self, names: list[str], dims: dict[str, Any]) -> None:
        self.names = names
        self.dims = dims
        self.params = {"scenarios": names, "dims": dims, "conditions": list(DEFAULT_CONDITIONS),
                       "cache_entries": CACHE_ENTRIES, "triage": True,
                       "links": "busiest+least-used", "edit": "default_table_edit",
                       "stream_repeats": STREAM_REPEATS, "audit_share": AUDIT_SHARE}

    def setup(self, seed: int) -> FlapState:
        rng = random.Random(seed)
        cache = VerificationCache(max_entries=CACHE_ENTRIES)
        sessions = []
        streams = []
        for spec in catalog_specs(self.names, **self.dims):
            session = IncrementalSession(spec=spec, cache=cache, triage=True)
            baseline = session.baseline().digest
            events = []
            for c in flapped_links(session):
                events += [(LinkDown(c.src, c.dst, c.vc), "link", False),
                           (LinkUp(c.src, c.dst, c.vc), "link", True)]
            edit, revert = default_table_edit(session)
            events += [(edit, "edit", False), (revert, "edit", True)]
            sessions.append(session)
            streams.append([_Event(spec.algorithm, session, baseline, *e)
                            for e in events * STREAM_REPEATS])
        # The seed interleaves the scenarios' streams (each keeps its order),
        # as a service sees events from many fabrics.
        slots = [i for i, s in enumerate(streams) for _ in s]
        rng.shuffle(slots)
        its = [iter(s) for s in streams]
        stream = [next(its[i]) for i in slots]
        changing = [i for i, e in enumerate(stream) if not e.restores]
        audited = set(rng.sample(changing, len(changing) // AUDIT_SHARE))
        return FlapState(sessions, stream, audited, cache)

    @staticmethod
    def _reset(state: FlapState) -> None:
        """Return every session to its state right after set-up.

        A pass ends with every relation back at its baseline, but the verdict
        store holds the pass's verdicts and the sessions lack the Duato cells
        that store hits let them skip.  One uncached check per session, into
        a fresh store, restores both.
        """
        state.cache = VerificationCache(max_entries=CACHE_ENTRIES)
        for session in state.sessions:
            session.cache = state.cache
            session.check()

    def run_pass(self, state: FlapState, tracer: Tracer | None) -> PassResult:
        if state.passes:
            self._reset(state)
        # Later passes replay the audited first pass exactly (the runner checks
        # that every pass yields the same digest); a traced pass skips the
        # audits so that their checker calls stay out of the layer numbers.
        audited = state.audited if not state.passes and tracer is None else set()
        state.passes += 1
        cache = state.cache
        hits0, misses0 = cache.hits, cache.misses
        sw = Stopwatch()
        digests: dict[str, list[str]] = {}
        problems: list[str] = []
        failed = cached = dirty = 0
        with traced(tracer):
            for i, ev in enumerate(state.stream):
                sw.start()
                res = ev.session.reverify(ev.delta)
                sw.stop()
                cached += res.cached
                dirty += res.stats.get("dirty_destinations", 0)
                digests.setdefault(ev.scenario, []).append(res.digest)
                bad = []
                if ev.restores and res.digest != ev.baseline:
                    bad.append(f"{ev.scenario}: digest after {ev.delta!r} differs from the "
                               "baseline")
                if i in audited and ev.session.full_check().digest != res.digest:
                    bad.append(f"{ev.scenario}: digest after {ev.delta!r} differs from "
                               "full_check")
                failed += bool(bad)
                problems += bad
        hits, misses = cache.hits - hits0, cache.misses - misses0
        op_s = sw.host_s()
        by_kind: dict[str, list[float]] = {"link": [], "edit": []}
        for ev, t in zip(state.stream, op_s):
            by_kind[ev.kind].append(t)
        return PassResult(
            op_s=op_s, slowdown=sw.slowdown(), attempted=len(op_s), failed=failed,
            digest=_digest(digests),
            layer={
                "pipeline.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
                "incremental.dirty_destinations": dirty,
                "incremental.verdicts_cached": cached,
                "incremental.link_p50_ms": median(by_kind["link"]) * 1e3,
                "incremental.edit_p50_ms": median(by_kind["edit"]) * 1e3,
            },
            problems=problems,
        )


# ----------------------------------------------------------------------
# simulator workloads: sim-light, sim-saturated
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


#: operations a tail value must have beyond it
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float]:
    """The highest order statistic with ``TAIL_BEYOND`` values beyond it.

    Returns the value and its percentile: the median for 21 values (so on
    the checker workloads the tail is the median job), about the 95th
    percentile for 200.  It never drops below the middle value, which matters
    only for the few operations of ``--quick``.
    """
    n = len(values)
    k = max(n - 1 - TAIL_BEYOND, n // 2)
    return sorted(values)[k], 100 * k / max(n - 1, 1)


#: simulated cycles per timed operation: a single cycle (about 0.2 ms at light
#: load) is short enough for timer and interrupt jitter to set its tail
SLICE = 10


class SimWorkload:
    """A freshly built simulator under open-loop uniform Bernoulli traffic."""

    def __init__(self, name: str, *, algorithm: str, topology: str, rate: float, cycles: int,
                 warmup: int, length: int = 8) -> None:
        if cycles % SLICE:
            raise ValueError(f"cycles must be a multiple of {SLICE}")
        self.name = name
        self.algorithm = algorithm
        self.topology = topology
        self.rate = rate
        self.cycles = cycles
        self.warmup = warmup
        self.length = length
        self.params = {"algorithm": algorithm, "topology": topology, "rate": rate,
                       "cycles": cycles, "warmup": warmup, "length": length,
                       "pattern": "uniform", "slice": SLICE}

    def setup(self, seed: int) -> tuple[RoutingAlgorithm, int]:
        net = TopologySpec.parse(self.topology).build()
        return make(self.algorithm, net), seed

    def run_pass(self, state: tuple[RoutingAlgorithm, int], tracer: Tracer | None) -> PassResult:
        ra, seed = state
        net = ra.network
        traffic = BernoulliTraffic(net, rate=self.rate, length=self.length, stop_at=self.cycles)
        sim = WormholeSimulator(ra, traffic, SimConfig(seed=seed))
        sw = Stopwatch()
        with traced(tracer):
            for _ in range(0, self.cycles, SLICE):
                sw.start()
                # the span covers the steps only, not the reference samples
                with tracer.span("sim.engine") if tracer else nullcontext():
                    for _ in range(SLICE):
                        sim.step()
                        if sim.deadlock is not None:
                            break
                sw.stop()
                if sim.deadlock is not None:
                    break
        problems = []
        if sim.deadlock is not None:
            problems.append(f"{self.algorithm} is deadlock-free, yet: {sim.deadlock.describe()}")
        stats = sim.stats
        in_flight = sim.in_flight
        backlog = sum(m.length - m.flits_consumed for m in in_flight)
        if stats.offered_flits - stats.consumed_flits != backlog:
            problems.append(
                f"flit accounting: offered {stats.offered_flits} - consumed "
                f"{stats.consumed_flits} != {backlog} flits still in flight")
        summary = stats.summary(cycles=sim.cycle, num_nodes=net.num_nodes, warmup=self.warmup)
        latencies = [m.latency for m in stats.delivered if m.created >= self.warmup]
        perf = sim.perf_counters()
        return PassResult(
            op_s=sw.host_s(), slowdown=sw.slowdown(), attempted=self.cycles // SLICE,
            failed=self.cycles // SLICE if problems else 0, digest=stats.digest(),
            layer={
                "routing.relation.route_table_misses": perf["route_table_misses"],
                "sim.engine.alloc_wakeups": perf["alloc_wakeups"],
                "sim.engine.flit_hops": perf["flit_hops"],
                "sim.engine.in_flight_end": len(in_flight),
                "sim.accepted_flits_per_node_cycle": summary.throughput_flits_per_node_cycle,
                "sim.latency_p50_cycles": percentile(latencies, 50) if latencies else 0.0,
                "sim.latency_p99_cycles": percentile(latencies, 99) if latencies else 0.0,
            },
            problems=problems,
        )


# ----------------------------------------------------------------------
# the workload table
# ----------------------------------------------------------------------
Workload = VerifyWorkload | FlapWorkload | SimWorkload

#: deep-verify sizes: the largest at which every mesh, torus and hypercube
#: scenario decides in well under a second with triage off
DEEP_DIMS = {"mesh_dims": (8, 8), "torus_dims": (6, 6), "hypercube_dim": 5}
#: unrestricted-minimal's True-Cycle search decides at 5x5 in about 0.4 s
#: but runs out of its node budget at 4x4 (about 15 s) and beyond (> 30 s at 6x6)
DEEP_UNRESTRICTED = (5, 5)

#: every scenario on a network the benchmark sizes: flap-reverify's set and
#: --quick's.  Flapping links on the figure-4 ring and the 3D networks takes
#: seconds per event, so with them one pass of the stream would fill a run.
SIZED_NAMES = sorted(n for n in CATALOG if CATALOG[n].family in ("mesh", "torus", "hypercube"))


def _theorem_only(specs: list[JobSpec]) -> list[JobSpec]:
    return [JobSpec(s.algorithm, s.topology, conditions=("theorem",), triage=False)
            for s in specs]


def build_workloads(quick: bool = False) -> dict[str, Workload]:
    """The five workloads; ``quick`` gives tiny smoke-test sizes, never for claims."""
    if quick:
        small = {"mesh_dims": (3, 3), "torus_dims": (4, 4), "hypercube_dim": 3}
        registry = catalog_specs(SIZED_NAMES, **small)
        deep = _theorem_only(registry)
        flap = FlapWorkload(SIZED_NAMES[:4], small)
        net, light, saturated = "mesh:6x6:v2", (1000, 200), (500, 100)
    else:
        registry = catalog_specs()
        deep = _theorem_only(
            catalog_specs(sorted(set(CATALOG) - {"unrestricted-minimal"}), **DEEP_DIMS)
            + catalog_specs(["unrestricted-minimal"], mesh_dims=DEEP_UNRESTRICTED))
        flap = FlapWorkload(SIZED_NAMES,
                            {"mesh_dims": (4, 4), "torus_dims": (4, 4), "hypercube_dim": 3})
        net, light, saturated = "mesh:16x16:v2", (8000, 1000), (2000, 1000)
    return {
        "registry-verify": VerifyWorkload("registry-verify", registry),
        "deep-verify": VerifyWorkload("deep-verify", deep),
        "flap-reverify": flap,
        "sim-light": SimWorkload("sim-light", algorithm="duato-mesh", topology=net, rate=0.05,
                                 cycles=light[0], warmup=light[1]),
        "sim-saturated": SimWorkload("sim-saturated", algorithm="duato-mesh", topology=net,
                                     rate=0.25, cycles=saturated[0], warmup=saturated[1]),
    }
