"""Delta-aware incremental re-verification sessions.

A :class:`IncrementalSession` owns one routing relation (an
:class:`~repro.incremental.overlay.OverlayRouting` over a base algorithm)
and keeps every artifact the verifiers consume hot across a stream of
:mod:`~repro.incremental.deltas`:

* per-destination transition graphs, rebuilt only for *dirty* destinations
  -- a destination is dirty iff the changed channel appears in some
  pre-mask route/waiting set one of its queries consulted (recorded by the
  overlay's :class:`~repro.incremental.overlay.RouteRecorder`; soundness is
  an induction on the deterministic query trace: the first diverging query
  is made by both the cached and a fresh walk, and its pre-mask set
  contains the changed channel);
* the CWG and CDG kernels, kept as one adjacency row per source channel:
  a delta re-ORs only the rows the dirty destinations' walks touch (before
  or after the rebuild), and each kernel is rebuilt from the rows and
  refreshed through :meth:`~repro.core.depgraph.DepGraph.refresh_scc_from`
  -- payload-only deltas transfer the Tarjan decomposition verbatim,
  structural deltas recompute it canonically while the dirty-SCC frontier
  bounds and audits the blast radius;
* every condition decided by :func:`~repro.verify.dispatch.decide` on
  views of those same transition graphs and kernels -- the code path
  :meth:`IncrementalSession.full_check` and the batch engine run cold, so
  the decision logic cannot diverge between them.

The correctness contract is *bit-identical equivalence*: for any delta
sequence, :meth:`IncrementalSession.check` must produce the same verdicts
-- same booleans, same reasons, same witness evidence, hence the same
:func:`~repro.pipeline.cache.verdicts_digest` -- as
:meth:`IncrementalSession.full_check`, which rebuilds everything from
scratch.  The metamorphic test battery and the fuzz oracle both pin
exactly that equality.

``stale_scc=True`` builds the deliberately broken variant the fuzz
campaign plants: link deltas skip the dirty-destination expansion
entirely, so the session keeps verifying yesterday's graphs.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any

from ..analyze.rules import AnalysisContext
from ..core.cwg import ChannelWaitingGraph
from ..core.depgraph import DepGraph, bits
from ..core.transitions import (
    DestinationTransitions,
    DestinationWitnesses,
    TransitionCache,
    adjacency_rows,
)
from ..deps.cdg import ChannelDependencyGraph
from ..pipeline.cache import VerificationCache, verdicts_digest
from ..pipeline.engine import JobSpec, build_topology
from ..pipeline.fingerprint import (
    _hasher as _fp_hasher,
    relation_header,
    relation_segment,
)
from ..pipeline.observability import StageMetrics
from ..routing.catalog import make
from ..routing.relation import RoutingAlgorithm
from ..topology.channel import Channel
from ..verify.dispatch import DEFAULT_CONDITIONS, check_condition, decide
from ..verify.report import Verdict
from .deltas import Delta, LinkDown, LinkUp, TableEdit, VcAdd, parse_table_key
from .overlay import OverlayRouting, RouteRecorder


@dataclass
class ReverifyResult:
    """One incremental re-verification: verdicts plus provenance."""

    algorithm: str
    delta: Delta | None
    fingerprint: str
    verdicts: dict[str, Verdict]
    digest: str
    seconds: float
    cached: int = 0
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def deadlock_free(self) -> bool:
        return all(v.deadlock_free for v in self.verdicts.values())

    def describe(self) -> str:
        flags = " ".join(
            f"{k}={'T' if v.deadlock_free else 'F'}" for k, v in self.verdicts.items()
        )
        return (
            f"{self.algorithm}: {flags} digest={self.digest[:12]} "
            f"({self.seconds * 1000:.1f}ms, {self.cached} cached, "
            f"{self.stats.get('dirty_destinations', 0)} dirty dests)"
        )


@dataclass
class FullCheckResult:
    """A cold from-scratch check of the session's current relation."""

    verdicts: dict[str, Verdict]
    digest: str
    seconds: float

    @property
    def deadlock_free(self) -> bool:
        return all(v.deadlock_free for v in self.verdicts.values())


class IncrementalSession:
    """Stateful re-verification of one relation under a stream of deltas.

    ``algorithm`` is the base relation; alternatively build from a
    :class:`~repro.pipeline.engine.JobSpec` (required for :class:`VcAdd`,
    which must re-instantiate the topology).  ``conditions`` defaults to
    the spec's conditions or the engine's full set.  ``triage`` mirrors
    the batch engine's screen-first theorem path; :meth:`full_check` honors
    the same flag so the equivalence contract compares like with like.
    """

    def __init__(
        self,
        algorithm: RoutingAlgorithm | None = None,
        *,
        spec: JobSpec | None = None,
        conditions: tuple[str, ...] | None = None,
        cache: VerificationCache | None = None,
        metrics: StageMetrics | None = None,
        triage: bool = False,
        stale_scc: bool = False,
    ) -> None:
        if algorithm is None:
            if spec is None:
                raise ValueError("need an algorithm or a JobSpec")
            self._vcs = spec.vcs or 1
            algorithm = make(
                spec.algorithm, build_topology(spec.topology, spec.dims, self._vcs)
            )
        else:
            self._vcs = len({c.vc for c in algorithm.network.link_channels}) or 1
        if conditions is None:
            conditions = spec.conditions if spec is not None else DEFAULT_CONDITIONS
        for key in conditions:
            check_condition(key)
        self.base: RoutingAlgorithm = algorithm
        self.spec = spec
        self.conditions: tuple[str, ...] = tuple(conditions)
        self.cache = cache
        self.metrics = metrics if metrics is not None else StageMetrics()
        self.triage = triage
        self.stale_scc = stale_scc
        #: accumulated deltas, in network-independent coordinates
        self._down_triples: set[tuple[int, int, int]] = set()
        self._edits: dict[str, TableEdit] = {}
        self._reset()

    @classmethod
    def from_spec(cls, spec: JobSpec, **kwargs: Any) -> IncrementalSession:
        return cls(spec=spec, **kwargs)

    # ------------------------------------------------------------------
    # full (re)build -- session start and VcAdd
    # ------------------------------------------------------------------
    def _reset(self) -> None:
        net = self.base.network
        self._link_index: dict[tuple[int, int, int], Channel] = {
            (c.src, c.dst, c.vc): c for c in net.link_channels
        }
        down = 0
        for t in sorted(self._down_triples):
            c = self._link_index.get(t)
            if c is None:
                raise ValueError(f"down link {t} does not exist in {net.name}")
            down |= 1 << c.cid
        self.overlay = OverlayRouting(self.base, down=down)
        self.tc = TransitionCache(self.overlay)
        #: dest -> pre-mask channel bitmask its transition walk consulted
        self._relevant: dict[int, int] = {}
        #: one adjacency bitmask per source cid, for each kernel
        self._cwg_rows: list[int] = []
        self._cdg_rows: list[int] = []
        self._dep: DepGraph | None = None
        self._cdg_dep: DepGraph | None = None
        #: cached relation-fingerprint pieces; segments keyed by destination
        self._fp_header: bytes | None = None
        self._fp_segments: dict[int, bytes] = {}
        #: ``mask -> "a,b,c"`` text shared by every segment of the session
        self._fp_text: dict[int, str] = {}
        pending = list(self._edits.values())
        self._edits = {}
        for edit in pending:
            self._apply_edit(edit)
        with self.metrics.timer("incremental:rebuild"):
            for dest in net.nodes:
                self._build_dt(dest)
            stats = self._refresh_graphs(None)
        stats["dirty_destinations"] = net.num_nodes
        self._last_stats = stats

    # ------------------------------------------------------------------
    # dirty-destination transition rebuilds
    # ------------------------------------------------------------------
    def _build_dt(self, dest: int) -> None:
        rec = RouteRecorder()
        self.overlay.begin_recording(rec)
        try:
            dt = DestinationTransitions(self.overlay, dest)
        finally:
            self.overlay.end_recording()
        self.tc.store(dest, dt)
        self._relevant[dest] = rec.mask
        self._fp_segments.pop(dest, None)

    def _refresh_graphs(self, sources: set[int] | None) -> dict[str, int]:
        """Re-OR the adjacency rows of ``sources`` (every row when ``None``)
        and rebuild both kernels, refreshing their SCC decompositions."""
        net = self.base.network
        dts = tuple(self.tc.all_destinations())
        down = attrgetter("downstream_wait_masks")
        succ = attrgetter("succ_masks")
        old_cwg, old_cdg = self._cwg_rows, self._cdg_rows
        if sources is None:
            self._cwg_rows = adjacency_rows(net.num_channels, dts, down)
            self._cdg_rows = adjacency_rows(net.num_channels, dts, succ)
        else:
            cwg_rows, cdg_rows = list(old_cwg), list(old_cdg)
            maps = [(dt.downstream_wait_masks, dt.succ_masks) for dt in dts]
            for a in sources:
                cw = cd = 0
                for dw, sm in maps:
                    m = dw.get(a)
                    if m is not None:
                        cw |= m
                        cd |= sm[a]
                cwg_rows[a], cdg_rows[a] = cw, cd
            self._cwg_rows, self._cdg_rows = cwg_rows, cdg_rows
        stats: dict[str, int] = {}
        old, old_cdg_dep = self._dep, self._cdg_dep
        self._dep = DepGraph.from_rows(
            net, self._cwg_rows, DestinationWitnesses(dts, down))
        self._cdg_dep = DepGraph.from_rows(
            net, self._cdg_rows, DestinationWitnesses(dts, succ))
        if old is not None and old_cdg_dep is not None:
            assert sources is not None  # a full rebuild starts from no graphs
            for prefix, new_dep, old_dep, new_rows, old_rows in (
                ("cwg", self._dep, old, self._cwg_rows, old_cwg),
                ("cdg", self._cdg_dep, old_cdg_dep, self._cdg_rows, old_cdg),
            ):
                # endpoints of every added or removed edge
                touched: set[int] = set()
                for a in sources:
                    diff = old_rows[a] ^ new_rows[a]
                    if diff:
                        touched.add(a)
                        touched.update(bits(diff))
                for k, v2 in new_dep.refresh_scc_from(old_dep, touched).items():
                    stats[f"{prefix}_{k}"] = v2
                    self.metrics.count(f"{prefix}_{k}", v2)
        return stats

    # ------------------------------------------------------------------
    # delta application
    # ------------------------------------------------------------------
    def apply(self, delta: Delta) -> dict[str, int]:
        """Apply one delta; rebuild only what its footprint touches."""
        with self.metrics.timer("incremental:apply"):
            return self._apply(delta)

    def _apply(self, delta: Delta) -> dict[str, int]:
        dirty: set[int] = set()
        if isinstance(delta, (LinkDown, LinkUp)):
            triple = (delta.src, delta.dst, delta.vc)
            c = self._link_index.get(triple)
            if c is None:
                raise ValueError(
                    f"no link channel {delta.src}->{delta.dst} vc{delta.vc} "
                    f"in {self.base.network.name}"
                )
            if isinstance(delta, LinkDown):
                self._down_triples.add(triple)
            else:
                self._down_triples.discard(triple)
            down = 0
            for t in self._down_triples:
                down |= 1 << self._link_index[t].cid
            self.overlay.down = down
            if not self.stale_scc:
                # Sound by the recorder induction; the planted broken
                # variant skips exactly this expansion.
                bit = 1 << c.cid
                dirty = {d for d, m in self._relevant.items() if m & bit}
        elif isinstance(delta, TableEdit):
            dest = self._apply_edit(delta)
            dirty = {dest}
        elif isinstance(delta, VcAdd):
            if self.spec is None:
                raise ValueError("VcAdd needs a session built from a JobSpec")
            if delta.count < 1:
                raise ValueError("VcAdd.count must be positive")
            self._vcs += delta.count
            # Channel ids renumber with the vc count; cid-keyed overrides
            # cannot be translated, so a vc change drops them.
            self._edits.clear()
            self.base = make(
                self.spec.algorithm,
                build_topology(self.spec.topology, self.spec.dims, self._vcs),
            )
            self._reset()
            return dict(self._last_stats)
        else:
            raise TypeError(f"unknown delta {delta!r}")
        # a dirty destination's walk may change the rows of every channel it
        # visits before or after the rebuild
        sources: set[int] = set()
        for d in sorted(dirty):
            sources.update(self.tc[d].usable_cids)
            self._build_dt(d)
            sources.update(self.tc[d].usable_cids)
        stats = self._refresh_graphs(sources)
        stats["dirty_destinations"] = len(dirty)
        self.metrics.count("dirty_destinations", len(dirty))
        self._last_stats = stats
        return stats

    def _apply_edit(self, edit: TableEdit) -> int:
        """Validate and install (or clear) one table-cell override."""
        tag, ident, dest = parse_table_key(edit.key)
        net = self.base.network
        form = self.overlay.form
        if (form == "ND") != (tag == "n"):
            raise ValueError(
                f"table key {edit.key!r} (tag {tag!r}) does not match form {form}"
            )
        if not 0 <= dest < net.num_nodes:
            raise ValueError(f"destination {dest} out of range in {edit.key!r}")
        if tag == "c":
            if not 0 <= ident < net.num_channels:
                raise ValueError(f"channel {ident} out of range in {edit.key!r}")
            c_in = net.channel(ident)
            if not c_in.is_link:
                raise ValueError(f"key {edit.key!r} names a non-link input channel")
            node = c_in.dst
        else:
            if not 0 <= ident < net.num_nodes:
                raise ValueError(f"node {ident} out of range in {edit.key!r}")
            node = ident
        if node == dest:
            raise ValueError(f"key {edit.key!r} routes at the destination itself")
        if edit.routes is None:
            self._edits.pop(edit.key, None)
            self.overlay.edits.pop(edit.key, None)
            return dest
        routes = 0
        for cid in edit.routes:
            c = net.channel(cid)
            if not c.is_link or c.src != node:
                raise ValueError(f"route channel {c!r} does not leave node {node}")
            routes |= 1 << cid
        waits = 0
        for cid in edit.waits if edit.waits is not None else edit.routes:
            waits |= 1 << cid
        if waits & ~routes:
            raise ValueError("waiting channels must be a subset of the route set")
        self._edits[edit.key] = edit
        self.overlay.edits[edit.key] = (routes, waits)
        return dest

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def _graphs(self) -> AnalysisContext:
        """The current relation's graphs: views of the maintained kernels."""
        overlay, tc, dep, cdg_dep = self.overlay, self.tc, self._dep, self._cdg_dep
        assert dep is not None and cdg_dep is not None
        return AnalysisContext(
            overlay,
            transitions=tc,
            cwg=ChannelWaitingGraph.from_depgraph(overlay, dep, transitions=tc),
            cdg=ChannelDependencyGraph.from_depgraph(overlay, cdg_dep, transitions=tc),
        )

    def _fingerprint(self) -> str:
        """Relation fingerprint from per-destination cached segments.

        Byte-identical to :func:`fingerprint_relation` on the overlay: the
        header and each destination segment are produced by the same
        helpers, and a segment is only reused while the destination's
        transition table is untouched (it is dropped whenever
        :meth:`_build_dt` rebuilds that destination).
        """
        if self._fp_header is None:
            self._fp_header = relation_header(self.overlay)
        h = _fp_hasher()
        h.update(self._fp_header)
        for dest in self.overlay.network.nodes:
            seg = self._fp_segments.get(dest)
            if seg is None:
                seg = relation_segment(dest, self.tc[dest], self._fp_text)
                self._fp_segments[dest] = seg
            h.update(seg)
        return h.hexdigest()

    def check(self, delta: Delta | None = None) -> ReverifyResult:
        """Verify the current relation through every session condition."""
        t0 = time.perf_counter()
        with self.metrics.timer("incremental:fingerprint"):
            fp = self._fingerprint()
        graphs = self._graphs()
        verdicts: dict[str, Verdict] = {}
        cached_n = 0
        for key in self.conditions:
            with self.metrics.timer(f"incremental:{key}"):
                verdict, was_cached = decide(
                    key, graphs, triage=self.triage, cache=self.cache,
                    fingerprint=fp, metrics=self.metrics,
                )
            verdicts[key] = verdict
            cached_n += int(was_cached)
        digest = verdicts_digest([verdicts[k] for k in self.conditions])
        seconds = time.perf_counter() - t0
        self.metrics.observe("reverify_seconds", seconds)
        self.metrics.count("reverifications")
        return ReverifyResult(
            algorithm=self.overlay.name,
            delta=delta,
            fingerprint=fp,
            verdicts=verdicts,
            digest=digest,
            seconds=seconds,
            cached=cached_n,
            stats=dict(self._last_stats),
        )

    def baseline(self) -> ReverifyResult:
        """The session's initial (no-delta) verification."""
        return self.check()

    def reverify(self, delta: Delta) -> ReverifyResult:
        """Apply one delta and re-verify: the service's unit of work."""
        self.apply(delta)
        return self.check(delta)

    def full_check(self) -> FullCheckResult:
        """Cold from-scratch verification of the current relation.

        Builds a fresh overlay (same accumulated deltas), a fresh transition
        cache, and every graph from nothing; never consults the
        verification cache.  This is the ground truth the equivalence
        contract compares :meth:`check` against.
        """
        t0 = time.perf_counter()
        fresh = OverlayRouting(
            self.base, down=self.overlay.down, edits=dict(self.overlay.edits)
        )
        graphs = AnalysisContext(fresh)
        verdicts = {
            key: decide(key, graphs, triage=self.triage)[0] for key in self.conditions
        }
        digest = verdicts_digest([verdicts[k] for k in self.conditions])
        return FullCheckResult(
            verdicts=verdicts, digest=digest, seconds=time.perf_counter() - t0
        )


# ----------------------------------------------------------------------
# canonical delta scenarios (delta matrix, fuzz oracle, CLI defaults)
# ----------------------------------------------------------------------
def default_fault_pair(session: IncrementalSession) -> tuple[LinkDown, LinkUp]:
    """The canonical (fault, repair) pair: the busiest link channel.

    Deterministic: the link channel consulted by the most destinations,
    lowest cid on ties.
    """
    best: Channel | None = None
    best_count = 0
    for c in sorted(session.base.network.link_channels, key=lambda c: c.cid):
        bit = 1 << c.cid
        n = sum(1 for m in session._relevant.values() if m & bit)
        if n > best_count:
            best, best_count = c, n
    if best is None:
        raise ValueError("no link channel is used by any destination")
    return (
        LinkDown(best.src, best.dst, best.vc),
        LinkUp(best.src, best.dst, best.vc),
    )


def default_table_edit(session: IncrementalSession) -> tuple[TableEdit, TableEdit]:
    """The canonical (edit, revert) pair for this session's relation.

    Prefers *thinning*: the first reachable state (destination-major,
    input-cid-minor) offering at least two routes loses its highest-cid
    option.  Fully deterministic relations fall back to *redirecting* the
    first single-route state onto a different outgoing link of its node.
    The revert clears the override.
    """
    overlay = session.overlay
    net = session.base.network
    fallback: tuple[str, tuple[int, ...]] | None = None
    for dest in sorted(net.nodes):
        dt = session.tc[dest]
        for a in sorted(dt.succ_masks):
            routes = dt.succ_masks[a]
            if not routes:
                continue
            c = net.channel(a)
            key = overlay.table_key(a, c.dst, dest)
            if key in overlay.edits:
                continue
            if routes & (routes - 1):
                keep = routes & ~(1 << (routes.bit_length() - 1))
                edit = TableEdit(
                    key,
                    routes=tuple(bits(keep)),
                    waits=tuple(bits(dt.wait_masks[a] & keep)),
                )
                return edit, TableEdit(key)
            if fallback is None:
                alts = [
                    ch.cid for ch in net.link_channels
                    if ch.src == c.dst and not routes >> ch.cid & 1
                ]
                if alts:
                    fallback = (key, (min(alts),))
    if fallback is not None:
        key, cids = fallback
        return TableEdit(key, routes=cids), TableEdit(key)
    raise ValueError("relation offers no editable table cell")


# ----------------------------------------------------------------------
# the job loop behind ``serve`` and ``reverify``
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReverifyJob:
    """Apply ``delta`` to ``target`` and re-verify; ``None`` re-checks."""

    job_id: int
    target: str
    delta: Delta | None = None


@dataclass(frozen=True)
class JobOutcome:
    """One job's answer: a result (plus its audit, if sampled) or an error."""

    job: ReverifyJob
    result: ReverifyResult | None = None
    audit: FullCheckResult | None = None
    error: str | None = None

    @property
    def audit_ok(self) -> bool | None:
        """``None`` when not audited, else whether the full rebuild agreed."""
        if self.audit is None or self.result is None:
            return None
        return self.audit.digest == self.result.digest


def run_jobs(
    jobs: Iterable[ReverifyJob],
    targets: dict[str, JobSpec | IncrementalSession],
    *,
    cache: VerificationCache | None = None,
    verify_sample: float = 0.0,
    metrics: StageMetrics | None = None,
) -> Iterator[JobOutcome]:
    """Run ``jobs`` in order, yielding one :class:`JobOutcome` per job.

    ``targets`` maps a name to its :class:`~repro.pipeline.engine.JobSpec`
    or to a live session.  On a target's first job its spec is replaced by
    a session (sharing ``cache`` and ``metrics``) that has checked its
    baseline.  Every ``round(1 / verify_sample)``-th ``job_id`` is audited
    against :meth:`IncrementalSession.full_check`.  An unknown target or a
    delta the session rejects becomes the job's ``error``.
    """
    if not 0.0 <= verify_sample <= 1.0:
        raise ValueError("verify_sample must be within [0, 1]")
    stride = max(1, round(1.0 / verify_sample)) if verify_sample else 0
    metrics = metrics if metrics is not None else StageMetrics()
    for job in jobs:
        try:
            session = targets.get(job.target)
            if session is None:
                raise ValueError(f"unknown target {job.target!r}")
            if not isinstance(session, IncrementalSession):
                session = IncrementalSession(
                    spec=session, cache=cache, metrics=metrics, triage=True
                )
                session.baseline()
                targets[job.target] = session
            result = session.check() if job.delta is None \
                else session.reverify(job.delta)
        except ValueError as exc:
            yield JobOutcome(job, error=str(exc))
            continue
        audit = None
        if stride and job.job_id % stride == 0:
            audit = session.full_check()
            metrics.count("serve:audits")
            if audit.digest != result.digest:
                metrics.count("serve:audit_mismatches")
        yield JobOutcome(job, result, audit)
