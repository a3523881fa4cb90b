"""One decision path for every deadlock-freedom condition.

The paper decides a relation once: Theorem 2 or Theorem 3, chosen by its
wait policy (:func:`~repro.verify.necsuf.verify`).  The triage screens
(:mod:`repro.analyze.screens`) decide the cheap instances of that theorem
first, and two sufficient conditions sit beside it: Duato's extended CDG
(:func:`~repro.verify.duato.search_escape`) and Dally--Seitz's acyclic CDG
(:func:`~repro.verify.dally_seitz.dally_seitz`).  :func:`decide` is the one
place that runs them: the batch engine's jobs, the incremental session's
checks and the session's cold audit all call it.

Every graph comes from one :class:`~repro.analyze.rules.AnalysisContext`
per relation, which builds the transition cache, the CWG, the CDG and the
triage result at most once each: triage's ordering screen and Dally--Seitz
read the same CDG, and a triage fall-through hands its CWG to the theorem.
A caller that already keeps the graphs injects them (the incremental
session wraps its maintained kernels); otherwise they are built cold.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext
from typing import TYPE_CHECKING

from ..analyze.rules import AnalysisContext
from ..analyze.screens import triage_verdict
from .dally_seitz import dally_seitz
from .duato import search_escape
from .necsuf import verify
from .report import Verdict

if TYPE_CHECKING:
    from ..pipeline.cache import VerificationCache
    from ..pipeline.observability import StageMetrics

#: condition keys -> human label used in reports
CONDITIONS = {
    "theorem": "Theorem 2/3 (CWG)",
    "duato": "Duato (ECDG)",
    "dally-seitz": "Dally-Seitz (CDG)",
}
DEFAULT_CONDITIONS = ("theorem", "duato", "dally-seitz")


def check_condition(key: str) -> str:
    """The report label of condition ``key``; an unknown key is a ValueError."""
    label = CONDITIONS.get(key)
    if label is None:
        raise ValueError(f"unknown condition {key!r}; have {sorted(CONDITIONS)}")
    return label


def decide(
    key: str,
    graphs: AnalysisContext,
    *,
    triage: bool = True,
    cache: VerificationCache | None = None,
    fingerprint: str | None = None,
    metrics: StageMetrics | None = None,
) -> tuple[Verdict, bool]:
    """Decide condition ``key`` for ``graphs.algorithm``: ``(verdict, was_cached)``.

    ``triage`` runs the screens before the theorem checker and skips it
    when one decides.  With a ``cache`` the verdict is looked up under the
    relation's ``fingerprint`` first.  The theorem's cache stage names the
    triage flag: a screen's verdict carries the screen's witness, never the
    search's, so it must not answer a ``triage=False`` lookup.

    ``metrics`` receives the ``triage`` timer, the ``cwg`` timer (the CWG
    the theorem reads after triage; one built inside triage is triage
    time) and, for a computed verdict, the triage outcome and work counters.
    """
    check_condition(key)
    stage = key if key != "theorem" else ("theorem/triage" if triage else "theorem/full")

    def compute() -> Verdict:
        verdict = _compute(key, graphs, triage, metrics)
        if metrics is not None:
            _count_work(verdict, metrics)
        return verdict

    # imported here: repro.pipeline imports this module
    from ..pipeline.cache import cached_verdict

    return cached_verdict(graphs.algorithm, stage, compute, cache, fingerprint=fingerprint)


def _timer(metrics: StageMetrics | None, stage: str) -> AbstractContextManager[None]:
    return nullcontext() if metrics is None else metrics.timer(stage)


def _compute(
    key: str, graphs: AnalysisContext, use_triage: bool, metrics: StageMetrics | None
) -> Verdict:
    ra = graphs.algorithm
    if key == "duato":
        return search_escape(ra, transitions=graphs.transitions)
    if key == "dally-seitz":
        return dally_seitz(ra, cdg=graphs.cdg)
    if use_triage:
        with _timer(metrics, "triage"):
            tri = graphs.triage
        if tri.decided:
            if metrics is not None:
                metrics.count("triage_decided")
                metrics.count(f"triage_screen:{tri.decided_by}")
            return triage_verdict(ra, tri)
        if metrics is not None:
            metrics.count("triage_full_check")
    with _timer(metrics, "cwg"):
        cwg = graphs.cwg
    return verify(ra, cwg=cwg)


def _count_work(verdict: Verdict, metrics: StageMetrics) -> None:
    ev = verdict.evidence
    for counter, evidence_key in (
        ("cycles_enumerated", "cycles"),
        ("search_nodes", "nodes_explored"),
        ("cwg_edges", "cwg_edges"),
        ("ecdg_edges", "ecdg_edges"),
    ):
        v = ev.get(evidence_key)
        if isinstance(v, int):
            metrics.count(counter, v)
    red = ev.get("reduction")
    if red is not None and hasattr(red, "steps"):
        metrics.count(
            "reduction_backtracks",
            sum(1 for s in red.steps if s.action == "backtrack"),
        )
