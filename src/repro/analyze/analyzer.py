"""Per-target orchestration: run the rule pack + triage over one relation.

:func:`analyze` is the library entry point the CLI, the pipeline, and the
tests share: build an :class:`~repro.analyze.rules.AnalysisContext`, run
the enabled rules, run triage, and fold it into a :class:`TargetReport`.
:class:`AnalysisReport` aggregates targets (a catalog sweep, a corpus
directory) and is what the renderers consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.cwg import ChannelWaitingGraph
from ..core.transitions import TransitionCache
from ..deps.cdg import ChannelDependencyGraph
from ..routing.relation import RoutingAlgorithm
from .diagnostics import Diagnostic, Severity, sort_diagnostics
from .rules import AnalysisContext, RuleConfig, run_rules
from .screens import TriageResult


@dataclass
class TargetReport:
    """Everything the analyzer found about one (network, relation) pair."""

    target: str
    network: str
    wait_policy: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    triage: TriageResult | None = None
    #: analysis crashed; the target's diagnostics are incomplete
    error: str = ""

    @property
    def max_severity(self) -> Severity | None:
        return max((d.severity for d in self.diagnostics), default=None)

    def to_json(self) -> dict[str, Any]:
        return {
            "target": self.target,
            "network": self.network,
            "wait_policy": self.wait_policy,
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "triage": self.triage.to_json() if self.triage else None,
            "error": self.error,
        }


@dataclass
class AnalysisReport:
    """An ordered collection of target reports plus run-level counters."""

    targets: list[TargetReport] = field(default_factory=list)
    #: diagnostics suppressed by the baseline, per target
    suppressed: dict[str, int] = field(default_factory=dict)

    def add(self, report: TargetReport) -> None:
        self.targets.append(report)

    def finalize(self) -> "AnalysisReport":
        """Canonical order: targets by name, diagnostics already sorted."""
        self.targets.sort(key=lambda t: t.target)
        return self

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return sort_diagnostics(
            [d for t in self.targets for d in t.diagnostics]
        )

    def count(self, severity: Severity) -> int:
        return sum(
            1
            for t in self.targets
            for d in t.diagnostics
            if d.severity is severity
        )

    @property
    def max_severity(self) -> Severity | None:
        return max(
            (d.severity for t in self.targets for d in t.diagnostics),
            default=None,
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "targets": [t.to_json() for t in self.targets],
            "suppressed": dict(sorted(self.suppressed.items())),
            "summary": {
                "targets": len(self.targets),
                "errors": self.count(Severity.ERROR),
                "warnings": self.count(Severity.WARNING),
                "infos": self.count(Severity.INFO),
                "analysis_failures": sum(1 for t in self.targets if t.error),
            },
        }


def analyze(
    algorithm: RoutingAlgorithm,
    *,
    config: RuleConfig | None = None,
    transitions: TransitionCache | None = None,
    cwg: ChannelWaitingGraph | None = None,
    cdg: ChannelDependencyGraph | None = None,
    target: str = "",
) -> TargetReport:
    """Run the full rule pack + triage on one relation.

    Pre-built graphs may be injected by callers that already hold them;
    otherwise they are built lazily -- rules that never touch the CWG never
    pay for it.
    """
    name = target or algorithm.name
    report = TargetReport(
        target=name,
        network=algorithm.network.name,
        wait_policy=algorithm.wait_policy.value,
    )
    ctx = AnalysisContext(algorithm, transitions=transitions, cwg=cwg, cdg=cdg)
    try:
        diagnostics = run_rules(ctx, config)
        report.triage = ctx.triage
    except Exception as exc:  # a crashing rule must not sink the whole run
        report.error = f"{type(exc).__name__}: {exc}"
        return report
    report.diagnostics = sort_diagnostics(
        [d.with_target(name) if d.target != name else d for d in diagnostics]
    )
    return report
