"""The condition dispatcher: one decision path for batch, incremental and cold checks.

:func:`~repro.pipeline.engine.run_job`, :meth:`IncrementalSession.check`
and :meth:`IncrementalSession.full_check` all decide through
:func:`repro.verify.dispatch.decide`.  Pinned here: the three agree on
every verdict of the registry at the batch's default sizes, with triage on
and off; the theorem's cache stage keys on the triage flag, so a screen's
verdict never answers a full check; and unknown condition keys are
rejected by the dispatcher itself.
"""

from __future__ import annotations

import pytest

from repro.analyze.rules import AnalysisContext
from repro.incremental import IncrementalSession
from repro.pipeline import VerificationCache, catalog_specs, run_job, slim_evidence
from repro.pipeline.engine import catalog_spec
from repro.routing import make
from repro.topology import build_mesh
from repro.verify.dispatch import CONDITIONS, decide


def _row(r) -> tuple:
    """What a verdict says: condition, both booleans, reason, slim evidence."""
    return (r.condition, r.deadlock_free, r.necessary_and_sufficient, r.reason,
            slim_evidence(r.evidence))


@pytest.mark.parametrize("use_triage", [True, False], ids=["triage", "no-triage"])
def test_batch_session_and_cold_check_agree_on_the_registry(use_triage):
    compared, mismatches = 0, []
    for spec in catalog_specs(triage=use_triage):
        job = run_job(spec)
        assert job.error is None, job.error
        session = IncrementalSession(spec=spec, triage=use_triage)
        checked = session.baseline().verdicts
        cold = session.full_check().verdicts
        for r in job.results:
            compared += 1
            for caller, verdict in (("check", checked[r.key]), ("full_check", cold[r.key])):
                if _row(verdict) != _row(r):
                    mismatches.append((spec.algorithm, r.key, caller))
    assert compared == 21 * len(CONDITIONS)
    assert mismatches == []


#: registry scenarios whose triage verdict (a forced cycle) carries a
#: different witness than the True-Cycle search's
FORCED_CYCLE = ["relaxed-efa", "unrestricted-minimal", "pillar-diag-3d"]


@pytest.mark.parametrize("name", FORCED_CYCLE)
def test_triage_verdict_never_answers_a_full_check(name):
    cache = VerificationCache()
    screened = run_job(catalog_spec(name, triage=True), cache)
    assert screened.result_for("theorem").evidence["triage"] == "scc-condensation"
    full = run_job(catalog_spec(name, triage=False), cache)
    cold = run_job(catalog_spec(name, triage=False))
    theorem = full.result_for("theorem")
    assert not theorem.cached and "triage" not in theorem.evidence
    assert _row(theorem) == _row(cold.result_for("theorem"))
    # the other conditions do not depend on the flag and are shared
    assert full.result_for("duato").cached and full.result_for("dally-seitz").cached
    # and the full check's verdict does not answer a screened lookup either
    again = run_job(catalog_spec(name, triage=True), cache)
    assert _row(again.result_for("theorem")) == _row(screened.result_for("theorem"))


def test_session_keys_the_theorem_on_its_triage_flag():
    cache = VerificationCache()
    spec = catalog_spec("unrestricted-minimal", conditions=("theorem",))
    IncrementalSession(spec=spec, cache=cache, triage=True).baseline()
    session = IncrementalSession(spec=spec, cache=cache, triage=False)
    result = session.check()
    assert result.cached == 0
    assert result.digest == session.full_check().digest


def test_unknown_condition_is_rejected():
    graphs = AnalysisContext(make("e-cube-mesh", build_mesh((3, 3))))
    with pytest.raises(ValueError, match="unknown condition 'bogus'"):
        decide("bogus", graphs)
    with pytest.raises(ValueError, match="unknown condition 'bogus'"):
        IncrementalSession(graphs.algorithm, conditions=("theorem", "bogus"))
