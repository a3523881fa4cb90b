"""The re-verify job loop behind ``serve`` and ``reverify``.

The loop's claims are operational rather than graph-theoretic: outcomes
come back in job order, sampled audits compare against a full rebuild,
repeated states hit the content-addressed store, and failures are recorded
per job instead of ending the run.
"""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.incremental import (
    IncrementalSession,
    LinkDown,
    LinkUp,
    ReverifyJob,
    TableEdit,
    default_fault_pair,
    run_jobs,
)
from repro.pipeline import StageMetrics, VerificationCache, catalog_specs

ALGOS = ("west-first", "duato-mesh", "e-cube")


def _targets(names=ALGOS):
    specs = catalog_specs(list(names), mesh_dims=(3, 3), torus_dims=(4, 4),
                          hypercube_dim=3)
    return {spec.algorithm: spec for spec in specs}


def _flap_jobs(targets, rounds=2):
    """down/up flaps per target, using each relation's default fault link."""
    pairs = {
        name: default_fault_pair(IncrementalSession.from_spec(spec))
        for name, spec in targets.items()
    }
    jobs = []
    for _ in range(rounds):
        for name, (down, up) in pairs.items():
            for delta in (down, up):
                jobs.append(ReverifyJob(len(jobs), name, delta))
    return jobs


def _run(jobs, targets, **kwargs):
    return list(run_jobs(jobs, targets, **kwargs))


def test_outcomes_come_back_in_job_order():
    targets = _targets()
    jobs = _flap_jobs(targets)
    outcomes = _run(jobs, targets)
    assert [o.job for o in outcomes] == jobs
    assert all(o.error is None and o.audit is None for o in outcomes)
    # each spec was replaced by its one long-lived session
    assert all(isinstance(s, IncrementalSession) for s in targets.values())


def test_sampled_audits_pass_on_honest_sessions():
    targets = _targets()
    metrics = StageMetrics()
    outcomes = _run(_flap_jobs(targets), targets, verify_sample=0.5, metrics=metrics)
    audited = [o for o in outcomes if o.audit is not None]
    assert len(audited) >= len(outcomes) // 2
    assert all(o.audit_ok for o in audited)
    assert all(o.audit_ok is None for o in outcomes if o.audit is None)
    assert metrics.counters.get("serve:audits", 0) == len(audited)
    assert metrics.counters.get("serve:audit_mismatches", 0) == 0


def test_repeated_states_hit_the_store():
    # flap the same link three times per target: later rounds revisit states
    targets = _targets()
    cache = VerificationCache(max_entries=64)
    outcomes = _run(_flap_jobs(targets, rounds=3), targets, cache=cache)
    assert all(o.error is None for o in outcomes)
    assert cache.hit_rate > 0.3
    assert sum(o.result.cached for o in outcomes) <= cache.hits


def test_unknown_target_is_a_recorded_error_not_a_crash():
    jobs = [
        ReverifyJob(0, "west-first"),
        ReverifyJob(1, "no-such-algorithm", LinkDown(0, 1, 0)),
        ReverifyJob(2, "west-first", LinkDown(0, 1, 0)),
    ]
    outcomes = _run(jobs, _targets())
    errors = [o for o in outcomes if o.error is not None]
    assert [o.job.job_id for o in errors] == [1]
    assert "no-such-algorithm" in errors[0].error
    assert [o.job.job_id for o in outcomes if o.result is not None] == [0, 2]


def test_invalid_delta_is_a_recorded_error():
    outcomes = _run([
        ReverifyJob(0, "west-first", LinkDown(0, 8, 0)),  # not adjacent
        ReverifyJob(1, "west-first", LinkUp(0, 1, 0)),    # benign no-op repair
    ], _targets())
    assert outcomes[0].error is not None and "no link channel" in outcomes[0].error
    # repairing an already-up link is a no-op, not a failure
    assert outcomes[1].error is None and outcomes[1].result.deadlock_free


def test_out_of_range_edit_cid_is_a_recorded_error_and_the_stream_goes_on():
    outcomes = _run([
        ReverifyJob(0, "west-first", TableEdit("n0->8", routes=(99999,))),
        ReverifyJob(1, "west-first", LinkDown(0, 1, 0)),
    ], _targets())
    assert outcomes[0].error == "route channel 99999 out of range in 'n0->8'"
    assert outcomes[1].error is None and outcomes[1].result is not None


@pytest.mark.parametrize("cid", ["99999", "-1"])
def test_reverify_names_an_out_of_range_edit_cid(cid):
    with pytest.raises(SystemExit) as exc:
        main(["reverify", "--algorithm", "e-cube-mesh", "--dims", "3,3",
              "--delta", f"edit:n0->8={cid}"])
    # a message is a non-zero exit with no traceback
    assert isinstance(exc.value.code, str)
    assert exc.value.code.endswith(f"route channel {cid} out of range in 'n0->8'")


def test_sample_outside_unit_interval_is_rejected():
    with pytest.raises(ValueError, match="verify_sample"):
        _run([], _targets(), verify_sample=1.5)


def test_report_carries_latency_observations_and_description(capsys):
    targets = _targets()
    metrics = StageMetrics()
    outcomes = _run(_flap_jobs(targets, rounds=1), targets,
                    verify_sample=1.0, metrics=metrics)
    obs = metrics.snapshot()["observations"]["reverify_seconds"]
    # one check per job plus one baseline per session
    assert obs["count"] == len(outcomes) + len(targets)
    rc = main(["serve", "--algorithms", "west-first,e-cube", "--events", "6",
               "--sample", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "6 jobs" in out and "hit rate" in out and "reverify mean" in out


# ----------------------------------------------------------------------
# CLI argument validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sample", ["2", "-0.1"])
def test_serve_rejects_sample_outside_unit_interval(sample):
    with pytest.raises(SystemExit, match="--sample must be within"):
        main(["serve", "--algorithms", "west-first", "--sample", sample])


@pytest.mark.parametrize("algorithms", [",", " , "])
def test_serve_rejects_an_empty_algorithm_list(algorithms):
    with pytest.raises(SystemExit, match="names no algorithm"):
        main(["serve", "--algorithms", algorithms])
