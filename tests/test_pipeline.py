"""The batch verification pipeline: engine, cache, exports, CLI.

The contract under test: a batch run is nothing but ``verify()`` et al.
applied per job -- parallel execution, caching, and report rendering must
never change a verdict; failures degrade to per-job error records; and the
content-addressed cache is exactly as stale-proof as the fingerprints.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.export import batch_table, batch_to_csv, batch_to_json
from repro.pipeline import (
    BatchVerifier,
    JobSpec,
    VerificationCache,
    catalog_specs,
    run_job,
)
from repro.routing import CATALOG, make
from repro.topology.network import Network
from repro.verify import verify
from tests.generative import RandomMinimalRouting

FAST = ("theorem", "dally-seitz")  # duato on torus-44 dominates runtime; skip it here


@pytest.fixture(scope="module")
def specs():
    return catalog_specs(mesh_dims=(3, 3), torus_dims=(4, 4), hypercube_dim=3,
                         conditions=FAST)


@pytest.fixture(scope="module")
def serial_report(specs):
    return BatchVerifier().run(specs)


# ----------------------------------------------------------------------
# verdict equality: batch == direct, parallel == serial
# ----------------------------------------------------------------------
def test_batch_covers_catalog(specs, serial_report):
    assert [s.algorithm for s in specs] == sorted(CATALOG)
    assert len(serial_report.jobs) == len(specs)
    assert serial_report.errors == []
    for j in serial_report.jobs:
        assert [r.key for r in j.results] == list(FAST)
        assert j.fingerprint


def test_serial_batch_matches_direct_verify(serial_report):
    for j in serial_report.jobs:
        direct = verify(j.spec.build())
        r = j.result_for("theorem")
        assert r.deadlock_free == direct.deadlock_free, j.spec.describe()
        assert r.necessary_and_sufficient == direct.necessary_and_sufficient
        assert r.condition == direct.condition
        if r.evidence.get("triage") != "scc-condensation":
            # triage reproduces the checker's early-path verdicts verbatim;
            # only forced-cycle refutations carry their own witness cycle
            assert r.reason == direct.reason


def test_parallel_matches_serial(specs, serial_report, tmp_path):
    parallel = BatchVerifier(workers=2, cache_dir=tmp_path / "cache").run(specs)
    assert len(parallel.jobs) == len(serial_report.jobs)
    for a, b in zip(serial_report.jobs, parallel.jobs):
        assert a.spec == b.spec
        assert b.ok, b.error
        assert a.fingerprint == b.fingerprint
        for ra, rb in zip(a.results, b.results):
            assert (ra.key, ra.deadlock_free, ra.necessary_and_sufficient) == \
                   (rb.key, rb.deadlock_free, rb.necessary_and_sufficient)


def test_catalog_verdicts_match_certified_flags(serial_report):
    verdicts = serial_report.verdicts("theorem")
    for name, free in verdicts.items():
        assert free == CATALOG[name].deadlock_free, name


# ----------------------------------------------------------------------
# caching: warm hits, fingerprint invalidation, disk layer
# ----------------------------------------------------------------------
def test_warm_rerun_hits_verdict_cache():
    cache = VerificationCache()
    spec = JobSpec("duato-mesh", "mesh:3x3:v2", conditions=("theorem",))
    cold = run_job(spec, cache)
    warm = run_job(spec, cache)
    assert cold.ok and warm.ok
    assert not cold.results[0].cached
    assert warm.results[0].cached
    assert warm.results[0].deadlock_free == cold.results[0].deadlock_free
    assert warm.results[0].reason == cold.results[0].reason
    assert cache.hits >= 1 and cache.stores >= 1


def test_mutating_network_changes_fingerprint():
    net = Network("pair")
    net.add_nodes(2)
    net.add_link_channels(0, 1, 1)
    net.add_link_channels(1, 0, 1)
    before = net.fingerprint()
    net.add_link_channels(0, 1, 1)  # one more VC: a different network
    assert net.fingerprint() != before


def test_fingerprint_ignores_names_but_not_tables(mesh33):
    a = RandomMinimalRouting(mesh33, seed=5)
    b = RandomMinimalRouting(mesh33, seed=5)
    b.name = "renamed-copy"
    assert a.fingerprint() == b.fingerprint()
    ecube = make("e-cube-mesh", mesh33)
    assert ecube.fingerprint() != a.fingerprint()


def test_disk_cache_persists_and_tolerates_corruption(tmp_path):
    d = tmp_path / "cache"
    first = VerificationCache(d)
    first.put("fp123", "verdict:theorem", {"x": 1})

    second = VerificationCache(d)  # fresh process stand-in: empty memory
    assert second.get("fp123", "verdict:theorem") == {"x": 1}
    assert second.hits == 1

    files = list(d.glob("*.json"))
    assert len(files) == 1
    files[0].write_text("{ not json")
    third = VerificationCache(d)
    assert third.get("fp123", "verdict:theorem") is None
    assert third.misses == 1


# ----------------------------------------------------------------------
# graceful degradation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [0, 2])
def test_bad_job_degrades_to_error_record(workers):
    specs = [
        JobSpec("e-cube-mesh", "mesh:3x3", ("dally-seitz",)),
        JobSpec("no-such-algorithm", "mesh:3x3", ("dally-seitz",)),
        JobSpec("e-cube-mesh", "nowhere", ("dally-seitz",)),
    ]
    report = BatchVerifier(workers=workers).run(specs)
    assert len(report.jobs) == 3
    assert report.jobs[0].ok
    assert not report.jobs[1].ok and "KeyError" in report.jobs[1].error
    assert not report.jobs[2].ok and "unknown topology" in report.jobs[2].error
    assert report.errors == [report.jobs[1], report.jobs[2]]


def test_unknown_condition_is_an_error_not_a_crash():
    out = run_job(JobSpec("e-cube-mesh", "mesh:3x3", ("bogus",)))
    assert not out.ok
    assert "unknown condition" in out.error


# ----------------------------------------------------------------------
# report rendering and the CLI
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_report():
    specs = [
        JobSpec("e-cube-mesh", "mesh:3x3", FAST),
        JobSpec("no-such-algorithm", "mesh:3x3", FAST),
    ]
    return BatchVerifier(cache=VerificationCache()).run(specs)


def test_batch_json_export(small_report):
    doc = json.loads(batch_to_json(small_report))
    assert doc["workers"] == 1
    assert len(doc["jobs"]) == 2
    ok, bad = doc["jobs"]
    assert [c["key"] for c in ok["conditions"]] == list(FAST)
    assert all(c["deadlock_free"] for c in ok["conditions"])
    assert bad["error"] and bad["conditions"] == []
    assert doc["cache"]["stores"] >= 1


def test_batch_csv_export(small_report):
    rows = batch_to_csv(small_report).splitlines()
    assert rows[0].startswith("algorithm,topology,network,condition")
    # header + 2 condition rows for the good job + 1 ERROR row
    assert len(rows) == 4
    assert any(",ERROR," in r for r in rows)


def test_batch_table_export(small_report):
    text = batch_table(small_report)
    assert "e-cube-mesh" in text
    assert "ERROR" in text
    assert "2 jobs (1 errors)" in text
    assert "cache:" in text


def test_cli_verify_batch(capsys, tmp_path):
    rc = main([
        "verify-batch", "--algorithms", "e-cube-mesh,west-first",
        "--mesh-dims", "3,3", "--conditions", "theorem",
        "--cache-dir", str(tmp_path / "cli-cache"), "--format", "csv",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "e-cube-mesh" in out and "west-first" in out
    assert (tmp_path / "cli-cache").is_dir()


def test_cli_verify_batch_rejects_unknown_algorithm():
    with pytest.raises(SystemExit):
        main(["verify-batch", "--algorithms", "definitely-not-real"])
