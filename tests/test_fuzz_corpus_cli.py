"""Corpus persistence/replay, the campaign runner, and the CLI entry points."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.fuzz.corpus import (
    CorpusEntry,
    load_corpus,
    replay_entry,
    resolve_stack,
    save_entry,
)
from repro.fuzz.generators import CaseSpec, build_case, stable_bits
from repro.fuzz.oracles import REAL_STACK
from repro.fuzz.runner import (
    FuzzConfig,
    replay_corpus,
    replay_verdict,
    run_campaign,
)
from repro.fuzz.table import TableCase

from tests.generative import SESSION_SEED

MASTER = stable_bits(SESSION_SEED, "fuzz-corpus-tests")


def _entry(stack: str = "real", keys=("free-vs-deadlock:theorem<>sim",)) -> CorpusEntry:
    table = TableCase.materialize(
        build_case(CaseSpec("irregular", stable_bits(MASTER, "entry")))
    )
    return CorpusEntry(stack=stack, table=table, discrepancy_keys=list(keys),
                       spec=CaseSpec("irregular", 1), note="test entry")


def test_save_load_round_trip(tmp_path):
    entry = _entry()
    path = save_entry(tmp_path, entry)
    assert path.name == entry.filename()
    again = save_entry(tmp_path, entry)  # idempotent: content-addressed
    assert again == path
    loaded = load_corpus(tmp_path)
    assert len(loaded) == 1
    lpath, lentry = loaded[0]
    assert lpath == path
    assert lentry.table == entry.table
    assert lentry.discrepancy_keys == sorted(entry.discrepancy_keys)


def test_load_corpus_missing_dir_is_empty(tmp_path):
    assert load_corpus(tmp_path / "nope") == []


def test_corpus_rejects_unknown_format(tmp_path):
    doc = _entry().payload()
    doc["format"] = 999
    with pytest.raises(ValueError, match="unsupported corpus format"):
        CorpusEntry.from_json(doc)


def test_resolve_stack():
    assert resolve_stack("real") is REAL_STACK
    assert resolve_stack("planted:cwg-immediate").name == "planted:cwg-immediate"
    with pytest.raises(ValueError, match="unknown oracle stack"):
        resolve_stack("imaginary")


def test_replay_verdict_polarity():
    planted = replay_entry(_shipped_planted_entry())
    assert planted.ok and planted.reproduced and planted.deterministic
    ok, why = replay_verdict(planted)
    assert ok, why

    # the same table recorded as a REAL entry: the production stack stays
    # quiet on it, which replay_verdict reads as "historical bug, fixed"
    real_twin = CorpusEntry(stack="real",
                            table=planted.entry.table,
                            discrepancy_keys=list(planted.entry.discrepancy_keys))
    result = replay_entry(real_twin)
    assert not result.reproduced
    ok, why = replay_verdict(result)
    assert ok, why


def _shipped_planted_entry() -> CorpusEntry:
    from pathlib import Path

    corpus = Path(__file__).resolve().parents[1] / "corpus"
    path = corpus / "planted-cwg-immediate-80d9299996c5.json"
    return CorpusEntry.from_json(json.loads(path.read_text()))


def test_shipped_corpus_replays_clean():
    """The committed corpus is CI's teeth check: planted entries must keep
    firing deterministically."""
    from pathlib import Path

    corpus = Path(__file__).resolve().parents[1] / "corpus"
    fast = [p for p, e in load_corpus(corpus)
            if len(e.table.channels) <= 8]
    assert fast, "expected small shipped reproducers"
    report = replay_corpus_paths(corpus, keep=set(fast))
    assert report.ok, [why for _r, why in report.failures]


def replay_corpus_paths(corpus_dir, keep):
    """replay_corpus limited to selected paths (skip the slow big entries)."""
    import time

    from repro.fuzz.runner import ReplayReport

    t0 = time.perf_counter()
    results = [replay_entry(e, p) for p, e in load_corpus(corpus_dir) if p in keep]
    return ReplayReport(results=results, seconds=time.perf_counter() - t0)


@pytest.mark.slow
def test_full_shipped_corpus_replays_clean():
    from pathlib import Path

    report = replay_corpus(Path(__file__).resolve().parents[1] / "corpus")
    assert report.ok, [why for _r, why in report.failures]


def test_small_campaign_is_deterministic_and_clean():
    cfg = FuzzConfig(seed=MASTER, max_cases=10, families=("irregular", "arbitrary"))
    a, b = run_campaign(cfg), run_campaign(cfg)
    assert a.clean and b.clean
    assert [c.spec for c in a.cases] == [c.spec for c in b.cases]
    assert [c.discrepancy_keys for c in a.cases] == [c.discrepancy_keys for c in b.cases]


def test_campaign_requires_a_budget():
    with pytest.raises(ValueError, match="budget"):
        run_campaign(FuzzConfig(max_cases=None, max_seconds=None))


def test_campaign_finds_and_saves_planted_discrepancy(tmp_path):
    """A tiny fixed-seed planted campaign: catch, shrink, save, replay."""
    cfg = FuzzConfig(seed=42, max_cases=None, max_seconds=20,
                     families=("arbitrary",), stack="planted:cwg-immediate",
                     corpus_dir=str(tmp_path / "corpus"))
    report = run_campaign(cfg)
    if not report.discrepancies:  # 20s budget on a very slow machine
        pytest.skip("planted campaign found nothing within the time budget")
    found = report.discrepancies[0]
    assert found.corpus_path is not None
    loaded = load_corpus(tmp_path / "corpus")
    assert loaded
    result = replay_entry(loaded[0][1], loaded[0][0])
    assert result.ok


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_fuzz_small_campaign(capsys):
    rc = main(["fuzz", "--seed", "3", "--cases", "6", "--families", "irregular"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fuzz campaign: seed=3" in out
    assert "discrepancies: none" in out


def test_cli_fuzz_rejects_unknown_family():
    with pytest.raises(SystemExit, match="unknown families"):
        main(["fuzz", "--families", "bogus"])


def test_cli_fuzz_replay_shipped_corpus_entry(tmp_path, capsys):
    entry = _shipped_planted_entry()
    save_entry(tmp_path, entry)
    rc = main(["fuzz", "--replay-corpus", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "reproduced" in out


def test_cli_fuzz_replay_missing_corpus_fails(tmp_path, capsys):
    missing = tmp_path / "no-such-corpus"
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--replay-corpus", str(missing)])
    assert exc.value.code == f"corpus directory {str(missing)!r} does not exist"
    assert "entries" not in capsys.readouterr().out


def test_cli_regen_golden_refuses_without_force(capsys):
    with pytest.raises(SystemExit, match="refusing to regenerate"):
        main(["regen-golden"])


def test_cli_regen_golden_force_writes_alternate_fixture(tmp_path, capsys):
    target = tmp_path / "golden.json"
    rc = main(["regen-golden", "--force", "--only", "hpl-specific-u11",
               "--fixture", str(target)])
    assert rc == 0
    doc = json.loads(target.read_text())
    assert set(doc) == {"hpl-specific-u11"}

    # --check against the fresh fixture passes for the regenerated case
    import tests.golden_matrix as gm

    assert doc["hpl-specific-u11"] == gm.load_fixture()["hpl-specific-u11"]


def test_cli_regen_golden_rejects_unknown_case():
    with pytest.raises(SystemExit, match="unknown golden cases"):
        main(["regen-golden", "--force", "--only", "no-such-case"])
