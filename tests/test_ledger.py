"""Tests for the append-only run ledger (harness/ledger.py).

Covers the persistence contract (append/replay round-trip, corrupt and
foreign-schema lines degrade to skips), the engine integration (every
completed job is recorded with its source and wall time), and the key
isolation invariant: recording runs in the ledger never changes job
fingerprints or result-cache behaviour.
"""

import json

import pytest

from repro.config import SystemConfig
from repro.harness.engine import (
    SCHEMA_VERSION,
    ExperimentEngine,
    ResultCache,
    SimJob,
)
from repro.harness.ledger import (
    LEDGER_FILENAME,
    LEDGER_SCHEMA,
    LedgerEntry,
    RunLedger,
)

CFG = SystemConfig.small()
N, SEED = 500, 3


def job(bench="nw", model="nosec", n=N, seed=SEED):
    return SimJob.of(CFG, bench, model, n, seed)


def entry(**overrides):
    base = dict(
        bench="nw",
        model="salus",
        n_accesses=N,
        seed=SEED,
        config_fingerprint="c" * 64,
        job_fingerprint="j" * 64,
        result_fingerprint="r" * 64,
        source="run",
        wall_s=0.25,
        engine_schema=SCHEMA_VERSION,
        ipc=0.5,
        cycles=1000,
        instructions=500,
        fills=3,
        evictions=1,
        security_bytes=4096,
        total_bytes=65536,
        recorded="2026-01-01T00:00:00",
        metrics={"gpu.l2.hits": 10.0},
    )
    base.update(overrides)
    return LedgerEntry(**base)


class TestEntryRoundTrip:
    def test_json_line_round_trips_losslessly(self):
        original = entry()
        restored = LedgerEntry.from_json_line(original.to_json_line())
        assert restored == original

    def test_corrupt_line_is_skipped(self):
        assert LedgerEntry.from_json_line("{truncated") is None
        assert LedgerEntry.from_json_line('"a bare string"') is None

    def test_foreign_schema_is_skipped(self):
        line = entry().to_json_line().replace(
            f'"schema":{LEDGER_SCHEMA}', f'"schema":{LEDGER_SCHEMA + 1}'
        )
        assert LedgerEntry.from_json_line(line) is None

    def test_unknown_fields_are_skipped_not_crashed(self):
        data = json.loads(entry().to_json_line())
        data["from_the_future"] = True
        assert LedgerEntry.from_json_line(json.dumps(data)) is None


class TestReplay:
    def test_append_then_replay(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(entry(model="nosec"))
        ledger.append(entry(model="salus"))
        assert len(ledger) == 2
        assert [e.model for e in ledger.entries()] == ["nosec", "salus"]
        assert ledger.path == tmp_path / LEDGER_FILENAME

    def test_direct_jsonl_path(self, tmp_path):
        path = tmp_path / "custom.jsonl"
        ledger = RunLedger(path)
        ledger.append(entry())
        assert path.exists()
        assert len(RunLedger(path)) == 1

    def test_replay_skips_torn_and_foreign_lines(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(entry(model="nosec"))
        with ledger.path.open("a", encoding="utf-8") as fh:
            fh.write("{torn line\n")
            fh.write(json.dumps({"schema": LEDGER_SCHEMA + 7}) + "\n")
        ledger.append(entry(model="salus"))
        assert [e.model for e in ledger.entries()] == ["nosec", "salus"]

    def test_filters_and_limit(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for model in ("nosec", "salus", "nosec"):
            ledger.append(entry(model=model))
        ledger.append(entry(model="salus", source="disk"))
        assert len(ledger.entries(model="nosec")) == 2
        assert len(ledger.entries(source="disk")) == 1
        assert len(ledger.entries(bench="missing")) == 0
        # limit keeps the *latest* matches
        tail = ledger.entries(limit=2)
        assert [e.source for e in tail] == ["run", "disk"]

    def test_latest_by_job_keeps_last_entry(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(entry(source="run"))
        ledger.append(entry(source="disk"))
        latest = ledger.latest_by_job()
        assert len(latest) == 1
        assert next(iter(latest.values())).source == "disk"

    def test_missing_file_is_empty(self, tmp_path):
        assert len(RunLedger(tmp_path / "nowhere")) == 0
        assert RunLedger(tmp_path / "nowhere").entries() == []


class TestEngineIntegration:
    def test_completed_jobs_are_recorded_with_source(self, tmp_path):
        jobs = [job(model="nosec"), job(model="salus")]
        engine = ExperimentEngine(cache_dir=tmp_path)
        engine.map(jobs)
        ledger = RunLedger(tmp_path)
        first = {(e.label(), e.source) for e in ledger.entries()}
        assert first == {
            ("nw/nosec@500#3", "run"),
            ("nw/salus@500#3", "run"),
        }

        # A fresh engine replays from disk; the ledger records the hits too.
        warm = ExperimentEngine(cache_dir=tmp_path)
        warm.map(jobs)
        sources = [e.source for e in ledger.entries()]
        assert sources == ["run", "run", "disk", "disk"]

    def test_entry_matches_result(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        the_job = job(model="salus")
        result = engine.map([the_job])[the_job]
        (recorded,) = RunLedger(tmp_path).entries()
        assert recorded.job_fingerprint == the_job.fingerprint()
        assert recorded.result_fingerprint == result.fingerprint()
        assert recorded.config_fingerprint == CFG.fingerprint()
        assert recorded.ipc == pytest.approx(result.ipc)
        assert recorded.cycles == result.cycles
        assert recorded.metrics == dict(result.metrics)
        assert recorded.wall_s > 0.0
        assert recorded.engine_schema == SCHEMA_VERSION

    def test_ledger_disabled(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path, ledger=False)
        engine.map([job()])
        assert not (tmp_path / LEDGER_FILENAME).exists()

    def test_no_cache_dir_means_no_ledger(self):
        engine = ExperimentEngine()
        engine.map([job()])
        assert engine.ledger is None


class TestKeyIsolation:
    """The ledger must be invisible to the content-addressed cache."""

    def test_ledger_file_is_not_a_cache_entry(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        engine.map([job()])
        assert (tmp_path / LEDGER_FILENAME).exists()
        assert len(ResultCache(tmp_path)) == 1

    def test_recording_does_not_change_fingerprints_or_results(self, tmp_path):
        the_job = job(model="salus")
        bare = ExperimentEngine()  # memory-only, no ledger
        reference = bare.map([the_job])[the_job].fingerprint()

        with_ledger = ExperimentEngine(cache_dir=tmp_path)
        assert with_ledger.ledger is not None
        live = with_ledger.map([the_job])[the_job].fingerprint()
        assert live == reference
        assert the_job.fingerprint() == job(model="salus").fingerprint()
