"""Tests for the observability layer: tracer, metrics taxonomy, reports.

Covers the guarantees the docs promise: a disabled tracer is free and never
perturbs results, ring eviction is deterministic, begin/end nesting is
balanced per component, the Chrome-trace export is schema-valid, and the
``repro trace`` golden file is byte-stable across parallelism settings.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.config import SystemConfig
from repro.errors import SimulationError
from repro.gpu.gpusim import RunResult
from repro.harness.engine import ExperimentEngine, SimJob
from repro.harness.report import render_csv, render_markdown_report
from repro.harness.runner import run_model
from repro.sim.events import EventQueue, PeriodicSampler
from repro.sim.metrics import channel_security_shares, derived_metrics, subtree
from repro.sim.trace import NULL_TRACER, Tracer, resolve_tracer
from repro.workloads.suite import build_trace

CFG = SystemConfig.small()
N, SEED = 500, 3


def small_trace(bench="nw"):
    return build_trace(bench, n_accesses=N, seed=SEED, num_sms=CFG.gpu.num_sms)


# -- tracer core ------------------------------------------------------------

class TestTracerCore:
    def test_disabled_tracer_records_nothing(self):
        t = Tracer(capacity=100, enabled=False)
        t.span("c", "op", 0, 10)
        t.instant("c", "evt", 5)
        t.counter("ctr", 5, {"x": 1})
        t.begin("c", "outer", 0)
        t.end("c", 1)
        assert len(t) == 0
        assert t.total_recorded == 0
        assert t.open_span_depth("c") == 0

    def test_zero_capacity_forces_disabled(self):
        assert not Tracer(capacity=0).enabled
        assert not NULL_TRACER.enabled

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=-1)

    def test_resolve_tracer(self):
        assert resolve_tracer(None) is NULL_TRACER
        t = Tracer()
        assert resolve_tracer(t) is t

    def test_ring_eviction_is_deterministic_oldest_first(self):
        t = Tracer(capacity=8)
        for ts in range(20):
            t.instant("c", f"e{ts}", ts)
        assert t.total_recorded == 20
        assert t.dropped == 12
        assert len(t) == 8
        # The ring retains exactly the newest 8 events, oldest first.
        assert [e[4] for e in t.events()] == list(range(12, 20))

    def test_ring_not_full_keeps_insertion_order(self):
        t = Tracer(capacity=8)
        for ts in range(5):
            t.instant("c", f"e{ts}", ts)
        assert t.dropped == 0
        assert [e[4] for e in t.events()] == [0, 1, 2, 3, 4]

    def test_span_clamps_negative_duration(self):
        t = Tracer(capacity=4)
        t.span("c", "op", 10, -5)
        assert t.events()[0][5] == 0

    def test_begin_end_nesting(self):
        t = Tracer(capacity=16)
        t.begin("c", "outer", 0)
        t.begin("c", "inner", 1)
        assert t.open_span_depth("c") == 2
        t.end("c", 2)
        assert t.open_span_depth("c") == 1
        t.end("c", 3)
        assert t.open_span_depth("c") == 0
        phases = [e[0] for e in t.events()]
        assert phases == ["B", "B", "E", "E"]
        # LIFO: the first end closes the innermost begin.
        assert [e[2] for e in t.events()] == ["outer", "inner", "inner", "outer"]

    def test_nesting_is_per_component(self):
        t = Tracer(capacity=16)
        t.begin("a", "op", 0)
        t.begin("b", "op", 0)
        t.end("a", 1)
        assert t.open_span_depth("a") == 0
        assert t.open_span_depth("b") == 1

    def test_unbalanced_end_is_a_noop(self):
        t = Tracer(capacity=16)
        t.end("c", 5)
        assert len(t) == 0
        t.begin("c", "op", 0)
        t.end("c", 1)
        t.end("c", 2)  # extra end after the stack emptied
        assert len(t) == 2


# -- Chrome export ----------------------------------------------------------

def validate_chrome_trace(doc):
    """Minimal Chrome Trace Event Format (JSON object flavour) checker."""
    assert isinstance(doc, dict)
    assert isinstance(doc["traceEvents"], list)
    for event in doc["traceEvents"]:
        assert isinstance(event["name"], str)
        assert event["ph"] in ("X", "B", "E", "i", "C", "M")
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] == "M":
            assert event["name"] in ("process_name", "thread_name")
            assert "name" in event["args"]
            continue
        assert isinstance(event["ts"], int)
        if event["ph"] == "X":
            assert isinstance(event["dur"], int) and event["dur"] >= 0
        if event["ph"] == "i":
            assert event["s"] in ("t", "p", "g")
        if event["ph"] == "C":
            assert all(
                isinstance(v, (int, float)) for v in event["args"].values()
            )


class TestChromeExport:
    def test_export_schema(self):
        t = Tracer(capacity=64)
        t.span("chan", "read", 0, 10, cat="mem", args={"bytes": 32})
        t.instant("ctr[0]", "miss", 4, cat="metadata")
        t.counter("traffic", 8, {"dev": 1, "cxl": 2})
        t.begin("salus", "fetch", 2)
        t.end("salus", 9)
        validate_chrome_trace(t.to_chrome())

    def test_metadata_events_lead_and_tids_are_sorted(self):
        t = Tracer(capacity=64)
        t.instant("zeta", "z", 0)
        t.instant("alpha", "a", 1)
        doc = t.to_chrome()
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert doc["traceEvents"][: len(metas)] == metas
        names = [e["args"]["name"] for e in metas if e["name"] == "thread_name"]
        assert names == ["alpha", "zeta"]
        tids = {e["args"]["name"]: e["tid"] for e in metas if e["name"] == "thread_name"}
        assert tids["alpha"] < tids["zeta"]

    def test_dropped_count_exported(self):
        t = Tracer(capacity=4)
        for ts in range(10):
            t.instant("c", "e", ts)
        doc = t.to_chrome()
        assert doc["otherData"]["dropped_events"] == 6
        assert doc["otherData"]["total_events"] == 10

    def test_write_is_deterministic(self, tmp_path):
        def build():
            t = Tracer(capacity=64)
            t.span("chan", "read", 0, 10, args={"bytes": 32})
            t.instant("ctr", "miss", 4)
            return t

        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        build().write(p1)
        build().write(p2)
        assert p1.read_bytes() == p2.read_bytes()
        validate_chrome_trace(json.loads(p1.read_text()))


# -- sampler ----------------------------------------------------------------

class TestPeriodicSampler:
    def test_fires_on_epoch_boundaries(self):
        queue = EventQueue()
        seen = []
        sampler = PeriodicSampler(queue, 100, seen.append)
        queue.run(until=350)
        assert seen == [100, 200, 300]
        assert sampler.samples == 3

    def test_stop_halts_future_fires(self):
        queue = EventQueue()
        seen = []
        sampler = PeriodicSampler(queue, 100, seen.append)
        queue.run(until=150)
        sampler.stop()
        queue.run(until=1000)
        assert seen == [100]

    def test_rejects_nonpositive_epoch(self):
        with pytest.raises(SimulationError):
            PeriodicSampler(EventQueue(), 0, lambda now: None)


# -- simulation integration -------------------------------------------------

class TestTracedSimulation:
    def test_tracing_never_changes_results(self):
        untraced = run_model(CFG, small_trace(), "salus")
        traced = run_model(CFG, small_trace(), "salus", tracer=Tracer())
        assert traced.to_dict() == untraced.to_dict()

    def test_traced_run_emits_all_phases(self):
        tracer = Tracer()
        run_model(CFG, small_trace(), "salus", tracer=tracer)
        phases = {e[0] for e in tracer.events()}
        assert {"X", "i", "C"} <= phases
        validate_chrome_trace(tracer.to_chrome())

    def test_traced_run_covers_expected_components(self):
        tracer = Tracer()
        run_model(CFG, small_trace(), "salus", tracer=tracer)
        components = {e[1] for e in tracer.events() if e[1]}
        assert any(c.startswith("hbm[") for c in components)  # memory channels
        assert any(c.startswith("l2[") for c in components)
        assert any(c.startswith("ctr[") for c in components)  # metadata caches
        assert any(c.startswith("sm") for c in components)
        assert {"migration", "salus"} <= components

    def test_no_open_spans_after_run(self):
        tracer = Tracer()
        run_model(CFG, small_trace(), "salus", tracer=tracer)
        components = {e[1] for e in tracer.events() if e[1]}
        assert all(tracer.open_span_depth(c) == 0 for c in components)


# -- metric taxonomy --------------------------------------------------------

class TestMetrics:
    @pytest.fixture(scope="class")
    def result(self):
        return run_model(CFG, small_trace(), "salus")

    def test_metric_tree_shape(self, result):
        tree = result.metrics
        assert tree["sim.instructions"] > 0
        assert tree["sim.final_cycle"] > 0
        assert any(k.startswith("gpu.channel") for k in tree)
        assert any(k.startswith("cxl.rx.") for k in tree)
        assert any(k.startswith("meta.") for k in tree)
        assert "migration.fills" in tree

    def test_subtree_filters_by_prefix(self, result):
        mig = subtree(result.metrics, "migration")
        assert set(mig) == {
            "migration.fills",
            "migration.evictions",
            "migration.evict_stall_cycles",
        }
        assert mig["migration.fills"] == result.fills

    def test_derived_metrics(self, result):
        derived = derived_metrics(result.metrics, result.stats)
        assert derived["derived.ipc"] == pytest.approx(result.ipc)
        assert 0 < derived["derived.security_share.total"] < 1
        assert 0 <= derived["derived.l2_hit_rate"] <= 1

    def test_channel_security_shares(self, result):
        shares = channel_security_shares(result.metrics)
        assert shares, "expected per-component share entries"
        assert all(0 <= v <= 1 for v in shares.values())
        # Salus on an oversubscribed footprint moves security traffic.
        assert any(v > 0 for v in shares.values())

    def test_metrics_survive_serialization(self, result):
        restored = RunResult.from_dict(result.to_dict())
        assert restored.metrics == result.metrics

    def test_nosec_has_zero_security_share(self):
        result = run_model(CFG, small_trace(), "nosec")
        derived = derived_metrics(result.metrics, result.stats)
        assert derived["derived.security_share.total"] == 0


# -- reports ----------------------------------------------------------------

class TestReports:
    @pytest.fixture(scope="class")
    def results(self):
        return [run_model(CFG, small_trace(), m) for m in ("nosec", "salus")]

    def test_markdown_report_sections(self, results):
        text = render_markdown_report(results)
        assert "## nw / salus" in text
        assert "Per-component security-traffic share" in text
        assert "derived.security_share.total" in text

    def test_markdown_report_from_serialized_results_is_identical(self, results):
        restored = [RunResult.from_dict(r.to_dict()) for r in results]
        assert render_markdown_report(restored) == render_markdown_report(results)

    def test_csv_report_is_parseable(self, results):
        lines = render_csv(results).splitlines()
        assert lines[0] == "workload,model,metric,value"
        assert len(lines) > 10
        for line in lines[1:]:
            workload, model, metric, value = line.split(",")
            float(value)  # must parse
        assert any(",salus,derived.security_share.total," in l for l in lines)


# -- engine + CLI integration ----------------------------------------------

class TestEngineTracing:
    def test_engine_writes_one_trace_per_job(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=None, trace_dir=tmp_path)
        jobs = [SimJob.of(CFG, "nw", m, N, SEED) for m in ("nosec", "salus")]
        engine.map(jobs)
        files = sorted(tmp_path.glob("*.trace.json"))
        assert len(files) == 2
        for f in files:
            validate_chrome_trace(json.loads(f.read_text()))

    def test_tracing_bypasses_cache_but_matches_cached_results(self, tmp_path):
        cache, traces = tmp_path / "cache", tmp_path / "traces"
        plain = ExperimentEngine(jobs=1, cache_dir=cache)
        tracing = ExperimentEngine(jobs=1, cache_dir=cache, trace_dir=traces)
        job = SimJob.of(CFG, "nw", "salus", N, SEED)
        first = plain.map([job])[job]
        second = tracing.map([job])[job]
        assert tracing.stats.simulations == 1  # cache hit was skipped
        assert second.to_dict() == first.to_dict()
        assert list(traces.glob("*.trace.json"))


class TestCliGoldenTrace:
    RECIPE = ["nw", "--accesses", str(N), "--seed", str(SEED)]

    def test_trace_json_byte_stable_across_jobs(self, tmp_path, capsys):
        # 'repro trace' simulates in-process; 'run --trace --jobs 2' writes
        # the same job's trace from a worker process. Same bytes either way.
        serial = tmp_path / "serial.json"
        assert main(["trace", *self.RECIPE, "--trace-out", str(serial)]) == 0
        traces = tmp_path / "parallel"
        assert main(
            ["run", *self.RECIPE, "--models", "nosec", "salus", "--no-cache",
             "--trace", "--trace-out", str(traces), "--jobs", "2"]
        ) == 0
        capsys.readouterr()
        (parallel,) = traces.glob("nw-salus-*.trace.json")
        assert serial.read_bytes() == parallel.read_bytes()
        validate_chrome_trace(json.loads(serial.read_text(encoding="utf-8")))

    def test_trace_npz_export_still_works(self, tmp_path, capsys):
        out = tmp_path / "nw.npz"
        assert main(["trace", "nw", str(out), "--accesses", "300"]) == 0
        assert "requests" in capsys.readouterr().out
        assert out.exists()

    def test_report_command_renders_markdown(self, tmp_path, capsys):
        result = run_model(CFG, small_trace(), "salus")
        path = tmp_path / "r.json"
        path.write_text(json.dumps([result.to_dict()]))
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Per-component security-traffic share" in out

    def test_report_command_csv_to_file(self, tmp_path, capsys):
        result = run_model(CFG, small_trace(), "nosec")
        path = tmp_path / "r.json"
        path.write_text(json.dumps(result.to_dict()))  # bare dict accepted
        out = tmp_path / "report.csv"
        assert main(["report", str(path), "--format", "csv", "-o", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text().startswith("workload,model,metric,value")
