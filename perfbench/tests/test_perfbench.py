"""Tests of the benchmark itself: traced-run invariants, failure accounting,
workload-property guards and the reference store.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
The workloads run here are shortened copies of the benchmark's, so the
recorded references do not apply and every job is unchecked unless a test
supplies references.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.memsys.request import Access, MemoryRequest
from repro.workloads import suite

from perfbench import bench
from perfbench.spans import LAYERS, SpanRecorder, traced
from perfbench.workloads import (
    WORKLOADS,
    record_references,
    references_for,
)

SEED = 3

#: Short versions of each workload. The oversub copy keeps the two
#: benchmarks that already evict at 4000 accesses, so its guard holds.
SMALL = {
    "fig10": replace(WORKLOADS["fig10"], accesses=500),
    "resident": replace(WORKLOADS["resident"], accesses=1500),
    "oversub": replace(WORKLOADS["oversub"], benches=("nw", "backprop"), accesses=4000),
}


def run_small(workload, refs=None):
    outcome, config = bench.measure(workload, SEED, 0.0, 0.0, refs, setup_reps=1)
    return outcome, config


@pytest.fixture(scope="module")
def traced_runs():
    runs = {}
    for name, workload in SMALL.items():
        outcome, config = run_small(workload)
        recorder = bench.trace_layers(outcome, config, spans_out=None)
        runs[name] = (outcome, recorder)
    return runs


def run_main(monkeypatch, capsys, workload, refs):
    """The command line on a shortened workload; returns (exit code, result)."""
    monkeypatch.setitem(bench.WORKLOADS, workload.name, workload)
    monkeypatch.setattr(bench, "references_for", lambda w, seed: refs)
    code = bench.main(["--workload", workload.name, "--seed", str(SEED),
                       "--seconds", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


# -- traced-run invariants ---------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_fingerprints_equal_untraced(traced_runs, name):
    outcome, _ = traced_runs[name]
    assert outcome.correct, [j.error for j in outcome.jobs] + outcome.problems
    assert outcome.layers is not None


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_times_and_unattributed_sum_to_traced_wall(traced_runs, name):
    outcome, recorder = traced_runs[name]
    self_total = sum(outcome.layers[f"{layer}.self_s"] for layer in LAYERS)
    unattributed = outcome.layers["trace.unattributed_s"]
    assert self_total + unattributed == pytest.approx(recorder.wall_s, rel=1e-9, abs=1e-9)
    assert unattributed >= 0.0
    assert all(agg[2] >= -1e-9 for agg in recorder.edges.values())


def test_every_layer_intercepts_calls_on_some_workload(traced_runs):
    seen = set()
    for _, recorder in traced_runs.values():
        seen |= {layer for layer, t in recorder.layer_totals().items() if t["calls"] > 0}
    assert seen == set(LAYERS)


def test_traced_restores_every_patched_attribute():
    from repro.gpu.gpusim import GpuSim
    from repro.security.none import NoSecurityModel

    before = (GpuSim.run, suite.build_trace, vars(NoSecurityModel).get("on_store"))
    with traced(SpanRecorder()):
        assert GpuSim.run is not before[0]
        assert "on_store" in vars(NoSecurityModel)
    assert (GpuSim.run, suite.build_trace, vars(NoSecurityModel).get("on_store")) == before


# -- failure accounting ------------------------------------------------------------

def test_raising_job_is_failed_and_the_rest_still_run(monkeypatch, capsys):
    original = suite.build_trace

    def build_with_bad_address(name, **kwargs):
        trace = original(name, **kwargs)
        if name == "btree":
            past_end = 1 << 40
            trace.requests.append(MemoryRequest(cxl_addr=past_end, access=Access.READ))
        return trace

    monkeypatch.setattr(suite, "build_trace", build_with_bad_address)
    code, result, lines = run_main(monkeypatch, capsys, SMALL["resident"], refs=None)
    assert code != 0
    assert (result["attempted"], result["failed"], result["correct"]) == (4, 1, False)
    assert any("FAILED btree/nosec: raised TraceError" in line for line in lines)
    assert any(line.split()[:2] == ["failed_frac", "0.25"] for line in lines)
    assert result["metrics"]["req_per_s"]["value"] > 0


def test_reference_mismatch_is_failed(monkeypatch, capsys):
    workload = SMALL["resident"]
    outcome, _ = run_small(workload)
    refs = {j.label: j.fingerprint for j in outcome.jobs}
    refs["kmeans/nosec"] = "0" * 64
    code, result, lines = run_main(monkeypatch, capsys, workload, refs=refs)
    assert code != 0
    assert (result["attempted"], result["failed"], result["correct"]) == (4, 1, False)
    assert any("FAILED kmeans/nosec: fingerprint" in line for line in lines)
    assert any("passed 3, unchecked 0" in line for line in lines)


def test_seed_without_references_is_unchecked_not_passed(monkeypatch, capsys):
    code, result, lines = run_main(monkeypatch, capsys, SMALL["resident"], refs=None)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert any("passed 0, unchecked 4" in line for line in lines)
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)


# -- workload-property guards --------------------------------------------------------

def _errors(outcome):
    return [j.error for j in outcome.jobs if j.error] + outcome.problems


def test_resident_guard_names_zero_evictions():
    outcome, _ = run_small(replace(SMALL["resident"], capacity_ratio=0.10, accesses=4000))
    assert any("'zero evictions'" in e for e in _errors(outcome))


def test_resident_guard_names_zero_security_bytes():
    outcome, _ = run_small(replace(SMALL["resident"], benches=("sgemm",), models=("salus",)))
    assert any("'zero security bytes'" in e for e in _errors(outcome))


def test_oversub_guard_names_evictions():
    outcome, _ = run_small(replace(SMALL["oversub"], capacity_ratio=1.0))
    assert any("'evictions > 0 in every job'" in e for e in _errors(outcome))


def test_oversub_guard_names_write_share():
    outcome, _ = run_small(replace(SMALL["oversub"], benches=("nw", "btree")))
    assert any("writes more than every resident trace" in e for e in _errors(outcome))


def test_fig10_guard_names_the_job_matrix():
    outcome, _ = run_small(replace(SMALL["fig10"], benches=("nw",)))
    assert any("all 12 suite benchmarks x 3 models" in e for e in _errors(outcome))


# -- reference store ------------------------------------------------------------------

def test_recorded_references_cover_default_and_held_out_seeds():
    for workload in WORKLOADS.values():
        for seed in (7, 11):
            refs = references_for(workload, seed)
            assert refs is not None, (workload.name, seed)
            assert sorted(refs) == sorted(f"{b}/{m}" for b, m in workload.jobs())


def test_references_apply_only_at_their_trace_length(tmp_path):
    workload = SMALL["resident"]
    record_references(workload, 5, {"sgemm/nosec": "ab"}, directory=tmp_path)
    assert references_for(workload, 5, directory=tmp_path) == {"sgemm/nosec": "ab"}
    assert references_for(workload, 6, directory=tmp_path) is None
    assert references_for(replace(workload, accesses=1600), 5, directory=tmp_path) is None


def test_benchmark_json_declares_the_printed_metrics():
    from pathlib import Path

    declared = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8")
    )
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
    for key, units in (("end_to_end", bench.END_TO_END_UNITS),
                       ("per_layer", bench.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in declared[key]} == units
