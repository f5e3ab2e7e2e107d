"""Benchmark driver: set up a workload, time its jobs, check them, report.

One process, one thread. Each run:

1. builds the workload's configuration and traces ``SETUP_REPS`` times
   (set-up time is the import time plus the median build);
2. runs every job through ``repro.harness.runner.run_model`` on the
   default request path, pass after pass, until ``--seconds`` have gone
   (at least one pass); every pass simulates the same inputs. Calibration
   slices after each timed step measure the host's speed (:class:`HostSpeed`),
   and the gated times are reported as they would read on the reference host;
3. checks every job: it must not raise, its fingerprint must equal the
   recorded reference for the seed (jobs of a seed with no reference are
   *unchecked*), repeat exactly in every pass, keep the workload's property
   guard and pass the reference-free sanity checks;
4. with ``--trace 1``, adds one traced pass (``spans.traced``) that must
   reproduce the untraced fingerprints, and reports per-layer metrics;
5. prints every metric by name with its unit, then one JSON line.

The exit code is 0 only if every job passed or was unchecked and every
workload property held.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.harness.runner import run_model
from repro.kernel import resolve_kernel
from repro.workloads.trace import Trace

from .spans import SpanRecorder, traced
from .workloads import (
    WORKLOADS,
    Workload,
    job_guard,
    job_label,
    paper_errors,
    record_references,
    references_for,
    sanity_check,
    workload_guard,
)

SETUP_REPS = 5
#: Iterations of one calibration slice (a few ms); see :class:`HostSpeed`.
CALIBRATION_ITERS = 10_000
#: Calibration time run after each setup repetition and each job, as a
#: share of that step's wall time.
CALIBRATION_SHARE = 0.25
#: The reference host runs the calibration loop at this many seconds per
#: 1000 iterations; times are reported as they would read on it.
REFERENCE_S_PER_KITER = 0.2e-3
OUT_DIR = Path(__file__).resolve().parent / "out"

END_TO_END_UNITS = {"req_per_s": "req/s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER_UNITS = {
    "workloads.self_s": "s",
    "kernel.self_s": "s",
    "gpu.calls": "count", "gpu.self_s": "s",
    "cxl.calls": "count", "cxl.self_s": "s", "cxl.hit_ratio": "ratio",
    "migration.calls": "count", "migration.self_s": "s",
    "migration.fills": "count", "migration.evictions": "count",
    "memsys.l2.calls": "count", "memsys.l2.self_s": "s", "memsys.l2.hit_ratio": "ratio",
    "memsys.cache.calls": "count", "memsys.cache.self_s": "s",
    "memsys.channel.calls": "count", "memsys.channel.self_s": "s",
    "memsys.channel.calls_per_req": "calls/req",
    "security.fabric.calls": "count", "security.fabric.self_s": "s",
    "security.model.calls": "count", "security.model.self_s": "s",
    "security.bytes_per_req": "B/req",
    "core.calls": "count", "core.self_s": "s",
    "metadata.calls": "count", "metadata.self_s": "s", "metadata.hit_ratio": "ratio",
    "sim.self_s": "s",
    "trace.overhead_ratio": "x", "trace.unattributed_s": "s",
}


class _Slot:
    __slots__ = ("key", "total")

    def __init__(self, key: int) -> None:
        self.key = key
        self.total = 0


def calibrate(iters: int = CALIBRATION_ITERS) -> float:
    """Seconds a fixed pure-Python loop of dict and attribute traffic takes now."""
    table: Dict[int, int] = {}
    slots = [_Slot(i) for i in range(512)]
    start = perf_counter()
    for i in range(iters):
        key = (i * 7919) & 4095
        slot = slots[i & 511]
        slot.total += table.get(key, 1)
        table[key] = slot.key
    return perf_counter() - start


class HostSpeed:
    """How fast this host runs interpreter code during the run.

    A shared host's speed drifts by tens of percent within minutes. After
    every timed step, :meth:`follow` runs calibration slices - a fixed loop
    that runs no simulator code, so only the host moves it - for
    ``CALIBRATION_SHARE`` of the step's time. :attr:`slowness` is their
    mean time per iteration over the reference host's; times divided by it
    read as they would on the reference host.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.iters = 0
        self._owed = 0.0

    def follow(self, step_s: float) -> None:
        self._owed += CALIBRATION_SHARE * step_s
        while self._owed > 0.0:
            spent = calibrate()
            self.seconds += spent
            self.iters += CALIBRATION_ITERS
            self._owed -= spent

    @property
    def slowness(self) -> float:
        if not self.iters:
            return 1.0
        return 1000.0 * self.seconds / self.iters / REFERENCE_S_PER_KITER


@dataclass
class Job:
    bench: str
    model: str
    requests: int = 0
    walls: List[float] = field(default_factory=list)
    fingerprint: Optional[str] = None
    result: object = None
    checked: bool = False
    error: Optional[str] = None

    @property
    def label(self) -> str:
        return job_label(self.bench, self.model)


@dataclass
class Outcome:
    """Everything one benchmark run measured and checked."""

    workload: Workload
    seed: int
    engine: str
    jobs: List[Job]
    #: Wall seconds from benchmark entry to the first timed simulation.
    setup_wall_s: float
    build_s: float
    passes: int
    host: HostSpeed
    problems: List[str]
    layers: Optional[Dict[str, float]] = None

    @property
    def failed(self) -> int:
        return sum(1 for j in self.jobs if j.error is not None)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def live(self) -> List[Job]:
        return [j for j in self.jobs if j.error is None]

    def pass_sim_s(self) -> float:
        """Mean simulation seconds of one pass over the live jobs."""
        return sum(statistics.mean(j.walls) for j in self.live())

    def wall_req_per_s(self) -> float:
        live = self.live()
        sim_s = sum(sum(j.walls) for j in live)
        return sum(j.requests * len(j.walls) for j in live) / sim_s if sim_s else 0.0

    def end_to_end(self) -> Dict[str, float]:
        """The gated metrics; times as they would read on the reference host."""
        slowness = self.host.slowness
        return {
            "req_per_s": self.wall_req_per_s() * slowness,
            "setup_s": self.setup_wall_s / slowness,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def fresh(trace: Trace) -> Trace:
    """A new ``Trace`` over the same requests, so every pass pays the same
    per-trace work (the columnar view a trace caches on first use)."""
    return Trace(name=trace.name, footprint_pages=trace.footprint_pages,
                 compute_per_mem=trace.compute_per_mem, requests=trace.requests)


def setup(workload: Workload, seed: int, host: HostSpeed, reps: int = SETUP_REPS):
    """Build config and traces ``reps`` times; returns them with the median build time."""
    times = []
    for _ in range(max(1, reps)):
        start = perf_counter()
        config = workload.config()
        traces = workload.build_traces(seed, config)
        times.append(perf_counter() - start)
        host.follow(times[-1])
    return config, traces, statistics.median(times)


def run_pass(workload: Workload, config, traces: Dict, jobs: List[Job],
             refs: Optional[Dict[str, str]], first: bool, host: HostSpeed) -> None:
    """Simulate every live job once, timing ``run_model`` alone, then
    calibrate ``host`` and check the job."""
    views = {b: fresh(t) for b, t in traces.items() if isinstance(t, Trace)}
    for job in jobs:
        if job.error is not None:
            continue
        trace = traces[job.bench]
        if not isinstance(trace, Trace):
            job.error = f"trace generation raised {type(trace).__name__}: {trace}"
            continue
        start = perf_counter()
        try:
            result = run_model(config, views[job.bench], job.model)
        except Exception as exc:  # counted as a failed job; the rest still run
            job.error = f"raised {type(exc).__name__}: {exc}"
            continue
        job.walls.append(perf_counter() - start)
        host.follow(job.walls[-1])
        fingerprint = result.fingerprint()
        if not first:
            if fingerprint != job.fingerprint:
                job.error = (f"fingerprint {fingerprint[:12]} differs from the "
                             f"first pass's {job.fingerprint[:12]}")
            continue
        job.fingerprint, job.result, job.requests = fingerprint, result, len(trace)
        if refs is not None:
            job.checked = True
            expected = refs.get(job.label)
            if fingerprint != expected:
                job.error = (f"fingerprint {fingerprint[:12]} != reference "
                             f"{(expected or 'missing')[:12]}")
                continue
        job.error = sanity_check(result, trace) or job_guard(workload, result)


def measure(workload: Workload, seed: int, seconds: float, t_import: float,
            refs: Optional[Dict[str, str]],
            setup_reps: int = SETUP_REPS) -> Tuple[Outcome, object]:
    """Set up, then run untraced passes until ``seconds`` have gone.

    ``refs`` maps job labels to reference fingerprints; ``None`` leaves
    every job unchecked.
    """
    host = HostSpeed()
    host.follow(t_import)
    config, traces, build_s = setup(workload, seed, host, setup_reps)
    jobs = [Job(b, m) for b, m in workload.jobs()]
    start = perf_counter()
    passes = 0
    while passes == 0 or (perf_counter() - start < seconds
                          and any(j.error is None for j in jobs)):
        run_pass(workload, config, traces, jobs, refs, passes == 0, host)
        passes += 1
    outcome = Outcome(
        workload=workload, seed=seed, engine=resolve_kernel(None), jobs=jobs,
        setup_wall_s=t_import + build_s, build_s=build_s, passes=passes, host=host,
        problems=workload_guard(workload, seed, traces),
    )
    return outcome, config


def trace_layers(outcome: Outcome, config, spans_out: Optional[Path]) -> SpanRecorder:
    """One traced pass: rebuild the traces and rerun every live job with
    every layer boundary wrapped. A job whose traced fingerprint differs
    from its untraced one fails. Fills ``outcome.layers``."""
    workload = outcome.workload
    live = outcome.live()
    recorder = SpanRecorder()
    results = {}
    with traced(recorder):
        start = perf_counter()
        traces = workload.build_traces(outcome.seed, config)
        for job in live:
            recorder.job = job.label
            try:
                results[job.label] = run_model(config, traces[job.bench], job.model)
            except Exception as exc:  # a failed job, checked below
                results[job.label] = exc
        recorder.job = None
        recorder.wall_s = wall = perf_counter() - start
    for job in live:
        result = results[job.label]
        if isinstance(result, Exception):
            job.error = f"traced run raised {type(result).__name__}: {result}"
        elif result.fingerprint() != job.fingerprint:
            job.error = (f"traced fingerprint {result.fingerprint()[:12]} != "
                         f"untraced {job.fingerprint[:12]}")
    done = [j for j in live if not isinstance(results[j.label], Exception)]
    outcome.layers = layer_metrics(
        recorder, [results[j.label] for j in done], sum(j.requests for j in done),
        wall, untraced_s=outcome.build_s + outcome.pass_sim_s(),
    )
    if spans_out is not None:
        recorder.dump(spans_out, {
            "workload": workload.name, "seed": outcome.seed,
            "engine": outcome.engine, "wall_s": wall,
        })
    return recorder


def _hit_ratio(results, prefixes: Tuple[str, ...], depth: Optional[int] = None) -> float:
    """Summed ``*.hits`` over summed ``*.hits + *.misses`` in the results'
    metric trees, for keys under ``prefixes`` (of ``depth`` dotted parts)."""
    hits = misses = 0
    for result in results:
        for key, value in result.metrics.items():
            if not key.startswith(prefixes):
                continue
            if depth is not None and key.count(".") + 1 != depth:
                continue
            if key.endswith(".hits"):
                hits += value
            elif key.endswith(".misses"):
                misses += value
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(recorder: SpanRecorder, results: List, requests: int,
                  wall: float, untraced_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass over ``requests`` requests."""
    totals = recorder.layer_totals()
    out: Dict[str, float] = {}
    for layer, total in totals.items():
        out[f"{layer}.calls"] = total["calls"]
        out[f"{layer}.self_s"] = total["self_s"]
    out["cxl.hit_ratio"] = _hit_ratio(results, ("gpu.mapping.",))
    out["memsys.l2.hit_ratio"] = _hit_ratio(results, ("gpu.l2.",))
    # meta.device<i>.<kind>.* and meta.cxl.<kind>.*: the per-device and
    # per-plane aliases of the expander caches sit one level deeper and
    # would count twice.
    out["metadata.hit_ratio"] = _hit_ratio(results, ("meta.device", "meta.cxl."), depth=4)
    out["migration.fills"] = sum(r.fills for r in results)
    out["migration.evictions"] = sum(r.evictions for r in results)
    out["memsys.channel.calls_per_req"] = totals["memsys.channel"]["calls"] / max(1, requests)
    out["security.bytes_per_req"] = sum(r.security_traffic() for r in results) / max(1, requests)
    out["trace.overhead_ratio"] = wall / untraced_s if untraced_s else 0.0
    out["trace.unattributed_s"] = wall - recorder.covered_s
    return {name: out[name] for name in PER_LAYER_UNITS}


# -- command line ----------------------------------------------------------------

def report(outcome: Outcome, trace: bool) -> Dict:
    """Print every metric by name with its unit; return the result object."""
    w = outcome.workload
    checked = sum(1 for j in outcome.jobs if j.checked)
    passed = sum(1 for j in outcome.jobs if j.checked and j.error is None)
    print(f"perfbench: workload={w.name} seed={outcome.seed} engine={outcome.engine} "
          f"jobs={len(outcome.jobs)} accesses={w.accesses} passes={outcome.passes}")
    for job in outcome.jobs:
        if job.error is not None:
            print(f"  FAILED {job.label}: {job.error}")
    for problem in outcome.problems:
        print(f"  FAILED {problem}")
    unchecked = len(outcome.jobs) - checked
    note = f" (seed {outcome.seed} has no reference)" if unchecked else ""
    print(f"  passed {passed}, unchecked {unchecked}, failed {outcome.failed}{note}")
    e2e = outcome.end_to_end()
    lines = [(name, e2e[name], unit) for name, unit in END_TO_END_UNITS.items()]
    lines += [
        ("wall_req_per_s", outcome.wall_req_per_s(), "req/s"),
        ("wall_setup_s", outcome.setup_wall_s, "s"),
        ("host_slowness", outcome.host.slowness, "x"),
        ("failed_frac", outcome.failed / len(outcome.jobs), "fraction"),
    ]
    results = {(j.bench, j.model): j.result for j in outcome.jobs if j.error is None}
    errors = paper_errors(results, w.benches) if w.name == "fig10" else None
    for name, value in (errors or {}).items():
        lines.append((name, value, "pct-points"))
    if trace:
        lines += [(name, outcome.layers[name], unit)
                  for name, unit in PER_LAYER_UNITS.items()]
    for name, value, unit in lines:
        print(f"  {name:<30} {value:>14.6g} {unit}")
    values, units = (outcome.layers, PER_LAYER_UNITS) if trace else (e2e, END_TO_END_UNITS)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": outcome.correct, "attempted": len(outcome.jobs),
            "failed": outcome.failed, "metrics": metrics}


def record(workload: Workload, seed: int) -> int:
    """One pass; store its fingerprints as the seed's references."""
    outcome, _ = measure(workload, seed, 0.0, 0.0, refs=None, setup_reps=1)
    report(outcome, trace=False)
    if not outcome.correct:
        print("perfbench: not recording references for a failed run", file=sys.stderr)
        return 1
    record_references(workload, seed, {j.label: j.fingerprint for j in outcome.jobs})
    print(f"perfbench: recorded {len(outcome.jobs)} references for "
          f"{workload.name} seed {seed}")
    return 0


def main(argv=None, t_import: float = 0.0) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="run untraced passes for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced pass and report per-layer metrics")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's fingerprints as references")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.record:
        return record(workload, args.seed)
    refs = references_for(workload, args.seed)
    outcome, config = measure(workload, args.seed, args.seconds, t_import, refs)
    if args.trace:
        trace_layers(outcome, config, OUT_DIR / f"spans-{workload.name}-s{args.seed}.json")
    print(json.dumps(report(outcome, bool(args.trace))))
    return 0 if outcome.correct else 1
