"""Job-based experiment engine: parallel execution + persistent result cache.

The paper's evaluation is a large cross-product of (configuration, workload,
security model) simulations, every one of them independent - an
embarrassingly parallel sweep. This module turns the harness's execution
path into explicit *jobs* so that sweeps can be batched, deduplicated,
parallelized and cached:

* :class:`TraceSpec` names a generated workload trace (benchmark name,
  length, seed) without materializing it; the trace is rebuilt inside
  whichever process executes the job (generation is deterministic by
  contract - see ``Trace.fingerprint`` and its regression test).
* :class:`SimJob` is one simulation: a :class:`~repro.config.SystemConfig`,
  a :class:`TraceSpec`, and a security-model name. Jobs are hashable values
  with a stable content :meth:`~SimJob.fingerprint`.
* :class:`ResultCache` persists finished :class:`~repro.gpu.gpusim.RunResult`
  objects as content-addressed JSON files under a cache directory (default
  ``.salus-cache/``), keyed by the job fingerprint. Corrupt or
  schema-mismatched entries degrade to cache misses.
* :class:`ExperimentEngine` executes batches: it folds duplicates, serves
  hits from an in-process memo and then the on-disk cache, runs the misses
  via :class:`concurrent.futures.ProcessPoolExecutor` (``jobs`` workers)
  with graceful fallback to serial execution, and captures per-job errors so
  one failed simulation cannot kill a batch.

Cache-key schema: a job fingerprint hashes the full config dict, the trace
parameters, the model name **and** :data:`SCHEMA_VERSION`. Bump
``SCHEMA_VERSION`` whenever simulator semantics or the serialized result
format change, so stale caches are invalidated automatically rather than
replayed.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue as queue_module
import shutil
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..config import SystemConfig
from ..errors import EngineError
from ..gpu.gpusim import DEFAULT_PROGRESS_EPOCH, RunResult
from ..workloads.suite import build_trace
from ..workloads.trace import Trace
from .ledger import LedgerEntry, RunLedger
from .runner import run_model

#: Version of the (simulator semantics, result JSON) contract baked into
#: every cache key. Bump it whenever a change makes previously cached
#: results wrong or unreadable; old entries then miss instead of lying.
#: v2: RunResult gained the per-component ``metrics`` tree (observability
#: layer); v1 entries lack it and would render empty reports.
SCHEMA_VERSION = 2

#: Default on-disk cache location (overridable via $REPRO_CACHE_DIR and the
#: CLI ``--cache-dir`` flag).
DEFAULT_CACHE_DIR = ".salus-cache"


def default_cache_dir() -> str:
    """The cache directory the CLI uses unless told otherwise."""
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


@dataclass(frozen=True)
class TraceSpec:
    """A generated workload trace, by recipe rather than by content.

    ``tenants``/``tenant_mix`` describe multi-tenant interleaving (see
    :func:`~repro.workloads.generators.generate_multi_tenant_trace`); the
    defaults reproduce the historical single-tenant recipe exactly.
    """

    bench: str
    n_accesses: int
    seed: int
    tenants: int = 1
    tenant_mix: str = "mirror"

    def build(self, config: SystemConfig) -> Trace:
        """Materialize the trace for ``config``'s SM count and geometry."""
        return build_trace(
            self.bench,
            n_accesses=self.n_accesses,
            seed=self.seed,
            num_sms=config.gpu.num_sms,
            geometry=config.geometry,
            tenants=self.tenants,
            tenant_mix=self.tenant_mix,
        )


@dataclass(frozen=True)
class SimJob:
    """One simulation: (configuration, trace spec, security model)."""

    config: SystemConfig
    trace: TraceSpec
    model: str

    @classmethod
    def of(
        cls,
        config: SystemConfig,
        bench: str,
        model: str,
        n_accesses: int,
        seed: int,
        tenants: int = 1,
        tenant_mix: str = "mirror",
    ) -> "SimJob":
        return cls(
            config=config,
            trace=TraceSpec(bench, n_accesses, seed, tenants, tenant_mix),
            model=model,
        )

    def fingerprint(self) -> str:
        """Stable content hash identifying this job's result.

        Keyed on the *full* configuration (not just the preset name), the
        trace recipe, the model, and :data:`SCHEMA_VERSION`, so any change
        to any simulated parameter - or to the code contract - lands in a
        different cache slot. Tenancy keys join the payload only when
        non-default, so every pre-tenancy job keeps its cache slot.
        """
        payload = {
            "schema": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "bench": self.trace.bench,
            "n_accesses": self.trace.n_accesses,
            "seed": self.trace.seed,
            "model": self.model,
        }
        if self.trace.tenants != 1:
            payload["tenants"] = self.trace.tenants
            payload["tenant_mix"] = self.trace.tenant_mix
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable identity for logs and error messages."""
        tenancy = f"x{self.trace.tenants}" if self.trace.tenants != 1 else ""
        return (
            f"{self.trace.bench}{tenancy}/{self.model}"
            f"@{self.trace.n_accesses}#{self.trace.seed}"
        )

    def describe(self) -> Dict:
        """Cache-entry provenance record (what produced this result)."""
        record = {
            "bench": self.trace.bench,
            "model": self.model,
            "n_accesses": self.trace.n_accesses,
            "seed": self.trace.seed,
            "config_fingerprint": self.config.fingerprint(),
        }
        if self.trace.tenants != 1:
            record["tenants"] = self.trace.tenants
            record["tenant_mix"] = self.trace.tenant_mix
        return record

    def execute(
        self,
        tracer=None,
        progress=None,
        progress_epoch: int = DEFAULT_PROGRESS_EPOCH,
    ) -> RunResult:
        """Run the simulation (in whatever process this is called from)."""
        return run_model(
            self.config, self.trace.build(self.config), self.model,
            tracer=tracer, progress=progress, progress_epoch=progress_epoch,
        )

    def trace_filename(self) -> str:
        """Deterministic per-job Chrome-trace filename (``--trace`` runs)."""
        tenancy = f"-t{self.trace.tenants}" if self.trace.tenants != 1 else ""
        return (
            f"{self.trace.bench}-{self.model}"
            f"-a{self.trace.n_accesses}-s{self.trace.seed}{tenancy}"
            f"-{self.config.fingerprint()[:8]}.trace.json"
        )


@dataclass
class JobOutcome:
    """What happened to one job of a batch.

    ``wall_s`` is the wall-clock cost of obtaining the result: the timed
    simulation for ``source="run"`` (measured inside the worker, so pool
    scheduling overhead is excluded), ~0 for cache hits.
    """

    job: SimJob
    result: Optional[RunResult] = None
    error: Optional[str] = None
    source: str = "run"  # "memory" | "disk" | "run"
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class EngineStats:
    """Per-engine counters; tests assert warm runs simulate nothing."""

    memory_hits: int = 0
    disk_hits: int = 0
    simulations: int = 0
    errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "simulations": self.simulations,
            "errors": self.errors,
        }


class ResultCache:
    """Content-addressed on-disk store of serialized run results.

    Layout: ``<root>/<fp[:2]>/<fp>.json`` where ``fp`` is the job
    fingerprint. Every entry is a self-describing JSON envelope carrying the
    schema version, the fingerprint, the job provenance and the full
    :meth:`RunResult.to_dict` payload. Unreadable, corrupt or
    schema-mismatched entries are treated as misses, never as errors.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path_for(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[RunResult]:
        path = self.path_for(fingerprint)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("schema") != SCHEMA_VERSION:
            return None
        if payload.get("fingerprint") != fingerprint:
            return None
        try:
            return RunResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, fingerprint: str, job: SimJob, result: RunResult) -> Path:
        path = self.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "schema": SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "job": job.describe(),
            "result": result.to_dict(),
        }
        # Atomic publish: a reader never observes a half-written entry.
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(envelope, sort_keys=True), encoding="utf-8")
        tmp.replace(path)
        return path

    def clear(self) -> None:
        """Drop every cached entry (how users invalidate the cache)."""
        if self.root.exists():
            shutil.rmtree(self.root, ignore_errors=True)

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))


class _CallbackSink:
    """Duck-typed stand-in for a multiprocessing queue on the serial path.

    The worker code only calls ``.put(event)``; in-process execution (the
    default, and the fallback when no pool is available) delivers events
    straight to the engine's progress callback with no queue, no thread and
    no pickling.
    """

    def __init__(self, callback: Callable[[Dict], None]) -> None:
        self._callback = callback

    def put(self, event: Dict) -> None:
        try:
            self._callback(event)
        except Exception:
            # A broken sink must never kill a simulation.
            pass


class _QueueDrainer:
    """Parent-side pump: multiprocessing progress queue -> callback.

    Runs on a daemon thread for the lifetime of one parallel batch (the
    ``pool.map`` call blocks the engine thread, so delivery has to happen
    off-thread). ``finish()`` posts a sentinel and joins, draining whatever
    the workers sent before the pool closed.
    """

    _SENTINEL = None

    def __init__(self, events, callback: Callable[[Dict], None]) -> None:
        self._events = events
        self._callback = callback
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            try:
                event = self._events.get(timeout=0.2)
            except queue_module.Empty:
                continue
            except (EOFError, OSError):
                return
            if event is self._SENTINEL:
                return
            try:
                self._callback(event)
            except Exception:
                pass

    def finish(self) -> None:
        try:
            self._events.put(self._SENTINEL)
        except Exception:
            pass
        self._thread.join(timeout=5.0)


def _progress_sink_callback(events, label: str, pid: int):
    """The per-job heartbeat closure handed to :func:`run_model`."""

    def emit(snapshot: Dict) -> None:
        event = {"kind": "heartbeat", "job": label, "pid": pid}
        event.update(snapshot)
        try:
            events.put(event)
        except Exception:
            pass

    return emit


def _execute_job(
    job: SimJob,
    trace_path: Optional[str] = None,
    progress_events=None,
    progress_epoch: int = DEFAULT_PROGRESS_EPOCH,
) -> Tuple[bool, object, float]:
    """Worker entry point: run one job, never raise.

    Returns ``(True, RunResult, wall_s)`` on success or ``(False,
    traceback_text, wall_s)`` on failure, so a crashed simulation surfaces
    as data instead of killing the pool or the batch. With ``trace_path``
    set, the job runs under a :class:`~repro.sim.trace.Tracer` and its
    Chrome trace is written there (from whichever process executed it)
    before the result returns.

    ``progress_events`` (anything with ``.put(dict)`` - a multiprocessing
    queue proxy from the parallel path, a :class:`_CallbackSink` from the
    serial one) receives a ``start`` event and per-epoch ``heartbeat``
    events while the simulation runs; the parent emits the terminal
    ``done``/``error`` event once the outcome is known.
    """
    label = job.label()
    progress = None
    if progress_events is not None:
        try:
            progress_events.put({"kind": "start", "job": label, "pid": os.getpid()})
        except Exception:
            progress_events = None
        else:
            progress = _progress_sink_callback(progress_events, label, os.getpid())
    started = time.perf_counter()
    try:
        if trace_path is not None:
            from ..sim.trace import Tracer

            tracer = Tracer()
            result = job.execute(tracer=tracer, progress=progress,
                                 progress_epoch=progress_epoch)
            tracer.write(trace_path)
            return True, result, time.perf_counter() - started
        result = job.execute(progress=progress, progress_epoch=progress_epoch)
        return True, result, time.perf_counter() - started
    except Exception:
        return False, traceback.format_exc(), time.perf_counter() - started


def _execute_job_entry(
    item: Tuple[SimJob, Optional[str], object, int]
) -> Tuple[bool, object, float]:
    """Picklable star-apply wrapper for :func:`_execute_job` (pool.map)."""
    return _execute_job(*item)


class ExperimentEngine:
    """Executes batches of :class:`SimJob`, with caching and parallelism.

    ``jobs`` is the worker-process count; 1 (the default) runs serially
    in-process. ``cache_dir=None`` keeps the engine memory-only (results
    are still memoized for the lifetime of the engine, which is what the
    per-figure sharing of Figures 10-12 needs); a path enables the
    persistent cross-process cache.

    ``trace_dir`` enables per-simulation Chrome traces: every executed job
    writes ``<trace_dir>/<job.trace_filename()>`` from whichever process ran
    it. Tracing forces fresh simulations (cache and memo lookups are
    skipped - a cache hit would have no timeline to export), but finished
    results are still written to the cache as usual.

    ``progress`` attaches a live-telemetry sink: a callable receiving event
    dicts (``start``/``heartbeat`` from whichever process runs each job,
    ``done``/``error`` from the engine once the outcome is known; see
    ``harness/runner.py`` for the shipped sinks). On the parallel path the
    events cross process boundaries over a multiprocessing queue drained by
    a parent-side thread; the serial path delivers them directly. Progress
    never touches simulated state - fingerprints are bit-identical with it
    on or off.

    ``ledger`` controls the append-only run registry
    (:class:`~repro.harness.ledger.RunLedger`): when true (the default)
    every completed job is recorded in ``<cache_dir>/ledger.jsonl``
    whenever a cache directory is attached; pass ``False`` to disable.
    Ledger entries are derived *from* results and never feed back into
    cache keys or fingerprints.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        trace_dir: Optional[Union[str, Path]] = None,
        progress: Optional[Callable[[Dict], None]] = None,
        progress_epoch: int = DEFAULT_PROGRESS_EPOCH,
        ledger: bool = True,
    ) -> None:
        if jobs < 1:
            raise EngineError(f"worker count must be >= 1, got {jobs}")
        self.workers = int(jobs)
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if cache_dir is not None else None
        )
        self.trace_dir: Optional[Path] = Path(trace_dir) if trace_dir is not None else None
        self.progress = progress
        self.progress_epoch = max(1, int(progress_epoch))
        self.ledger: Optional[RunLedger] = (
            RunLedger(cache_dir) if (ledger and cache_dir is not None) else None
        )
        self.stats = EngineStats()
        self.last_outcomes: List[JobOutcome] = []
        self._memo: Dict[SimJob, RunResult] = {}

    # -- execution ---------------------------------------------------------
    def run_jobs(self, jobs: Sequence[SimJob]) -> List[JobOutcome]:
        """Execute a batch; one outcome per input job, in input order.

        Duplicate jobs are folded into a single execution. A job that fails
        yields an outcome with ``error`` set; the rest of the batch still
        completes (and successful results are still cached).
        """
        unique: Dict[SimJob, str] = {}
        for job in jobs:
            if job not in unique:
                unique[job] = job.fingerprint()

        outcomes: Dict[SimJob, JobOutcome] = {}
        pending: List[SimJob] = []
        tracing = self.trace_dir is not None
        for job, fingerprint in unique.items():
            if tracing:
                # A cached result has no timeline to export; simulate fresh.
                pending.append(job)
                continue
            memoized = self._memo.get(job)
            if memoized is not None:
                self.stats.memory_hits += 1
                outcomes[job] = JobOutcome(job, result=memoized, source="memory")
                self._emit_done(job.label(), True, "memory", 0.0)
                continue
            cached = self.cache.get(fingerprint) if self.cache is not None else None
            if cached is not None:
                self.stats.disk_hits += 1
                self._memo[job] = cached
                outcomes[job] = JobOutcome(job, result=cached, source="disk")
                self._emit_done(job.label(), True, "disk", 0.0)
                continue
            pending.append(job)

        if pending:
            for job, (ok, payload, wall) in zip(pending, self._execute_batch(pending)):
                self.stats.simulations += 1
                if ok:
                    result = payload
                    self._memo[job] = result
                    if self.cache is not None:
                        self.cache.put(unique[job], job, result)
                    outcomes[job] = JobOutcome(
                        job, result=result, source="run", wall_s=wall
                    )
                else:
                    self.stats.errors += 1
                    outcomes[job] = JobOutcome(
                        job, error=str(payload), source="run", wall_s=wall
                    )

        if self.ledger is not None:
            for outcome in outcomes.values():
                if outcome.ok:
                    self.ledger.append(LedgerEntry.from_outcome(outcome, SCHEMA_VERSION))

        self.last_outcomes = [outcomes[job] for job in jobs]
        return list(self.last_outcomes)

    def _emit_done(self, label: str, ok: bool, source: str, wall_s: float) -> None:
        """Terminal progress event for one unique job of the current batch."""
        if self.progress is None:
            return
        try:
            self.progress(
                {
                    "kind": "done" if ok else "error",
                    "job": label,
                    "source": source,
                    "wall_s": round(wall_s, 6),
                }
            )
        except Exception:
            pass

    def map(self, jobs: Sequence[SimJob]) -> Dict[SimJob, RunResult]:
        """Like :meth:`run_jobs` but demand total success.

        Raises :class:`~repro.errors.EngineError` summarizing every failed
        job; otherwise returns {job: result} covering the whole batch.
        """
        outcomes = self.run_jobs(jobs)
        failures = [o for o in outcomes if not o.ok]
        if failures:
            lines = [f"{len(failures)} of {len(outcomes)} jobs failed:"]
            for outcome in failures:
                reason = (outcome.error or "").strip().splitlines()
                lines.append(f"  {outcome.job.label()}: {reason[-1] if reason else 'unknown error'}")
            raise EngineError("\n".join(lines))
        return {o.job: o.result for o in outcomes}

    def matrix(
        self,
        config: SystemConfig,
        benches: Sequence[str],
        models: Sequence[str],
        n_accesses: int,
        seed: int,
    ) -> Dict[Tuple[str, str], RunResult]:
        """Run the (bench x model) cross product; {(bench, model): result}."""
        jobs = [
            SimJob.of(config, bench, model, n_accesses, seed)
            for bench in benches
            for model in models
        ]
        results = self.map(jobs)
        return {(job.trace.bench, job.model): results[job] for job in jobs}

    def run_one(
        self,
        config: SystemConfig,
        bench: str,
        model: str,
        n_accesses: int,
        seed: int,
    ) -> RunResult:
        """Run (or reuse) a single simulation."""
        job = SimJob.of(config, bench, model, n_accesses, seed)
        return self.map([job])[job]

    def _execute_batch(
        self, pending: Sequence[SimJob]
    ) -> List[Tuple[bool, object, float]]:
        """Run misses, in parallel when configured and possible.

        Emits the terminal ``done``/``error`` progress event for each job as
        its result arrives - incrementally, not after the whole batch.
        """
        if self.workers > 1 and len(pending) > 1:
            results = self._execute_parallel(pending)
            if results is not None:
                return results
            # Pool unavailable (restricted sandbox, broken pickling,
            # resource limits): fall back to the serial path below. If the
            # pool died mid-batch, a handful of done events may repeat -
            # cosmetic only; outcomes come solely from the serial rerun.
        sink = _CallbackSink(self.progress) if self.progress is not None else None
        results = []
        for job in pending:
            outcome = _execute_job(
                job, self._trace_path_for(job), sink, self.progress_epoch,
            )
            self._emit_done(job.label(), outcome[0], "run", outcome[2])
            results.append(outcome)
        return results

    def _execute_parallel(
        self, pending: Sequence[SimJob]
    ) -> Optional[List[Tuple[bool, object, float]]]:
        """Pool execution; None when no pool could run the batch."""
        import multiprocessing

        manager = None
        drainer = None
        events = None
        try:
            if self.progress is not None:
                # Manager queue: its proxy pickles into pool workers, unlike
                # a raw multiprocessing.Queue handed through pool.map args.
                manager = multiprocessing.Manager()
                events = manager.Queue()
                drainer = _QueueDrainer(events, self.progress)
            items = [
                (job, self._trace_path_for(job), events, self.progress_epoch)
                for job in pending
            ]
            workers = min(self.workers, len(pending))
            results: List[Tuple[bool, object, float]] = []
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for job, outcome in zip(pending, pool.map(_execute_job_entry, items)):
                    self._emit_done(job.label(), outcome[0], "run", outcome[2])
                    results.append(outcome)
            return results
        except Exception:
            return None
        finally:
            if drainer is not None:
                drainer.finish()
            if manager is not None:
                try:
                    manager.shutdown()
                except Exception:
                    pass

    def _trace_path_for(self, job: SimJob) -> Optional[str]:
        if self.trace_dir is None:
            return None
        return str(self.trace_dir / job.trace_filename())

    # -- cache management --------------------------------------------------
    def clear_memory(self) -> None:
        """Forget in-process memoized results (disk entries survive)."""
        self._memo.clear()

    def clear_disk(self) -> None:
        """Invalidate the persistent cache, if one is attached."""
        if self.cache is not None:
            self.cache.clear()


# One process-wide serial, memory-only engine backs the plain function API
# (`cached_run` and the `run_figXX_*` defaults), mirroring the old
# `_run_cache` behaviour: figures 10-12 share simulations within a process,
# and nothing touches the filesystem unless a cache dir is requested.
_default_engine: Optional[ExperimentEngine] = None


def default_engine() -> ExperimentEngine:
    global _default_engine
    if _default_engine is None:
        _default_engine = ExperimentEngine()
    return _default_engine
