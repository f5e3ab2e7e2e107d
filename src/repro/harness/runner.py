"""Run one simulation: a (configuration, security model, workload) triple.

The runner is the only place that knows how to build each security model, so
benchmarks, tests and examples all say ``run_model(config, trace, "salus")``
and get a :class:`~repro.gpu.gpusim.RunResult` back.

It also owns the *presentation* side of the live-telemetry channel: the
engine emits progress event dicts (see ``harness/engine.py``); the sinks
here render them - :class:`ProgressRenderer` for terminals,
:class:`ProgressJsonlWriter` for machine-readable ``--progress-jsonl``
files - and :func:`combine_progress_sinks` fans one event stream out to
several sinks. Sinks only ever *observe* events; enabling them is
fingerprint-inert by test.
"""

from __future__ import annotations

import json
import sys
from typing import Callable, Dict, Optional

from ..config import SalusConfig, SystemConfig
from ..core.salus import SalusSecurityModel
from ..errors import ConfigError
from ..gpu.gpusim import DEFAULT_PROGRESS_EPOCH, GpuSim, RunResult
from ..security.baseline import BaselineSecurityModel
from ..security.fabric import MemoryFabric
from ..security.none import NoSecurityModel
from ..workloads.trace import Trace

ModelFactory = Callable[[MemoryFabric], object]

MODEL_NAMES = (
    "nosec",
    "baseline",
    "baseline-freemove",
    "salus",
    "salus-unified",
    "salus-nofoa",
    "salus-nocollapse",
    "salus-coarsedirty",
)


def model_factory(name: str) -> ModelFactory:
    """Resolve a model name to its factory.

    The ``salus-*`` variants are the ablations of DESIGN.md Section 5;
    ``baseline-freemove`` is the Figure-3 comparison point (conventional
    security whose *migration* operations are free).
    """
    if name == "nosec":
        return NoSecurityModel
    if name == "baseline":
        return BaselineSecurityModel
    if name == "baseline-freemove":
        return lambda fabric: BaselineSecurityModel(fabric, free_migration_security=True)
    if name == "salus":
        return lambda fabric: SalusSecurityModel(fabric, SalusConfig.full())
    if name == "salus-unified":
        return lambda fabric: SalusSecurityModel(fabric, SalusConfig.unified_only())
    if name == "salus-nofoa":
        return lambda fabric: SalusSecurityModel(
            fabric, SalusConfig(fetch_on_access=False)
        )
    if name == "salus-nocollapse":
        return lambda fabric: SalusSecurityModel(
            fabric, SalusConfig(collapsed_counters=False)
        )
    if name == "salus-coarsedirty":
        return lambda fabric: SalusSecurityModel(
            fabric, SalusConfig(fine_dirty_tracking=False)
        )
    raise ConfigError(f"unknown model {name!r}; choose from {MODEL_NAMES}")


def run_model(
    config: SystemConfig,
    trace: Trace,
    model: str,
    tracer=None,
    progress: Optional[Callable[[Dict], None]] = None,
    progress_epoch: int = DEFAULT_PROGRESS_EPOCH,
) -> RunResult:
    """Simulate ``trace`` on ``config`` under the named security model.

    ``tracer`` (a :class:`~repro.sim.trace.Tracer`, optional) records the
    structured event timeline; it never alters simulated timing.
    ``progress`` (optional) receives a snapshot dict every
    ``progress_epoch`` simulated cycles - the live-telemetry heartbeat;
    like the tracer it observes and never books.
    """
    sim = GpuSim(
        config=config,
        footprint_pages=trace.footprint_pages,
        model_factory=model_factory(model),
        tracer=tracer,
        progress=progress,
        progress_epoch=progress_epoch,
    )
    result = sim.run(
        trace,
        compute_per_mem=trace.compute_per_mem,
        workload_name=trace.name,
    )
    # Preserve the model *name* as requested (variants share class names).
    result.model = model
    return result


def run_benchmark(
    config: SystemConfig,
    trace,
    models: Optional[tuple] = None,
    engine=None,
) -> Dict[str, RunResult]:
    """Run a workload under several models; returns {model: result}.

    ``trace`` may be a materialized :class:`~repro.workloads.trace.Trace`
    (simulated directly, in-process) or a
    :class:`~repro.harness.engine.TraceSpec` recipe - the latter routes
    through the experiment engine, gaining parallel execution across models
    and the persistent result cache. ``engine=None`` uses the process-wide
    default engine.
    """
    # Imported here: the engine module itself depends on run_model above.
    from .engine import SimJob, TraceSpec, default_engine

    models = models if models is not None else ("nosec", "baseline", "salus")
    if isinstance(trace, TraceSpec):
        eng = engine if engine is not None else default_engine()
        jobs = [SimJob(config=config, trace=trace, model=m) for m in models]
        results = eng.map(jobs)
        return {job.model: results[job] for job in jobs}
    return {m: run_model(config, trace, m) for m in models}


# -- live-telemetry sinks ----------------------------------------------------
#
# The experiment engine delivers progress events as plain dicts with at
# least a ``kind`` ("start" | "heartbeat" | "done" | "error") and a ``job``
# label; heartbeats add the GpuSim snapshot fields (epoch, cycles,
# instructions, fills, evictions), "done" adds ``source`` and ``wall_s``.
# Events from parallel workers arrive interleaved; sinks must not assume
# one job finishes before another starts.

class ProgressRenderer:
    """Terminal renderer for engine progress events (``--progress``).

    Writes single-line updates to ``stream`` (stderr by default): carriage-
    return-overwritten heartbeats on a TTY, plain lines otherwise, and one
    persistent line per finished job. Purely cosmetic - the CLI decides
    whether to attach it (auto-off when stderr is not a TTY).
    """

    def __init__(self, stream=None, total: Optional[int] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.total = total
        self.done = 0
        self._line_open = False

    def _emit(self, text: str, transient: bool) -> None:
        isatty = getattr(self.stream, "isatty", lambda: False)()
        if transient and isatty:
            self.stream.write(f"\r\x1b[2K{text}")
            self._line_open = True
        else:
            if self._line_open and isatty:
                self.stream.write("\r\x1b[2K")
                self._line_open = False
            self.stream.write(text + "\n")
        self.stream.flush()

    def __call__(self, event: Dict) -> None:
        kind = event.get("kind")
        job = event.get("job", "?")
        if kind == "heartbeat":
            self._emit(
                f"  ~ {job}: cycle {event.get('cycles', 0):,} "
                f"({event.get('instructions', 0):,} instr, "
                f"{event.get('fills', 0)} fills, "
                f"{event.get('evictions', 0)} evicts)",
                transient=True,
            )
        elif kind == "done":
            self.done += 1
            of = f"/{self.total}" if self.total else ""
            self._emit(
                f"[{self.done}{of}] {job}: {event.get('source', 'run')} "
                f"in {event.get('wall_s', 0.0):.3f}s",
                transient=False,
            )
        elif kind == "error":
            self.done += 1
            of = f"/{self.total}" if self.total else ""
            self._emit(f"[{self.done}{of}] {job}: FAILED", transient=False)


class ProgressJsonlWriter:
    """Machine-readable progress sink (``--progress-jsonl PATH``).

    Appends one JSON object per event, in delivery order - the streaming-
    progress substrate a job server can tail. The file handle stays open
    for the writer's lifetime; each line is flushed so a tail-follower sees
    events as they happen.
    """

    def __init__(self, path) -> None:
        from pathlib import Path

        self.path = Path(path)
        if self.path.parent != Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")

    def __call__(self, event: Dict) -> None:
        self._fh.write(json.dumps(event, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def combine_progress_sinks(*sinks) -> Optional[Callable[[Dict], None]]:
    """One callback fanning events out to every non-None sink (None if none)."""
    active = [s for s in sinks if s is not None]
    if not active:
        return None
    if len(active) == 1:
        return active[0]

    def fan_out(event: Dict) -> None:
        for sink in active:
            sink(event)

    return fan_out
