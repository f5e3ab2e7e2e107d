"""Outside-in layer tracing for the benchmark's traced run.

The simulator itself is not instrumented for wall time. Instead, while
:func:`traced` is active, the public methods at each layer boundary of the
request lifecycle (``docs/ARCHITECTURE.md``) are replaced on their classes
by wrappers that record a span around the original call: layer, duration,
the enclosing span's layer and the current job. The wrappers must be
installed before ``GpuSim`` is built, because the simulator binds some of
these methods once at construction (the pre-bound channel bookings).

A layer's self time is its span time minus the time of the spans it
encloses. A traced ``fig10`` run closes several million spans, so each span
is folded, when it closes, into one aggregate per ``(job, layer, parent
layer)`` edge - calls, total and self seconds - instead of being kept as
its own record. :meth:`SpanRecorder.dump` writes those edges out.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

_MODEL_METHODS = ("read_complete", "on_store", "writeback", "fill", "evict", "finalize")

#: ``(layer, module, class or None for a module function, attribute names)``
#: in request-lifecycle order, outermost first.
BOUNDARIES: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("workloads", "repro.workloads.suite", None, ("build_trace",)),
    ("kernel", "repro.gpu.gpusim", "GpuSim", ("run",)),
    ("gpu", "repro.gpu.gpusim", "GpuSim", ("__init__",)),
    ("gpu", "repro.gpu.sm", "StreamingMultiprocessor", ("pick_warp", "issue", "complete")),
    ("gpu", "repro.gpu.interconnect", "Interconnect", ("traverse",)),
    ("cxl", "repro.cxl.mapping_cache", "MappingCache", ("lookup",)),
    ("cxl", "repro.cxl.mapping_cache", "MappingMissHandler", ("record_fill", "invalidate_page")),
    ("migration", "repro.migration.engine", "MigrationEngine", ("ensure_resident", "evict_now")),
    ("memsys.l2", "repro.memsys.l2cache", "L2Slice",
     ("access", "inflight_completion", "register_fill")),
    ("memsys.cache", "repro.memsys.sectored_cache", "SectoredCache", ("access",)),
    ("memsys.channel", "repro.memsys.channel", "Channel", ("book",)),
    ("memsys.channel", "repro.memsys.channel", "CryptoEngine", ("book",)),
    ("security.fabric", "repro.security.fabric", "MemoryFabric",
     ("locate", "device_read", "device_write", "link_read", "link_write",
      "metadata_access", "bmt_read_walk", "bmt_update_walk")),
    ("security.model", "repro.security.none", "NoSecurityModel", _MODEL_METHODS),
    ("security.model", "repro.security.baseline", "BaselineSecurityModel", _MODEL_METHODS),
    ("core", "repro.core.salus", "SalusSecurityModel", _MODEL_METHODS),
    # The counter-store and BMT-geometry methods the timing models and the
    # fabric call. MetadataCaches (metadata/cache.py) has none: callers reach
    # its SectoredCache members directly, which count as memsys.cache.
    ("metadata", "repro.metadata.counters", "ConventionalSplitCounterStore",
     ("group_index", "increment", "increment_span")),
    ("metadata", "repro.metadata.counters", "InterleavingFriendlyCounterStore",
     ("install", "is_installed_for", "evict", "read", "increment", "any_minor_nonzero")),
    ("metadata", "repro.metadata.counters", "CollapsedCounterStore", ("chunk_epoch", "collapse")),
    ("metadata", "repro.metadata.bmt", "BMTGeometry", ("path_steps", "parent", "node_ordinal")),
    ("sim", "repro.gpu.gpusim", None, ("collect_metrics",)),
)

#: Every layer, in boundary order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(b[0] for b in BOUNDARIES))


class SpanRecorder:
    """Collects the spans of one traced run.

    ``job`` labels the spans that close while it is set; the driver sets it
    around each job (``None`` while traces are built). ``edges`` maps
    ``(job, layer, parent layer)`` to ``[calls, total_s, self_s]``;
    ``covered_s`` is the time inside outermost spans, so the traced wall
    time ``wall_s`` (set by the driver) minus ``covered_s`` is the time no
    layer accounts for.
    """

    def __init__(self) -> None:
        self.job: Optional[str] = None
        self.edges: Dict[Tuple[Optional[str], str, Optional[str]], List] = {}
        self.covered_s = 0.0
        self.wall_s = 0.0
        self._stack: List[List] = []

    def wrap(self, fn, layer: str):
        stack = self._stack
        edges = self.edges
        clock = perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                else:
                    self.covered_s += duration
                key = (self.job, layer, parent)
                agg = edges.get(key)
                if agg is None:
                    edges[key] = [1, duration, duration - frame[0]]
                else:
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - frame[0]

        return span

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls": n, "self_s": s}}`` over all jobs, every layer present."""
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for (_, layer, _), (calls, _, self_s) in self.edges.items():
            totals[layer]["calls"] += calls
            totals[layer]["self_s"] += self_s
        return totals

    def dump(self, path: Path, header: Dict) -> None:
        edges = [
            {"job": job, "layer": layer, "parent": parent,
             "calls": calls, "total_s": total_s, "self_s": self_s}
            for (job, layer, parent), (calls, total_s, self_s) in self.edges.items()
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "edges": edges}, indent=1) + "\n",
                        encoding="utf-8")


@contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every boundary in :data:`BOUNDARIES`; restore the originals on exit."""
    saved = []
    try:
        for layer, module_name, class_name, names in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            for name in names:
                # An inherited method is wrapped on the subclass and removed
                # again afterwards; an own attribute is put back.
                own = vars(owner).get(name)
                saved.append((owner, name, own))
                setattr(owner, name, recorder.wrap(getattr(owner, name), layer))
        yield recorder
    finally:
        for owner, name, own in reversed(saved):
            if own is None:
                delattr(owner, name)
            else:
                setattr(owner, name, own)
