"""Command-line interface: run simulations and regenerate paper figures.

Usage (also available as ``python -m repro``)::

    python -m repro run nw --models nosec baseline salus
    python -m repro figure fig10 --accesses 20000
    python -m repro figures --jobs 4           # all figures, 4 worker processes
    python -m repro figure all --benchmarks nw btree sgemm
    python -m repro run nw --cxl-devices 2     # two-device CXL fabric
    python -m repro topology nw --cxl-devices 4
    python -m repro figure topology            # devices x link-bw sweep
    python -m repro run nw --tenants 2         # two isolated security domains
    python -m repro figure tenancy             # isolation overhead sweep
    python -m repro trace nw                   # Chrome/Perfetto trace.json
    python -m repro run nw --json > r.json && python -m repro report r.json
    python -m repro list

Every command accepts ``--accesses`` (trace length), ``--seed``, and the
Figure-13/14 knobs ``--cxl-bw-ratio`` / ``--capacity-ratio``. ``run``,
``figure`` and ``figures`` additionally accept the engine knobs ``--jobs``
(parallel worker processes), ``--cache-dir`` and ``--no-cache``: finished
simulations are stored as content-addressed JSON under the cache directory
(default ``.salus-cache/``, or $REPRO_CACHE_DIR), so repeating a figure
sweep replays results instead of re-simulating. Their ``--trace`` flag
additionally writes one Chrome-trace JSON per simulation into ``--trace-out``
(tracing forces fresh simulations; see docs/TRACING.md).

``trace`` without a positional output runs one traced simulation and writes
a Chrome-trace ``trace.json``; with a positional output it keeps its
original meaning, exporting the generated workload to ``.npz``. ``report``
renders a ``repro run --json`` dump (or any list of serialized RunResults)
as a markdown or CSV observability report.

Observability commands (see docs/METRICS.md and docs/TRACING.md):

* ``--progress`` on ``run``/``figure``/``figures`` renders live engine
  telemetry (per-job heartbeats, done lines) to stderr when it is a TTY;
  ``--progress-jsonl PATH`` writes the raw event stream as JSON lines
  regardless of TTY. Both are observers - results are bit-identical with
  them on or off.
* Every completed job is recorded in the append-only run ledger
  (``<cache-dir>/ledger.jsonl``; ``--no-ledger`` disables). ``repro runs``
  lists/filters it; ``repro perf`` shows the recorded performance
  trajectory and checks the ledger against it.
* ``repro diff A B`` localizes the first divergence between two runs,
  given two ``run --json`` dumps or two Chrome traces.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .config import SystemConfig
from .harness.engine import ExperimentEngine, TraceSpec, default_cache_dir
from .harness.experiments import (
    run_ablation,
    run_fig03_motivation,
    run_fig10_ipc,
    run_fig11_traffic,
    run_fig12_bandwidth,
    run_fig13_cxl_bw,
    run_fig14_footprint,
    run_tenancy_sweep,
    run_topology_scaling,
)
from .harness.report import format_table
from .harness.runner import MODEL_NAMES, run_benchmark, run_model
from .workloads.suite import BENCHMARKS, benchmark_names, build_trace

FIGURES = {
    "fig03": run_fig03_motivation,
    "fig10": run_fig10_ipc,
    "fig11": run_fig11_traffic,
    "fig12": run_fig12_bandwidth,
    "fig13": run_fig13_cxl_bw,
    "fig14": run_fig14_footprint,
    "ablation": run_ablation,
    "topology": run_topology_scaling,
    "tenancy": run_tenancy_sweep,
}


def _build_config(args: argparse.Namespace) -> SystemConfig:
    config = SystemConfig.bench()
    if args.cxl_bw_ratio is not None:
        config = config.with_cxl_bw_ratio(args.cxl_bw_ratio)
    if args.capacity_ratio is not None:
        config = config.with_capacity_ratio(args.capacity_ratio)
    if args.fill_granularity is not None:
        from dataclasses import replace

        config = replace(
            config, gpu=replace(config.gpu, fill_granularity=args.fill_granularity)
        )
    if getattr(args, "cxl_devices", None) is not None:
        config = config.with_cxl_devices(
            args.cxl_devices, sharding=getattr(args, "sharding", None) or "page"
        )
    if getattr(args, "tenants", None) is not None:
        config = config.with_tenants(args.tenants)
    return config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--accesses", type=int, default=20_000,
                        help="trace length per benchmark (default 20000)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cxl-bw-ratio", type=float, default=None,
                        help="CXL:device bandwidth ratio (default 1/16)")
    parser.add_argument("--capacity-ratio", type=float, default=None,
                        help="device capacity / footprint ratio (default 0.35)")
    parser.add_argument("--fill-granularity", choices=("page", "chunk"),
                        default=None,
                        help="page-fault data movement: whole page (default) "
                             "or on-demand 256 B chunks")
    parser.add_argument("--cxl-devices", type=int, default=None, metavar="N",
                        help="expansion devices in the CXL fabric, each with "
                             "its own link and security plane (default 1)")
    parser.add_argument("--sharding", choices=("page", "range"), default=None,
                        help="CXL page -> home device policy for "
                             "--cxl-devices > 1 (default page round-robin)")
    parser.add_argument("--tenants", type=int, default=None, metavar="T",
                        help="security domains sharing the GPU: partitions "
                             "SMs, channels, pages and metadata planes into "
                             "T isolated slices and interleaves T per-tenant "
                             "trace streams (default 1 = whole machine)")
    parser.add_argument("--tenant-mix", choices=("mirror", "noisy"),
                        default=None,
                        help="co-tenant personalities for --tenants > 1: "
                             "every tenant runs the benchmark (mirror, "
                             "default), or tenants 1+ run a bandwidth-"
                             "hammering variant (noisy neighbor)")


def _add_engine(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for independent simulations "
                             "(default 1 = serial)")
    parser.add_argument("--cache-dir", default=default_cache_dir(),
                        help="persistent result-cache directory "
                             "(default .salus-cache, or $REPRO_CACHE_DIR)")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the on-disk result cache")
    parser.add_argument("--trace", action="store_true",
                        help="write one Chrome-trace JSON per simulation into "
                             "--trace-out (forces fresh simulations)")
    parser.add_argument("--trace-out", default="traces", metavar="DIR",
                        help="directory for per-simulation trace files "
                             "(default traces/; only with --trace)")
    parser.add_argument("--progress", action="store_true",
                        help="render live engine telemetry to stderr "
                             "(auto-disabled when stderr is not a TTY)")
    parser.add_argument("--progress-jsonl", default=None, metavar="PATH",
                        help="also write raw progress events as JSON lines "
                             "(works without a TTY; for tooling/tests)")
    parser.add_argument("--no-ledger", action="store_true",
                        help="do not record completed jobs in the run "
                             "ledger (<cache-dir>/ledger.jsonl)")


def _progress_sink(args: argparse.Namespace, total: Optional[int] = None):
    """Resolve ``--progress``/``--progress-jsonl`` into one engine sink.

    The terminal renderer attaches only when stderr is a TTY (so piped and
    CI output stays clean); setting ``REPRO_FORCE_PROGRESS=1`` overrides
    the TTY check, which is how tests drive the renderer. The JSONL sink is
    TTY-independent.
    """
    from .harness.runner import (
        ProgressJsonlWriter,
        ProgressRenderer,
        combine_progress_sinks,
    )

    renderer = None
    if getattr(args, "progress", False):
        if sys.stderr.isatty() or os.environ.get("REPRO_FORCE_PROGRESS"):
            renderer = ProgressRenderer(total=total)
    writer = None
    if getattr(args, "progress_jsonl", None):
        writer = ProgressJsonlWriter(args.progress_jsonl)
    return combine_progress_sinks(renderer, writer)


def _build_engine(
    args: argparse.Namespace, total: Optional[int] = None
) -> ExperimentEngine:
    """Build the in-process engine from the ``_add_engine`` flags."""
    cache_dir = None if args.no_cache else args.cache_dir
    trace_dir = args.trace_out if getattr(args, "trace", False) else None
    return ExperimentEngine(
        jobs=max(1, args.jobs),
        cache_dir=cache_dir,
        trace_dir=trace_dir,
        progress=_progress_sink(args, total=total),
        ledger=not getattr(args, "no_ledger", False),
    )


def cmd_list(_args: argparse.Namespace) -> int:
    """The ``list`` command: show benchmarks, models and figures."""
    rows = [
        (
            spec.name, spec.suite, spec.intensity,
            f"{spec.chunk_coverage:.0%}", spec.concurrent_pages,
            f"{spec.write_fraction:.0%}", spec.compute_per_mem,
        )
        for spec in BENCHMARKS.values()
    ]
    print(
        format_table(
            ("benchmark", "suite", "intensity", "coverage",
             "concurrency", "writes", "compute/mem"),
            rows,
            title="Benchmark suite (paper Section V-A stand-ins)",
        )
    )
    print("\nmodels:", ", ".join(MODEL_NAMES))
    print("figures:", ", ".join(FIGURES), "(or 'all')")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """The ``run`` command: simulate one benchmark under chosen models."""
    config = _build_config(args)
    engine = None
    if args.trace_file:
        from .workloads.io import load_trace

        # External traces have no generation recipe to key a cache on;
        # they run directly, in-process.
        trace = load_trace(args.trace_file)
        results = {
            m: run_model(config, trace, m) for m in args.models
        }
    else:
        tenants = getattr(args, "tenants", None) or 1
        tenant_mix = getattr(args, "tenant_mix", None) or "mirror"
        trace = build_trace(
            args.benchmark, n_accesses=args.accesses, seed=args.seed,
            num_sms=config.gpu.num_sms, tenants=tenants,
            tenant_mix=tenant_mix,
        )
        engine = _build_engine(args, total=len(args.models))
        results = run_benchmark(
            config,
            TraceSpec(args.benchmark, args.accesses, args.seed,
                      tenants=tenants, tenant_mix=tenant_mix),
            models=tuple(args.models),
            engine=engine,
        )
    if args.json:
        import json

        # Execution provenance rides along as an "engine" sidecar key,
        # outside the RunResult payload proper: from_dict ignores it, and
        # result fingerprints (hashes of to_dict) never see it.
        meta = {}
        if engine is not None:
            meta = {
                o.job.model: {"source": o.source, "wall_s": round(o.wall_s, 6)}
                for o in engine.last_outcomes
                if o.ok
            }
        payload = []
        for model, result in results.items():
            entry = result.to_dict()
            if model in meta:
                entry["engine"] = meta[model]
            payload.append(entry)
        print(json.dumps(payload, indent=2))
        return 0
    basis = results.get("nosec")
    rows = []
    for name, result in results.items():
        rows.append(
            (
                name,
                result.ipc,
                (result.ipc / basis.ipc) if basis else float("nan"),
                result.fills,
                result.evictions,
                result.stats.security_bytes() / 1e6,
            )
        )
    print(
        format_table(
            ("model", "ipc", "ipc_norm", "fills", "evicts", "security_MB"),
            rows,
            title=f"{args.benchmark}: {len(trace)} accesses, "
                  f"{trace.footprint_pages} pages",
        )
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """The ``trace`` command: traced simulation, or ``.npz`` workload export.

    With a positional ``output`` this keeps its original behavior and
    exports the generated workload to ``.npz``. Without one it runs a single
    traced simulation and writes the Chrome-trace timeline to
    ``--trace-out``. The traced run always executes in-process.
    """
    config = _build_config(args)
    trace = build_trace(
        args.benchmark, n_accesses=args.accesses, seed=args.seed,
        num_sms=config.gpu.num_sms,
        tenants=getattr(args, "tenants", None) or 1,
        tenant_mix=getattr(args, "tenant_mix", None) or "mirror",
    )
    if args.output:
        from .workloads.io import save_trace

        path = save_trace(trace, args.output)
        print(
            f"wrote {len(trace)} requests ({trace.footprint_pages} pages, "
            f"{trace.write_fraction:.0%} writes) to {path}"
        )
        return 0

    from .sim.trace import Tracer

    tracer = Tracer(capacity=args.trace_events)
    result = run_model(config, trace, args.model, tracer=tracer)
    path = tracer.write(args.trace_out)
    print(
        f"{args.benchmark}/{args.model}: ipc={result.ipc:.4f}, "
        f"{tracer.total_recorded} events recorded ({tracer.dropped} dropped)"
    )
    print(f"wrote {path} - open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """The ``report`` command: render serialized results as md/CSV."""
    import json
    from pathlib import Path

    from .gpu.gpusim import RunResult
    from .harness.report import render_csv, render_markdown_report

    try:
        with open(args.results, encoding="utf-8") as fh:
            payload = json.load(fh)
        if isinstance(payload, dict):
            payload = [payload]
        results = [RunResult.from_dict(entry) for entry in payload]
        engine_meta = [
            entry.get("engine") if isinstance(entry, dict) else None
            for entry in payload
        ]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(
            f"repro report: {args.results} is not a serialized RunResult "
            f"list (expected 'repro run --json' output): {exc!r}",
            file=sys.stderr,
        )
        return 2
    if args.format == "csv":
        text = render_csv(results)
    else:
        text = render_markdown_report(results, engine_meta=engine_meta)
    if args.output:
        out = Path(args.output)
        out.write_text(text, encoding="utf-8")
        print(f"wrote {args.format} report for {len(results)} run(s) to {out}")
    else:
        print(text, end="")
    return 0


def cmd_topology(args: argparse.Namespace) -> int:
    """The ``topology`` command: print the resolved CXL fabric layout,
    including which SM group, channel run, page span and device subset each
    security domain owns under the resolved partition."""
    from .address import ShardMap, TenantMap

    config = _build_config(args)
    topo = config.topology
    gpu = config.gpu
    base_bw = gpu.device_bandwidth_gbps / gpu.core_clock_ghz
    rows = []
    for d in range(topo.num_devices):
        ratio = topo.bw_ratio(d, gpu.cxl_bw_ratio)
        rows.append(
            (
                f"dev{d}",
                "cxl" if d == 0 else f"cxl{d}",
                ratio,
                base_bw * ratio,
                topo.latency(d, gpu.cxl_latency_cycles),
            )
        )
    print(
        format_table(
            ("device", "link", "bw_ratio", "bytes/cycle", "latency_cycles"),
            rows,
            title=f"CXL fabric: {topo.num_devices} device(s), "
                  f"{topo.sharding} sharding",
        )
    )
    trace = None
    if args.benchmark:
        trace = build_trace(
            args.benchmark, n_accesses=args.accesses, seed=args.seed,
            num_sms=config.gpu.num_sms,
            tenants=getattr(args, "tenants", None) or 1,
            tenant_mix=getattr(args, "tenant_mix", None) or "mirror",
        )
        shard = ShardMap(
            geometry=config.geometry,
            num_devices=topo.num_devices,
            policy=topo.sharding,
            total_pages=trace.footprint_pages,
        )
        rows = [
            (f"dev{d}", shard.pages_on(d),
             shard.pages_on(d) * config.geometry.page_bytes // 1024)
            for d in range(topo.num_devices)
        ]
        print()
        print(
            format_table(
                ("device", "homed_pages", "KiB"),
                rows,
                title=f"{args.benchmark}: {trace.footprint_pages} pages "
                      f"sharded by '{topo.sharding}'",
            )
        )
    part = config.partition
    tmap = TenantMap(
        geometry=config.geometry,
        num_tenants=part.num_tenants,
        total_pages=(
            trace.footprint_pages if trace is not None else part.num_tenants
        ),
        num_sms=gpu.num_sms,
        num_gpcs=gpu.num_gpcs,
        num_channels=gpu.num_channels,
        num_devices=topo.num_devices,
    )
    rows = []
    for t in range(part.num_tenants):
        devs = tmap.devices_of(t)
        rows.append(
            (
                part.tenant_name(t),
                f"{tmap.sm_base(t)}-"
                f"{tmap.sm_base(t) + tmap.sms_per_tenant - 1}",
                f"{tmap.channel_base(t)}-"
                f"{tmap.channel_base(t) + tmap.channels_per_tenant - 1}",
                (
                    "shared"
                    if tmap.devices_shared and part.num_tenants > 1
                    else f"{devs.start}-{devs.stop - 1}"
                ),
                tmap.pages_of(t) if trace is not None else "-",
            )
        )
    print()
    print(
        format_table(
            ("tenant", "sms", "channels", "devices", "homed_pages"),
            rows,
            title=f"security domains: {part.num_tenants} tenant(s)",
        )
    )
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """The ``figure``/``figures`` commands: regenerate paper figures.

    All figures of one invocation share one engine, so the simulations
    Figures 10-12 have in common run once, ``--jobs N`` fans each sweep out
    over worker processes, and (unless ``--no-cache``) every result lands in
    the persistent cache for the next invocation.
    """
    config = _build_config(args)
    engine = _build_engine(args)
    names = list(FIGURES) if args.name == "all" else [args.name]
    benchmarks = tuple(args.benchmarks) if args.benchmarks else None
    for name in names:
        result = FIGURES[name](
            config=config, benchmarks=benchmarks,
            n_accesses=args.accesses, seed=args.seed,
            engine=engine,
        )
        print(result.to_text())
        print()
    if args.verbose:
        s = engine.stats
        print(
            f"engine: {s.simulations} simulated, {s.disk_hits} from disk "
            f"cache, {s.memory_hits} from memory, {s.errors} errors",
            file=sys.stderr,
        )
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    """The ``runs`` command: list the run ledger (what ran, when, how fast)."""
    from .harness.ledger import RunLedger

    ledger = RunLedger(args.cache_dir)
    entries = ledger.entries(
        bench=args.bench, model=args.model, source=args.source,
        limit=args.limit,
    )
    if args.json:
        import json

        from dataclasses import asdict

        print(json.dumps([asdict(e) for e in entries], indent=2, sort_keys=True))
        return 0
    if not entries:
        where = ledger.path
        print(f"no matching ledger entries in {where}")
        print("(the ledger fills as 'repro run'/'repro figure' complete jobs"
              " with a cache directory attached)")
        return 0
    rows = [
        (
            e.recorded or "?",
            e.label(),
            e.source,
            f"{e.wall_s:.3f}",
            e.ipc,
            e.cycles,
            e.result_fingerprint[:12],
        )
        for e in entries
    ]
    print(
        format_table(
            ("recorded", "run", "source", "wall_s", "ipc", "cycles",
             "result_fp"),
            rows,
            title=f"run ledger: {ledger.path} "
                  f"({len(entries)} shown of {len(ledger)})",
        )
    )
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    """The ``perf`` command: recorded trajectory + ledger regression check.

    Prints the performance trajectory recorded in ``BENCH_perf.json``
    (one row per ``bench_perf.py --record`` entry, per sweep), then checks
    the run ledger's latest simulated runs against the reference entry:
    a result-fingerprint mismatch is behaviour drift (exit 1); a per-job
    wall time beyond ``--threshold`` times the recorded one is flagged as a
    perf regression (exit 1 too - raise the threshold or re-record).
    """
    import json
    from pathlib import Path

    from .harness.ledger import RunLedger

    path = Path(args.file)
    try:
        store = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"repro perf: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    sweeps = store.get("sweeps", {})
    if not sweeps:
        print(f"repro perf: no recorded sweeps in {path}", file=sys.stderr)
        return 2

    for sweep_name in sorted(sweeps):
        if args.sweep and sweep_name != args.sweep:
            continue
        sweep = sweeps[sweep_name]
        entries = sweep.get("entries", [])
        if not entries:
            continue
        base = entries[0]["summary"]["requests_per_sec"]
        rows = [
            (
                e["label"],
                e.get("recorded", "?"),
                e["summary"]["total_wall_s"],
                f"{e['summary']['requests_per_sec']:,.0f}",
                e["summary"]["requests_per_sec"] / base,
            )
            for e in entries
        ]
        print(
            format_table(
                ("entry", "recorded", "wall_s", "req/s", "vs_first"),
                rows,
                title=f"sweep '{sweep_name}': "
                      f"{len(sweep.get('benches', []))} benches @ "
                      f"{sweep.get('accesses')} accesses, "
                      f"seed {sweep.get('seed')}",
            )
        )
        print()

    # Ledger vs reference: latest simulated ("run") ledger entry per job.
    sweep_name = args.sweep or ("quick" if "quick" in sweeps else sorted(sweeps)[0])
    sweep = sweeps.get(sweep_name, {})
    ref = next(
        (e for e in sweep.get("entries", []) if e["label"] == args.ref), None
    )
    if ref is None:
        print(
            f"no reference entry '{args.ref}' recorded for sweep "
            f"'{sweep_name}'; skipping ledger check"
        )
        return 0
    ledger = RunLedger(args.cache_dir)
    latest = {}
    for entry in ledger.entries(source="run"):
        if entry.n_accesses == sweep.get("accesses") and entry.seed == sweep.get("seed"):
            latest[f"{entry.bench}/{entry.model}"] = entry
    if not latest:
        print(
            f"ledger {ledger.path} has no simulated runs matching sweep "
            f"'{sweep_name}' (@{sweep.get('accesses')} accesses, "
            f"seed {sweep.get('seed')}); run the sweep first"
        )
        return 0
    drift = []
    slow = []
    rows = []
    for label, entry in sorted(latest.items()):
        ref_job = ref["jobs"].get(label)
        if ref_job is None:
            continue
        fp_ok = ref_job["fingerprint"] == entry.result_fingerprint
        ratio = (entry.wall_s / ref_job["wall_s"]) if ref_job["wall_s"] else 0.0
        verdict = "ok"
        if not fp_ok:
            verdict = "FINGERPRINT DRIFT"
            drift.append(label)
        elif args.threshold and ratio > args.threshold:
            verdict = f"slow ({ratio:.2f}x)"
            slow.append(label)
        rows.append(
            (label, f"{ref_job['wall_s']:.3f}", f"{entry.wall_s:.3f}",
             ratio, verdict)
        )
    print(
        format_table(
            ("job", "ref_wall_s", "ledger_wall_s", "ratio", "verdict"),
            rows,
            title=f"ledger vs '{args.ref}' ({sweep_name} sweep)",
        )
    )
    if drift:
        print(
            f"\nBEHAVIOUR DRIFT: {len(drift)} job(s) no longer fingerprint-"
            f"identical to '{args.ref}': {', '.join(drift)}"
        )
        print("localize with: repro diff <recorded result> <live result>")
        return 1
    if slow:
        print(
            f"\nPERF REGRESSION: {len(slow)} job(s) beyond "
            f"{args.threshold:.2f}x the recorded wall time: {', '.join(slow)}"
        )
        return 1
    print(f"\nledger agrees with '{args.ref}': {len(rows)} job(s) checked")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """The ``diff`` command: first divergence between two run artifacts."""
    from .harness.diff import DiffError, diff_paths

    try:
        outcome = diff_paths(
            args.a, args.b, pick=args.pick, context=args.context,
            max_leaves=args.max_leaves,
        )
    except DiffError as exc:
        print(f"repro diff: {exc}", file=sys.stderr)
        return 2
    print(outcome.text)
    return 0 if outcome.identical else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Salus (HPCA 2024) reproduction: simulations and figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list benchmarks, models and figures")
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser("run", help="run one benchmark under chosen models")
    p_run.add_argument("benchmark", choices=benchmark_names())
    p_run.add_argument(
        "--models", nargs="+", default=["nosec", "baseline", "salus"],
        choices=MODEL_NAMES,
    )
    p_run.add_argument("--trace-file", default=None,
                       help="run a saved .npz trace instead of generating one")
    p_run.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of a table")
    _add_common(p_run)
    _add_engine(p_run)
    p_run.set_defaults(func=cmd_run)

    p_trace = sub.add_parser(
        "trace",
        help="run one traced simulation (Chrome trace), "
             "or export a workload to .npz",
    )
    p_trace.add_argument("benchmark", choices=benchmark_names())
    p_trace.add_argument("output", nargs="?", default=None,
                         help="optional .npz path: export the generated "
                              "workload instead of running a traced simulation")
    p_trace.add_argument("--model", default="salus", choices=MODEL_NAMES,
                         help="security model for the traced run "
                              "(default salus)")
    p_trace.add_argument("--trace-out", default="trace.json", metavar="PATH",
                         help="Chrome-trace output path (default trace.json)")
    p_trace.add_argument("--trace-events", type=int, default=200_000,
                         metavar="N",
                         help="tracer ring capacity; older events are "
                              "dropped past this (default 200000)")
    _add_common(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_report = sub.add_parser(
        "report", help="render 'run --json' results as a markdown/CSV report"
    )
    p_report.add_argument("results", help="JSON file of serialized RunResults "
                                          "(e.g. from 'repro run --json')")
    p_report.add_argument("--format", choices=("md", "csv"), default="md",
                          help="report format (default md)")
    p_report.add_argument("-o", "--output", default=None,
                          help="write the report to a file instead of stdout")
    p_report.set_defaults(func=cmd_report)

    p_runs = sub.add_parser(
        "runs", help="list the run ledger (completed simulations, by recency)"
    )
    p_runs.add_argument("--cache-dir", default=default_cache_dir(),
                        help="cache directory holding ledger.jsonl, or a "
                             "direct *.jsonl path (default .salus-cache)")
    p_runs.add_argument("--bench", default=None, help="filter by benchmark")
    p_runs.add_argument("--model", default=None, help="filter by model")
    p_runs.add_argument("--source", default=None,
                        choices=("run", "disk", "memory"),
                        help="filter by how the result was obtained: "
                             "'run' simulated, 'disk' from the result "
                             "cache, 'memory' from the engine's in-process "
                             "memo")
    p_runs.add_argument("--limit", type=int, default=20, metavar="N",
                        help="show the latest N matches (default 20)")
    p_runs.add_argument("--json", action="store_true",
                        help="emit the matching entries as JSON")
    p_runs.set_defaults(func=cmd_runs)

    p_perf = sub.add_parser(
        "perf", help="show the recorded perf trajectory and check the "
                     "ledger against it"
    )
    p_perf.add_argument("--file", default="BENCH_perf.json",
                        help="trajectory file (default BENCH_perf.json)")
    p_perf.add_argument("--sweep", default=None,
                        help="restrict to one sweep (default: all tables, "
                             "'quick' for the ledger check)")
    p_perf.add_argument("--ref", default="post",
                        help="reference entry label for the ledger check "
                             "(default post)")
    p_perf.add_argument("--threshold", type=float, default=0.0,
                        metavar="RATIO",
                        help="flag jobs whose ledger wall time exceeds "
                             "RATIO x the recorded one (default off)")
    p_perf.add_argument("--cache-dir", default=default_cache_dir(),
                        help="cache directory holding ledger.jsonl "
                             "(default .salus-cache)")
    p_perf.set_defaults(func=cmd_perf)

    p_diff = sub.add_parser(
        "diff", help="first divergence between two runs (result JSONs or "
                     "Chrome traces)"
    )
    p_diff.add_argument("a", help="first artifact: 'run --json' dump or "
                                  "Chrome trace")
    p_diff.add_argument("b", help="second artifact (same kind as the first)")
    p_diff.add_argument("--pick", default=None, metavar="WORKLOAD/MODEL",
                        help="diff only this run when files hold several")
    p_diff.add_argument("--context", type=int, default=5, metavar="N",
                        help="aligned events shown before a trace "
                             "divergence (default 5)")
    p_diff.add_argument("--max-leaves", type=int, default=40, metavar="N",
                        help="differing metric leaves listed per report "
                             "(default 40)")
    p_diff.set_defaults(func=cmd_diff)

    p_topo = sub.add_parser(
        "topology", help="print the resolved multi-device CXL fabric layout"
    )
    p_topo.add_argument("benchmark", nargs="?", default=None,
                        choices=benchmark_names(),
                        help="optional: also show how this benchmark's pages "
                             "shard over the devices")
    _add_common(p_topo)
    p_topo.set_defaults(func=cmd_topology)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("name", choices=list(FIGURES) + ["all"])
    p_fig.add_argument("--benchmarks", nargs="*", default=None)
    p_fig.add_argument("--verbose", action="store_true",
                       help="print engine cache/simulation counters to stderr")
    _add_common(p_fig)
    _add_engine(p_fig)
    p_fig.set_defaults(func=cmd_figure)

    p_figs = sub.add_parser(
        "figures", help="regenerate every paper figure (same as 'figure all')"
    )
    p_figs.add_argument("--benchmarks", nargs="*", default=None)
    p_figs.add_argument("--verbose", action="store_true",
                        help="print engine cache/simulation counters to stderr")
    _add_common(p_figs)
    _add_engine(p_figs)
    p_figs.set_defaults(func=cmd_figure, name="all")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
