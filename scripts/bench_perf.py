#!/usr/bin/env python
"""Perf-benchmark harness: tracked throughput trajectory with a correctness gate.

Runs the Figure-10 sweep (every benchmark x {nosec, baseline, salus}) through
the simulator, measuring wall-clock seconds and simulated requests/sec per
(benchmark, model) job, and fingerprinting every :class:`RunResult`
(sha-256 over the canonical serialized result - see
``RunResult.fingerprint``).

The checked-in ``BENCH_perf.json`` records the trajectory: one entry per
recorded point (at minimum ``baseline`` = pre-optimization and ``post`` =
current). The harness **gates on bit-identical result fingerprints** between
the live run and the reference entry, so every speedup in the trajectory is
provably behavior-preserving. Timing numbers are reported but non-gating by
default (wall-clock varies across machines); pass ``--min-speedup`` to also
enforce a throughput ratio.

Usage:
    # CI / local check: rerun the sweep, verify fingerprints, report speedup
    python scripts/bench_perf.py --quick
    python scripts/bench_perf.py                     # full Figure-10 sweep

    # Record a trajectory point (overwrites an entry of the same label)
    python scripts/bench_perf.py --record baseline
    python scripts/bench_perf.py --record post

    # Optional hard throughput gate (used when validating the PR target)
    python scripts/bench_perf.py --min-speedup 1.5 --ref baseline

Exit status: 0 on success, 1 on fingerprint mismatch (or failed speedup gate),
2 on usage errors (e.g. missing reference entry).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import SystemConfig  # noqa: E402
from repro.harness.runner import run_model  # noqa: E402
from repro.workloads.suite import benchmark_names, build_trace  # noqa: E402

#: Bump when the sweep definition or the JSON layout changes; entries from a
#: different schema are never compared against.
BENCH_SCHEMA = 1

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_perf.json"
FIG10_MODELS = ("nosec", "baseline", "salus")

#: The full Figure-10 sweep (every benchmark) and the CI smoke subset.
FULL_ACCESSES = 8_000
QUICK_ACCESSES = 2_000
QUICK_BENCHES = ("nw", "backprop", "kmeans")
DEFAULT_SEED = 7


def sweep_spec(quick: bool, accesses: int = 0, seed: int = DEFAULT_SEED) -> dict:
    """The (name, benches, models, accesses, seed) tuple defining one sweep."""
    benches = QUICK_BENCHES if quick else benchmark_names()
    return {
        "name": "quick" if quick else "fig10",
        "benches": list(benches),
        "models": list(FIG10_MODELS),
        "accesses": accesses or (QUICK_ACCESSES if quick else FULL_ACCESSES),
        "seed": seed,
    }


def run_sweep(spec: dict, repeats: int = 1) -> tuple:
    """Execute the sweep serially; returns ({job_label: measurement},
    {job_label: RunResult}).

    Trace generation is excluded from the timed region; with ``repeats > 1``
    the minimum wall time per job is kept (the least-noise estimate) after
    checking that every repeat fingerprints identically. The config
    is always built through ``with_tenants`` - at the default 1 tenant this
    pins the equivalence the tenancy refactor promises: an explicit
    single-tenant partition reproduces the recorded fingerprints exactly.
    """
    tenants = spec.get("tenants", 1)
    config = SystemConfig.bench().with_tenants(tenants)
    jobs = {}
    results = {}
    for bench in spec["benches"]:
        trace = build_trace(
            bench,
            n_accesses=spec["accesses"],
            seed=spec["seed"],
            num_sms=config.gpu.num_sms,
            geometry=config.geometry,
            tenants=tenants,
        )
        for model in spec["models"]:
            label = f"{bench}/{model}"
            best_wall = None
            fingerprint = None
            for _ in range(max(1, repeats)):
                t0 = time.perf_counter()
                result = run_model(config, trace, model)
                wall = time.perf_counter() - t0
                fp = result.fingerprint()
                if fingerprint is None:
                    fingerprint = fp
                elif fp != fingerprint:
                    raise RuntimeError(
                        f"{label}: nondeterministic result across repeats "
                        f"({fingerprint[:12]} vs {fp[:12]})"
                    )
                best_wall = wall if best_wall is None else min(best_wall, wall)
            jobs[label] = {
                "wall_s": round(best_wall, 6),
                "requests_per_sec": round(spec["accesses"] / best_wall, 1),
                "cycles": result.cycles,
                "fingerprint": fingerprint,
            }
            results[label] = result
            print(
                f"  {label:<24} {best_wall:8.3f}s "
                f"{jobs[label]['requests_per_sec']:>12,.0f} req/s "
                f"{fingerprint[:12]}",
                flush=True,
            )
    return jobs, results


def result_filename(label: str) -> str:
    """``bench/model`` -> the per-job dump/snapshot file name."""
    return label.replace("/", "-") + ".json"


def dump_results(results: dict, out_dir: Path) -> None:
    """Write each RunResult as ``<dir>/<bench>-<model>.json``.

    The dumps are ``repro diff``-able artifacts: on a fingerprint-gate
    failure, diffing the live dump against the recorded snapshot of the
    same job names the exact metrics/counters that moved.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    for label, result in results.items():
        path = out_dir / result_filename(label)
        path.write_text(
            json.dumps(result.to_dict(), indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def record_ledger(spec: dict, jobs: dict, results: dict, ledger_dir) -> None:
    """Append the sweep's runs to the run ledger (``repro runs`` visibility)."""
    from repro.harness.engine import SCHEMA_VERSION, JobOutcome, SimJob
    from repro.harness.ledger import LedgerEntry, RunLedger

    tenants = spec.get("tenants", 1)
    config = SystemConfig.bench().with_tenants(tenants)
    ledger = RunLedger(ledger_dir)
    for label, result in results.items():
        bench, model = label.split("/", 1)
        job = SimJob.of(config, bench, model, spec["accesses"], spec["seed"],
                        tenants=tenants)
        outcome = JobOutcome(
            job, result=result, source="run", wall_s=jobs[label]["wall_s"]
        )
        ledger.append(LedgerEntry.from_outcome(outcome, SCHEMA_VERSION))


def summarize(spec: dict, jobs: dict) -> dict:
    total_wall = sum(j["wall_s"] for j in jobs.values())
    total_requests = spec["accesses"] * len(jobs)
    return {
        "total_wall_s": round(total_wall, 3),
        "total_requests": total_requests,
        "requests_per_sec": round(total_requests / total_wall, 1),
    }


def load_store(path: Path) -> dict:
    if path.exists():
        store = json.loads(path.read_text(encoding="utf-8"))
        if store.get("schema") == BENCH_SCHEMA:
            return store
    return {"schema": BENCH_SCHEMA, "sweeps": {}}


def find_entry(store: dict, sweep_name: str, label: str):
    for entry in store["sweeps"].get(sweep_name, {}).get("entries", []):
        if entry["label"] == label:
            return entry
    return None


def check_against(ref: dict, jobs: dict, summary: dict, min_speedup: float) -> int:
    """Fingerprint gate (hard) + throughput report (soft unless min_speedup)."""
    mismatches = []
    for label, job in jobs.items():
        ref_job = ref["jobs"].get(label)
        if ref_job is None:
            mismatches.append(f"{label}: missing from reference entry")
        elif ref_job["fingerprint"] != job["fingerprint"]:
            mismatches.append(
                f"{label}: fingerprint {job['fingerprint'][:12]} != "
                f"reference {ref_job['fingerprint'][:12]}"
            )
    extra = set(ref["jobs"]) - set(jobs)
    if extra:
        mismatches.append(f"reference has jobs the live sweep lacks: {sorted(extra)}")
    if mismatches:
        print("\nFINGERPRINT GATE FAILED (behaviour changed):")
        for line in mismatches:
            print(f"  {line}")
        return 1
    speedup = summary["requests_per_sec"] / ref["summary"]["requests_per_sec"]
    print(
        f"\nfingerprints: all {len(jobs)} jobs bit-identical to "
        f"'{ref['label']}' ({ref.get('recorded', '?')})"
    )
    print(
        f"throughput: {summary['requests_per_sec']:,.0f} req/s vs "
        f"{ref['summary']['requests_per_sec']:,.0f} req/s -> {speedup:.2f}x "
        f"({'gating' if min_speedup else 'non-gating'})"
    )
    if min_speedup and speedup < min_speedup:
        print(f"SPEEDUP GATE FAILED: {speedup:.2f}x < required {min_speedup:.2f}x")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke subset (3 benches, fewer accesses)")
    parser.add_argument("--accesses", type=int, default=0,
                        help="override per-job request count")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=1,
                        help="timing repeats per job (min wall kept)")
    parser.add_argument("--record", metavar="LABEL",
                        help="record this run as a trajectory entry")
    parser.add_argument("--ref", default="baseline",
                        help="reference entry label to gate against")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="also fail unless throughput >= RATIO x reference")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"trajectory file (default {DEFAULT_OUTPUT.name})")
    parser.add_argument("--dump-results", type=Path, default=None,
                        metavar="DIR",
                        help="also write each live RunResult as "
                             "DIR/<bench>-<model>.json ('repro diff' food)")
    parser.add_argument("--snapshot-dir", type=Path,
                        default=REPO_ROOT / "BENCH_snapshots",
                        metavar="DIR",
                        help="recorded per-job result snapshots; --record on "
                             "the quick sweep refreshes DIR/quick/ "
                             "(default BENCH_snapshots)")
    parser.add_argument("--ledger-dir", default=None, metavar="DIR",
                        help="run-ledger location (default: the repro cache "
                             "dir, i.e. $REPRO_CACHE_DIR or .salus-cache)")
    parser.add_argument("--no-ledger", action="store_true",
                        help="do not record the sweep in the run ledger")
    parser.add_argument("--tenants", type=int, default=1, metavar="T",
                        help="security domains (default 1; the CI gate runs "
                             "with an explicit 1-tenant partition). T != 1 "
                             "stores its trajectory under a separate "
                             "'<sweep>-xT' name so tenancy entries never "
                             "collide with the recorded single-tenant ones")
    args = parser.parse_args(argv)

    spec = sweep_spec(args.quick, accesses=args.accesses, seed=args.seed)
    if args.tenants != 1:
        spec["tenants"] = args.tenants
        spec["name"] += f"-x{args.tenants}"
    print(
        f"sweep '{spec['name']}': {len(spec['benches'])} benches x "
        f"{len(spec['models'])} models @ {spec['accesses']} accesses "
        f"(seed {spec['seed']}, "
        f"{args.tenants} tenant(s))"
    )
    jobs, results = run_sweep(spec, repeats=args.repeats)
    summary = summarize(spec, jobs)
    print(
        f"total: {summary['total_wall_s']:.2f}s for "
        f"{summary['total_requests']:,} requests -> "
        f"{summary['requests_per_sec']:,.0f} req/s"
    )

    if args.dump_results:
        dump_results(results, args.dump_results)
        print(f"dumped {len(results)} result JSONs to {args.dump_results}/")
    if not args.no_ledger:
        from repro.harness.engine import default_cache_dir

        ledger_dir = args.ledger_dir or default_cache_dir()
        record_ledger(spec, jobs, results, ledger_dir)

    store = load_store(args.output)
    sweep_store = store["sweeps"].setdefault(
        spec["name"],
        {"benches": spec["benches"], "models": spec["models"],
         "accesses": spec["accesses"], "seed": spec["seed"], "entries": [],
         **({"tenants": spec["tenants"]} if "tenants" in spec else {})},
    )

    if args.record:
        entry = {
            "label": args.record,
            "recorded": time.strftime("%Y-%m-%d"),
            "python": platform.python_version(),
            "summary": summary,
            "jobs": jobs,
        }
        sweep_store["entries"] = [
            e for e in sweep_store["entries"] if e["label"] != args.record
        ] + [entry]
        args.output.write_text(
            json.dumps(store, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"recorded entry '{args.record}' in {args.output}")
        if spec["name"] == "quick":
            # Keep the diffable per-job snapshots in lockstep with the
            # recorded fingerprints (CI diffs failures against these).
            dump_results(results, args.snapshot_dir / "quick")
            print(f"refreshed snapshots in {args.snapshot_dir / 'quick'}/")
        ref = find_entry(store, spec["name"], args.ref)
        if ref is not None and ref["label"] != args.record:
            return check_against(ref, jobs, summary, args.min_speedup)
        return 0

    ref = find_entry(store, spec["name"], args.ref)
    if ref is None:
        print(
            f"no reference entry '{args.ref}' for sweep '{spec['name']}' in "
            f"{args.output}; record one with --record {args.ref}"
        )
        return 2
    rc = check_against(ref, jobs, summary, args.min_speedup)
    if rc == 1:
        snap_dir = args.snapshot_dir / spec["name"]
        if snap_dir.is_dir():
            live = args.dump_results or "<DIR from --dump-results>"
            print(
                f"\nlocalize the drift (first differing metrics, per job):\n"
                f"  repro diff {snap_dir}/<bench>-<model>.json "
                f"{live}/<bench>-<model>.json"
            )
    return rc


if __name__ == "__main__":
    sys.exit(main())
