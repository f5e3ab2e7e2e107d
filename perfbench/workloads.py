"""The benchmark's workloads, their property guards and reference fingerprints.

A workload is a fixed job matrix - suite benchmarks x security models - on
one machine configuration and trace length. Its traces come from
``repro.workloads.suite.build_trace`` at the seed the benchmark is given, so
the same seed always simulates the same inputs.

Every workload was chosen for a property of the simulated machine (see
README.md); :func:`job_guard` and :func:`workload_guard` assert that
property from the run's results, so a generator or configuration change
cannot silently turn one workload into another.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.workloads import suite

REFERENCES_DIR = Path(__file__).resolve().parent / "references"

#: The paper's headline numbers the ``fig10`` error metrics compare against:
#: geomean Salus-over-baseline IPC gain (Fig. 10) and mean Salus security
#: traffic as a share of the baseline's (Fig. 11), both in percent.
PAPER_IPC_GAIN_PCT = 29.94
PAPER_SEC_TRAFFIC_PCT = 47.97


@dataclass(frozen=True)
class Workload:
    name: str
    benches: Tuple[str, ...]
    models: Tuple[str, ...]
    accesses: int
    #: Share of the footprint that fits in device memory; ``None`` keeps
    #: ``SystemConfig.bench()``'s default (0.35).
    capacity_ratio: Optional[float] = None

    def config(self) -> SystemConfig:
        config = SystemConfig.bench()
        if self.capacity_ratio is not None:
            config = config.with_capacity_ratio(self.capacity_ratio)
        return config

    def jobs(self) -> List[Tuple[str, str]]:
        """``(bench, model)`` pairs in run order."""
        return [(b, m) for b in self.benches for m in self.models]

    def build_traces(self, seed: int, config: SystemConfig) -> Dict[str, object]:
        """One trace per benchmark, through the module attribute so the
        traced run's wrapper of ``build_trace`` sees every call.

        A benchmark whose generator raises maps to the exception instead of
        a trace; its jobs then count as failed while the others still run.
        """
        traces: Dict[str, object] = {}
        for bench in self.benches:
            try:
                traces[bench] = suite.build_trace(
                    bench, n_accesses=self.accesses, seed=seed,
                    num_sms=config.gpu.num_sms, geometry=config.geometry,
                )
            except Exception as exc:  # a failed job, reported by the caller
                traces[bench] = exc
        return traces


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig10",
            benches=suite.benchmark_names(),
            models=("nosec", "baseline", "salus"),
            accesses=8_000,
        ),
        Workload(
            name="resident",
            benches=("sgemm", "btree", "kmeans", "bfs"),
            models=("nosec",),
            accesses=40_000,
            capacity_ratio=1.0,
        ),
        Workload(
            name="oversub",
            benches=("nw", "lava", "backprop", "pagerank"),
            models=("baseline", "salus"),
            accesses=16_000,
            capacity_ratio=0.10,
        ),
    )
}


def job_label(bench: str, model: str) -> str:
    return f"{bench}/{model}"


# -- property guards -----------------------------------------------------------

def job_guard(workload: Workload, result) -> Optional[str]:
    """The per-job property ``workload`` was chosen for, or ``None`` if it holds."""
    label = job_label(result.workload, result.model)
    if workload.name == "resident":
        if result.evictions:
            return (f"resident property 'zero evictions' broken: {label} "
                    f"evicted {result.evictions} pages")
        if result.security_traffic():
            return (f"resident property 'zero security bytes' broken: {label} "
                    f"moved {result.security_traffic()} security bytes")
    if workload.name == "oversub" and result.evictions <= 0:
        return (f"oversub property 'evictions > 0 in every job' broken: "
                f"{label} evicted nothing")
    return None


def workload_guard(workload: Workload, seed: int, traces: Dict[str, object]) -> List[str]:
    """Workload-level properties; returns one message per broken property."""
    problems = []
    if workload.name == "fig10":
        expected = {(b, m) for b in suite.benchmark_names()
                    for m in ("nosec", "baseline", "salus")}
        if set(workload.jobs()) != expected:
            problems.append(
                "fig10 property 'all 12 suite benchmarks x 3 models' broken: "
                f"job matrix has {len(workload.jobs())} jobs"
            )
    if workload.name == "oversub":
        resident = WORKLOADS["resident"]
        resident_traces = resident.build_traces(seed, resident.config())
        ours = {b: t.write_fraction for b, t in traces.items()
                if not isinstance(t, Exception)}
        theirs = {b: t.write_fraction for b, t in resident_traces.items()
                  if not isinstance(t, Exception)}
        if ours and theirs and min(ours.values()) <= max(theirs.values()):
            low = min(ours, key=ours.get)
            high = max(theirs, key=theirs.get)
            problems.append(
                "oversub property 'every trace writes more than every "
                f"resident trace' broken: {low} writes {ours[low]:.3f}, "
                f"resident {high} writes {theirs[high]:.3f}"
            )
    return problems


def sanity_check(result, trace) -> Optional[str]:
    """Checks that need no reference: the job simulated its whole trace,
    and the unprotected model moved no security bytes."""
    label = job_label(result.workload, result.model)
    expected = len(trace) * (1 + trace.compute_per_mem)
    if result.stats.instructions != expected:
        return (f"{label}: simulated {result.stats.instructions} instructions, "
                f"trace holds {expected}")
    if result.model == "nosec" and result.security_traffic():
        return f"{label}: nosec moved {result.security_traffic()} security bytes"
    return None


# -- reference fingerprints ----------------------------------------------------

def references_path(workload: Workload, directory: Path = REFERENCES_DIR) -> Path:
    return directory / f"{workload.name}.json"


def references_for(workload: Workload, seed: int,
                   directory: Path = REFERENCES_DIR) -> Optional[Dict[str, str]]:
    """``{job label: fingerprint}`` recorded for this workload and seed, or
    ``None`` when the seed (or the trace length) has no reference."""
    path = references_path(workload, directory)
    if not path.exists():
        return None
    entry = json.loads(path.read_text(encoding="utf-8"))
    if entry.get("accesses") != workload.accesses:
        return None
    return entry["seeds"].get(str(seed))


def record_references(workload: Workload, seed: int, fingerprints: Dict[str, str],
                      directory: Path = REFERENCES_DIR) -> None:
    path = references_path(workload, directory)
    entry = {"accesses": workload.accesses, "seeds": {}}
    if path.exists():
        entry = json.loads(path.read_text(encoding="utf-8"))
        if entry["accesses"] != workload.accesses:
            raise ValueError(
                f"{path}: references were recorded at {entry['accesses']} "
                f"accesses, not {workload.accesses}"
            )
    entry["seeds"][str(seed)] = dict(sorted(fingerprints.items()))
    entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entry, indent=1) + "\n", encoding="utf-8")


# -- the simulator's error against the paper -----------------------------------

def paper_errors(results: Dict[Tuple[str, str], object],
                 benches: Sequence[str]) -> Optional[Dict[str, float]]:
    """``ipc_gain_err_pts`` and ``sec_traffic_err_pts`` over the benchmarks
    that ran under both baseline and Salus, or ``None`` if none did."""
    pairs = [(results[(b, "baseline")], results[(b, "salus")]) for b in benches
             if (b, "baseline") in results and (b, "salus") in results]
    if not pairs:
        return None
    product = 1.0
    for base, salus in pairs:
        product *= salus.ipc / base.ipc
    gain_pct = (product ** (1.0 / len(pairs)) - 1.0) * 100.0
    share_pct = 100.0 * sum(
        salus.security_traffic() / base.security_traffic() for base, salus in pairs
    ) / len(pairs)
    return {
        "ipc_gain_err_pts": abs(gain_pct - PAPER_IPC_GAIN_PCT),
        "sec_traffic_err_pts": abs(share_pct - PAPER_SEC_TRAFFIC_PCT),
    }
