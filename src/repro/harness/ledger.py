"""Append-only run ledger: a persistent registry of completed simulations.

The result cache (:class:`~repro.harness.engine.ResultCache`) answers "have
I simulated this exact job before?" - it is content-addressed and silent
about history. The ledger answers the *longitudinal* questions the cache
cannot: what ran on this machine, when, how long each job took, whether it
was served from cache, and - crucially for the fingerprint gate - what every
run's :meth:`~repro.gpu.gpusim.RunResult.fingerprint` and flat metric tree
were, so two runs of the same job can be compared *across invocations*
without keeping every result JSON around.

Storage is one JSONL file (``ledger.jsonl``) under the engine's cache
directory, one self-describing entry per completed job, appended by
:meth:`~repro.harness.engine.ExperimentEngine.run_jobs` on job completion.
Append-only by design: entries are never rewritten, a torn or corrupt line
degrades to "skipped" on replay, and a schema bump (``LEDGER_SCHEMA``)
makes old entries invisible rather than misread. The ledger lives *next to*
the content-addressed entries but is never part of any cache key: a job's
fingerprint hashes configuration, trace recipe, model and engine schema
only (see ``SimJob.fingerprint``), so recording a run can never change
where that run's result is cached - the regression test pins this.

Queried by ``repro runs`` (list/filter) and ``repro perf`` (throughput and
fingerprint trajectory vs the recorded ``BENCH_perf.json`` entries).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

#: Version of the ledger-entry layout. Bump on any incompatible change to
#: the fields below; entries from other schema versions are skipped on
#: replay (never errors, never misread).
LEDGER_SCHEMA = 1

#: File name of the ledger inside a cache directory. Deliberately not a
#: ``<fp[:2]>/<fp>.json`` path: the result cache globs ``*/*.json`` for its
#: entries, so the ledger is invisible to it.
LEDGER_FILENAME = "ledger.jsonl"


@dataclass
class LedgerEntry:
    """One completed simulation, as recorded in the ledger.

    ``source`` says how the result was obtained (``run`` = simulated,
    ``disk`` = result-cache hit, ``memory`` = hit in the engine's
    in-process memo); ``wall_s`` is the wall-clock cost of
    obtaining it (near zero for hits). ``metrics`` is the flat
    ``{dotted_name: number}`` snapshot from ``RunResult.metrics`` - enough
    to localize *which* subsystem moved when two entries' fingerprints
    disagree, without re-running anything.
    """

    bench: str
    model: str
    n_accesses: int
    seed: int
    config_fingerprint: str
    job_fingerprint: str
    result_fingerprint: str
    source: str
    wall_s: float
    engine_schema: int
    ipc: float
    cycles: int
    instructions: int
    fills: int
    evictions: int
    security_bytes: int
    total_bytes: int
    recorded: str = ""
    schema: int = LEDGER_SCHEMA
    metrics: Dict[str, float] = field(default_factory=dict)
    tenants: int = 1

    def label(self) -> str:
        tenancy = f"x{self.tenants}" if self.tenants != 1 else ""
        return f"{self.bench}{tenancy}/{self.model}@{self.n_accesses}#{self.seed}"

    def to_json_line(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_line(cls, line: str) -> Optional["LedgerEntry"]:
        """Parse one ledger line; ``None`` for corrupt or foreign-schema data."""
        try:
            data = json.loads(line)
        except ValueError:
            return None
        if not isinstance(data, dict) or data.get("schema") != LEDGER_SCHEMA:
            return None
        try:
            return cls(**data)
        except TypeError:
            return None

    @classmethod
    def from_outcome(cls, outcome, engine_schema: int) -> "LedgerEntry":
        """Build an entry from a successful :class:`JobOutcome`."""
        job = outcome.job
        result = outcome.result
        stats = result.stats
        return cls(
            bench=job.trace.bench,
            model=job.model,
            n_accesses=job.trace.n_accesses,
            seed=job.trace.seed,
            config_fingerprint=job.config.fingerprint(),
            job_fingerprint=job.fingerprint(),
            result_fingerprint=result.fingerprint(),
            source=outcome.source,
            wall_s=round(outcome.wall_s, 6),
            engine_schema=engine_schema,
            ipc=stats.ipc,
            cycles=stats.final_cycle,
            instructions=stats.instructions,
            fills=result.fills,
            evictions=result.evictions,
            security_bytes=stats.security_bytes(),
            total_bytes=stats.total_bytes(),
            recorded=time.strftime("%Y-%m-%dT%H:%M:%S"),
            metrics=dict(result.metrics),
            tenants=getattr(job.trace, "tenants", 1),
        )


class RunLedger:
    """Append-only JSONL registry of completed runs.

    ``root`` may be a cache directory (the ledger lives at
    ``<root>/ledger.jsonl``) or a direct ``*.jsonl`` path.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        root = Path(root)
        self.path = root if root.suffix == ".jsonl" else root / LEDGER_FILENAME

    # -- writing -------------------------------------------------------------
    def append(self, entry: LedgerEntry) -> None:
        """Append one entry; creates the file (and parents) on first write."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(entry.to_json_line() + "\n")

    # -- replay --------------------------------------------------------------
    def _iter_entries(self) -> Iterator[LedgerEntry]:
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            entry = LedgerEntry.from_json_line(line)
            if entry is not None:
                yield entry

    def entries(
        self,
        bench: Optional[str] = None,
        model: Optional[str] = None,
        source: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[LedgerEntry]:
        """Replay the ledger, oldest first, with optional filters.

        ``limit`` keeps the *latest* N matching entries (the tail is what
        ``repro runs`` shows by default).
        """
        out = [
            e
            for e in self._iter_entries()
            if (bench is None or e.bench == bench)
            and (model is None or e.model == model)
            and (source is None or e.source == source)
        ]
        if limit is not None and limit >= 0:
            out = out[len(out) - min(limit, len(out)):]
        return out

    def latest_by_job(self) -> Dict[str, LedgerEntry]:
        """Latest entry per job fingerprint (replay order = append order)."""
        out: Dict[str, LedgerEntry] = {}
        for entry in self._iter_entries():
            out[entry.job_fingerprint] = entry
        return out

    def __len__(self) -> int:
        return sum(1 for _ in self._iter_entries())
