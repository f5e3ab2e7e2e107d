"""Trace container: a workload as the simulator consumes it."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Iterator, List

from ..errors import TraceError
from ..memsys.request import MemoryRequest


@dataclass
class Trace:
    """A named sequence of post-L1 memory requests plus workload metadata.

    ``compute_per_mem`` is the arithmetic intensity the SM front end
    interleaves between memory instructions; ``footprint_pages`` sizes the
    protected CXL address space (and, through the capacity ratio, the device
    page cache).
    """

    name: str
    footprint_pages: int
    compute_per_mem: int
    requests: List[MemoryRequest] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.footprint_pages <= 0:
            raise TraceError("footprint_pages must be positive")
        if self.compute_per_mem < 0:
            raise TraceError("compute_per_mem must be non-negative")

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[MemoryRequest]:
        return iter(self.requests)

    @property
    def write_fraction(self) -> float:
        if not self.requests:
            return 0.0
        writes = sum(1 for r in self.requests if r.is_write)
        return writes / len(self.requests)

    def distinct_pages(self, page_bytes: int) -> int:
        return len({r.cxl_addr // page_bytes for r in self.requests})

    def fingerprint(self) -> str:
        """Stable content hash of the trace.

        Covers the metadata and the full ordered request stream (address,
        direction, SM, warp). Deterministic across processes and platforms -
        no reliance on ``hash()`` - so it can anchor cross-process cache
        keys: generating the same (bench, n_accesses, seed, geometry) in two
        different interpreters must yield the same fingerprint.
        """
        digest = hashlib.sha256()
        header = f"{self.name}|{self.footprint_pages}|{self.compute_per_mem}|{len(self.requests)}"
        digest.update(header.encode("utf-8"))
        for req in self.requests:
            digest.update(
                struct.pack("<QBII", req.cxl_addr, 1 if req.is_write else 0, req.sm, req.warp)
            )
        if any(req.tenant for req in self.requests):
            for req in self.requests:
                digest.update(struct.pack("<I", req.tenant))
        return digest.hexdigest()

    def head(self, n: int) -> "Trace":
        """A truncated copy (used by fast tests)."""
        return Trace(
            name=self.name,
            footprint_pages=self.footprint_pages,
            compute_per_mem=self.compute_per_mem,
            requests=self.requests[:n],
        )
