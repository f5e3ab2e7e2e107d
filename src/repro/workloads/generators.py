"""Parameterized synthetic trace generation.

A :class:`WorkloadSpec` captures the five knobs that drive the Salus-vs-
baseline comparison (see DESIGN.md Section 2 for the substitution argument):

* ``chunk_coverage`` - fraction of a page's 256 B chunks touched during one
  device-memory residency. The paper attributes the largest Salus wins (NW,
  B+tree, Lava) to pages whose residency touches under half their channels;
  fetch-on-access skips the metadata of everything untouched.
* ``concurrent_pages`` - how many page-visits interleave in time. High
  spread (Backprop, Sgemm) thrashes the small metadata caches and stretches
  Merkle walks across the run, which is exactly why those benchmarks do not
  improve under Salus.
* ``write_fraction`` - drives counter increments, collapse re-encryptions
  and dirty-chunk writeback volume.
* ``reuse`` / ``sectors_per_chunk_touched`` - temporal and spatial density,
  controlling L2 and metadata-cache hit rates.
* ``compute_per_mem`` - arithmetic intensity; low values make the workload
  memory-bound so security traffic shows up in IPC.

``page_order`` selects the page-visit sequence: ``stream`` (sequential
passes), ``tiled`` (block-revisit), or ``zipf`` (skewed random, graph-like).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, replace
from typing import Iterator, List, Tuple

from ..address import DEFAULT_GEOMETRY, Geometry
from ..errors import TraceError
from ..memsys.request import Access, MemoryRequest
from .trace import Trace

PAGE_ORDERS = ("stream", "tiled", "zipf")


@dataclass(frozen=True)
class WorkloadSpec:
    """Generator parameters for one synthetic benchmark."""

    name: str
    suite: str = "synthetic"
    intensity: str = "medium"          # low | medium | high (paper's grouping)
    footprint_pages: int = 1024
    chunk_coverage: float = 0.75
    concurrent_pages: int = 4
    write_fraction: float = 0.25
    sectors_per_chunk_touched: int = 6
    reuse: int = 2
    compute_per_mem: int = 4
    page_order: str = "stream"
    zipf_skew: float = 1.2
    tile_pages: int = 32

    def __post_init__(self) -> None:
        if self.footprint_pages <= 0:
            raise TraceError(f"{self.name}: footprint_pages must be positive")
        if not 0.0 < self.chunk_coverage <= 1.0:
            raise TraceError(f"{self.name}: chunk_coverage must be in (0, 1]")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise TraceError(f"{self.name}: write_fraction must be in [0, 1]")
        if self.concurrent_pages <= 0 or self.reuse <= 0:
            raise TraceError(f"{self.name}: concurrent_pages/reuse must be positive")
        if self.page_order not in PAGE_ORDERS:
            raise TraceError(
                f"{self.name}: page_order must be one of {PAGE_ORDERS}"
            )
        if self.sectors_per_chunk_touched <= 0:
            raise TraceError(f"{self.name}: sectors_per_chunk_touched must be positive")


def _page_sequence(spec: WorkloadSpec, rng: random.Random) -> Iterator[int]:
    """Endless page-visit sequence in the spec's order."""
    n = spec.footprint_pages
    if spec.page_order == "stream":
        while True:
            for page in range(n):
                yield page
    elif spec.page_order == "tiled":
        tile = max(1, min(spec.tile_pages, n))
        while True:
            for base in range(0, n, tile):
                pages = list(range(base, min(base + tile, n)))
                # Revisit the tile a few times before moving on, like a
                # blocked GEMM or molecular-dynamics cell loop.
                for _ in range(2):
                    for page in pages:
                        yield page
    else:  # zipf
        # Rank-weighted skew: page popularity ~ 1 / rank^skew, with ranks
        # shuffled once so hot pages are scattered through the footprint.
        ranks = list(range(1, n + 1))
        rng.shuffle(ranks)
        weights = [1.0 / (ranks[p] ** spec.zipf_skew) for p in range(n)]
        total = sum(weights)
        cumulative: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w
            cumulative.append(acc / total)
        while True:
            x = rng.random()
            lo, hi = 0, n - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if cumulative[mid] < x:
                    lo = mid + 1
                else:
                    hi = mid
            yield lo


def _visit_accesses(
    spec: WorkloadSpec, page: int, geom: Geometry, rng: random.Random
) -> List[Tuple[int, bool]]:
    """The (address, is_write) list of one page visit."""
    cpp = geom.chunks_per_page
    n_chunks = max(1, round(spec.chunk_coverage * cpp))
    chunks = rng.sample(range(cpp), n_chunks)
    accesses: List[Tuple[int, bool]] = []
    spc = geom.sectors_per_chunk
    n_sectors = min(spec.sectors_per_chunk_touched, spc)
    for chunk in chunks:
        sectors = rng.sample(range(spc), n_sectors)
        for sector in sectors:
            addr = (
                page * geom.page_bytes
                + chunk * geom.chunk_bytes
                + sector * geom.sector_bytes
            )
            for _ in range(spec.reuse):
                accesses.append((addr, rng.random() < spec.write_fraction))
    rng.shuffle(accesses)
    return accesses


def generate_trace(
    spec: WorkloadSpec,
    n_accesses: int,
    seed: int = 7,
    num_sms: int = 16,
    geometry: Geometry = DEFAULT_GEOMETRY,
) -> Trace:
    """Generate a trace of ``n_accesses`` requests for ``spec``.

    ``concurrent_pages`` page-visits run in lockstep round-robin, so a high
    value interleaves many pages' accesses in time (temporal spread) while a
    low value keeps each page's accesses bursty.
    """
    if n_accesses <= 0:
        raise TraceError("n_accesses must be positive")
    # zlib.crc32 keeps the per-benchmark stream deterministic across Python
    # processes (str hash() is salted by PYTHONHASHSEED).
    rng = random.Random((seed << 32) ^ zlib.crc32(spec.name.encode()))
    pages = _page_sequence(spec, rng)

    slots: List[List[Tuple[int, bool]]] = []
    for _ in range(spec.concurrent_pages):
        slots.append(_visit_accesses(spec, next(pages), geometry, rng))

    requests: List[MemoryRequest] = []
    slot = 0
    sm = 0
    while len(requests) < n_accesses:
        if not slots[slot]:
            slots[slot] = _visit_accesses(spec, next(pages), geometry, rng)
        addr, is_write = slots[slot].pop()
        requests.append(
            MemoryRequest(
                cxl_addr=addr,
                access=Access.WRITE if is_write else Access.READ,
                sm=sm,
            )
        )
        slot = (slot + 1) % spec.concurrent_pages
        sm = (sm + 1) % num_sms
    return Trace(
        name=spec.name,
        footprint_pages=spec.footprint_pages,
        compute_per_mem=spec.compute_per_mem,
        requests=requests,
    )


#: Multi-tenant interleave shapes. ``mirror`` runs the same spec in every
#: tenant's page span; ``noisy`` keeps tenant 0 on the real spec and turns
#: every other tenant into a streaming low-reuse hammer that constantly
#: migrates pages, saturating whatever fabric resources are shared.
TENANT_MIXES = ("mirror", "noisy")


def _hammer_spec(spec: WorkloadSpec) -> WorkloadSpec:
    """The noisy-neighbor personality: full-coverage streaming, no reuse.

    Every page visit touches all chunks once and moves on, so the page
    cache churns at maximum rate - each visit is a fill plus a dirty
    eviction crossing the CXL link. This is the adversarial co-tenant the
    isolation sweep measures against.
    """
    return replace(
        spec,
        name=f"{spec.name}-hammer",
        chunk_coverage=1.0,
        concurrent_pages=32,
        write_fraction=0.5,
        sectors_per_chunk_touched=16,
        reuse=1,
        compute_per_mem=0,
        page_order="stream",
    )


def generate_multi_tenant_trace(
    spec: WorkloadSpec,
    n_accesses: int,
    num_tenants: int,
    seed: int = 7,
    num_sms: int = 16,
    geometry: Geometry = DEFAULT_GEOMETRY,
    mix: str = "mirror",
) -> Trace:
    """Interleave ``num_tenants`` independent request streams round-robin.

    Tenant ``t`` owns pages ``[t * spec.footprint_pages, (t + 1) *
    spec.footprint_pages)`` - exactly the page span a
    :class:`~repro.address.TenantMap` over the combined footprint assigns
    it - so the trace passes the request loop's isolation checks by
    construction.
    Each tenant's stream is generated with its own derived seed; ``mix``
    selects the co-tenant personalities (see :data:`TENANT_MIXES`).
    """
    if num_tenants <= 0:
        raise TraceError("num_tenants must be positive")
    if mix not in TENANT_MIXES:
        raise TraceError(f"mix must be one of {TENANT_MIXES}")
    if n_accesses < num_tenants:
        raise TraceError("n_accesses must be at least num_tenants")
    base_pages = spec.footprint_pages
    base_bytes = base_pages * geometry.page_bytes
    share = n_accesses // num_tenants
    remainder = n_accesses % num_tenants
    streams: List[List[MemoryRequest]] = []
    for t in range(num_tenants):
        tenant_spec = spec if (mix == "mirror" or t == 0) else _hammer_spec(spec)
        count = share + (1 if t < remainder else 0)
        sub = generate_trace(
            tenant_spec, count, seed=seed + 1_000_003 * t,
            num_sms=num_sms, geometry=geometry,
        )
        streams.append(sub.requests)

    requests: List[MemoryRequest] = []
    cursors = [0] * num_tenants
    t = 0
    while len(requests) < n_accesses:
        if cursors[t] < len(streams[t]):
            r = streams[t][cursors[t]]
            cursors[t] += 1
            requests.append(
                MemoryRequest(
                    cxl_addr=r.cxl_addr + t * base_bytes,
                    access=r.access,
                    sm=r.sm,
                    warp=r.warp,
                    tenant=t,
                )
            )
        t = (t + 1) % num_tenants
    suffix = f"x{num_tenants}" + ("-noisy" if mix == "noisy" else "")
    return Trace(
        name=spec.name + suffix,
        footprint_pages=base_pages * num_tenants,
        compute_per_mem=spec.compute_per_mem,
        requests=requests,
    )
