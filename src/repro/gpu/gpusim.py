"""Top-level trace-driven simulator: wires every substrate together.

One :class:`GpuSim` instance simulates one (configuration, security model,
workload) triple. The per-request walk follows the paper's Section IV-B
flow:

1. the SM issues (warp-level latency hiding, :mod:`repro.gpu.sm`);
2. the GPC's mapping cache translates the CXL address to a device frame;
   a miss goes to the mapping-miss control logic (mapping-sector read), and
   a non-resident page triggers a migration fill (plus a background victim
   eviction);
3. the interconnect routes by device address to the owning partition's L2
   slice (sectored, MSHR-merged);
4. an L2 miss books the data fetch on the partition channel and hands the
   security model the chance to add its counter/Merkle/MAC legs;
5. dirty L2 evictions invoke the model's posted writeback path.

The security model is any :class:`~repro.security.model.TimingSecurityModel`;
passing different models over the same trace and config is exactly how every
figure of the paper is produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

from ..config import SystemConfig
from ..cxl.mapping import MappingTable
from ..cxl.mapping_cache import MappingMissHandler
from ..errors import IsolationError, TraceError
from ..memsys.l2cache import L2Slice
from ..memsys.request import Access, MemoryRequest
from ..migration.dirty import DirtyTracker
from ..migration.engine import MigrationEngine
from ..migration.page_cache import PageCache
from ..security.fabric import MemoryFabric
from ..security.model import TimingSecurityModel
from ..sim.events import EventQueue, PeriodicSampler
from ..sim.metrics import collect_metrics
from ..sim.stats import Side, StatRegistry, TrafficCategory
from ..sim.trace import Tracer, resolve_tracer
from .interconnect import Interconnect
from .sm import StreamingMultiprocessor

MAPPING_SECTOR_BYTES = 32
MAPPING_HIT_CYCLES = 2


@dataclass
class RunResult:
    """Everything a finished simulation exposes to the harness.

    Serialization contract (relied on by the result cache and ``repro
    report``): :meth:`to_dict` / :meth:`from_dict` round-trip the complete
    observable state - the :class:`~repro.sim.stats.StatRegistry` tallies,
    the migration counts, the model counter namespace, and the
    per-component ``metrics`` tree of :mod:`repro.sim.metrics` - so a
    result loaded from the on-disk cache renders the same report as a
    fresh simulation. Derived quantities (``ipc``, security shares, hit
    rates) are intentionally *not* stored; they are recomputed from the raw
    tallies at report time. Any change to this contract must bump
    ``repro.harness.engine.SCHEMA_VERSION``.
    """

    model: str
    workload: str
    stats: StatRegistry
    fills: int
    evictions: int
    counters: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    @property
    def cycles(self) -> int:
        return self.stats.final_cycle

    def security_traffic(self) -> int:
        return self.stats.security_bytes()

    def to_dict(self) -> Dict:
        """Complete JSON-serializable form (CLI ``--json``, result cache).

        The derived summary fields (``ipc``, ``cycles``, ``security_bytes``,
        ``traffic_bytes``) are included for human/downstream convenience;
        :meth:`from_dict` reconstructs everything from ``stats`` alone.
        """
        return {
            "model": self.model,
            "workload": self.workload,
            "ipc": self.ipc,
            "cycles": self.cycles,
            "instructions": self.stats.instructions,
            "fills": self.fills,
            "evictions": self.evictions,
            "traffic_bytes": self.stats.breakdown(),
            "security_bytes": self.stats.security_bytes(),
            "counters": {k: v for k, v in self.counters.items()},
            "metrics": {k: v for k, v in self.metrics.items()},
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RunResult":
        """Inverse of :meth:`to_dict` - a full round-trip reconstruction."""
        return cls(
            model=str(data["model"]),
            workload=str(data["workload"]),
            stats=StatRegistry.from_dict(data["stats"]),
            fills=int(data["fills"]),
            evictions=int(data["evictions"]),
            counters=dict(data.get("counters", {})),
            metrics=dict(data.get("metrics", {})),
        )

    def utilization(self, side: Side, fabric_busy: int) -> float:
        if self.cycles <= 0:
            return 0.0
        return fabric_busy / self.cycles

    def fingerprint(self) -> str:
        """Stable content hash of the complete observable result.

        Two simulations whose fingerprints match produced bit-identical
        observable behaviour: every traffic tally, event counter, metric
        leaf and timing total agrees. The perf harness
        (``scripts/bench_perf.py``) gates on this - an optimization is only
        accepted when fingerprints are unchanged - and it is the same
        determinism contract the golden-trace test and the result cache
        rely on.
        """
        import hashlib
        import json

        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Default heartbeat epoch (simulated cycles) for progress callbacks. An
#: order of magnitude coarser than the tracer's sample epoch: heartbeats
#: cross process boundaries, samples stay in-process.
DEFAULT_PROGRESS_EPOCH = 50_000


class GpuSim:
    """Trace-driven simulation of one system configuration."""

    def __init__(
        self,
        config: SystemConfig,
        footprint_pages: int,
        model_factory,
        tracer: Optional[Tracer] = None,
        progress: Optional[Callable[[Dict[str, int]], None]] = None,
        progress_epoch: int = DEFAULT_PROGRESS_EPOCH,
    ) -> None:
        """``model_factory(fabric) -> TimingSecurityModel`` builds the
        security personality against this run's fabric. ``tracer`` (optional)
        receives the structured event stream; with the default
        ``NULL_TRACER`` every instrumentation site is a single attribute
        check and simulated timing is bit-identical either way.

        ``progress`` (optional) is the live-telemetry heartbeat: every
        ``progress_epoch`` simulated cycles it receives a snapshot dict
        (``cycles``, ``instructions``, ``fills``, ``evictions``,
        ``epoch``). Like the tracer, it *observes* the simulation and books
        nothing - enabling it is proven fingerprint-inert by test - and the
        untraced, progress-free hot path is untouched (no event queue is
        even created)."""
        self.config = config
        self.geometry = config.geometry
        self.stats = StatRegistry()
        self.tracer = resolve_tracer(tracer)
        self.fabric = MemoryFabric(
            config, footprint_pages, self.stats, tracer=self.tracer
        )
        self.model: TimingSecurityModel = model_factory(self.fabric)

        gpu = config.gpu
        self.sms = [
            StreamingMultiprocessor(i, gpu.warps_per_sm) for i in range(gpu.num_sms)
        ]
        self.interconnect = Interconnect(gpu.num_gpcs, gpu.interconnect_latency_cycles)
        self.l2 = [
            L2Slice(
                c, gpu, self.geometry.sector_bytes, self.geometry.block_bytes,
                tracer=self.tracer,
            )
            for c in range(gpu.num_channels)
        ]
        self.mapping = MappingTable(footprint_pages)
        self.miss_handler = MappingMissHandler(gpu.num_gpcs)
        self.dirty = DirtyTracker(self.geometry.chunks_per_page)
        self.model.attach_dirty_tracker(self.dirty)
        home_of = None if self.fabric.num_devices == 1 else self.fabric.home_of_page
        self.page_cache = PageCache(self.fabric.num_frames, home_of=home_of)
        self.engine = MigrationEngine(
            page_cache=self.page_cache,
            mapping=self.mapping,
            dirty=self.dirty,
            fill_cb=self._fill_page,
            evict_cb=self._evict_page,
            evict_buffer_pages=gpu.evict_buffer_pages,
            tracer=self.tracer,
            home_of=home_of,
            num_devices=self.fabric.num_devices,
        )
        self._now = 0  # advances with issue order; used by posted eviction work
        # Per-epoch metric sampling (observability layer) and progress
        # heartbeats share one event queue; it exists only when at least one
        # observer asked for it, so the plain hot path never touches it.
        self._sample_queue: Optional[EventQueue] = None
        self._sampler: Optional[PeriodicSampler] = None
        self._progress = progress
        self._progress_sampler: Optional[PeriodicSampler] = None
        self._progress_epochs = 0
        if self.tracer.enabled or progress is not None:
            self._sample_queue = EventQueue()
        if self.tracer.enabled:
            self._sampler = PeriodicSampler(
                self._sample_queue, self.tracer.sample_epoch, self._sample_metrics
            )
        if progress is not None:
            self._progress_sampler = PeriodicSampler(
                self._sample_queue, max(1, int(progress_epoch)), self._emit_progress
            )
        # Demand chunk-fill state (fill_granularity="chunk"): which chunks
        # of each resident page have arrived, and in-flight chunk copies.
        self._chunk_mode = gpu.fill_granularity == "chunk"
        self._present_chunks: Dict[int, int] = {}
        self._inflight_chunks: Dict[Tuple[int, int], int] = {}
        # Hot-path scalars, hoisted so the per-request walk does plain integer
        # arithmetic instead of geometry/config attribute chains.
        self._page_bytes = self.geometry.page_bytes
        self._block_bytes = self.geometry.block_bytes
        self._sector_bytes = self.geometry.sector_bytes
        self._l2_latency = gpu.l2_latency_cycles
        self._map_channels = gpu.num_channels
        # Tenancy: partitioned fabrics route mapping sectors inside the
        # owning tenant's channel run and tally migrations per tenant. The
        # single-tenant hot path keeps the plain scalar arithmetic.
        self._partitioned = self.fabric.tenant_map is not None
        self._tenant_fills: Optional[list] = None
        self._tenant_evicts: Optional[list] = None
        if self._partitioned:
            self._tenant_fills = [0] * self.fabric.num_tenants
            self._tenant_evicts = [0] * self.fabric.num_tenants

    # ------------------------------------------------------------------ sampling
    def _sample_metrics(self, now: int) -> None:
        """Periodic counter snapshot (Chrome 'C' events, one per epoch)."""
        stats = self.stats
        self.tracer.counter(
            "traffic_bytes", now,
            {
                "device_data": stats.data_bytes(Side.DEVICE),
                "device_security": stats.security_bytes(Side.DEVICE),
                "cxl_data": stats.data_bytes(Side.CXL),
                "cxl_security": stats.security_bytes(Side.CXL),
            },
        )
        self.tracer.counter(
            "migration", now,
            {"fills": self.engine.fill_count, "evictions": self.engine.evict_count},
        )

    def _emit_progress(self, now: int) -> None:
        """Heartbeat callback: snapshot the live run for the telemetry sink.

        Read-only by construction - it sums counters the simulation already
        maintains and hands the dict to the callback; nothing here can move
        simulated time or traffic.
        """
        self._progress_epochs += 1
        snapshot = {
            "epoch": self._progress_epochs,
            "cycles": now,
            "instructions": sum(sm.instructions for sm in self.sms),
            "fills": self.engine.fill_count,
            "evictions": self.engine.evict_count,
        }
        try:
            self._progress(snapshot)
        except Exception:
            # A broken telemetry sink must never kill (or alter) the run.
            pass

    # ------------------------------------------------------------------ fills
    def _fill_page(self, now: int, page: int, frame: int) -> int:
        """Engine fill callback: whole-page copy, or lazy chunk arrival."""
        if self._tenant_fills is not None:
            self._tenant_fills[self.fabric.tenant_of_page(page)] += 1
        if not self._chunk_mode:
            return self.model.fill(now, page, frame)
        # Chunk mode: the fault allocates the frame; data arrives per chunk
        # on first access (including the faulting one, in _access_memory).
        self._present_chunks[page] = 0
        return now

    def _ensure_chunk(self, now: int, loc) -> int:
        """Chunk mode: guarantee the accessed chunk's data is in the frame."""
        mask = self._present_chunks.get(loc.page, 0)
        bit = 1 << loc.chunk_in_page
        key = (loc.page, loc.chunk_in_page)
        if mask & bit:
            inflight = self._inflight_chunks.get(key)
            if inflight is not None:
                if inflight <= now:
                    del self._inflight_chunks[key]
                    return now
                return inflight
            return now
        completion = self.model.fill_chunk(now, loc.page, loc.frame, loc.chunk_in_page)
        self._present_chunks[loc.page] = mask | bit
        self._inflight_chunks[key] = completion
        self.stats.bump("chunk_fills")
        return completion

    # ------------------------------------------------------------------ eviction
    def _evict_page(
        self, now: int, page: int, frame: int,
        dirty_chunks: Tuple[int, ...], page_dirty: bool,
    ) -> int:
        """Background eviction: flush the page's L2 lines, then let the
        security model write the page (or its dirty chunks) back. Returns
        the model's outbound drain time for writeback-buffer backpressure."""
        geom = self.geometry
        if self._tenant_evicts is not None:
            self._tenant_evicts[self.fabric.tenant_of_page(page)] += 1
        for block in range(geom.blocks_per_page):
            chunk = block // geom.blocks_per_chunk
            channel, _ = self.fabric.chunk_location(page, frame, chunk)
            evicted = self.l2[channel].cache.invalidate_line((page, block))
            if evicted is None or not evicted.dirty_sectors:
                continue
            for sector in evicted.dirty_sectors:
                cxl_addr = (
                    page * geom.page_bytes
                    + block * geom.block_bytes
                    + sector * geom.sector_bytes
                )
                loc = self.fabric.locate(cxl_addr, frame)
                self.fabric.device_write(
                    now, loc.channel, geom.sector_bytes, TrafficCategory.DATA
                )
                self.model.writeback(now, loc)
        self.miss_handler.invalidate_page(page)
        if self._chunk_mode:
            self._present_chunks.pop(page, None)
        return self.model.evict(now, page, frame, dirty_chunks, page_dirty)

    # ------------------------------------------------------------------ translation
    def _translate_miss(self, now: int, gpc: int, page: int) -> Tuple[int, int]:
        """Mapping-cache miss: the control logic reads the mapping sector
        from device memory and, if the page is absent, starts the copy
        (Section IV-B). The caller has already counted the miss."""
        if self._partitioned:
            map_channel = self.fabric.mapping_channel(page)
        else:
            map_channel = (page // 4) % self._map_channels
        map_ready = self.fabric.device_read(
            now, map_channel, MAPPING_SECTOR_BYTES, TrafficCategory.MAPPING,
            priority=True,
        )
        frame, fill_ready = self.engine.ensure_resident(now, page)
        self.miss_handler.record_fill(gpc, page, frame)
        return frame, max(map_ready, fill_ready)

    # ------------------------------------------------------------------ L2 + memory
    def _handle_l2_evictions(self, now: int, evicted) -> None:
        if evicted is None or not evicted.dirty_sectors:
            return
        page, block = evicted.line_addr
        frame = self.page_cache.frame_of(page)
        if frame is None:
            # The owning page left device memory and its flush already wrote
            # these sectors; nothing further to account.
            return
        geom = self.geometry
        for sector in evicted.dirty_sectors:
            cxl_addr = (
                page * geom.page_bytes
                + block * geom.block_bytes
                + sector * geom.sector_bytes
            )
            loc = self.fabric.locate(cxl_addr, frame)
            self.fabric.device_write(
                now, loc.channel, geom.sector_bytes, TrafficCategory.DATA
            )
            self.model.writeback(now, loc)

    def _access_memory(self, now: int, addr: int, is_write: bool, frame: int) -> int:
        loc = self.fabric.locate(addr, frame)
        if self._chunk_mode:
            # Writes also wait for the chunk (read-for-ownership: untouched
            # sectors of a dirty chunk must hold valid ciphertext so the
            # whole chunk can be written back later).
            now = max(now, self._ensure_chunk(now, loc))
        slice_ = self.l2[loc.channel]
        block_in_page = (addr % self._page_bytes) // self._block_bytes
        line_addr = (loc.page, block_in_page)
        sector_in_block = (addr % self._block_bytes) // self._sector_bytes

        if is_write:
            self.model.on_store(now, loc)
            result = slice_.access(line_addr, sector_in_block, write=True)
            self._handle_l2_evictions(now, result.evicted)
            # Stores retire through the store buffer; the warp does not wait
            # for memory. Dirty data pays its security toll at writeback.
            return now + self._l2_latency

        result = slice_.access(line_addr, sector_in_block, write=False)
        self._handle_l2_evictions(now, result.evicted)
        if result.sector_hit:
            return now + self._l2_latency
        merged = slice_.inflight_completion(now, line_addr, sector_in_block)
        if merged is not None:
            return max(now + self._l2_latency, merged)
        data_ready = self.fabric.device_read(
            now, loc.channel, self._sector_bytes, TrafficCategory.DATA,
            priority=True,
        )
        completion = self.model.read_complete(now, loc, data_ready)
        slice_.register_fill(now, line_addr, sector_in_block, completion)
        return completion

    # ------------------------------------------------------------------ main loop
    def run(
        self,
        requests: Iterable[MemoryRequest],
        compute_per_mem: int = 0,
        workload_name: str = "trace",
    ) -> RunResult:
        """Process a trace to completion and return the collected results.

        Requests run one at a time, in trace order. Each is checked before
        it issues: an address outside the footprint raises
        :class:`TraceError`; on a partitioned fabric (``num_tenants > 1``) a
        tenant id outside the partition, or an address in another tenant's
        page span, raises :class:`IsolationError`. Every earlier request has
        then fully run, and the SM and interconnect tallies show it.

        The common cases of the walk are inlined here, each making exactly
        the transitions (clocks, hit/miss tallies, LRU order) of the method
        it stands for:

        * SM issue and completion (:class:`StreamingMultiprocessor`);
        * a mapping-cache hit on a resident page with no fill in flight
          (``MappingCache.lookup`` plus ``MigrationEngine.ensure_resident``);
        * the interconnect traverse (``Interconnect.traverse``);
        * an L2 read that hits its sector, and an L2 write to a present line
          (``_access_memory``).

        Everything else falls through to the methods: a mapping miss to
        :meth:`_translate_miss`, a hit on a page that is absent or still
        filling to ``ensure_resident``, and every other L2 case - misses,
        MSHR merges, evictions, chunk-granularity fills - to
        :meth:`_access_memory`.
        """
        gpu = self.config.gpu
        fabric = self.fabric
        block = 1 + max(0, compute_per_mem)
        page_bytes = self._page_bytes
        footprint_bytes = fabric.footprint_pages * page_bytes
        page_shift = page_bytes.bit_length() - 1
        block_shift = self._block_bytes.bit_length() - 1
        sector_shift = self._sector_bytes.bit_length() - 1
        block_mask = (page_bytes >> block_shift) - 1
        sector_mask = (self._block_bytes >> sector_shift) - 1
        l2_lat = self._l2_latency
        hit_lat = MAPPING_HIT_CYCLES
        num_sms = gpu.num_sms
        sms_per_gpc = gpu.sms_per_gpc
        warps = gpu.warps_per_sm
        tmap = fabric.tenant_map
        chunk_mode = self._chunk_mode
        write_access = Access.WRITE
        # Pre-bound state. Every container is mutated in place by the
        # fallback methods, never rebound, so holding references is safe.
        sms = self.sms
        map_caches = self.miss_handler.caches
        map_lrus = [cache._lru for cache in map_caches]
        pc_frames = self.page_cache._page_to_frame
        pc_on_access = self.page_cache._policy.on_access
        inflight_fills = self.engine._inflight_fills
        ensure_resident = self.engine.ensure_resident
        translate_miss = self._translate_miss
        interconnect = self.interconnect
        port_free = interconnect._port_free
        ic_lat = interconnect.latency_cycles
        loc_get = fabric._loc_cache.get
        locate = fabric.locate
        num_frames = fabric.num_frames
        l2_caches = [slice_.cache for slice_ in self.l2]
        on_store = self.model.on_store
        access_memory = self._access_memory
        sample_queue = self._sample_queue
        tracer = self.tracer
        tracing = tracer.enabled

        now = self._now
        traversed = 0
        try:
            for req in requests:
                addr = req.cxl_addr
                if not 0 <= addr < footprint_bytes:
                    raise TraceError(
                        f"trace address {addr:#x} outside footprint "
                        f"of {footprint_bytes} bytes"
                    )
                page = addr >> page_shift
                if tmap is None:
                    smx = req.sm % num_sms
                else:
                    ten = req.tenant
                    if not 0 <= ten < tmap.num_tenants:
                        raise IsolationError(
                            f"request tenant {ten} outside partition of "
                            f"{tmap.num_tenants} tenants"
                        )
                    owner = tmap.tenant_of_page(page)
                    if owner != ten:
                        raise IsolationError(
                            f"tenant {ten} request for address {addr:#x} "
                            f"crosses into tenant {owner}'s pages"
                        )
                    smx = tmap.sm_slot(ten, req.sm)
                is_write = req.access is write_access

                # SM issue.
                sm = sms[smx]
                warp = req.warp % warps
                warp_ready = sm.warp_ready
                clock = sm.clock
                warp_free = warp_ready[warp]
                t_issue = clock if clock >= warp_free else warp_free
                sm.clock = t_issue + block
                sm.instructions += block
                if t_issue > now:
                    now = t_issue
                    if sample_queue is not None and now > sample_queue.now:
                        self._now = now
                        sample_queue.run(until=now)

                # Translate: mapping-cache hit on a resident page.
                gpc = smx // sms_per_gpc
                mlru = map_lrus[gpc]
                if page in mlru:
                    map_caches[gpc].hits += 1
                    mlru.move_to_end(page)
                    frame = pc_frames.get(page)
                    ready = t_issue + hit_lat
                    if frame is not None and page not in inflight_fills:
                        pc_on_access(page)
                    else:
                        frame, fill_ready = ensure_resident(t_issue, page)
                        if fill_ready > ready:
                            ready = fill_ready
                else:
                    map_caches[gpc].misses += 1
                    frame, ready = translate_miss(t_issue, gpc, page)

                # Interconnect traverse.
                port = port_free[gpc]
                start = ready if ready >= port else port
                port_free[gpc] = start + 1
                traversed += 1
                t_mem = start + ic_lat

                # L2: sector hit on a read, write to a present line.
                if chunk_mode:
                    completion = access_memory(t_mem, addr, is_write, frame)
                else:
                    loc = loc_get(addr * num_frames + frame)
                    if loc is None:
                        loc = locate(addr, frame)
                    cache = l2_caches[loc.channel]
                    line_addr = (page, (addr >> block_shift) & block_mask)
                    cache_set = cache._set_lookup.get(line_addr)
                    if cache_set is None:
                        cache_set = cache._set_for(line_addr)
                    line = cache_set.get(line_addr)
                    bit = 1 << ((addr >> sector_shift) & sector_mask)
                    if line is None:
                        completion = access_memory(t_mem, addr, is_write, frame)
                    elif is_write:
                        on_store(t_mem, loc)
                        cache_set.move_to_end(line_addr)
                        if line.valid_mask & bit:
                            cache.hits += 1
                        else:
                            line.valid_mask |= bit
                            cache.misses += 1
                        line.dirty_mask |= bit
                        completion = t_mem + l2_lat
                    elif line.valid_mask & bit:
                        cache_set.move_to_end(line_addr)
                        cache.hits += 1
                        completion = t_mem + l2_lat
                    else:
                        completion = access_memory(t_mem, addr, False, frame)

                # Warp completion.
                if completion > warp_ready[warp]:
                    warp_ready[warp] = completion
                if tracing:
                    args = {"addr": addr, "warp": warp}
                    if tmap is not None:
                        args["tenant"] = req.tenant
                    tracer.span(
                        f"sm{sm.sm_id}", "write" if is_write else "read",
                        t_issue, completion - t_issue, cat="request",
                        args=args,
                    )
        finally:
            interconnect.requests += traversed
            self._now = now
        return self._finish(workload_name)

    def _finish(self, workload_name: str) -> RunResult:
        """Post-loop tail: drain, finalize the model, collect stats."""
        final = max((sm.drain_cycle for sm in self.sms), default=0)
        if self._sample_queue is not None:
            # Flush outstanding epoch samples up to the drain cycle, then a
            # final snapshot so the counter tracks cover the whole run.
            self._sample_queue.run(until=final)
            if self._sampler is not None:
                self._sampler.stop()
            if self._progress_sampler is not None:
                self._progress_sampler.stop()
                self._emit_progress(final)
        self.model.finalize(final)
        self.stats.final_cycle = final
        self.stats.instructions = sum(sm.instructions for sm in self.sms)
        if self.tracer.enabled:
            self._sample_metrics(final)
        return self._result(workload_name)

    def _result(self, workload_name: str) -> RunResult:
        device_busy = sum(ch.busy_cycles for ch in self.fabric.channels)
        num_ch = len(self.fabric.channels)
        counters = {
            "device_busy_cycles": device_busy,
            "device_utilization": (
                device_busy / (num_ch * self.stats.final_cycle)
                if self.stats.final_cycle
                else 0.0
            ),
            "cxl_busy_cycles": sum(l.busy_cycles for l in self.fabric.links),
            "cxl_utilization": (
                sum(l.busy_cycles for l in self.fabric.links)
                / (2 * len(self.fabric.links) * self.stats.final_cycle)
                if self.stats.final_cycle
                else 0.0
            ),
            "l2_hit_rate": (
                sum(s.cache.hits for s in self.l2)
                / max(1, sum(s.cache.hits + s.cache.misses for s in self.l2))
            ),
            "mapping_hit_rate": (
                sum(c.hits for c in self.miss_handler.caches)
                / max(
                    1,
                    sum(c.hits + c.misses for c in self.miss_handler.caches),
                )
            ),
        }
        counters.update(self.stats.counters)
        return RunResult(
            model=self.model.name,
            workload=workload_name,
            stats=self.stats,
            fills=self.engine.fill_count,
            evictions=self.engine.evict_count,
            counters=counters,
            metrics=collect_metrics(self),
        )
