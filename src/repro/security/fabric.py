"""The memory fabric: every bookable resource, shared by all security models.

One :class:`MemoryFabric` instance owns the device channels, the CXL fabric
topology (one full-duplex link pair and one expander-side metadata-cache set
per expansion device, per :class:`~repro.config.TopologyConfig`), the
per-partition crypto engines, the per-partition (device-side) metadata
caches, and the interleaver. Security models never touch channels directly;
they go through the fabric's booking helpers so traffic categorization and
cache-writeback accounting are uniform.

The fabric also precomputes the :class:`SectorLoc` for each request - the
full coordinate set (CXL page/chunk/sector, home expansion device, device
frame/channel/local slot) that the models key their metadata state on. The
CXL-address -> home-device sharding itself is pure arithmetic in
:class:`~repro.address.ShardMap`; the fabric instantiates one per run and
exposes it as :attr:`MemoryFabric.shard`.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Tuple

from ..address import ShardMap, TenantMap
from ..config import SystemConfig
from ..crypto.keys import KeySet
from ..errors import AddressError, SimulationError
from ..memsys.channel import Channel, CryptoEngine, LinkPair
from ..memsys.interleave import Interleaver
from ..metadata.bmt import BMTGeometry
from ..metadata.cache import MetadataCaches
from ..sim.stats import Side, StatRegistry, TrafficCategory
from ..sim.trace import Tracer, resolve_tracer

BMT_NODE_BYTES = 64
METADATA_UNIT_BYTES = 32


class SectorLoc(NamedTuple):
    """Full coordinates of one data sector in both address spaces.

    Immutable; :meth:`MemoryFabric.locate` is its only constructor.
    """

    cxl_addr: int          # byte address in the CXL (home) space
    page: int              # CXL page number
    sector_in_page: int
    chunk_in_page: int
    sector_in_chunk: int
    frame: int             # device frame holding the page
    channel: int           # device channel owning the sector's chunk
    local_sector: int      # channel-local sector slot
    local_chunk: int       # channel-local chunk slot
    device_chunk: int      # global device chunk id (frame-based)
    home_device: int = 0   # CXL expansion device homing this page

    @property
    def local_block(self) -> int:
        return self.local_sector // 4

    @property
    def cxl_sector(self) -> int:
        return self.cxl_addr // 32


class MemoryFabric:
    """All shared timing resources of one simulated system."""

    def __init__(
        self,
        config: SystemConfig,
        footprint_pages: int,
        stats: StatRegistry,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if footprint_pages <= 0:
            raise SimulationError("footprint_pages must be positive")
        self.config = config
        self.geometry = config.geometry
        self.stats = stats
        self.tracer = resolve_tracer(tracer)
        self.footprint_pages = footprint_pages

        gpu = config.gpu
        per_channel_bw = gpu.device_bytes_per_cycle_per_channel
        self.channels: List[Channel] = [
            Channel(
                name=f"hbm[{c}]",
                bytes_per_cycle=per_channel_bw,
                latency_cycles=gpu.dram_latency_cycles,
                side=Side.DEVICE,
                stats=stats,
                overhead_cycles=gpu.device_access_overhead_cycles,
                tracer=self.tracer,
            )
            for c in range(gpu.num_channels)
        ]
        topology = config.topology
        self.topology = topology
        self.num_devices = topology.num_devices
        self.shard = ShardMap(
            geometry=self.geometry,
            num_devices=topology.num_devices,
            policy=topology.sharding,
            total_pages=footprint_pages,
        )
        # One full-duplex link pair per expansion device. Device 0 keeps the
        # bare "cxl" name so single-device traces and metrics are unchanged.
        base_bw = gpu.device_bandwidth_gbps / gpu.core_clock_ghz
        self.links: List[LinkPair] = [
            LinkPair(
                bytes_per_cycle=base_bw * topology.bw_ratio(d, gpu.cxl_bw_ratio),
                latency_cycles=topology.latency(d, gpu.cxl_latency_cycles),
                stats=stats,
                overhead_cycles=gpu.cxl_access_overhead_cycles,
                tracer=self.tracer,
                name="cxl" if d == 0 else f"cxl{d}",
            )
            for d in range(topology.num_devices)
        ]
        sec = config.security
        self.aes_engines = [
            CryptoEngine(
                f"aes[{c}]", sec.aes_latency_cycles, sec.aes_pipe_interval_cycles,
                tracer=self.tracer,
            )
            for c in range(gpu.num_channels)
        ]
        self.mac_engines = [
            CryptoEngine(
                f"mac[{c}]", sec.mac_latency_cycles, sec.aes_pipe_interval_cycles,
                tracer=self.tracer,
            )
            for c in range(gpu.num_channels)
        ]
        self.device_meta = [
            MetadataCaches.build(c, sec) for c in range(gpu.num_channels)
        ]
        # Each expansion device's controller owns its own metadata caches -
        # an independent security plane per device. Negative partition ids
        # mark expander-side controllers (device d is partition -(d+1), so
        # the single-device fabric keeps its historical "ctr[-1]" names).
        self.cxl_meta_by_device: List[MetadataCaches] = [
            MetadataCaches.build(-(d + 1), sec) for d in range(topology.num_devices)
        ]
        self.interleaver = Interleaver(self.geometry, gpu.num_channels)

        # Device frame count from the Figure-14 capacity ratio.
        self.num_frames = max(
            1, int(footprint_pages * config.device_capacity_ratio)
        )
        # Tenant partitioning (None = the classic single-owner fabric; every
        # structure above is then byte-identical to the pre-tenancy code).
        # With multiple tenants, each security domain owns a contiguous SM
        # group, channel run, and page span (see TenantMap); metadata state
        # is keyed per *plane* - one (tenant, device) security plane with
        # its own controller caches, counter space, and Merkle root.
        partition = config.partition
        self.num_tenants = partition.num_tenants
        self.tenant_map: Optional[TenantMap] = None
        self._tenant_interleavers: List[Interleaver] = []
        self._plane_by_page: Optional[List[int]] = None
        self._plane_counts: Optional[List[int]] = None
        self.num_planes = topology.num_devices
        if partition.num_tenants > 1:
            tm = TenantMap(
                geometry=self.geometry,
                num_tenants=partition.num_tenants,
                total_pages=footprint_pages,
                num_sms=gpu.num_sms,
                num_gpcs=gpu.num_gpcs,
                num_channels=gpu.num_channels,
                num_devices=topology.num_devices,
            )
            self.tenant_map = tm
            # Each tenant interleaves its frames' chunks over its own
            # channel run; chunk_location() offsets by the run base.
            self._tenant_interleavers = [
                Interleaver(self.geometry, tm.channels_per_tenant)
                for _ in range(tm.num_tenants)
            ]
            # Per-tenant shard maps over the tenant's device subset, feeding
            # the page -> (home device, plane, plane-local page) tables.
            tenant_shards = [
                ShardMap(
                    geometry=self.geometry,
                    num_devices=tm.devices_per_tenant,
                    policy=topology.sharding,
                    total_pages=max(1, tm.pages_of(t)),
                )
                for t in range(tm.num_tenants)
            ]
            self.num_planes = tm.num_tenants * topology.num_devices
            plane_counts = [0] * self.num_planes
            home_by_page = [0] * footprint_pages
            plane_by_page = [0] * footprint_pages
            local_by_page = [0] * footprint_pages
            for page in range(footprint_pages):
                t = tm.tenant_of_page(page)
                tpage = page - tm.page_base(t)
                dev = tenant_shards[t].home_of_page(tpage) + tm.devices_of(t).start
                plane = t * topology.num_devices + dev
                home_by_page[page] = dev
                plane_by_page[page] = plane
                local_by_page[page] = tenant_shards[t].local_page(tpage)
                plane_counts[plane] += 1
            self._home_by_page = home_by_page
            self._local_by_page = local_by_page
            self._plane_by_page = plane_by_page
            self._plane_counts = plane_counts
            # Isolated controller metadata caches per security plane: a
            # device shared by several tenants carries one full cache set
            # per resident domain, so no cache line is ever shared across
            # tenants. The by-device alias keeps any residual home-device
            # indexing in bounds (planes >= devices).
            self.cxl_meta_by_plane: List[MetadataCaches] = [
                MetadataCaches.build(-(p + 1), sec) for p in range(self.num_planes)
            ]
            self.cxl_meta_by_device = self.cxl_meta_by_plane
        else:
            # Single tenant: planes are exactly the per-device cache sets.
            self.cxl_meta_by_plane = self.cxl_meta_by_device
        # One cryptographic domain per tenant (single tenant: the platform
        # key set, unchanged).
        self.keys_by_tenant: Tuple[KeySet, ...] = tuple(
            KeySet.from_seed(
                partition.tenant_key_seed(t, "salus-hpca-2024").encode("utf-8")
            )
            for t in range(partition.num_tenants)
        )
        # locate() is a pure function of (cxl_addr, frame); the per-request
        # walk calls it for every demand access and every dirty-sector
        # writeback, so the coordinates are memoized. The key packs both
        # inputs into one int (frame < num_frames) to keep lookups cheap.
        self._loc_cache: dict = {}
        self._single_device = topology.num_devices == 1
        # Page -> (home device, plane-local page) lookup tables exist only
        # on multi-tenant fabrics (built above from the per-tenant shard
        # maps: the plane-local index is not a global-shard function). The
        # single-tenant fabric answers with the ShardMap arithmetic.
        if self.tenant_map is None:
            self._home_by_page: Optional[List[int]] = None
            self._local_by_page: Optional[List[int]] = None

    # -- topology ------------------------------------------------------------
    @property
    def link(self) -> LinkPair:
        """The first (paper's single) expansion device's link pair."""
        return self.links[0]

    @property
    def cxl_meta(self) -> MetadataCaches:
        """The first expansion device's controller metadata caches."""
        return self.cxl_meta_by_device[0]

    def home_of_page(self, page: int) -> int:
        """Home expansion device of a CXL page."""
        table = self._home_by_page
        if table is not None and 0 <= page < len(table):
            return table[page]
        if self._single_device:
            return 0
        return self.shard.home_of_page(page)

    def local_page(self, page: int) -> int:
        """Plane-local page index.

        Single tenant: the page's index within its home device's slice.
        Multi-tenant: its index within the (tenant, device) security plane,
        which per-plane metadata layouts and Merkle trees are keyed by.
        """
        table = self._local_by_page
        if table is not None and 0 <= page < len(table):
            return table[page]
        if self._single_device:
            return page
        return self.shard.local_page(page)

    # -- tenancy -------------------------------------------------------------
    def tenant_of_page(self, page: int) -> int:
        """Owning tenant of a CXL page (0 on the single-owner fabric)."""
        tm = self.tenant_map
        return 0 if tm is None else tm.tenant_of_page(page)

    def plane_of_page(self, page: int) -> int:
        """Security plane of a CXL page.

        A plane is one (tenant, home device) pair: the unit that owns a
        controller metadata-cache set, a counter space, and a Merkle root.
        Single tenant: plane == home device, so plane-indexed model state
        is laid out exactly as the historical per-device state.
        """
        table = self._plane_by_page
        if table is not None and 0 <= page < len(table):
            return table[page]
        return self.home_of_page(page)

    def plane_device(self, plane: int) -> int:
        """The expansion device whose link carries a plane's traffic."""
        if self.tenant_map is None:
            return plane
        return plane % self.num_devices

    def plane_pages(self, plane: int) -> int:
        """How many CXL pages a security plane is home to (>= 1 for sizing)."""
        if self._plane_counts is not None:
            return max(1, self._plane_counts[plane])
        return self.shard.pages_on(plane)

    def chunk_location(self, page: int, frame: int, chunk_in_page: int) -> Tuple[int, int]:
        """Map a resident chunk to its (channel, local chunk slot).

        Single tenant: the classic whole-array interleaving. Multi-tenant:
        the owning tenant's frames interleave over its private channel run
        only, so every device-side structure a channel owns (L2 slice,
        metadata caches, counter stores, crypto engines) stays
        tenant-private.
        """
        tm = self.tenant_map
        if tm is None:
            return self.interleaver.device_chunk_location(frame, chunk_in_page)
        tenant = tm.tenant_of_page(page)
        channel, local_chunk = self._tenant_interleavers[tenant].device_chunk_location(
            frame, chunk_in_page
        )
        return tm.channel_base(tenant) + channel, local_chunk

    def mapping_channel(self, page: int) -> int:
        """Device channel holding a page's mapping sector.

        Mapping sectors are hashed/interleaved over the page owner's
        channels (all of them for the single-owner fabric).
        """
        tm = self.tenant_map
        if tm is None:
            return (page // 4) % self.config.gpu.num_channels
        tenant = tm.tenant_of_page(page)
        return tm.channel_base(tenant) + (page // 4) % tm.channels_per_tenant

    @property
    def data_sectors_per_channel(self) -> int:
        """Channel-local data-sector span the device metadata must cover.

        Frames interleave over the owning tenant's channel run, so with
        partitioning each channel covers a ``channels_per_tenant`` share of
        the frame space rather than a ``num_channels`` share. The device
        counter stores and layouts of both security models size from this.
        """
        geom = self.geometry
        channels = self.config.gpu.num_channels
        if self.tenant_map is not None:
            channels = self.tenant_map.channels_per_tenant
        return max(
            geom.sectors_per_chunk,
            self.num_frames * geom.sectors_per_page // channels,
        )

    # -- coordinates ---------------------------------------------------------
    def locate(self, cxl_addr: int, frame: int) -> SectorLoc:
        """Coordinates of the sector at ``cxl_addr`` while its page sits in
        device ``frame``; memoized, so a repeat call returns the same
        object."""
        num_frames = self.num_frames
        if not 0 <= frame < num_frames:
            # Also keeps the packed memo key below collision-free.
            raise AddressError(
                f"frame {frame} outside device memory of {num_frames} frames"
            )
        key = cxl_addr * num_frames + frame
        loc = self._loc_cache.get(key)
        if loc is not None:
            return loc
        geom = self.geometry
        geom._check_addr(cxl_addr)
        page, offset = divmod(cxl_addr, geom.page_bytes)
        sector_in_page = offset // geom.sector_bytes
        chunk_in_page, sector_in_chunk = divmod(sector_in_page, geom.sectors_per_chunk)
        channel, local_chunk = self.chunk_location(page, frame, chunk_in_page)
        local_sector = local_chunk * geom.sectors_per_chunk + sector_in_chunk
        device_chunk = frame * geom.chunks_per_page + chunk_in_page
        loc = self._loc_cache[key] = SectorLoc(
            cxl_addr, page, sector_in_page, chunk_in_page, sector_in_chunk,
            frame, channel, local_sector, local_chunk, device_chunk,
            self.home_of_page(page),
        )
        return loc

    # -- raw bookings ----------------------------------------------------------
    def device_read(
        self, now: int, channel: int, nbytes: int, category: TrafficCategory,
        critical: bool = True, priority: bool = False,
    ) -> int:
        return self.channels[channel].book(
            now, nbytes, category, critical=critical, priority=priority
        )

    def device_write(
        self, now: int, channel: int, nbytes: int, category: TrafficCategory
    ) -> int:
        return self.channels[channel].book(now, nbytes, category, critical=False)

    def link_read(
        self, now: int, nbytes: int, category: TrafficCategory,
        critical: bool = True, priority: bool = False, device: int = 0,
    ) -> int:
        """Read from expander ``device``: data flows toward the GPU (RX)."""
        return self.links[device].to_device.book(
            now, nbytes, category, critical=critical, priority=priority
        )

    def link_write(
        self, now: int, nbytes: int, category: TrafficCategory,
        critical: bool = False, device: int = 0,
    ) -> int:
        """Write toward expander ``device`` (TX); posted by default."""
        return self.links[device].to_cxl.book(now, nbytes, category, critical=critical)

    # -- metadata-through-cache helpers --------------------------------------------
    def metadata_access(
        self,
        now: int,
        cache,
        unit: int,
        read_fn: Callable[[int, int], int],
        write_fn: Callable[[int, int], int],
        category: TrafficCategory,
        write: bool = False,
        tag_payload: object = None,
    ) -> Tuple[int, bool]:
        """Access one 32 B metadata unit through a sectored metadata cache.

        ``read_fn(now, nbytes)`` books the fill on a miss and returns its
        ready time; ``write_fn(now, nbytes)`` books posted writebacks of any
        dirty sectors pushed out by the allocation. Returns the pair
        ``(ready_cycle, sector_hit)`` - the cycle the unit is usable and
        whether it was already resident.
        """
        result = cache.access(unit // 4, unit % 4, write=write, tag_payload=tag_payload)
        ready = now
        if not result.sector_hit:
            ready = read_fn(now, METADATA_UNIT_BYTES)
            if self.tracer.enabled:
                self.tracer.instant(
                    cache.name, f"{category.value}_miss", now, cat="metadata",
                    args={"unit": unit},
                )
        if result.evicted is not None and result.evicted.dirty_sectors:
            for _ in result.evicted.dirty_sectors:
                write_fn(now, METADATA_UNIT_BYTES)
        _ = category  # categorization is carried by the bound read/write fns
        return ready, result.sector_hit

    def bmt_read_walk(
        self,
        now: int,
        cache,
        geom: BMTGeometry,
        leaf: int,
        read_fn: Callable[[int, int], int],
        write_fn: Callable[[int, int], int],
    ) -> int:
        """Verification walk from a counter leaf toward the on-chip root.

        The walk stops at the first internal node already present in the BMT
        cache (cached nodes were verified when fetched), so a warm cache
        costs nothing. Each missing node is a 64 B read.
        """
        ready = now
        levels = 0
        # path_steps precomputes each node's cache coordinates (a 64 B node
        # occupies half a 128 B line: two nodes per line, sector slots 0/2).
        for line, slot in geom.path_steps(leaf):
            result = cache.access(line, slot)
            if result.evicted is not None and result.evicted.dirty_sectors:
                for _ in result.evicted.dirty_sectors:
                    write_fn(now, BMT_NODE_BYTES)
            if result.sector_hit:
                break
            levels += 1
            fetched = read_fn(ready, BMT_NODE_BYTES)
            if fetched > ready:
                ready = fetched
        if levels and self.tracer.enabled:
            self.tracer.span(
                cache.name, "bmt_walk", now, ready - now, cat="metadata",
                args={"leaf": leaf, "levels": levels},
            )
        return ready

    def bmt_update_walk(
        self,
        now: int,
        cache,
        geom: BMTGeometry,
        leaf: int,
        read_fn: Callable[[int, int], int],
        write_fn: Callable[[int, int], int],
    ) -> None:
        """Update walk after a counter write: dirty the leaf's parent node.

        Real BMT write machinery lazily propagates updates upward; the
        traffic that matters is the dirty node writebacks, which the cache
        eviction path produces. Only the immediate parent is dirtied here -
        higher levels update on-chip when the parent is evicted, which the
        64 B writeback accounts for.
        """
        if geom.depth <= 1:
            return  # the leaf's parent is the on-chip root; no traffic
        level, index = geom.parent(0, leaf)
        node = geom.node_ordinal(level, index)
        result = cache.access(node // 2, (node % 2) * 2, write=True)
        if not result.sector_hit:
            read_fn(now, BMT_NODE_BYTES)
        if result.evicted is not None and result.evicted.dirty_sectors:
            for _ in result.evicted.dirty_sectors:
                write_fn(now, BMT_NODE_BYTES)

    # -- finalization ------------------------------------------------------------
    def flush_metadata_caches(
        self,
        now: int,
        device_categories,
        cxl_categories,
    ) -> None:
        """Drain dirty metadata at end of run so traffic totals are honest.

        ``device_categories``/``cxl_categories`` map cache kind ('counter',
        'mac', 'bmt') to the traffic category its writebacks carry.
        """
        for channel, caches in enumerate(self.device_meta):
            for kind, cache in (("counter", caches.counter), ("mac", caches.mac), ("bmt", caches.bmt)):
                category = device_categories.get(kind)
                if category is None:
                    continue
                nbytes = BMT_NODE_BYTES if kind == "bmt" else METADATA_UNIT_BYTES
                for line in cache.flush_dirty():
                    for _ in line.dirty_sectors:
                        self.device_write(now, channel, nbytes, category)
        for plane, caches in enumerate(self.cxl_meta_by_plane):
            device = self.plane_device(plane)
            for kind, cache in (
                ("counter", caches.counter),
                ("mac", caches.mac),
                ("bmt", caches.bmt),
            ):
                category = cxl_categories.get(kind)
                if category is None:
                    continue
                nbytes = BMT_NODE_BYTES if kind == "bmt" else METADATA_UNIT_BYTES
                for line in cache.flush_dirty():
                    for _ in line.dirty_sectors:
                        self.link_write(now, nbytes, category, device=device)
