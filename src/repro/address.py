"""Address geometry shared by every layer of the reproduction.

The Salus paper fixes four granularities (Section II-D and IV-A1):

* **sector** - 32 B, the memory-access and security granularity. Encryption
  counters, MACs and DRAM bursts all operate on sectors.
* **block** - 128 B, the cache-line granularity of the sectored L1/L2 caches
  (4 sectors per block). A MAC sector holds the MACs of one data block.
* **chunk** - 256 B, the fine-grained channel-interleaving granularity
  (2 blocks, 8 sectors). Salus groups one major counter per chunk.
* **page** - 4096 B by default, the migration granularity between the CXL
  expansion memory and the GPU device memory (16 chunks).

Two distinct address spaces exist:

* the **CXL (home) address space**, which is permanent: page tables and all
  Salus security computations use it; and
* the **device address space**, which names frames of the GPU device memory
  used as a page cache. Data moves between frames, so device addresses are
  transient.

The CXL address space may span several expansion devices
(:class:`~repro.config.TopologyConfig`); :class:`ShardMap` holds the pure
CXL-address -> home-device sharding arithmetic. Because security metadata is
keyed to permanent CXL addresses, a page's home device is a fixed function
of its address - no re-keying ever happens, no matter which device or frame
the bytes occupy.

This module provides the pure arithmetic for all of it; it has no simulator
state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import AddressError

SECTOR_BYTES = 32
BLOCK_BYTES = 128
CHUNK_BYTES = 256
DEFAULT_PAGE_BYTES = 4096

SECTORS_PER_BLOCK = BLOCK_BYTES // SECTOR_BYTES
SECTORS_PER_CHUNK = CHUNK_BYTES // SECTOR_BYTES
BLOCKS_PER_CHUNK = CHUNK_BYTES // BLOCK_BYTES


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class Geometry:
    """Fixed carving of an address space into pages/chunks/blocks/sectors.

    Instances are immutable and cheap; every component that needs address
    arithmetic receives one Geometry rather than loose constants, so a whole
    simulation is guaranteed to agree on granularities.
    """

    page_bytes: int = DEFAULT_PAGE_BYTES
    chunk_bytes: int = CHUNK_BYTES
    block_bytes: int = BLOCK_BYTES
    sector_bytes: int = SECTOR_BYTES

    # Derived ratios, precomputed once in __post_init__ so the simulator's
    # per-request walk pays a plain attribute load instead of a property
    # call plus division. They are not dataclass fields: equality, hashing
    # and asdict still consider only the four byte sizes above.
    sectors_per_block: int = field(init=False, repr=False, compare=False, default=0)
    sectors_per_chunk: int = field(init=False, repr=False, compare=False, default=0)
    sectors_per_page: int = field(init=False, repr=False, compare=False, default=0)
    blocks_per_chunk: int = field(init=False, repr=False, compare=False, default=0)
    blocks_per_page: int = field(init=False, repr=False, compare=False, default=0)
    chunks_per_page: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        ordered = (self.sector_bytes, self.block_bytes, self.chunk_bytes, self.page_bytes)
        names = ("sector_bytes", "block_bytes", "chunk_bytes", "page_bytes")
        for name, value in zip(names, ordered):
            if not is_power_of_two(value):
                raise AddressError(f"{name}={value} must be a power of two")
        if not (self.sector_bytes <= self.block_bytes <= self.chunk_bytes <= self.page_bytes):
            raise AddressError(
                "granularities must nest: sector <= block <= chunk <= page, got "
                f"{ordered}"
            )
        fill = object.__setattr__
        fill(self, "sectors_per_block", self.block_bytes // self.sector_bytes)
        fill(self, "sectors_per_chunk", self.chunk_bytes // self.sector_bytes)
        fill(self, "sectors_per_page", self.page_bytes // self.sector_bytes)
        fill(self, "blocks_per_chunk", self.chunk_bytes // self.block_bytes)
        fill(self, "blocks_per_page", self.page_bytes // self.block_bytes)
        fill(self, "chunks_per_page", self.page_bytes // self.chunk_bytes)

    # -- index extraction --------------------------------------------------
    def page_of(self, addr: int) -> int:
        """Page number containing byte address ``addr``."""
        self._check_addr(addr)
        return addr // self.page_bytes

    def chunk_of(self, addr: int) -> int:
        """Global chunk number containing byte address ``addr``."""
        self._check_addr(addr)
        return addr // self.chunk_bytes

    def block_of(self, addr: int) -> int:
        """Global block number containing byte address ``addr``."""
        self._check_addr(addr)
        return addr // self.block_bytes

    def sector_of(self, addr: int) -> int:
        """Global sector number containing byte address ``addr``."""
        self._check_addr(addr)
        return addr // self.sector_bytes

    def chunk_in_page(self, addr: int) -> int:
        """Index (0-based) of the chunk inside its page."""
        return (addr % self.page_bytes) // self.chunk_bytes

    def block_in_chunk(self, addr: int) -> int:
        """Index (0-based) of the block inside its chunk."""
        return (addr % self.chunk_bytes) // self.block_bytes

    def sector_in_chunk(self, addr: int) -> int:
        """Index (0-based) of the sector inside its chunk."""
        return (addr % self.chunk_bytes) // self.sector_bytes

    def sector_in_block(self, addr: int) -> int:
        """Index (0-based) of the sector inside its block."""
        return (addr % self.block_bytes) // self.sector_bytes

    def sector_in_page(self, addr: int) -> int:
        """Index (0-based) of the sector inside its page."""
        return (addr % self.page_bytes) // self.sector_bytes

    # -- address construction ----------------------------------------------
    def page_base(self, page: int) -> int:
        """Byte address where ``page`` starts."""
        return page * self.page_bytes

    def chunk_base(self, chunk: int) -> int:
        """Byte address where global chunk ``chunk`` starts."""
        return chunk * self.chunk_bytes

    def sector_base(self, sector: int) -> int:
        """Byte address where global sector ``sector`` starts."""
        return sector * self.sector_bytes

    def sector_addr(self, page: int, sector_in_page: int) -> int:
        """Byte address of the ``sector_in_page``-th sector of ``page``."""
        if not 0 <= sector_in_page < self.sectors_per_page:
            raise AddressError(
                f"sector_in_page={sector_in_page} outside page of "
                f"{self.sectors_per_page} sectors"
            )
        return page * self.page_bytes + sector_in_page * self.sector_bytes

    def chunk_addr(self, page: int, chunk_in_page: int) -> int:
        """Byte address of the ``chunk_in_page``-th chunk of ``page``."""
        if not 0 <= chunk_in_page < self.chunks_per_page:
            raise AddressError(
                f"chunk_in_page={chunk_in_page} outside page of "
                f"{self.chunks_per_page} chunks"
            )
        return page * self.page_bytes + chunk_in_page * self.chunk_bytes

    # -- alignment ----------------------------------------------------------
    def align_sector(self, addr: int) -> int:
        """Round ``addr`` down to its sector base."""
        self._check_addr(addr)
        return addr & ~(self.sector_bytes - 1)

    def align_chunk(self, addr: int) -> int:
        """Round ``addr`` down to its chunk base."""
        self._check_addr(addr)
        return addr & ~(self.chunk_bytes - 1)

    def align_page(self, addr: int) -> int:
        """Round ``addr`` down to its page base."""
        self._check_addr(addr)
        return addr & ~(self.page_bytes - 1)

    @staticmethod
    def _check_addr(addr: int) -> None:
        if addr < 0:
            raise AddressError(f"negative address {addr:#x}")


#: Home-device sharding policies a :class:`ShardMap` understands.
SHARDING_POLICIES = frozenset({"page", "range"})


@dataclass(frozen=True)
class ShardMap:
    """CXL-address -> home-device sharding over a multi-device fabric.

    A total, balanced partition of the CXL page space onto ``num_devices``
    expansion devices. Two policies:

    * ``"page"`` - round-robin by page number (``page % num_devices``).
      Perfectly balanced for any footprint; consecutive pages land on
      different devices, spreading migration bursts over all links.
    * ``"range"`` - contiguous equal splits of ``total_pages``: device 0
      homes the first ``ceil(total/n)`` pages, and so on. Models pooled
      memory carved into regions; requires ``total_pages > 0``.

    Every page also has a **device-local page index** (its position within
    its home device's slice), which per-device metadata layouts and Merkle
    trees are sized and keyed by. ``local_page`` is a bijection between a
    device's homed pages and ``range(pages_on(device))`` - the property
    tests verify totality and balance.
    """

    geometry: Geometry
    num_devices: int = 1
    policy: str = "page"
    total_pages: int = 0

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise AddressError("num_devices must be at least 1")
        if self.policy not in SHARDING_POLICIES:
            raise AddressError(
                f"unknown sharding policy {self.policy!r}; "
                f"choose from {sorted(SHARDING_POLICIES)}"
            )
        if self.policy == "range" and self.total_pages <= 0:
            raise AddressError("range sharding requires total_pages > 0")

    @property
    def _range_span(self) -> int:
        """Pages per device under range sharding (ceil division)."""
        return -(-self.total_pages // self.num_devices)

    # -- page -> device ------------------------------------------------------
    def home_of_page(self, page: int) -> int:
        """Home device of a CXL page; total over all non-negative pages."""
        if page < 0:
            raise AddressError(f"negative page {page}")
        if self.num_devices == 1:
            return 0
        if self.policy == "page":
            return page % self.num_devices
        device = page // self._range_span
        return device if device < self.num_devices else self.num_devices - 1

    def home_of_addr(self, addr: int) -> int:
        """Home device of the page containing byte address ``addr``."""
        self.geometry._check_addr(addr)
        return self.home_of_page(addr // self.geometry.page_bytes)

    def local_page(self, page: int) -> int:
        """Device-local index of ``page`` within its home device's slice."""
        if page < 0:
            raise AddressError(f"negative page {page}")
        if self.num_devices == 1:
            return page
        if self.policy == "page":
            return page // self.num_devices
        return page - self.home_of_page(page) * self._range_span

    # -- sizing --------------------------------------------------------------
    def pages_on(self, device: int, total_pages: int = 0) -> int:
        """How many of ``total_pages`` CXL pages are homed on ``device``.

        Uses the map's own ``total_pages`` when the argument is omitted.
        """
        total = total_pages or self.total_pages
        if total <= 0:
            raise AddressError("pages_on needs a positive page count")
        if not 0 <= device < self.num_devices:
            raise AddressError(f"device {device} outside fabric of {self.num_devices}")
        if self.num_devices == 1:
            return total
        if self.policy == "page":
            # Pages device, device+n, device+2n, ... below total.
            return (total - device + self.num_devices - 1) // self.num_devices
        span = self._range_span
        start = device * span
        return max(0, min(total, start + span) - start)


@dataclass(frozen=True)
class TenantMap:
    """Tenant partitioning of the SM array, channels, pages, and devices.

    The pure arithmetic behind :class:`~repro.config.PartitionConfig`: a
    total, disjoint partition of every resource class across
    ``num_tenants`` security domains.

    * **SMs** - contiguous equal groups, GPC aligned (CPX-style compute
      partitions). ``num_tenants`` must divide ``num_gpcs``, so a tenant's
      group is a whole number of GPCs and the SM -> interconnect-port
      mapping stays valid within the partition.
    * **Channels** - contiguous equal runs (NPS-style memory partitions).
      Each channel carries its own L2 slice and metadata caches, so
      channel disjointness makes those structures tenant-private for free.
    * **Pages** - contiguous equal spans of the CXL page space (the last
      tenant absorbs any remainder), mirroring ``"range"`` sharding.
    * **Devices** - disjoint contiguous subsets when ``num_devices`` is a
      multiple of ``num_tenants``; otherwise every tenant uses all devices
      (links shared, per-tenant metadata planes still isolated).

    Like :class:`ShardMap` this is pure arithmetic with no simulator state;
    the property tests verify each partition is disjoint and covering.
    """

    geometry: Geometry
    num_tenants: int
    total_pages: int
    num_sms: int
    num_gpcs: int
    num_channels: int
    num_devices: int = 1

    def __post_init__(self) -> None:
        if self.num_tenants < 1:
            raise AddressError("num_tenants must be at least 1")
        if self.total_pages <= 0:
            raise AddressError("total_pages must be positive")
        if self.num_gpcs < 1 or self.num_sms % self.num_gpcs != 0:
            raise AddressError("num_sms must divide evenly into num_gpcs")
        if self.num_gpcs % self.num_tenants != 0:
            raise AddressError(
                f"num_tenants={self.num_tenants} must divide "
                f"num_gpcs={self.num_gpcs}"
            )
        if self.num_channels % self.num_tenants != 0:
            raise AddressError(
                f"num_tenants={self.num_tenants} must divide "
                f"num_channels={self.num_channels}"
            )
        if self.num_devices < 1:
            raise AddressError("num_devices must be at least 1")

    # -- page partition ------------------------------------------------------
    @property
    def page_span(self) -> int:
        """Pages per tenant (ceil division; last tenant may run short)."""
        return -(-self.total_pages // self.num_tenants)

    def tenant_of_page(self, page: int) -> int:
        """Owning tenant of a CXL page; total over non-negative pages."""
        if page < 0:
            raise AddressError(f"negative page {page}")
        if self.num_tenants == 1:
            return 0
        tenant = page // self.page_span
        return tenant if tenant < self.num_tenants else self.num_tenants - 1

    def page_base(self, tenant: int) -> int:
        """First CXL page of one tenant's span."""
        self._check_tenant(tenant)
        return tenant * self.page_span

    def pages_of(self, tenant: int) -> int:
        """How many CXL pages belong to one tenant's span."""
        self._check_tenant(tenant)
        start = tenant * self.page_span
        return max(0, min(self.total_pages, start + self.page_span) - start)

    # -- compute partition ---------------------------------------------------
    @property
    def sms_per_tenant(self) -> int:
        return self.num_sms // self.num_tenants

    def sm_base(self, tenant: int) -> int:
        """First SM of one tenant's compute partition."""
        self._check_tenant(tenant)
        return tenant * self.sms_per_tenant

    def sm_slot(self, tenant: int, hint: int) -> int:
        """Global SM index for a tenant-local scheduling hint."""
        self._check_tenant(tenant)
        return tenant * self.sms_per_tenant + hint % self.sms_per_tenant

    # -- memory partition ----------------------------------------------------
    @property
    def channels_per_tenant(self) -> int:
        return self.num_channels // self.num_tenants

    def channel_base(self, tenant: int) -> int:
        """First memory channel of one tenant's partition."""
        self._check_tenant(tenant)
        return tenant * self.channels_per_tenant

    def channels_of(self, tenant: int) -> range:
        """The contiguous channel run one tenant owns."""
        base = self.channel_base(tenant)
        return range(base, base + self.channels_per_tenant)

    # -- device partition ----------------------------------------------------
    @property
    def devices_shared(self) -> bool:
        """True when tenants share all CXL devices (count not divisible)."""
        return self.num_devices % self.num_tenants != 0

    @property
    def devices_per_tenant(self) -> int:
        if self.devices_shared:
            return self.num_devices
        return self.num_devices // self.num_tenants

    def devices_of(self, tenant: int):
        """The CXL devices one tenant's pages may be homed on."""
        self._check_tenant(tenant)
        if self.devices_shared:
            return range(self.num_devices)
        span = self.num_devices // self.num_tenants
        return range(tenant * span, (tenant + 1) * span)

    def _check_tenant(self, tenant: int) -> None:
        if not 0 <= tenant < self.num_tenants:
            raise AddressError(
                f"tenant {tenant} outside partition of {self.num_tenants}"
            )


DEFAULT_GEOMETRY = Geometry()
