"""System configuration, mirroring Tables I and II of the Salus paper.

Four dataclasses compose the full configuration:

* :class:`GPUConfig` - the baseline GPU (Table I, NVIDIA Volta class): SM
  count, warp slots, memory partitions, bandwidths, cache geometry, and the
  CXL expansion parameters (aggregate CXL bandwidth as a ratio of device
  bandwidth, default 1/16 ~ PCIe 5.0 x16).
* :class:`SecurityConfig` - the security machinery (Table II): per-partition
  metadata caches, MAC/AES latencies, counter/MAC/Merkle-tree geometry.
* :class:`SalusConfig` - feature flags for the four Salus optimizations, so
  ablation benchmarks can enable them one at a time.
* :class:`TopologyConfig` - shape of the CXL fabric: how many expansion
  devices, how CXL pages shard onto them, and per-device link overrides.
  Defaults to the paper's single-device topology.

:class:`SystemConfig` bundles all three plus the address
:class:`~repro.address.Geometry` and the device-capacity-to-footprint ratio
swept by Figure 14.

Two factory presets are provided: :func:`SystemConfig.volta` reproduces the
paper's evaluation machine, and :func:`SystemConfig.small` is a scaled-down
system for fast unit tests (identical mechanisms, smaller resources).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Tuple

from .address import SHARDING_POLICIES, Geometry
from .errors import ConfigError


@dataclass(frozen=True)
class GPUConfig:
    """Baseline GPU model parameters (paper Table I, Volta class)."""

    num_sms: int = 80
    warps_per_sm: int = 64
    num_gpcs: int = 8
    core_clock_ghz: float = 1.4

    num_channels: int = 32
    device_bandwidth_gbps: float = 900.0
    dram_latency_cycles: int = 200
    # Fixed per-transaction occupancy (row activation / protocol flits).
    # Scattered 32 B metadata accesses pay this in full; streamed page
    # copies amortize it, which is why metadata traffic costs more than its
    # byte count suggests.
    device_access_overhead_cycles: int = 8
    cxl_access_overhead_cycles: int = 24

    l2_total_bytes: int = 4608 * 1024
    l2_ways: int = 16
    l2_latency_cycles: int = 30
    l2_mshrs_per_slice: int = 256

    interconnect_latency_cycles: int = 20

    cxl_bw_ratio: float = 1.0 / 16.0
    cxl_latency_cycles: int = 400

    # Victim writeback buffering: how many page evictions may be in flight
    # before a new fill must wait for the oldest to drain. Finite buffers
    # couple eviction traffic back into fill latency, which is what makes
    # heavyweight (full-page + metadata) evictions expensive in practice.
    evict_buffer_pages: int = 8

    # How data moves on a page fault (paper Section IV-A3: prior DRAM-cache
    # work either moves the whole page or only the parts expected to be
    # accessed, and Salus works with either):
    #   "page"  - the whole 4 KiB page streams across on the fault;
    #   "chunk" - only the faulting 256 B chunk moves; other chunks fill on
    #             their own first access (demand chunk fills).
    fill_granularity: str = "page"

    def __post_init__(self) -> None:
        if self.num_sms <= 0 or self.warps_per_sm <= 0:
            raise ConfigError("num_sms and warps_per_sm must be positive")
        if self.num_gpcs <= 0 or self.num_sms % self.num_gpcs != 0:
            raise ConfigError("num_sms must divide evenly into num_gpcs")
        if self.num_channels <= 0:
            raise ConfigError("num_channels must be positive")
        if not 0.0 < self.cxl_bw_ratio <= 1.0:
            raise ConfigError("cxl_bw_ratio must be in (0, 1]")
        if self.device_bandwidth_gbps <= 0:
            raise ConfigError("device_bandwidth_gbps must be positive")
        if self.l2_total_bytes % self.num_channels != 0:
            raise ConfigError("l2_total_bytes must split evenly over channels")
        if self.fill_granularity not in ("page", "chunk"):
            raise ConfigError(
                f"fill_granularity must be 'page' or 'chunk', "
                f"got {self.fill_granularity!r}"
            )

    @property
    def sms_per_gpc(self) -> int:
        """Streaming multiprocessors per graphics processing cluster."""
        return self.num_sms // self.num_gpcs

    @property
    def device_bytes_per_cycle_per_channel(self) -> float:
        """Service bandwidth of a single device-memory channel."""
        total = self.device_bandwidth_gbps / self.core_clock_ghz  # bytes/cycle
        return total / self.num_channels

    @property
    def cxl_bytes_per_cycle(self) -> float:
        """Aggregate service bandwidth of the CXL link, in bytes per cycle."""
        total = self.device_bandwidth_gbps / self.core_clock_ghz
        return total * self.cxl_bw_ratio

    @property
    def l2_slice_bytes(self) -> int:
        """L2 capacity of one memory partition's slice."""
        return self.l2_total_bytes // self.num_channels


@dataclass(frozen=True)
class SecurityConfig:
    """Security machinery parameters (paper Table II plus Section IV)."""

    # Per-partition metadata caches (sectored, allocate-on-fill).
    mac_cache_bytes: int = 2 * 1024
    counter_cache_bytes: int = 8 * 1024
    bmt_cache_bytes: int = 4 * 1024
    metadata_cache_ways: int = 4
    metadata_cache_block_bytes: int = 128
    metadata_mshrs: int = 256

    # Engine latencies (cycles).
    mac_latency_cycles: int = 40
    aes_latency_cycles: int = 40
    aes_pipes_per_partition: int = 1
    # A pipelined AES engine accepts one sector per interval once warmed up.
    aes_pipe_interval_cycles: int = 4

    # Metadata geometry.
    mac_bits: int = 56                 # Gueron-style truncated MAC per sector
    major_counter_bits: int = 32
    minor_counter_bits: int = 7        # device-side split counters
    cxl_minor_counter_bits: int = 14   # doubled-width minors on the CXL side
    bmt_arity: int = 8                 # 8 child hashes per 64 B tree node
    bmt_node_bytes: int = 64

    def __post_init__(self) -> None:
        for name in ("mac_cache_bytes", "counter_cache_bytes", "bmt_cache_bytes"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.bmt_arity < 2:
            raise ConfigError("bmt_arity must be at least 2")
        if not 0 < self.mac_bits <= 64:
            raise ConfigError("mac_bits must be in (0, 64]")
        if self.minor_counter_bits <= 0 or self.major_counter_bits <= 0:
            raise ConfigError("counter widths must be positive")


@dataclass(frozen=True)
class TopologyConfig:
    """Shape of the CXL fabric: how many expansion devices and their links.

    Salus keys all security metadata to permanent CXL addresses
    (Section IV-A), which makes the scheme naturally multi-device: each
    type-3 device owns its own security plane (counter/MAC stores, Merkle
    root, link-side metadata caches) over the slice of the CXL address
    space it is home to, and unified addressing means a page never needs
    re-keying no matter which device it lives on or which GPU frame caches
    it. The default is the paper's single-device topology.

    * ``num_devices`` - expansion devices on the fabric (each with its own
      full-duplex link pair).
    * ``sharding`` - how CXL pages map to home devices: ``"page"``
      (round-robin by page number, the balanced default) or ``"range"``
      (contiguous equal splits of the footprint).
    * ``link_bw_ratios`` / ``link_latencies`` - optional per-device
      overrides of the link bandwidth ratio (vs. device memory bandwidth)
      and link latency; empty tuples mean every device uses the
      :class:`GPUConfig` values. Heterogeneous fabrics (e.g. one near
      device, one far pooled device) set these per slot.
    """

    num_devices: int = 1
    sharding: str = "page"
    link_bw_ratios: Tuple[float, ...] = ()
    link_latencies: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ConfigError("num_devices must be at least 1")
        if self.sharding not in SHARDING_POLICIES:
            raise ConfigError(
                f"sharding must be one of {sorted(SHARDING_POLICIES)}, "
                f"got {self.sharding!r}"
            )
        for name in ("link_bw_ratios", "link_latencies"):
            values = getattr(self, name)
            if values and len(values) != self.num_devices:
                raise ConfigError(
                    f"{name} must be empty or have one entry per device "
                    f"({self.num_devices}), got {len(values)}"
                )
        if any(not 0.0 < r <= 1.0 for r in self.link_bw_ratios):
            raise ConfigError("link_bw_ratios entries must be in (0, 1]")
        if any(lat < 0 for lat in self.link_latencies):
            raise ConfigError("link_latencies entries must be non-negative")

    def bw_ratio(self, device: int, default: float) -> float:
        """Link bandwidth ratio of one device (falling back to the GPU's)."""
        if self.link_bw_ratios:
            return self.link_bw_ratios[device]
        return default

    def latency(self, device: int, default: int) -> int:
        """Link latency of one device (falling back to the GPU's)."""
        if self.link_latencies:
            return self.link_latencies[device]
        return default


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's security domain, bound to a compute/memory partition.

    A tenant owns a contiguous SM group (CPX-style compute partition, GPC
    aligned so the interconnect port mapping stays valid), a contiguous
    channel subset with its private L2 slices and per-channel metadata
    caches (NPS-style memory partition), a slice of the CXL page space, and
    its own MAC/encryption key domain. Both fields are optional labels and
    overrides; partition *shape* lives in :class:`PartitionConfig`.

    * ``name`` - human-readable label (defaults to ``tenant<t>``).
    * ``key_seed`` - override for the tenant's key-derivation seed; the
      empty string derives a per-tenant seed from the platform seed and the
      tenant index, which already guarantees distinct key domains.
    """

    name: str = ""
    key_seed: str = ""


@dataclass(frozen=True)
class PartitionConfig:
    """Compute/memory partitioning of the GPU + CXL fabric across tenants.

    Models SPX/CPX-style SM-group partitions combined with NPS-style memory
    partitions: ``num_tenants`` equal slices of the SM array (whole GPCs),
    the channel array (contiguous runs, each with its own L2 slices and
    metadata caches), and the CXL page space. The default single tenant
    owns everything, and every structure the simulator builds in that case
    is identical to the pre-partitioning code path.

    ``tenants`` optionally names the domains; it must be empty or carry one
    :class:`TenantSpec` per tenant.
    """

    num_tenants: int = 1
    tenants: Tuple[TenantSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.num_tenants < 1:
            raise ConfigError("num_tenants must be at least 1")
        if self.tenants and len(self.tenants) != self.num_tenants:
            raise ConfigError(
                f"tenants must be empty or have one entry per tenant "
                f"({self.num_tenants}), got {len(self.tenants)}"
            )

    def tenant_name(self, tenant: int) -> str:
        """Display name of one tenant (``tenant<t>`` unless spec'd)."""
        if self.tenants and self.tenants[tenant].name:
            return self.tenants[tenant].name
        return f"tenant{tenant}"

    def tenant_key_seed(self, tenant: int, platform_seed: str) -> str:
        """Key-derivation seed of one tenant's cryptographic domain."""
        if self.tenants and self.tenants[tenant].key_seed:
            return self.tenants[tenant].key_seed
        if self.num_tenants == 1:
            return platform_seed
        return f"{platform_seed}|tenant{tenant}"


@dataclass(frozen=True)
class SalusConfig:
    """Feature flags for the four Salus optimizations (Section IV-A).

    The full Salus design enables all of them; ablation benchmarks flip them
    individually. ``unified_metadata`` is the root idea - the others layer on
    top of it, and the validator enforces that dependency.
    """

    unified_metadata: bool = True
    interleaving_friendly_counters: bool = True
    collapsed_counters: bool = True
    fetch_on_access: bool = True
    fine_dirty_tracking: bool = True

    def __post_init__(self) -> None:
        dependents = (
            self.interleaving_friendly_counters,
            self.collapsed_counters,
            self.fetch_on_access,
        )
        if any(dependents) and not self.unified_metadata:
            raise ConfigError(
                "interleaving-friendly / collapsed / fetch-on-access counters "
                "all require unified_metadata=True"
            )
        if self.collapsed_counters and not self.interleaving_friendly_counters:
            raise ConfigError(
                "collapsed_counters requires interleaving_friendly_counters "
                "(majors must be per-chunk before they can be collapsed)"
            )

    @classmethod
    def full(cls) -> "SalusConfig":
        """All optimizations on - the design evaluated in the paper."""
        return cls()

    @classmethod
    def unified_only(cls) -> "SalusConfig":
        """Only address-location decoupling - first ablation step."""
        return cls(
            interleaving_friendly_counters=False,
            collapsed_counters=False,
            fetch_on_access=False,
            fine_dirty_tracking=False,
        )


@dataclass(frozen=True)
class SystemConfig:
    """Complete configuration of one simulated system."""

    gpu: GPUConfig = field(default_factory=GPUConfig)
    security: SecurityConfig = field(default_factory=SecurityConfig)
    salus: SalusConfig = field(default_factory=SalusConfig)
    geometry: Geometry = field(default_factory=Geometry)
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)

    # Fraction of the application footprint that fits in device memory
    # (Figure 14 sweeps {0.20, 0.35, 0.50}; the main evaluation uses 0.35).
    device_capacity_ratio: float = 0.35

    def __post_init__(self) -> None:
        if not 0.0 < self.device_capacity_ratio <= 1.0:
            raise ConfigError("device_capacity_ratio must be in (0, 1]")
        tenants = self.partition.num_tenants
        if tenants > 1:
            # Compute partitions are whole GPCs (keeps the SM->GPC
            # interconnect port mapping valid inside a partition) and
            # memory partitions are whole channels (each channel's L2
            # slice and metadata caches stay tenant-private).
            if self.gpu.num_gpcs % tenants != 0:
                raise ConfigError(
                    f"num_tenants={tenants} must divide num_gpcs="
                    f"{self.gpu.num_gpcs} (GPC-aligned compute partitions)"
                )
            if self.gpu.num_channels % tenants != 0:
                raise ConfigError(
                    f"num_tenants={tenants} must divide num_channels="
                    f"{self.gpu.num_channels} (channel-aligned memory "
                    f"partitions)"
                )
        if self.geometry.page_bytes % self.gpu.num_channels > 0:
            # Pages interleave over channels in whole chunks; a page smaller
            # than one chunk per channel is fine, but the chunk count must be
            # a power of two so the modulo mapping stays balanced.
            pass

    @classmethod
    def volta(cls, **overrides) -> "SystemConfig":
        """The paper's evaluation configuration (Tables I and II)."""
        return cls(**overrides)

    @classmethod
    def bench(cls, **overrides) -> "SystemConfig":
        """Laptop-scale evaluation machine used by the benchmark harness.

        Mechanisms and Table-II security parameters are identical to
        :meth:`volta`; the GPU is scaled down (16 SMs / 16 channels / 512 KiB
        L2) so that the synthetic footprints (4-6 MiB) exercise the same
        capacity relationships the paper's machine has - footprint >> L2,
        device page cache a fixed fraction of footprint, CXL link at a
        bandwidth ratio of the device memory. See DESIGN.md Section 2.
        """
        gpu = GPUConfig(
            num_sms=16,
            warps_per_sm=16,
            num_gpcs=4,
            num_channels=16,
            device_bandwidth_gbps=256.0,
            l2_total_bytes=512 * 1024,
            l2_mshrs_per_slice=64,
        )
        # Metadata caches are scaled to keep the paper's *coverage fraction*:
        # Table II's 2-8 KiB per-partition caches cover well under 1% of a
        # multi-GB device memory, so at a few-MiB bench footprint the caches
        # must shrink accordingly or device-side metadata becomes free.
        security = SecurityConfig(
            mac_cache_bytes=512,
            counter_cache_bytes=1024,
            bmt_cache_bytes=512,
        )
        defaults = {"gpu": gpu, "security": security}
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def small(cls, **overrides) -> "SystemConfig":
        """A scaled-down system for fast tests - same mechanisms throughout."""
        gpu = GPUConfig(
            num_sms=4,
            warps_per_sm=8,
            num_gpcs=2,
            num_channels=8,
            device_bandwidth_gbps=128.0,
            l2_total_bytes=64 * 1024,
            l2_mshrs_per_slice=32,
        )
        security = SecurityConfig(
            mac_cache_bytes=512,
            counter_cache_bytes=1024,
            bmt_cache_bytes=512,
            metadata_mshrs=32,
        )
        defaults = {"gpu": gpu, "security": security}
        defaults.update(overrides)
        return cls(**defaults)

    def to_dict(self) -> dict:
        """Nested plain-value dict of every parameter (JSON-safe)."""
        return asdict(self)

    def fingerprint(self) -> str:
        """Stable content hash of the full configuration.

        Two configs fingerprint equal iff every nested parameter is equal,
        independent of process, platform or hash randomization - the
        experiment engine uses this as part of its on-disk cache key.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def with_salus(self, salus: SalusConfig) -> "SystemConfig":
        """Copy of this config with a different Salus feature set."""
        return replace(self, salus=salus)

    def with_cxl_bw_ratio(self, ratio: float) -> "SystemConfig":
        """Copy with a different CXL-to-device bandwidth ratio (Figure 13)."""
        return replace(self, gpu=replace(self.gpu, cxl_bw_ratio=ratio))

    def with_capacity_ratio(self, ratio: float) -> "SystemConfig":
        """Copy with a different device-capacity ratio (Figure 14)."""
        return replace(self, device_capacity_ratio=ratio)

    def with_topology(self, topology: TopologyConfig) -> "SystemConfig":
        """Copy of this config with a different CXL fabric topology."""
        return replace(self, topology=topology)

    def with_cxl_devices(self, num_devices: int, sharding: str = "page") -> "SystemConfig":
        """Copy with an N-device CXL fabric (uniform links, default sharding)."""
        return replace(
            self, topology=TopologyConfig(num_devices=num_devices, sharding=sharding)
        )

    def with_tenants(
        self, num_tenants: int, tenants: Tuple[TenantSpec, ...] = ()
    ) -> "SystemConfig":
        """Copy partitioned into ``num_tenants`` equal security domains."""
        return replace(
            self,
            partition=PartitionConfig(num_tenants=num_tenants, tenants=tenants),
        )
