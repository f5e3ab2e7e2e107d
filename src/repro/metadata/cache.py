"""Per-partition metadata caches (paper Table II).

Each memory-partition controller holds three small sectored caches - one for
encryption counters, one for MACs, one for Merkle-tree nodes - plus the MSHR
merge tracking shared with L2. :class:`MetadataCaches` bundles the triple
for one partition so the security models can treat "the partition's
metadata cache state" as a single object.

Cache keys are abstract unit indices (counter-sector number, MAC-sector
number, BMT node coordinates); the caches never see byte addresses, which
keeps one implementation valid for both the device-local and CXL-side
metadata spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SecurityConfig
from ..memsys.sectored_cache import SectoredCache


@dataclass
class MetadataCaches:
    """Counter, MAC and BMT caches for one memory partition."""

    counter: SectoredCache
    mac: SectoredCache
    bmt: SectoredCache

    @classmethod
    def build(cls, partition: int, security: SecurityConfig, sector_bytes: int = 32) -> "MetadataCaches":
        line = security.metadata_cache_block_bytes
        ways = security.metadata_cache_ways
        return cls(
            counter=SectoredCache(
                name=f"ctr[{partition}]",
                total_bytes=security.counter_cache_bytes,
                ways=ways,
                line_bytes=line,
                sector_bytes=sector_bytes,
            ),
            mac=SectoredCache(
                name=f"mac[{partition}]",
                total_bytes=security.mac_cache_bytes,
                ways=ways,
                line_bytes=line,
                sector_bytes=sector_bytes,
            ),
            bmt=SectoredCache(
                name=f"bmt[{partition}]",
                total_bytes=security.bmt_cache_bytes,
                ways=ways,
                line_bytes=line,
                sector_bytes=sector_bytes,
            ),
        )

    def hit_rates(self) -> dict:
        return {
            "counter": self.counter.hit_rate,
            "mac": self.mac.hit_rate,
            "bmt": self.bmt.hit_rate,
        }

    def as_metrics(self, prefix: str) -> dict:
        """Flat metric-taxonomy leaves for this partition's caches.

        ``{f"{prefix}.{kind}.hits": n, ...}`` for kind in counter/mac/bmt -
        the shape :mod:`repro.sim.metrics` stores on ``RunResult.metrics``.
        The cache *names* (``ctr[3]``, ``mac[3]``, ``bmt[3]``; partition -1
        is the expander-side controller) double as the trace components that
        miss events are tagged with, so a metric line and its timeline track
        are cross-referencable.
        """
        out = {}
        for kind, cache in (
            ("counter", self.counter), ("mac", self.mac), ("bmt", self.bmt)
        ):
            out[f"{prefix}.{kind}.hits"] = cache.hits
            out[f"{prefix}.{kind}.misses"] = cache.misses
        return out
