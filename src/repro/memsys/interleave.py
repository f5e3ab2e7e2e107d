"""Fine-grained channel interleaving (paper Section II-D).

GPUs interleave consecutive memory at sub-page granularity across channels
to maximize memory-level parallelism; the paper assumes 256 B chunks. A
4 KiB page therefore spreads over ``min(chunks_per_page, num_channels)``
channels.

The interleaver maps a *device frame* (a page-sized slot of GPU device
memory) and a chunk index within it to:

* the device **channel** that owns the chunk, and
* the **local chunk slot** within that channel (channel-local address),

which is what the per-partition caches, counter stores and metadata layout
key on. The mapping is a bijection per channel, which the property tests
verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..address import Geometry
from ..errors import AddressError


@dataclass(frozen=True)
class Interleaver:
    """Chunk-granularity round-robin interleaving across device channels."""

    geometry: Geometry
    num_channels: int

    # The mapping is a pure function of (frame, chunk_in_page); the memo
    # table turns the hot-path divmod plus tuple allocation into one dict
    # hit. Keyed by the global chunk id, bounded by frames x chunks_per_page.
    _loc_cache: Dict[int, Tuple[int, int]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.num_channels <= 0:
            raise AddressError("num_channels must be positive")

    def device_chunk_location(self, frame: int, chunk_in_page: int) -> Tuple[int, int]:
        """Map (frame, chunk index) to (channel, local chunk slot).

        Frames interleave continuously: the first chunk of frame ``f`` lands
        on channel ``(f * chunks_per_page) % num_channels``, so consecutive
        frames do not all start on channel 0 (avoiding partition camping).
        """
        cpp = self.geometry.chunks_per_page
        if frame < 0:
            raise AddressError(f"negative frame {frame}")
        if not 0 <= chunk_in_page < cpp:
            raise AddressError(
                f"chunk_in_page={chunk_in_page} outside page of {cpp} chunks"
            )
        global_chunk = frame * cpp + chunk_in_page
        loc = self._loc_cache.get(global_chunk)
        if loc is None:
            local_slot, channel = divmod(global_chunk, self.num_channels)
            loc = self._loc_cache[global_chunk] = (channel, local_slot)
        return loc

    def device_sector_location(self, frame: int, sector_in_page: int) -> Tuple[int, int]:
        """Map (frame, sector index) to (channel, local sector slot)."""
        spc = self.geometry.sectors_per_chunk
        chunk_in_page = sector_in_page // spc
        sector_in_chunk = sector_in_page % spc
        channel, local_chunk = self.device_chunk_location(frame, chunk_in_page)
        return channel, local_chunk * spc + sector_in_chunk

    def channels_of_page(self, frame: int) -> Tuple[int, ...]:
        """The distinct channels a frame's chunks occupy, in chunk order."""
        cpp = self.geometry.chunks_per_page
        seen = []
        for c in range(cpp):
            channel, _ = self.device_chunk_location(frame, c)
            if channel not in seen:
                seen.append(channel)
        return tuple(seen)

    @property
    def channels_per_page(self) -> int:
        """How many distinct channels one page spreads over."""
        return min(self.geometry.chunks_per_page, self.num_channels)
