"""Encryption-counter organizations (paper Sections II-A1, IV-A1, IV-A2).

Four organizations are implemented, each with real integer values, exact
field widths and exact overflow semantics, because both the functional layer
(actual encryption) and the timing layer (re-encryption traffic on minor
overflows and major unification) depend on them:

* :class:`MonolithicCounterStore` - SGX-style 56-bit counter per sector.
* :class:`ConventionalSplitCounterStore` - the baseline/PSSM organization:
  one 32-bit major shared by 32 seven-bit minors, covering 8 consecutive
  data blocks (1 KiB). The 1 KiB span exceeds the 256 B interleaving chunk,
  which is exactly the unification problem Section IV-A motivates.
* :class:`InterleavingFriendlySplitCounters` via
  :class:`InterleavingFriendlyCounterStore` - the Salus device-side design:
  one major per 256 B chunk (8 minors), two tagged groups per 32 B counter
  sector (Figure 4).
* :class:`CollapsedCounterStore` - the Salus CXL-side design (Figures 5/6):
  per-chunk counters collapsed to a single value, stored split as a page
  major plus doubled-width (14-bit) per-chunk minors, one 32 B sector per
  4 KiB page.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import CounterOverflowError


@dataclass(frozen=True)
class CounterPair:
    """The (major, minor) pair that forms the temporal half of an IV."""

    major: int
    minor: int


@dataclass(frozen=True)
class IncrementResult:
    """Outcome of a counter increment.

    When a minor overflows, the covering major is bumped, every minor under
    it resets, and every sibling data unit in ``reencrypt_units`` must be
    re-encrypted under the new major - the traffic the timing layer charges.
    """

    pair: CounterPair
    overflowed: bool = False
    reencrypt_units: Tuple[int, ...] = ()


def _check_width(value: int, bits: int, what: str) -> None:
    if value >= (1 << bits):
        raise CounterOverflowError(
            f"{what} exceeded its {bits}-bit field ({value}); "
            "re-keying would be required"
        )


class MonolithicCounterStore:
    """One wide counter per sector (Intel-SGX style, 56 bits)."""

    def __init__(self, counter_bits: int = 56) -> None:
        self.counter_bits = counter_bits
        self._counters: Dict[int, int] = {}

    def read(self, sector: int) -> CounterPair:
        return CounterPair(major=self._counters.get(sector, 0), minor=0)

    def increment(self, sector: int) -> IncrementResult:
        value = self._counters.get(sector, 0) + 1
        _check_width(value, self.counter_bits, f"monolithic counter[{sector}]")
        self._counters[sector] = value
        return IncrementResult(pair=CounterPair(major=value, minor=0))


@dataclass
class _SplitGroup:
    major: int = 0
    minors: List[int] = field(default_factory=list)


class ConventionalSplitCounterStore:
    """Baseline split counters: 32-bit major + 32 x 7-bit minors per sector.

    One counter sector covers ``minors_per_major`` consecutive data sectors
    of a single memory's local address space; indices are local sector
    numbers. This is the organization whose majors end up shared by chunks
    of *different* CXL pages once pages interleave into device memory.
    """

    def __init__(
        self,
        minors_per_major: int = 32,
        minor_bits: int = 7,
        major_bits: int = 32,
    ) -> None:
        self.minors_per_major = minors_per_major
        self.minor_bits = minor_bits
        self.major_bits = major_bits
        self._groups: Dict[int, _SplitGroup] = {}

    def _group(self, sector: int) -> Tuple[_SplitGroup, int]:
        gidx, within = divmod(sector, self.minors_per_major)
        group = self._groups.get(gidx)
        if group is None:
            group = _SplitGroup(minors=[0] * self.minors_per_major)
            self._groups[gidx] = group
        return group, within

    def group_index(self, sector: int) -> int:
        """Which counter sector (group) covers a local data sector."""
        return sector // self.minors_per_major

    def read(self, sector: int) -> CounterPair:
        group, within = self._group(sector)
        return CounterPair(major=group.major, minor=group.minors[within])

    def read_major(self, sector: int) -> int:
        group, _ = self._group(sector)
        return group.major

    def increment(self, sector: int) -> IncrementResult:
        group, within = self._group(sector)
        new_minor = group.minors[within] + 1
        if new_minor < (1 << self.minor_bits):
            group.minors[within] = new_minor
            return IncrementResult(pair=CounterPair(group.major, new_minor))
        # Minor overflow: bump the shared major, reset all minors, and force
        # re-encryption of every sector this major covers. The written
        # sector lands at minor 1 (its siblings re-encrypt at minor 0), so
        # the write is still distinguishable from the reset state and no
        # one-time pad repeats.
        group.major += 1
        _check_width(group.major, self.major_bits, "conventional major")
        group.minors = [0] * self.minors_per_major
        group.minors[within] = 1
        base = self.group_index(sector) * self.minors_per_major
        siblings = tuple(range(base, base + self.minors_per_major))
        return IncrementResult(
            pair=CounterPair(group.major, 1),
            overflowed=True,
            reencrypt_units=siblings,
        )

    def increment_span(self, base: int, count: int) -> List[IncrementResult]:
        """Increment ``count`` consecutive sectors starting at ``base``.

        Semantically identical to calling :meth:`increment` once per sector
        in ascending order, but the common no-overflow case skips the
        per-sector group lookup and result-object allocation - this is the
        bulk path page fills and evictions hammer. Only the overflow results
        are returned (in sector order); non-overflow pairs are not
        materialized because bulk callers never read them.
        """
        overflows: List[IncrementResult] = []
        limit = 1 << self.minor_bits
        end = base + count
        sector = base
        while sector < end:
            group, within = self._group(sector)
            run = min(end - sector, self.minors_per_major - within)
            for i in range(run):
                # Re-read minors each iteration: an overflow replaces the list.
                minors = group.minors
                slot = within + i
                new_minor = minors[slot] + 1
                if new_minor < limit:
                    minors[slot] = new_minor
                else:
                    overflows.append(self.increment(sector + i))
            sector += run
        return overflows

    def set_major(self, sector: int, major: int) -> Tuple[int, ...]:
        """Force the covering major to ``major`` (migration install path).

        Returns the sibling sectors that must be re-encrypted if the major
        actually changed and any of them held live data - the caller decides
        which are live. Minors reset either way, matching hardware.

        Installs are monotonic: moving a major *backwards* would make the
        store re-issue (major, minor) pairs it already consumed, i.e. reuse
        one-time pads - a hard security violation, so it raises instead.
        """
        group, _ = self._group(sector)
        if major < group.major:
            raise CounterOverflowError(
                f"conventional major for sector {sector} cannot move backwards "
                f"({group.major} -> {major}): a smaller major would reuse "
                "one-time pads"
            )
        if group.major == major:
            return ()
        group.major = major
        _check_width(group.major, self.major_bits, "conventional major")
        group.minors = [0] * self.minors_per_major
        base = self.group_index(sector) * self.minors_per_major
        return tuple(range(base, base + self.minors_per_major))


@dataclass
class _ChunkGroup:
    """One Figure-4 counter group: a chunk's major, minors and CXL tag."""

    major: int = 0
    minors: List[int] = field(default_factory=list)
    cxl_page: Optional[int] = None


class InterleavingFriendlyCounterStore:
    """Salus device-side counters: one tagged group per 256 B chunk.

    Keyed by *device chunk id* (channel-local or global - the store does not
    care, the caller picks one consistently). Each group is installed when
    its chunk's metadata first lands in device memory, carrying the chunk
    epoch fetched from the CXL side as its major.
    """

    def __init__(self, sectors_per_chunk: int = 8, minor_bits: int = 7,
                 major_bits: int = 32) -> None:
        self.sectors_per_chunk = sectors_per_chunk
        self.minor_bits = minor_bits
        self.major_bits = major_bits
        self._groups: Dict[int, _ChunkGroup] = {}

    def install(self, device_chunk: int, epoch: int, cxl_page: int) -> None:
        """Fill a group from CXL metadata: major=epoch, minors reset."""
        _check_width(epoch, self.major_bits, "installed chunk epoch")
        self._groups[device_chunk] = _ChunkGroup(
            major=epoch, minors=[0] * self.sectors_per_chunk, cxl_page=cxl_page
        )

    def is_installed_for(self, device_chunk: int, cxl_page: int) -> bool:
        """The Figure-7 tag check: does this group belong to ``cxl_page``?"""
        group = self._groups.get(device_chunk)
        return group is not None and group.cxl_page == cxl_page

    def evict(self, device_chunk: int) -> None:
        """Drop a group when its page leaves device memory."""
        self._groups.pop(device_chunk, None)

    def read(self, device_chunk: int, sector_in_chunk: int) -> CounterPair:
        group = self._require(device_chunk)
        return CounterPair(group.major, group.minors[sector_in_chunk])

    def increment(self, device_chunk: int, sector_in_chunk: int) -> IncrementResult:
        group = self._require(device_chunk)
        new_minor = group.minors[sector_in_chunk] + 1
        if new_minor < (1 << self.minor_bits):
            group.minors[sector_in_chunk] = new_minor
            return IncrementResult(pair=CounterPair(group.major, new_minor))
        # Overflow stays chunk-local: only this chunk's 8 sectors re-encrypt,
        # never neighbours from other pages - the point of Figure 4. The
        # written sector lands at minor 1 so the chunk still registers as
        # written (collapse predicate) and its pad differs from the reset
        # siblings' (major, 0).
        group.major += 1
        _check_width(group.major, self.major_bits, "chunk major")
        group.minors = [0] * self.sectors_per_chunk
        group.minors[sector_in_chunk] = 1
        return IncrementResult(
            pair=CounterPair(group.major, 1),
            overflowed=True,
            reencrypt_units=tuple(range(self.sectors_per_chunk)),
        )

    def any_minor_nonzero(self, device_chunk: int) -> bool:
        """Collapse predicate (Section IV-A2): was the chunk written?"""
        group = self._groups.get(device_chunk)
        return group is not None and any(group.minors)

    def _require(self, device_chunk: int) -> _ChunkGroup:
        group = self._groups.get(device_chunk)
        if group is None:
            raise KeyError(
                f"counter group for device chunk {device_chunk} not installed"
            )
        return group


@dataclass
class _PageCounters:
    major: int = 0
    minors: List[int] = field(default_factory=list)


class CollapsedCounterStore:
    """Salus CXL-side collapsed counters (Figures 5 and 6).

    Per page: a 32-bit major plus one doubled-width (14-bit) minor per chunk.
    A chunk's *epoch* - the single value embedded in MAC sectors at transfer
    and used as the device-side group major - is ``(major << minor_bits) |
    minor``, a strictly increasing integer.
    """

    def __init__(
        self,
        chunks_per_page: int = 16,
        minor_bits: int = 14,
        major_bits: int = 32,
    ) -> None:
        self.chunks_per_page = chunks_per_page
        self.minor_bits = minor_bits
        self.major_bits = major_bits
        self._pages: Dict[int, _PageCounters] = {}

    def _page(self, page: int) -> _PageCounters:
        state = self._pages.get(page)
        if state is None:
            state = _PageCounters(minors=[0] * self.chunks_per_page)
            self._pages[page] = state
        return state

    def chunk_epoch(self, page: int, chunk_in_page: int) -> int:
        state = self._page(page)
        return (state.major << self.minor_bits) | state.minors[chunk_in_page]

    def read(self, page: int, chunk_in_page: int) -> CounterPair:
        """The pair used for CXL-resident ciphertext: (epoch, 0)."""
        return CounterPair(major=self.chunk_epoch(page, chunk_in_page), minor=0)

    def collapse(self, page: int, chunk_in_page: int) -> IncrementResult:
        """Advance a chunk's epoch on dirty writeback (major++/minors-reset
        seen from the device side; minor++ in the split CXL encoding)."""
        state = self._page(page)
        new_minor = state.minors[chunk_in_page] + 1
        if new_minor < (1 << self.minor_bits):
            state.minors[chunk_in_page] = new_minor
            return IncrementResult(
                pair=CounterPair((state.major << self.minor_bits) | new_minor, 0)
            )
        # Page-major overflow: every chunk of the page re-encrypts. The
        # doubled minors exist precisely to make this rare.
        state.major += 1
        _check_width(state.major, self.major_bits, "CXL page major")
        state.minors = [0] * self.chunks_per_page
        return IncrementResult(
            pair=CounterPair(state.major << self.minor_bits, 0),
            overflowed=True,
            reencrypt_units=tuple(range(self.chunks_per_page)),
        )
