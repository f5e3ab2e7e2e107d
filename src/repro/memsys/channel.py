"""Bandwidth-and-latency resource models: memory channels and crypto engines.

A transaction of ``n`` bytes occupies a channel for ``n / bytes_per_cycle``
cycles and completes a fixed access latency after its service slot ends
(latency is pipelined and does not occupy the channel).

Channels are modelled as *timestamp-ordered* work-conserving servers rather
than strict FCFS ``next_free`` timestamps: a booking waits behind the work
that arrived (by timestamp) at or before it, regardless of the order the
simulator happened to issue the bookings in. A serially-chained access
(e.g. a Merkle walk whose level-N read starts only after level N-1
returned) therefore leaves the channel free for other traffic during its
think time instead of punching a hole in the schedule, and a booking whose
timestamp lies in the past still queues behind everything that was already
in flight back then - wall-clock progress made by later-timestamped traffic
can never retroactively erase its queue. Busy cycles and per-category byte
counts feed Figures 11 and 12.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional

from ..errors import SimulationError
from ..sim.stats import Side, StatRegistry, TrafficCategory
from ..sim.trace import Tracer, resolve_tracer


class _ServiceTimeline:
    """Completion frontier of a server fed with non-monotone timestamps.

    Jobs are kept sorted by arrival timestamp; ``frontier[i]`` is the time
    the server finishes all jobs up to and including ``i`` when serving them
    in timestamp order (``F = max(F_prev, t_i) + busy_i``). A new arrival at
    ``now`` starts after the frontier of every job with timestamp <= now.

    Completions already handed out are never revised: a retro-timestamped
    insertion only raises the frontier that *future* queries observe. For
    monotone timestamps this degenerates to the classic work-conserving
    leaky bucket (insertion is an append and the prefix scan is O(1)).
    """

    __slots__ = ("_times", "_busys", "_frontier")

    def __init__(self) -> None:
        self._times: list = []
        self._busys: list = []
        self._frontier: list = []

    def book(self, now: int, busy: int) -> int:
        """Insert a job of ``busy`` service cycles arriving at ``now``.

        Returns the cycle its service slot ends (no latency applied).

        Jobs sharing a timestamp are *merged* into one entry instead of
        inserted side by side: two jobs at the same ``t`` serve back to back
        (``max(max(F, t) + b1, t) + b2 == max(F, t) + b1 + b2`` since service
        times are positive), so one entry with the summed busy time yields
        bit-identical completions and frontiers. Migration fills book dozens
        of legs at one timestamp, and the merge turns those from O(n) list
        insertions into in-place updates.
        """
        times = self._times
        busys = self._busys
        frontier = self._frontier
        if not times:
            completion = now + busy
            times.append(now)
            busys.append(busy)
            frontier.append(completion)
            return completion
        last = times[-1]
        if now > last:
            # Monotone arrival (the overwhelmingly common case): append-only,
            # no bisect, no mid-list insertion, no ripple.
            f = frontier[-1]
            completion = (f if f > now else now) + busy
            times.append(now)
            busys.append(busy)
            frontier.append(completion)
            return completion
        if now == last:
            busys[-1] += busy
            completion = frontier[-1] + busy
            frontier[-1] = completion
            return completion
        idx = bisect_right(times, now)
        if idx and times[idx - 1] == now:
            busys[idx - 1] += busy
            completion = frontier[idx - 1] + busy
            frontier[idx - 1] = f = completion
            i = idx
        else:
            f_prev = frontier[idx - 1] if idx else 0
            times.insert(idx, now)
            busys.insert(idx, busy)
            frontier.insert(idx, 0)
            completion = (f_prev if f_prev > now else now) + busy
            frontier[idx] = f = completion
            i = idx + 1
        n = len(times)
        while i < n:
            t_i = times[i]
            updated = (f if f > t_i else t_i) + busys[i]
            if updated == frontier[i]:
                break  # the ripple died out; the rest of the suffix is unchanged
            frontier[i] = f = updated
            i += 1
        return completion


class Channel:
    """One memory channel (device partition) or the aggregate CXL link."""

    def __init__(
        self,
        name: str,
        bytes_per_cycle: float,
        latency_cycles: int,
        side: Side,
        stats: StatRegistry,
        overhead_cycles: int = 0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if bytes_per_cycle <= 0:
            raise SimulationError(f"{name}: bytes_per_cycle must be positive")
        if latency_cycles < 0 or overhead_cycles < 0:
            raise SimulationError(f"{name}: latency/overhead must be non-negative")
        self.name = name
        self.bytes_per_cycle = bytes_per_cycle
        self.latency_cycles = latency_cycles
        # Fixed per-transaction occupancy (row activation, protocol flits):
        # this is what makes scattered 32 B metadata accesses so much less
        # bandwidth-efficient than a streamed page copy.
        self.overhead_cycles = overhead_cycles
        self.side = side
        self.stats = stats
        self.tracer = resolve_tracer(tracer)
        self.busy_cycles: int = 0
        # Per-component traffic attribution for the metric taxonomy:
        # {category: [bytes, transactions]}. Kept as a plain dict of mutable
        # pairs so the hot path pays one lookup and two adds, no strings.
        self.category_tallies: Dict[TrafficCategory, List[int]] = {}
        # Two service classes model FR-FCFS-style scheduling: small demand
        # (priority) reads overtake bulk migration/writeback transfers, but
        # every transfer consumes bandwidth that bulk traffic must wait for.
        self._all_work = _ServiceTimeline()    # every transaction (bulk view)
        self._prio_work = _ServiceTimeline()   # priority transactions only
        # Transactions come in a handful of sizes (32 B sectors, 64 B nodes,
        # 256 B chunks, 4 KiB pages); memoize the ceil-division per size.
        self._svc_cache: Dict[int, int] = {}
        self._traffic = stats.traffic_bytes

    def service_cycles(self, nbytes: int) -> int:
        """Channel occupancy for a transaction of ``nbytes``."""
        busy = self._svc_cache.get(nbytes)
        if busy is None:
            busy = self._svc_cache[nbytes] = self.overhead_cycles + max(
                1, math.ceil(nbytes / self.bytes_per_cycle)
            )
        return busy

    def book(
        self,
        now: int,
        nbytes: int,
        category: TrafficCategory,
        *,
        critical: bool = True,
        priority: bool = False,
    ) -> int:
        """Book a transaction; returns its completion time.

        ``critical=False`` marks posted traffic (writebacks, background
        eviction): it occupies the channel and is tallied, but the returned
        completion time is the service end without the access latency, since
        nothing waits on it.

        ``priority=True`` marks latency-sensitive demand reads, which the
        controller services ahead of queued bulk transfers (page copies,
        writebacks) - they wait only behind other priority work.
        """
        if now < 0 or nbytes <= 0:
            raise SimulationError(
                f"{self.name}: invalid booking now={now} nbytes={nbytes}"
            )
        busy = self._svc_cache.get(nbytes)
        if busy is None:
            busy = self.service_cycles(nbytes)
        # Every transaction consumes bandwidth the bulk class must wait for;
        # priority transactions additionally get their own (shorter) queue.
        # The timeline's monotone-append fast path is inlined here (this is
        # the hottest call site in the simulator); non-monotone arrivals fall
        # back to the full insertion logic in _ServiceTimeline.book.
        tl = self._all_work
        times = tl._times
        if times and now > times[-1]:
            frontier = tl._frontier[-1]
            completion = (frontier if frontier > now else now) + busy
            times.append(now)
            tl._busys.append(busy)
            tl._frontier.append(completion)
            bulk_completion = completion
        elif times and now == times[-1]:
            tl._busys[-1] += busy
            bulk_completion = tl._frontier[-1] + busy
            tl._frontier[-1] = bulk_completion
        else:
            bulk_completion = tl.book(now, busy)
        if priority:
            tl = self._prio_work
            times = tl._times
            if times and now > times[-1]:
                frontier = tl._frontier[-1]
                completion = (frontier if frontier > now else now) + busy
                times.append(now)
                tl._busys.append(busy)
                tl._frontier.append(completion)
            elif times and now == times[-1]:
                tl._busys[-1] += busy
                completion = tl._frontier[-1] + busy
                tl._frontier[-1] = completion
            else:
                completion = tl.book(now, busy)
        else:
            completion = bulk_completion
        self.busy_cycles += busy
        self._traffic[(self.side, category)] += nbytes
        tally = self.category_tallies.get(category)
        if tally is None:
            tally = self.category_tallies[category] = [0, 0]
        tally[0] += nbytes
        tally[1] += 1
        if self.tracer.enabled:
            self.tracer.span(
                self.name, category.value, now, completion - now, cat="mem",
                args={"bytes": nbytes, "prio": priority},
            )
        if critical:
            return completion + self.latency_cycles
        return completion

    def utilization(self, final_cycle: int) -> float:
        """Fraction of cycles this channel spent transferring."""
        if final_cycle <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / final_cycle)


class CryptoEngine:
    """A pipelined per-partition AES/MAC engine (paper Table II).

    One sector enters the pipeline every ``interval`` cycles; the result is
    ready ``latency`` cycles after it enters. Counter-mode lets the OTP be
    precomputed as soon as the counter is known, so callers pass the time the
    counter became available, not the time the data arrived.
    """

    def __init__(
        self,
        name: str,
        latency_cycles: int,
        interval_cycles: int,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if latency_cycles < 0 or interval_cycles <= 0:
            raise SimulationError(f"{name}: bad engine timing parameters")
        self.name = name
        self.latency_cycles = latency_cycles
        self.interval_cycles = interval_cycles
        self.tracer = resolve_tracer(tracer)
        self.sectors_processed: int = 0
        self._work = _ServiceTimeline()

    def book(self, ready: int, sectors: int = 1) -> int:
        """Push ``sectors`` sector operations; returns completion of the last.

        Same timestamp-ordered service model as :class:`Channel`: a booking
        queues behind the ops that entered the pipe at or before its own
        timestamp, so out-of-order bookings neither punch idle holes into
        the schedule nor jump ahead of work that was already in flight.
        """
        if sectors <= 0:
            raise SimulationError(f"{self.name}: sectors must be positive")
        busy = sectors * self.interval_cycles
        # Same inlined monotone-append/merge fast path as Channel.book.
        tl = self._work
        times = tl._times
        if times and ready > times[-1]:
            frontier = tl._frontier[-1]
            slot_end = (frontier if frontier > ready else ready) + busy
            times.append(ready)
            tl._busys.append(busy)
            tl._frontier.append(slot_end)
        elif times and ready == times[-1]:
            tl._busys[-1] += busy
            slot_end = tl._frontier[-1] + busy
            tl._frontier[-1] = slot_end
        else:
            slot_end = tl.book(ready, busy)
        self.sectors_processed += sectors
        if self.tracer.enabled:
            self.tracer.span(
                self.name, "pipe", ready, slot_end - ready, cat="crypto",
                args={"sectors": sectors},
            )
        return slot_end - self.interval_cycles + self.latency_cycles


class LinkPair:
    """Convenience holder for the two directions of the CXL link.

    CXL over PCIe has independent TX and RX lanes; modelling them separately
    keeps a fill burst from serializing behind eviction writebacks. On a
    multi-device fabric each expansion device owns one LinkPair; ``name``
    distinguishes them ("cxl" for the paper's single device, "cxl<i>" for
    additional fabric slots).
    """

    def __init__(
        self,
        bytes_per_cycle: float,
        latency_cycles: int,
        stats: StatRegistry,
        overhead_cycles: int = 0,
        tracer: Optional[Tracer] = None,
        name: str = "cxl",
    ) -> None:
        half = bytes_per_cycle / 2.0
        self.name = name
        self.to_device = Channel(
            f"{name}-rx", half, latency_cycles, Side.CXL, stats, overhead_cycles,
            tracer=tracer,
        )
        self.to_cxl = Channel(
            f"{name}-tx", half, latency_cycles, Side.CXL, stats, overhead_cycles,
            tracer=tracer,
        )

    @property
    def busy_cycles(self) -> int:
        return self.to_device.busy_cycles + self.to_cxl.busy_cycles
