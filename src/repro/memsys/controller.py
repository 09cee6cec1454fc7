"""Memory controller: on-chip cache, stream measurement, AG sharing.

Two jobs live here.

1. :class:`MemorySystem` turns an access pattern into a
   :class:`StreamMeasurement`: the stream's exclusive-use duration,
   steady transfer rate, and how much of its traffic actually reaches
   DRAM (the controller's small on-chip cache captures indexed
   patterns over narrow ranges, the Figure 9 "idx range 16" case).
2. :class:`SharedMemoryServer` runs concurrently-active streams from
   the two AGs against the shared DRAM data bus and controller port,
   the processor-sharing model behind Figure 10's two-AG results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import MachineConfig
from repro.memsys.address_gen import expand_pattern
from repro.memsys.dram import ChannelFault, DramModel, PrechargeFault
from repro.memsys.patterns import AccessPattern
from repro.obs.tracer import NULL_TRACER, TRACK_DRAM, TRACK_MEMCTRL, Tracer

#: Words sampled from very long streams; beyond this the steady-state
#: rate is extrapolated (the sampled prefix includes all cold misses,
#: so the extrapolation is conservative).
_SAMPLE_WORDS = 8192
#: Fixed pipeline latency from stream-instruction issue to first DRAM
#: data (the paper cites 30-40 cycles per access).
_STARTUP_CYCLES = 36
#: Extra throttle when two DRAM-bound streams interleave at the banks.
_BANK_CONFLICT_FACTOR = 0.9


@dataclass(frozen=True)
class StreamMeasurement:
    """Timing facts for one stream load/store, measured in isolation."""

    words: int
    dram_words: int
    startup_cycles: float
    rate_words_per_cycle: float
    controller_rate: float
    #: Estimated DRAM busy time per channel for the whole stream, in
    #: core cycles (sampled per-channel service cycles scaled to the
    #: full stream length).  Empty for streams the on-chip cache
    #: fully captures.
    per_channel_core_cycles: tuple[float, ...] = ()
    #: Isolated service demand of the whole stream against each
    #: shared resource, in core cycles: the steady rate is
    #: ``words / max`` of these three.  The critical-path projector
    #: uses them to rescale memory-stream durations under what-if
    #: resource scalings.
    dram_core_cycles: float = 0.0
    ag_core_cycles: float = 0.0
    controller_core_cycles: float = 0.0

    @property
    def exclusive_cycles(self) -> float:
        return self.startup_cycles + self.words / self.rate_words_per_cycle

    @property
    def dram_fraction(self) -> float:
        if self.words == 0:
            return 0.0
        return self.dram_words / self.words


class MemorySystem:
    """Pattern measurement against the DRAM model, with caching."""

    def __init__(self, machine: MachineConfig,
                 precharge_bug: bool = False,
                 precharge: PrechargeFault | None = None,
                 channel_fault: ChannelFault | None = None,
                 tracer: Tracer = NULL_TRACER) -> None:
        self.machine = machine
        self.tracer = tracer
        self.dram = DramModel(machine.dram, precharge_bug=precharge_bug,
                              precharge=precharge,
                              channel_fault=channel_fault)
        self._rate_cache: dict[
            tuple, tuple[float, float, dict | None,
                         tuple[float, ...], float]] = {}

    def measure(self, pattern: AccessPattern) -> StreamMeasurement:
        (rate, dram_fraction, dram_sample,
         channel_cycles_per_word,
         dram_cycles_per_word) = self._steady_behaviour(pattern)
        if self.tracer.enabled:
            self.tracer.instant(
                TRACK_MEMCTRL, f"measure {pattern.kind}",
                words=pattern.words,
                rate_words_per_cycle=rate,
                dram_fraction=dram_fraction)
            if dram_sample is not None:
                self.tracer.counter(
                    TRACK_DRAM, "channel busy (sampled mem cycles)",
                    {f"ch{i}": float(cycles) for i, cycles
                     in enumerate(dram_sample["per_channel_cycles"])})
                self.tracer.instant(
                    TRACK_DRAM, f"rows {pattern.kind}",
                    row_hits=dram_sample["row_hits"],
                    row_misses=dram_sample["row_misses"],
                    forced_precharges=dram_sample["forced_precharges"])
        return StreamMeasurement(
            words=pattern.words,
            dram_words=round(pattern.words * dram_fraction),
            startup_cycles=_STARTUP_CYCLES,
            rate_words_per_cycle=rate,
            controller_rate=self.controller_peak,
            per_channel_core_cycles=tuple(
                per_word * pattern.words
                for per_word in channel_cycles_per_word),
            dram_core_cycles=dram_cycles_per_word * pattern.words,
            ag_core_cycles=(pattern.words
                            / self.machine.ag_peak_words_per_cycle),
            controller_core_cycles=(pattern.words
                                    / self.controller_peak),
        )

    @property
    def controller_peak(self) -> float:
        """On-chip controller port capacity, words per core cycle."""
        return self.machine.mem_peak_words_per_cycle

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _steady_behaviour(self, pattern: AccessPattern
                          ) -> tuple[float, float, dict | None,
                                     tuple[float, ...], float]:
        key = pattern.signature() + (min(pattern.words, _SAMPLE_WORDS),)
        if key in self._rate_cache:
            return self._rate_cache[key]
        addresses = expand_pattern(pattern, max_words=_SAMPLE_WORDS)
        dram_addresses = self._filter_cache(pattern, addresses)
        dram_core_cycles = 0.0
        dram_sample: dict | None = None
        channel_cycles_per_word: tuple[float, ...] = ()
        if len(dram_addresses):
            stats = self.dram.service(dram_addresses)
            dram_core_cycles = stats.mem_cycles * self.machine.dram.clock_ratio
            dram_sample = {
                "row_hits": stats.row_hits,
                "row_misses": stats.row_misses,
                "forced_precharges": stats.forced_precharges,
                "per_channel_cycles": stats.per_channel_cycles,
            }
            # Sampled per-channel service time, normalised to core
            # cycles per stream word so measure() can scale it back up
            # to the full (possibly extrapolated) stream length.
            channel_cycles_per_word = tuple(
                float(cycles) * self.machine.dram.clock_ratio
                / len(addresses)
                for cycles in stats.per_channel_cycles)
        ag_cycles = len(addresses) / self.machine.ag_peak_words_per_cycle
        controller_cycles = len(addresses) / self.controller_peak
        cycles = max(dram_core_cycles, ag_cycles, controller_cycles)
        rate = len(addresses) / max(cycles, 1e-9)
        dram_fraction = len(dram_addresses) / len(addresses)
        result = (rate, dram_fraction, dram_sample,
                  channel_cycles_per_word,
                  dram_core_cycles / len(addresses))
        self._rate_cache[key] = result
        return result

    def _filter_cache(self, pattern: AccessPattern,
                      addresses: np.ndarray) -> np.ndarray:
        """Drop accesses the controller's on-chip cache captures.

        Only indexed (gather/scatter) traffic is cached; sequential
        stream traffic bypasses the structure, as on the real chip.
        The cache is LRU over ``controller_cache_words`` words, which
        makes it exact by stack distance: an access hits iff its
        address was accessed before and fewer than the capacity
        *distinct* other addresses were accessed since.  One stable
        argsort finds each access's previous occurrence; a gap shorter
        than the capacity is a hit without counting, and only longer
        gaps count their distinct addresses (accesses in the gap whose
        own previous occurrence precedes it).
        """
        if pattern.kind != "indexed":
            return addresses
        capacity = self.machine.dram.controller_cache_words
        n = len(addresses)
        order = np.argsort(addresses, kind="stable")
        repeat = addresses[order[1:]] == addresses[order[:-1]]
        prev = np.full(n, -1, dtype=np.int64)
        prev[order[1:][repeat]] = order[:-1][repeat]
        gap = np.arange(n) - prev - 1
        hit = (prev >= 0) & (gap < capacity)
        for i in np.flatnonzero((prev >= 0) & (gap >= capacity)).tolist():
            p = prev[i]
            hit[i] = np.count_nonzero(prev[p + 1:i] < p) < capacity
        return addresses[~hit]


@dataclass
class _ActiveStream:
    measurement: StreamMeasurement
    remaining_words: float
    startup_remaining: float


class SharedMemoryServer:
    """Processor-sharing service model for concurrently active streams.

    Each active stream has an isolated steady rate; when several run,
    DRAM-bound traffic is scaled down to fit the shared data bus
    (with a bank-conflict factor) and all traffic is scaled to fit the
    controller port.  The event-driven processor advances this model
    between events.
    """

    def __init__(self, memory: MemorySystem) -> None:
        self.memory = memory
        self._streams: dict[int, _ActiveStream] = {}

    def start(self, ident: int, measurement: StreamMeasurement) -> None:
        if ident in self._streams:
            raise ValueError(f"stream {ident} already active")
        self._streams[ident] = _ActiveStream(
            measurement, float(measurement.words),
            float(measurement.startup_cycles))

    def active(self) -> list[int]:
        return list(self._streams)

    def current_rates(self) -> dict[int, float]:
        """Words per core cycle per active stream, after sharing."""
        streams = self._streams
        if not streams:
            return {}
        dram_demand = 0.0
        controller_demand = 0.0
        for stream in streams.values():
            rate = stream.measurement.rate_words_per_cycle
            controller_demand += rate
            dram_demand += rate * stream.measurement.dram_fraction
        dram_capacity = self.memory.controller_peak
        dram_streams = sum(
            1 for s in streams.values()
            if s.measurement.dram_fraction > 0.5)
        if dram_streams >= 2:
            dram_capacity *= _BANK_CONFLICT_FACTOR
        scale = 1.0
        if dram_demand > dram_capacity:
            scale = min(scale, dram_capacity / dram_demand)
        if controller_demand > self.memory.controller_peak:
            scale = min(scale, self.memory.controller_peak
                        / controller_demand)
        return {ident: stream.measurement.rate_words_per_cycle * scale
                for ident, stream in streams.items()}

    def advance(self, cycles: float) -> list[int]:
        """Progress all streams by ``cycles``; return completed idents."""
        if cycles < 0:
            raise ValueError("cannot advance backwards")
        done = []
        rates = self.current_rates()
        for ident, stream in self._streams.items():
            remaining = cycles
            if stream.startup_remaining > 0:
                used = min(stream.startup_remaining, remaining)
                stream.startup_remaining -= used
                remaining -= used
            if remaining > 0 and stream.startup_remaining <= 0:
                stream.remaining_words -= rates[ident] * remaining
            if (stream.startup_remaining <= 0
                    and stream.remaining_words <= 1e-9):
                done.append(ident)
        for ident in done:
            del self._streams[ident]
        return done

    def next_completion_delta(self) -> float | None:
        """Cycles until the soonest stream completion, if any.

        Exact while the active set is unchanged (rates are constant
        between events); the event loop re-evaluates at every event.
        """
        rates = self.current_rates()
        best = None
        for ident, stream in self._streams.items():
            rate = rates[ident]
            if rate <= 0:
                continue
            delta = stream.startup_remaining + stream.remaining_words / rate
            if best is None or delta < best:
                best = delta
        return best
