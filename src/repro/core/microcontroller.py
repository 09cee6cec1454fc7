"""Micro-controller and microcode store.

The micro-controller fetches and issues kernel VLIW instructions from a
2K-word on-chip microcode store.  Applications whose kernels exceed the
store trigger dynamic loads from Imagine memory (the paper cites a
< 6% degradation when loads overlap kernel execution); the stream
compiler emits explicit ``MICROCODE_LOAD`` instructions and this module
tracks residency with LRU eviction and prices each load.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.config import MachineConfig
from repro.obs.tracer import NULL_TRACER, TRACK_MICRO, Tracer


class MicrocodeStoreError(Exception):
    """Raised when a single kernel exceeds the whole store."""


class Microcontroller:
    """Residency tracking for kernel microcode (LRU) plus UCRs."""

    def __init__(self, machine: MachineConfig,
                 tracer: Tracer = NULL_TRACER) -> None:
        self.machine = machine
        self.tracer = tracer
        self.capacity_words = machine.microcode_store_words
        self._resident: OrderedDict[str, int] = OrderedDict()
        self.ucr: dict[int, float] = {}
        self.loads = 0
        self.evictions = 0
        self.invalidations = 0

    def is_resident(self, kernel: str) -> bool:
        return kernel in self._resident

    def resident_words(self) -> int:
        return sum(self._resident.values())

    def touch(self, kernel: str) -> None:
        """Mark ``kernel`` most-recently used (kernel issue)."""
        if kernel in self._resident:
            self._resident.move_to_end(kernel)

    def invalidate(self, kernel: str) -> bool:
        """Drop ``kernel`` from the store (microcode corruption).

        Returns True when the kernel was resident; the next issue of
        the kernel then pays a full reload, the response the real
        machine would need after a store parity error.
        """
        if kernel not in self._resident:
            return False
        del self._resident[kernel]
        self.invalidations += 1
        if self.tracer.enabled:
            self.tracer.instant(TRACK_MICRO, f"invalidate {kernel}")
        return True

    def load(self, kernel: str, words: int) -> float:
        """Load microcode; return the load's duration in core cycles."""
        if words > self.capacity_words:
            raise MicrocodeStoreError(
                f"kernel {kernel!r} needs {words} microcode words; the "
                f"store holds {self.capacity_words}")
        if kernel in self._resident:
            self._resident.move_to_end(kernel)
            return 0.0
        while self.resident_words() + words > self.capacity_words:
            evicted, evicted_words = self._resident.popitem(last=False)
            self.evictions += 1
            if self.tracer.enabled:
                self.tracer.instant(TRACK_MICRO, f"evict {evicted}",
                                    words=evicted_words)
        self._resident[kernel] = words
        self.loads += 1
        duration = words * self.machine.microcode_load_cycles_per_word
        if self.tracer.enabled:
            self.tracer.span(TRACK_MICRO, f"load {kernel}",
                             self.tracer.clock,
                             self.tracer.clock + duration,
                             words=words,
                             store_words=self.resident_words())
        return duration
