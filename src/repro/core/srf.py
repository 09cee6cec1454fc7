"""Stream register file (SRF) model.

The SRF is Imagine's 128 KB on-chip stream store and the nexus of all
stream instructions.  Two behaviours matter for the paper's numbers:

* **Capacity / allocation** -- the stream compiler places every live
  stream in the SRF; this class provides the allocator it uses and
  enforces that no two live streams overlap (a property test target).
* **Cluster stalls** -- "cluster stalls occur during kernel startup
  periods when SRF streams have not been initialized and during
  kernels which have bursty SRF bandwidth requirements" (Section 3.2).
  :meth:`kernel_stall_cycles` charges a fixed buffer-priming stall at
  kernel start plus a throughput throttle whenever a kernel's
  steady-state SRF demand exceeds its per-cluster share of SRF
  bandwidth.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass

from repro.core.config import MachineConfig
from repro.isa.vliw import CompiledKernel


class SrfAllocationError(Exception):
    """Raised when live streams exceed SRF capacity."""


@dataclass(frozen=True)
class SrfRegion:
    """An allocated byte range in the SRF, in words."""

    name: str
    start: int
    words: int

    @property
    def end(self) -> int:
        return self.start + self.words


class StreamRegisterFile:
    """Pooling SRF allocator plus the kernel stall model.

    Freed regions are kept in per-size pools and reused
    last-in-first-out, so streaming pipelines settle into stable
    double-buffer offsets -- which is what lets stream descriptor
    registers be reused hundreds of times per write (Section 5.3's
    DEPTH analysis).  Pools are cannibalised oldest-first when a new
    size needs the space.
    """

    def __init__(self, machine: MachineConfig,
                 rotation_depth: int = 4) -> None:
        self.machine = machine
        self.capacity_words = machine.srf_words
        #: Freed regions of a size are only reused once this many are
        #: pooled, so buffers rotate several pipeline stages deep and
        #: the write-after-read dependency on a reused region reaches
        #: back far enough for loads to run under kernel execution.
        self.rotation_depth = rotation_depth
        self._regions: dict[str, SrfRegion] = {}
        self._pooled: list[SrfRegion] = []
        #: Pooled regions per size, so the rotation check is a lookup.
        self._pooled_sizes: Counter[int] = Counter()
        #: Sorted, disjoint ``(start, end)`` of every live and pooled
        #: region.  A region keeps its span from first-fit placement
        #: until its pool entry is cannibalised; freeing it or reusing
        #: it from the pool leaves the occupancy unchanged.
        self._occupied: list[tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Allocation.
    # ------------------------------------------------------------------
    def allocate(self, name: str, words: int) -> SrfRegion:
        if words <= 0:
            raise ValueError(f"stream {name!r} must occupy at least 1 word")
        if name in self._regions:
            raise SrfAllocationError(f"stream {name!r} already allocated")
        start = None
        if self._pooled_sizes[words] >= self.rotation_depth:
            start = self._pop_pool(words)
        if start is None:
            start = self._first_fit(words)
        if start is None:
            start = self._pop_pool(words)
        while start is None and self._pooled:
            oldest = self._pooled.pop(0)
            self._pooled_sizes[oldest.words] -= 1
            del self._occupied[bisect_left(
                self._occupied, (oldest.start, oldest.end))]
            start = self._first_fit(words)
        if start is None:
            raise SrfAllocationError(
                f"SRF full: cannot place {words} words for {name!r} "
                f"(live: {sorted(self._regions)})")
        region = SrfRegion(name, start, words)
        self._regions[name] = region
        return region

    def free(self, name: str) -> None:
        if name not in self._regions:
            raise KeyError(f"stream {name!r} is not allocated")
        region = self._regions.pop(name)
        self._pooled.append(region)
        self._pooled_sizes[region.words] += 1

    def live_words(self) -> int:
        return sum(r.words for r in self._regions.values())

    def regions(self) -> list[SrfRegion]:
        return sorted(self._regions.values(), key=lambda r: r.start)

    def _pop_pool(self, words: int) -> int | None:
        # Oldest matching region first: its last consumer retired the
        # longest ago, so the write-after-read dependency the stream
        # compiler encodes on the region is the least constraining --
        # this is what makes loads run ahead under kernel execution.
        for i, region in enumerate(self._pooled):
            if region.words == words:
                self._pooled_sizes[words] -= 1
                return self._pooled.pop(i).start
        return None

    def _first_fit(self, words: int) -> int | None:
        """Lowest gap of ``words`` free words; claims it if found."""
        cursor = 0
        for start, end in self._occupied:
            if start - cursor >= words:
                break
            cursor = end
        else:
            if self.capacity_words - cursor < words:
                return None
        insort(self._occupied, (cursor, cursor + words))
        return cursor

    def check_no_overlap(self) -> None:
        regions = self.regions()
        for first, second in zip(regions, regions[1:]):
            if first.end > second.start:
                raise SrfAllocationError(
                    f"SRF overlap: {first} and {second}")

    # ------------------------------------------------------------------
    # Stall model.
    # ------------------------------------------------------------------
    def kernel_stall_cycles(self, kernel: CompiledKernel,
                            iterations: int) -> int:
        """Cluster-stall cycles for one invocation of ``kernel``."""
        machine = self.machine
        prime = machine.srf_prime_cycles
        share = (machine.srf_peak_words_per_cycle
                 / machine.num_clusters)
        words_per_iteration = (kernel.words_in_per_iteration
                               + kernel.words_out_per_iteration)
        if words_per_iteration <= 0:
            return 0
        demand_cycles = words_per_iteration / share
        throttle = max(0.0, demand_cycles - kernel.ii)
        return int(round(prime + throttle * iterations))
