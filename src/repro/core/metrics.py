"""Cycle, operation and bandwidth accounting.

Every cycle of a simulation ends up in exactly one
:class:`CycleCategory`; the eight categories are the legend of
Figure 11 (and Figure 14), and the first four also cover Figure 6's
kernel-level breakdown.  Operation/word counters feed Tables 1-5 and
Figures 12-13.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.config import MachineConfig
from repro.core.packing import PackedParts


class CycleCategory(enum.Enum):
    """Where a cluster cycle went, in the paper's taxonomy."""

    OPERATIONS = "operations"
    KERNEL_MAIN_LOOP_OVERHEAD = "kernel main loop overhead"
    KERNEL_NON_MAIN_LOOP = "kernel non main loop"
    CLUSTER_STALL = "cluster stalls"
    MICROCODE_LOAD_STALL = "microcode load stalls"
    MEMORY_STALL = "memory stalls"
    STREAM_CONTROLLER_OVERHEAD = "stream controller overhead"
    HOST_BANDWIDTH_STALL = "host bandwidth stalls"


#: Attribution priority for idle-cluster cycles, "earliest in the
#: list" wins when several overheads overlap (Section 4.2).
IDLE_PRIORITY = (
    CycleCategory.MICROCODE_LOAD_STALL,
    CycleCategory.MEMORY_STALL,
    CycleCategory.STREAM_CONTROLLER_OVERHEAD,
    CycleCategory.HOST_BANDWIDTH_STALL,
)

BUSY_CATEGORIES = (
    CycleCategory.OPERATIONS,
    CycleCategory.KERNEL_MAIN_LOOP_OVERHEAD,
    CycleCategory.KERNEL_NON_MAIN_LOOP,
    CycleCategory.CLUSTER_STALL,
)


@dataclass(frozen=True)
class KernelInvocationRecord:
    """Per-invocation facts, aggregated for Tables 2 and 5.

    Frozen: the vector backend hands one record to every run of the
    same kernel, machine and stream length in the process
    (:func:`repro.core.vector.compile_invocations`), so a change to one
    would reach every later run; derive a changed record with
    :func:`dataclasses.replace`.  ``fu_cycles`` is shared the same way
    and is read-only too.
    """

    kernel: str
    stream_elements: int
    busy_cycles: int
    stall_cycles: int
    arith_ops: int
    flops: int
    instructions: int
    srf_words: int
    lrf_words: int
    sp_accesses: int
    comm_ops: int
    dsq_ops: int = 0
    #: Occupancy detail: unit-busy cycles per FU class over the whole
    #: invocation (concurrent units overlap, so these do not tile the
    #: invocation's wall-clock cycles; see
    #: :meth:`repro.isa.vliw.CompiledKernel.fu_busy_per_iteration`).
    fu_cycles: dict[str, int] = field(default_factory=dict)


@dataclass
class Metrics(PackedParts):
    """Mutable counter set filled in by the simulator.

    :attr:`kernel_invocations` travels packed
    (:class:`~repro.core.packing.PackedParts`): unpickled metrics
    decode it on its first read (Table 5's averages, the power and
    timeline views, a fresh profile), which a cache hit's reports
    never make.
    """

    _packed_parts = ("kernel_invocations",)

    machine: MachineConfig
    cycles: dict[CycleCategory, float] = field(
        default_factory=lambda: defaultdict(float))
    total_cycles: float = 0.0
    arith_ops: float = 0.0
    flops: float = 0.0
    instructions: float = 0.0
    comm_ops: float = 0.0
    sp_accesses: float = 0.0
    dsq_ops: float = 0.0
    lrf_words: float = 0.0
    srf_words: float = 0.0
    mem_words: float = 0.0
    host_instructions: int = 0
    kernel_invocations: list[KernelInvocationRecord] = field(
        default_factory=list)
    sdr_writes: int = 0
    sdr_references: int = 0
    memory_stream_words: list[int] = field(default_factory=list)
    #: Idle-cycle attribution detail: blocking instruction tag -> cycles.
    idle_blame: dict[str, float] = field(default_factory=dict)
    #: Per-AG lane busy time (cycles a memory stream held the lane),
    #: recorded at stream completion in the event loop.
    ag_busy_cycles: dict[int, float] = field(default_factory=dict)
    #: Per-DRAM-channel busy time in core cycles, from the memory
    #: system's per-channel service measurement.
    dram_channel_busy: dict[int, float] = field(default_factory=dict)
    #: Core cycles the host interface spent transferring stream
    #: instructions (issue_cycles per delivered instruction).
    host_busy_cycles: float = 0.0
    #: Core cycles the microcode loader spent transferring kernels
    #: into the micro-controller store (explicit MICROCODE_LOAD
    #: instructions plus inline safety-net loads).
    microcode_loader_busy_cycles: float = 0.0
    #: Completions the host was blocked on (each costs one
    #: host round trip before the next issue).
    host_round_trips: int = 0

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def add_cycles(self, category: CycleCategory, cycles: float) -> None:
        if cycles < 0:
            raise ValueError(f"negative cycle count for {category}")
        self.cycles[category] += cycles

    def record_invocation(self, record: KernelInvocationRecord) -> None:
        self.kernel_invocations.append(record)
        self.arith_ops += record.arith_ops
        self.flops += record.flops
        self.instructions += record.instructions
        self.comm_ops += record.comm_ops
        self.sp_accesses += record.sp_accesses
        self.dsq_ops += record.dsq_ops
        self.lrf_words += record.lrf_words
        self.srf_words += record.srf_words

    # ------------------------------------------------------------------
    # Derived results.
    # ------------------------------------------------------------------
    @property
    def seconds(self) -> float:
        return self.total_cycles / self.machine.clock_hz

    @property
    def gops(self) -> float:
        return self.arith_ops / max(self.seconds, 1e-30) / 1e9

    @property
    def gflops(self) -> float:
        return self.flops / max(self.seconds, 1e-30) / 1e9

    @property
    def ipc(self) -> float:
        return self.instructions / max(self.total_cycles, 1e-30)

    @property
    def lrf_gbytes(self) -> float:
        return self.machine.gbytes_per_sec(self.lrf_words, self.total_cycles)

    @property
    def srf_gbytes(self) -> float:
        return self.machine.gbytes_per_sec(self.srf_words, self.total_cycles)

    @property
    def mem_gbytes(self) -> float:
        return self.machine.gbytes_per_sec(self.mem_words, self.total_cycles)

    @property
    def host_mips(self) -> float:
        return self.host_instructions / max(self.seconds, 1e-30) / 1e6

    def cycle_fractions(self) -> dict[CycleCategory, float]:
        """Figure 11 rows: fraction of execution time per category."""
        total = max(self.total_cycles, 1e-30)
        return {cat: self.cycles.get(cat, 0.0) / total
                for cat in CycleCategory}

    def attributed_fractions(self) -> dict[CycleCategory, float]:
        """Per-category fractions of *attributed* cycles.

        Normalised over the attributed sum rather than
        ``total_cycles``, so the fractions sum to exactly 1.0 even in
        the presence of sub-tolerance accounting residue -- the form
        machine-readable reports emit.
        """
        attributed = max(sum(self.cycles.values()), 1e-30)
        return {cat: self.cycles.get(cat, 0.0) / attributed
                for cat in CycleCategory}

    def check_conservation(self, tolerance: float = 1e-6) -> None:
        """All cycles must be attributed exactly once."""
        attributed = sum(self.cycles.values())
        if abs(attributed - self.total_cycles) > tolerance * max(
                1.0, self.total_cycles):
            raise AssertionError(
                f"cycle accounting leak: attributed {attributed} of "
                f"{self.total_cycles}")

    # ------------------------------------------------------------------
    # Table 5 aggregates.
    # ------------------------------------------------------------------
    @property
    def average_kernel_duration(self) -> float:
        records = self.kernel_invocations
        if not records:
            return 0.0
        return sum(r.busy_cycles + r.stall_cycles
                   for r in records) / len(records)

    @property
    def average_kernel_stream_length(self) -> float:
        records = self.kernel_invocations
        if not records:
            return 0.0
        return sum(r.stream_elements for r in records) / len(records)

    @property
    def average_memory_stream_length(self) -> float:
        if not self.memory_stream_words:
            return 0.0
        return sum(self.memory_stream_words) / len(self.memory_stream_words)

    @property
    def sdr_reuse(self) -> float:
        if self.sdr_writes == 0:
            return 0.0
        return self.sdr_references / self.sdr_writes
