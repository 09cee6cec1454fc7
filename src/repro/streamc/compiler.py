"""Compiled stream-program image.

The output of the stream compiler: the ordered stream-instruction
sequence with encoded dependencies, the compiled kernels it references,
the program's functional outputs (computed when first read), and the
descriptor-file statistics Table 4 reports.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.isa.stream_ops import StreamInstruction, histogram
from repro.isa.vliw import CompiledKernel


@dataclass(frozen=True)
class ArrayExtent:
    """Static bounds of one memory array: ``[base, base + words)``."""

    name: str
    base: int
    words: int

    @property
    def end(self) -> int:
        return self.base + self.words


@dataclass(frozen=True)
class SrfAllocationRecord:
    """One SRF placement decision made by the stream compiler.

    The word range ``[start, start + words)`` holds stream ``stream``
    from the emission of instruction ``allocated_at`` until the
    completion of instruction ``freed_at`` releases it (``None`` when
    the stream lives to the end of the program).  The static verifier
    checks that no two records overlap in both words and lifetime
    (rule SP006) and that every record fits the SRF (SP005).
    """

    stream: str
    start: int
    words: int
    allocated_at: int
    freed_at: int | None = None

    @property
    def end(self) -> int:
        return self.start + self.words

    def overlaps(self, other: "SrfAllocationRecord") -> bool:
        """Words AND lifetimes intersect (an illegal double booking)."""
        if self.start >= other.end or other.start >= self.end:
            return False
        self_freed = (self.freed_at if self.freed_at is not None
                      else float("inf"))
        other_freed = (other.freed_at if other.freed_at is not None
                       else float("inf"))
        return (self.allocated_at < other_freed
                and other.allocated_at < self_freed)


@dataclass
class StreamProgramImage:
    """Everything ``StreamProgram.build()`` produces."""

    name: str
    instructions: list[StreamInstruction]
    kernels: dict[str, CompiledKernel]
    #: Memory array name -> contents after the program ran.  A built
    #: image computes them on the first read; the engine never reads
    #: them.
    outputs: Mapping[str, np.ndarray] = field(default_factory=dict)
    sdr_writes: int = 0
    sdr_references: int = 0
    mar_writes: int = 0
    mar_references: int = 0
    ucr_writes: int = 0
    #: Data-independent control flow: nothing read data while the
    #: program was written, so the engine holds the built image per
    #: shape and plays it back for every data seed.
    playback: bool = True
    #: Static metadata for the verifier (``repro.analysis``): memory
    #: array bounds and the compiler's SRF placement decisions.
    #: Images built by hand carry empty lists, and the corresponding
    #: passes skip them.
    arrays: list[ArrayExtent] = field(default_factory=list)
    srf_allocations: list[SrfAllocationRecord] = field(
        default_factory=list)

    def __len__(self) -> int:
        return len(self.instructions)

    def histogram(self) -> dict[str, int]:
        """Table 4 columns for this program."""
        return histogram(self.instructions)

    @property
    def sdr_reuse(self) -> float:
        if self.sdr_writes == 0:
            return 0.0
        return self.sdr_references / self.sdr_writes

    def validate(self) -> None:
        """Structural invariants: deps point backwards and exist."""
        for position, instr in enumerate(self.instructions):
            if instr.index != position:
                raise AssertionError(
                    f"{self.name}: instruction {position} mis-indexed "
                    f"as {instr.index}")
            for dep in instr.deps:
                if not 0 <= dep < position:
                    raise AssertionError(
                        f"{self.name}: instruction {position} depends "
                        f"on {dep} (not strictly earlier)")
            if instr.op.is_kernel and instr.kernel not in self.kernels:
                raise AssertionError(
                    f"{self.name}: unknown kernel {instr.kernel!r}")
