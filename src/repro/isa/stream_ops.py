"""Stream-level instruction set.

These are the instructions the host processor writes into the stream
controller's 32-slot scoreboard.  Table 4 of the paper histograms them
per application, so the taxonomy here follows the paper's columns
exactly: stream ops (kernel + restart, memory), register ops (SDR /
MAR / UCR writes, moves) and miscellaneous ops (microcode loads,
synchronization).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any


class StreamOpType(enum.Enum):
    """Stream-instruction categories, matching Table 4's columns."""

    KERNEL = "kernel"
    RESTART = "restart"
    MEM_LOAD = "mem_load"
    MEM_STORE = "mem_store"
    SDR_WRITE = "sdr_write"
    MAR_WRITE = "mar_write"
    UCR_WRITE = "ucr_write"
    MOVE = "move"
    MICROCODE_LOAD = "microcode_load"
    SYNC = "sync"
    HOST_READ = "host_read"

    @property
    def is_stream_op(self) -> bool:
        return self in (StreamOpType.KERNEL, StreamOpType.RESTART,
                        StreamOpType.MEM_LOAD, StreamOpType.MEM_STORE)

    @property
    def is_register_op(self) -> bool:
        return self in (StreamOpType.SDR_WRITE, StreamOpType.MAR_WRITE,
                        StreamOpType.UCR_WRITE, StreamOpType.MOVE)

    @property
    def is_memory(self) -> bool:
        return self in (StreamOpType.MEM_LOAD, StreamOpType.MEM_STORE)

    @property
    def is_kernel(self) -> bool:
        return self in (StreamOpType.KERNEL, StreamOpType.RESTART)

    @property
    def is_misc(self) -> bool:
        return self in (StreamOpType.MICROCODE_LOAD, StreamOpType.SYNC,
                        StreamOpType.HOST_READ)


#: Op values in declaration order; an op's position here is its code
#: in columnar traces (:class:`repro.core.processor.InstructionTrace`).
STREAM_OPS = tuple(op.value for op in StreamOpType)

_ids = itertools.count()


@dataclass
class StreamInstruction:
    """One stream instruction as dispatched to the scoreboard.

    Attributes
    ----------
    op:
        Instruction category.
    deps:
        Scoreboard dependencies (indices of earlier instructions in
        the program) encoded by the stream compiler.  The instruction
        may not begin execution until all of them have completed.
    kernel:
        Kernel name for KERNEL / RESTART / MICROCODE_LOAD.
    stream_elements:
        Length in elements for kernel ops; length in words for memory
        ops (an element may be several words; ``words`` carries that).
    words:
        Words transferred for memory ops / SRF traffic for kernels.
    pattern:
        Memory access pattern object (``repro.memsys.patterns``) for
        memory ops.
    sdr / mar / ucr:
        Descriptor-register indices touched by register ops.
    host_dependency:
        True when the *host* must read this instruction's result
        before issuing further instructions (serializes the host).
    tag:
        Free-form label used by reports.
    """

    op: StreamOpType
    deps: list[int] = field(default_factory=list)
    kernel: str | None = None
    stream_elements: int = 0
    words: int = 0
    pattern: Any = None
    sdr: int | None = None
    mar: int | None = None
    ucr: int | None = None
    host_dependency: bool = False
    tag: str = ""
    index: int = -1

    def __post_init__(self) -> None:
        if self.index < 0:
            self.index = next(_ids)


def histogram(instructions: list[StreamInstruction]) -> dict[str, int]:
    """Count instructions per Table-4 column.

    Returns a dict with the paper's columns: ``kernel`` (kernel +
    restart), ``memory``, ``sdr_write``, ``mar_write``, ``ucr_write``,
    ``move``, ``misc`` and ``total``.
    """
    counts = {
        "kernel": 0,
        "memory": 0,
        "sdr_write": 0,
        "mar_write": 0,
        "ucr_write": 0,
        "move": 0,
        "misc": 0,
    }
    for instr in instructions:
        if instr.op.is_kernel:
            counts["kernel"] += 1
        elif instr.op.is_memory:
            counts["memory"] += 1
        elif instr.op is StreamOpType.SDR_WRITE:
            counts["sdr_write"] += 1
        elif instr.op is StreamOpType.MAR_WRITE:
            counts["mar_write"] += 1
        elif instr.op is StreamOpType.UCR_WRITE:
            counts["ucr_write"] += 1
        elif instr.op is StreamOpType.MOVE:
            counts["move"] += 1
        else:
            counts["misc"] += 1
    counts["total"] = sum(counts.values())
    return counts
