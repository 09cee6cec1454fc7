"""Stream-length effect micro-benchmarks (Figures 7-10).

Two families:

* :func:`kernel_length_sweep` -- a synthetic kernel whose main loop
  sustains 4.8 GOPS (three adder ops per cycle) is issued
  back-to-back from the host while stream length, main-loop length
  (Fig. 7) and prologue length (Fig. 8) vary.  Short streams spend
  proportionally more time in the prologue, and below ~64 elements
  the host interface cannot even deliver the five stream
  instructions per invocation fast enough.
* :func:`memory_length_sweep` -- stream loads of the paper's six
  access patterns with one AG (Fig. 9, loads serialized) or two
  (Fig. 10, loads concurrent), bandwidth vs. stream length.

``backend`` is a session's backend mode
(:attr:`repro.engine.SessionConfig.backend`); the engine's rule picks
the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import BoardConfig, MachineConfig
from repro.engine.session import backend_for, processor
from repro.isa.kernel_ir import KernelBuilder
from repro.isa.stream_ops import StreamInstruction, StreamOpType
from repro.isa.vliw import CompiledKernel
from repro.memsys.patterns import AccessPattern, indexed, strided, unit_stride
from repro.streamc.program import KernelSpec, StreamProgram, same_words


def synthetic_kernel(name: str, main_loop_cycles: int,
                     prologue_cycles: int) -> KernelSpec:
    """A kernel with a prescribed II and prologue.

    The main loop issues three adder ops per cycle (4.8 GOPS across
    the machine); the prologue/epilogue lengths are set directly, as
    if hand-scheduled, which is exactly what the paper's synthetic
    micro-benchmark kernels were.
    """
    builder = KernelBuilder(name, elements_per_iteration=1)
    x = builder.stream_input("x")
    c = builder.param("c")
    last = x
    for i in range(3 * main_loop_cycles):
        last = builder.op("iadd", last if i % 7 == 0 else x, c,
                          name=f"op{i}")
    builder.stream_output("out", last)
    graph = builder.build()
    compiled = CompiledKernel(
        name=name,
        graph=graph,
        ii=main_loop_cycles,
        stages=1,
        schedule=[],
        prologue_cycles=prologue_cycles,
        epilogue_cycles=main_loop_cycles,
        outer_overhead_cycles=8,
        microcode_words=2 * main_loop_cycles + 16,
        regs_used={},
        lrf_reads_per_iteration=6 * main_loop_cycles,
        lrf_writes_per_iteration=3 * main_loop_cycles,
    )
    spec = KernelSpec(name, graph, lambda ins, p: [ins[0].copy()],
                      output_words=same_words)
    spec._compiled = compiled
    return spec


@dataclass(frozen=True)
class KernelSweepPoint:
    main_loop_cycles: int
    prologue_cycles: int
    stream_words: int
    gops: float


def kernel_length_sweep(main_loop_cycles: int, prologue_cycles: int,
                        stream_lengths: list[int],
                        invocations: int = 32,
                        machine: MachineConfig | None = None,
                        board: BoardConfig | None = None,
                        backend: str = "auto"
                        ) -> list[KernelSweepPoint]:
    """Average kernel GOPS vs. stream length for one configuration."""
    machine = machine or MachineConfig()
    board = board or BoardConfig.hardware()
    spec = synthetic_kernel(
        f"synth_m{main_loop_cycles}_p{prologue_cycles}",
        main_loop_cycles, prologue_cycles)
    points = []
    for length in stream_lengths:
        program = StreamProgram(f"sweep{length}", machine=machine)
        data = program.array("data", np.zeros(length))
        stream = program.load(data)
        for i in range(invocations):
            # Four scalar parameters per call: with the kernel itself,
            # five stream instructions per invocation, as the paper's
            # dev board required.
            program.kernel(spec, [stream],
                           params={"c": float(i), "c2": i, "c3": -i,
                                   "c4": i + 1})
        image = program.build()
        result = processor(backend_for(backend), machine=machine,
                           board=board, kernels=image.kernels).run(image)
        points.append(KernelSweepPoint(
            main_loop_cycles, prologue_cycles, length,
            result.metrics.gops))
    return points


def ideal_kernel_gops(machine: MachineConfig | None = None) -> float:
    """The Fig. 7/8 "ideal BW" asymptote: all time in the main loop."""
    machine = machine or MachineConfig()
    return 3 * machine.num_clusters * machine.clock_hz / 1e9


# ----------------------------------------------------------------------
# Memory sweeps.
# ----------------------------------------------------------------------

#: The paper's six access patterns, as pattern factories over length.
MEMORY_PATTERNS: dict[str, callable] = {
    "record 1, stride 1": lambda n, s: unit_stride(n),
    "record 1, stride 2": lambda n, s: strided(n, 2),
    "record 4, stride 12": lambda n, s: strided(n, 12, 4),
    "idx range 16": lambda n, s: indexed(n, 16, seed=s),
    "idx range 2K": lambda n, s: indexed(n, 2048, seed=s),
    "idx range 4M": lambda n, s: indexed(n, 4 * 1024 * 1024, seed=s),
}


@dataclass(frozen=True)
class MemorySweepPoint:
    pattern: str
    stream_words: int
    gbytes_per_sec: float


def memory_length_sweep(stream_lengths: list[int], address_generators: int,
                        loads_per_point: int = 12,
                        machine: MachineConfig | None = None,
                        board: BoardConfig | None = None,
                        backend: str = "auto"
                        ) -> list[MemorySweepPoint]:
    """Figures 9 (one AG) and 10 (two AGs)."""
    if address_generators not in (1, 2):
        raise ValueError("Imagine has two address generators")
    machine = machine or MachineConfig()
    board = board or BoardConfig.hardware()
    points = []
    for name, factory in MEMORY_PATTERNS.items():
        for length in stream_lengths:
            instructions = []
            previous = None
            for i in range(loads_per_point):
                # Descriptor writes model the paper's per-load host
                # instruction cost.
                sdr = StreamInstruction(StreamOpType.SDR_WRITE, sdr=i % 32,
                                        index=len(instructions))
                instructions.append(sdr)
                mar = StreamInstruction(StreamOpType.MAR_WRITE, mar=i % 8,
                                        index=len(instructions))
                instructions.append(mar)
                deps = [sdr.index, mar.index]
                if address_generators == 1 and previous is not None:
                    deps.append(previous)
                load = StreamInstruction(
                    StreamOpType.MEM_LOAD, deps=deps,
                    pattern=factory(length, i), words=length,
                    index=len(instructions), tag=name)
                instructions.append(load)
                previous = load.index
            result = processor(backend_for(backend), machine=machine,
                               board=board).run(instructions,
                                                name=f"mem_{length}")
            points.append(MemorySweepPoint(
                name, length, result.metrics.mem_gbytes))
    return points


def host_interface_bandwidth_limit(
        length_words: int, machine: MachineConfig | None = None,
        board: BoardConfig | None = None) -> float:
    """The Fig. 9/10 "HI limit" line: three instructions per load."""
    machine = machine or MachineConfig()
    board = board or BoardConfig.hardware()
    loads_per_second = board.host_mips * 1e6 / 3.0
    return (loads_per_second * length_words * machine.word_bytes
            / 1e9)
