"""Table-1 micro-benchmarks: peak performance of each component.

Six tests, one per row of Table 1:

* ``cluster_ops``    -- packed 8/16-bit arithmetic saturating all FPUs
  (plus the divide/square-root unit every 16 cycles);
* ``cluster_flops``  -- float adds/multiplies saturating the FPUs;
* ``inter_cluster``  -- the bitonic 32-sort, one COMM op per cluster
  per cycle;
* ``srf_bandwidth``  -- stream copy keeping both SRF ports busy;
* ``memory_bandwidth`` -- two concurrent indexed loads over a small
  range (captured by the controller cache, so the on-chip path is the
  limit);
* ``host_interface`` -- back-to-back register-write stream
  instructions.

Each runs as a real stream program on the full simulator, so achieved
numbers include prologue, stream-setup and host effects, exactly like
the lab measurements (e.g. 7.96 of 8.13 GFLOPS).  ``backend`` is a
session's backend mode (:attr:`repro.engine.SessionConfig.backend`);
the engine's rule picks the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import BoardConfig, MachineConfig
from repro.engine.session import backend_for, processor
from repro.isa.kernel_ir import KernelBuilder
from repro.kernels.copy import SRFCOPY
from repro.kernels.sort import SORT32
from repro.memsys.patterns import indexed
from repro.streamc.program import KernelSpec, StreamProgram, same_words


@dataclass(frozen=True)
class MicrobenchResult:
    """One Table-1 row."""

    component: str
    achieved: float
    theoretical: float
    unit: str
    power_watts: float

    @property
    def efficiency(self) -> float:
        if self.theoretical <= 0:
            return 0.0
        return self.achieved / self.theoretical


def _identity_apply(inputs, params):
    return [inputs[0].copy()]


def _peak_kernel(name: str, float_ops: bool) -> KernelSpec:
    """A 16-cycle-II kernel saturating every FPU slot.

    48 adder ops + 32 multiplier ops + 1 DSQ op per 16 cycles keeps
    3 adders + 2 multipliers fully busy and the unpipelined DSQ unit
    issuing once per 16 cycles -- the theoretical peak mix.
    """
    builder = KernelBuilder(name, elements_per_iteration=1)
    x = builder.stream_input("x")
    operand = builder.param("c")
    add_op = "fadd" if float_ops else "padd8"
    mul_op = "fmul" if float_ops else "pmul16"
    # Chain every op so none is dead; there is no loop-carried cycle,
    # so the II stays at the 16-cycle resource bound.
    last = x
    for i in range(48):
        last = builder.op(add_op, last, operand, name=f"a{i}")
    last = builder.op("frsq", last, name="dsq_lane")
    for i in range(32):
        last = builder.op(mul_op, last, operand, name=f"m{i}")
    builder.stream_output("out", last)
    return KernelSpec(name, builder.build(), _identity_apply,
                      output_words=same_words)


def _run_kernel_bench(spec: KernelSpec, stream_words: int,
                      invocations: int,
                      machine: MachineConfig,
                      board: BoardConfig, backend: str):
    program = StreamProgram(f"bench_{spec.name}", machine=machine)
    data = program.array("data", np.arange(stream_words, dtype=float))
    stream = program.load(data)
    for i in range(invocations):
        stream = program.kernel(spec, [stream],
                                params={"c": 1.0})[0]
    image = program.build()
    return processor(backend_for(backend), machine=machine, board=board,
                     kernels=image.kernels).run(image)


def bench_cluster_ops(machine: MachineConfig,
                      board: BoardConfig,
                      backend: str = "auto") -> MicrobenchResult:
    spec = _peak_kernel("ipeak", float_ops=False)
    result = _run_kernel_bench(spec, 8192, 48, machine, board, backend)
    return MicrobenchResult(
        "Cluster (OPS)", result.metrics.gops, machine.peak_gops,
        "GOPS", result.power.watts)


def bench_cluster_flops(machine: MachineConfig,
                        board: BoardConfig,
                        backend: str = "auto") -> MicrobenchResult:
    spec = _peak_kernel("fpeak", float_ops=True)
    result = _run_kernel_bench(spec, 8192, 48, machine, board, backend)
    return MicrobenchResult(
        "Cluster (FLOPS)", result.metrics.gflops, machine.peak_gflops,
        "GFLOPS", result.power.watts)


def bench_inter_cluster(machine: MachineConfig,
                        board: BoardConfig,
                        backend: str = "auto") -> MicrobenchResult:
    result = _run_kernel_bench(SORT32, 8192, 48, machine, board, backend)
    comm_rate = (result.metrics.comm_ops
                 / max(result.metrics.total_cycles, 1e-9))
    return MicrobenchResult(
        "Inter-cluster comm.", comm_rate,
        float(machine.peak_comm_ops_per_cycle), "ops/cycle",
        result.power.watts)


def bench_srf(machine: MachineConfig,
              board: BoardConfig,
              backend: str = "auto") -> MicrobenchResult:
    program = StreamProgram("bench_srf", machine=machine)
    data = program.array("data", np.arange(12288, dtype=float))
    a = program.load(data, words=6144)
    b = program.load(data, start=6144, words=6144)
    for _ in range(64):
        a, b = program.kernel(SRFCOPY, [a, b])
    image = program.build()
    result = processor(backend_for(backend), machine=machine, board=board,
                       kernels=image.kernels).run(image)
    return MicrobenchResult(
        "SRF", result.metrics.srf_gbytes, machine.srf_peak_gbytes,
        "GB/s", result.power.watts)


def bench_memory(machine: MachineConfig,
                 board: BoardConfig,
                 backend: str = "auto") -> MicrobenchResult:
    program = StreamProgram("bench_mem", machine=machine)
    data = program.array("data", np.zeros(4096))
    for i in range(20):
        pattern = indexed(8192, 16, seed=i)
        program.load(data, pattern=pattern, name=f"idx{i}")
    image = program.build()
    result = processor(backend_for(backend), machine=machine, board=board,
                       kernels=image.kernels).run(image)
    return MicrobenchResult(
        "MEM", result.metrics.mem_gbytes, machine.mem_peak_gbytes,
        "GB/s", result.power.watts)


def bench_host(machine: MachineConfig,
               board: BoardConfig,
               backend: str = "auto") -> MicrobenchResult:
    from repro.isa.stream_ops import StreamInstruction, StreamOpType

    instructions = [
        StreamInstruction(StreamOpType.UCR_WRITE, ucr=i % 8, index=i,
                          tag="hostbench")
        for i in range(512)
    ]
    result = processor(backend_for(backend), machine=machine,
                       board=board).run(instructions, name="bench_host")
    return MicrobenchResult(
        "Host interface", result.metrics.host_mips,
        board.host_peak_mips, "MIPS", result.power.watts)


def run_all_microbenchmarks(machine: MachineConfig | None = None,
                            board: BoardConfig | None = None,
                            backend: str = "auto"
                            ) -> list[MicrobenchResult]:
    """All six Table-1 rows, in the paper's order."""
    machine = machine or MachineConfig()
    board = board or BoardConfig.hardware()
    return [
        bench_cluster_ops(machine, board, backend),
        bench_cluster_flops(machine, board, backend),
        bench_inter_cluster(machine, board, backend),
        bench_srf(machine, board, backend),
        bench_memory(machine, board, backend),
        bench_host(machine, board, backend),
    ]
