"""Kernel- and application-level run-time breakdowns.

* :func:`kernel_breakdown` reproduces Figure 6: for one kernel at a
  given stream length, how run time divides into the operations
  floor, main-loop overhead (ILP limits and FU-type load imbalance),
  non-main-loop cycles (prologue/epilogue/outer blocks), and cluster
  stalls (SRF readiness).
* :func:`measure_kernel` reproduces a Table-2 row: sustained
  arithmetic rate, LRF and SRF bandwidth, IPC and power, all derived
  from the kernel's compiled schedule at an application-typical
  stream length.

Figure 11's application breakdown is the profile's ``figure11`` block
(:func:`repro.obs.profile.build_profile`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import MachineConfig, RunResult
from repro.core.metrics import CycleCategory
from repro.core.power import EnergyConstants
from repro.core.srf import StreamRegisterFile
from repro.isa.kernel_ir import FuClass
from repro.streamc.program import KernelSpec

#: Average stream lengths (elements) observed during application
#: execution, used for Figure 6 / Table 2 as the paper specifies.
APPLICATION_STREAM_ELEMENTS: dict[str, int] = {
    "dct8x8": 2816,       # MPEG strip (words / 4 per iteration)
    "blocksearch": 1408,  # MPEG half-strip
    "rle": 2816,          # MPEG quantized coefficients
    "conv7x7": 160,       # DEPTH image row (packed pairs)
    "blocksad": 1408,     # MPEG residual strip
    "house": 1024,        # QRD panel columns
    "update2": 2048,      # QRD trailing blocks
    "gromacs": 1024,      # molecule-pair batch
}


def kernel_breakdown(spec: KernelSpec, stream_elements: int | None = None,
                     machine: MachineConfig | None = None
                     ) -> dict[str, float]:
    """Figure-6 fractions for one kernel invocation."""
    machine = machine or MachineConfig()
    elements = (stream_elements
                or APPLICATION_STREAM_ELEMENTS.get(spec.name, 1024))
    kernel = spec.compiled()
    timing = kernel.timing(elements, machine.num_clusters,
                           machine.cluster.fpus)
    srf = StreamRegisterFile(machine)
    stalls = srf.kernel_stall_cycles(kernel, timing.iterations)
    total = timing.busy_cycles + stalls
    return {
        "operations": timing.operations / total,
        "kernel main loop overhead": timing.main_loop_overhead / total,
        "kernel non-main loop overhead": timing.non_main_loop / total,
        "cluster stall": stalls / total,
    }


@dataclass(frozen=True)
class KernelRow:
    """One Table-2 row."""

    kernel: str
    rate: float
    rate_unit: str
    lrf_gbytes: float
    srf_gbytes: float
    ipc: float
    power_watts: float
    description: str


def measure_kernel(spec: KernelSpec, stream_elements: int | None = None,
                   machine: MachineConfig | None = None,
                   constants: EnergyConstants | None = None) -> KernelRow:
    """Table-2 metrics for one kernel at an app-typical length."""
    machine = machine or MachineConfig()
    constants = constants or EnergyConstants()
    elements = (stream_elements
                or APPLICATION_STREAM_ELEMENTS.get(spec.name, 1024))
    kernel = spec.compiled()
    timing = kernel.timing(elements, machine.num_clusters,
                           machine.cluster.fpus)
    srf = StreamRegisterFile(machine)
    stalls = srf.kernel_stall_cycles(kernel, timing.iterations)
    cycles = timing.busy_cycles + stalls
    scale = timing.iterations * machine.num_clusters

    flops = kernel.flops_per_iteration * scale
    ops = kernel.arith_ops_per_iteration * scale
    instructions = kernel.instructions_per_iteration * scale
    lrf_words = kernel.lrf_accesses_per_iteration * scale
    srf_words = (kernel.words_in_per_iteration
                 + kernel.words_out_per_iteration) * scale
    seconds = cycles / machine.clock_hz

    if flops >= ops * 0.9:
        rate, unit = flops / seconds / 1e9, "GFLOPS"
    else:
        rate, unit = ops / seconds / 1e9, "GOPS"

    pico = 1e-12
    dsq_ops = kernel.graph.fu_count(FuClass.DSQ) * scale
    int_ops = max(0, ops - flops)
    dynamic = (int_ops * constants.int_op + flops * constants.flop
               + dsq_ops * constants.dsq_op
               + lrf_words * constants.lrf_word
               + srf_words * constants.srf_word
               + kernel.comm_ops_per_iteration * scale * constants.comm_op
               + kernel.sp_accesses_per_iteration * scale
               * constants.sp_access
               + timing.busy_cycles * constants.vliw_issue_cycle) * pico
    watts = constants.idle_watts + dynamic / seconds

    return KernelRow(
        kernel=spec.name,
        rate=rate,
        rate_unit=unit,
        lrf_gbytes=machine.gbytes_per_sec(lrf_words, cycles),
        srf_gbytes=machine.gbytes_per_sec(srf_words, cycles),
        ipc=instructions / cycles,
        power_watts=watts,
        description=spec.description,
    )


def application_overhead(result: RunResult) -> float:
    """Non-kernel overhead fraction (the paper's <10% / >30% claim)."""
    fractions = result.metrics.cycle_fractions()
    return sum(fractions[c] for c in (
        CycleCategory.MICROCODE_LOAD_STALL,
        CycleCategory.MEMORY_STALL,
        CycleCategory.STREAM_CONTROLLER_OVERHEAD,
        CycleCategory.HOST_BANDWIDTH_STALL,
    ))
