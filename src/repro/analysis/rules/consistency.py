"""Analysis-vs-simulator consistency (CX###), AnICA-style.

The static model and the cycle simulator each predict what one kernel
invocation does -- operation counts, SRF traffic, busy cycles.  This
pass runs every kernel under test on both simulation backends (the
differential gate's processors, :func:`repro.engine.gate.processor`)
and cross-checks the simulator's
:class:`~repro.core.metrics.KernelInvocationRecord` against
predictions derived *only* from the compiled kernel.  A divergence
means one side is wrong -- exactly the class of bug differential
testing surfaces that neither side catches alone.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.passes import AnalysisContext, analysis_pass
from repro.core import SimulationError
from repro.core.config import BoardConfig
from repro.host.processor import HostError
from repro.isa.kernel_ir import FuClass
from repro.isa.stream_ops import StreamInstruction, StreamOpType
from repro.isa.vliw import CompiledKernel
from repro.streamc.compiler import StreamProgramImage

#: Main-loop iterations each probe invocation runs per cluster.
PROBE_ITERATIONS = 8


def probe_bundle(kernel: CompiledKernel, num_clusters: int):
    """A minimal runnable image: load microcode, invoke the kernel.

    The image is synthetic (no functional data, no memory traffic), so
    it exercises exactly the quantities the static model predicts.
    """
    from repro.apps.common import AppBundle

    elements = (kernel.elements_per_iteration * num_clusters
                * PROBE_ITERATIONS)
    instructions = [
        StreamInstruction(op=StreamOpType.MICROCODE_LOAD,
                          kernel=kernel.name,
                          words=kernel.microcode_words, index=0),
        StreamInstruction(op=StreamOpType.KERNEL, deps=[0],
                          kernel=kernel.name,
                          stream_elements=elements,
                          tag=kernel.name, index=1),
    ]
    image = StreamProgramImage(
        name=f"lint.{kernel.name}", instructions=instructions,
        kernels={kernel.name: kernel})
    return AppBundle(name=image.name, image=image), elements


#: Backends the probe is differentially replayed on.  The static
#: predictions are checked against the first (reference) backend; the
#: others must reproduce its invocation record exactly.
PROBE_BACKENDS = ("event", "vector")


@analysis_pass("consistency.simulator", "simulator")
def check_against_simulator(context: AnalysisContext
                            ) -> Iterator[Finding]:
    """Static per-invocation predictions vs simulated metrics."""
    from repro.engine.gate import processor

    kernel = context.kernel
    assert kernel is not None
    where = context.subject
    machine = context.machine

    bundle, elements = probe_bundle(kernel, machine.num_clusters)
    records_by_backend = {}
    for backend in PROBE_BACKENDS:
        try:
            result = processor(backend, bundle.kernels,
                               BoardConfig.hardware(),
                               machine).run(bundle.image)
        except (SimulationError, HostError) as error:
            yield Finding(
                "CX004", Severity.ERROR, where,
                f"probe simulation failed on the {backend} backend: "
                f"{type(error).__name__}: {error}",
                hint="the kernel cannot even run; fix the simulation "
                     "failure before trusting any static prediction")
            return
        records = result.metrics.kernel_invocations
        if len(records) != 1:
            yield Finding(
                "CX004", Severity.ERROR, where,
                f"probe expected exactly one kernel invocation, "
                f"{backend} backend recorded {len(records)}")
            return
        records_by_backend[backend] = records[0]

    # The differential gate itself: every backend must reproduce the
    # reference invocation record bit-for-bit, so a CX verdict holds
    # whichever backend the engine picks for a run.
    record = records_by_backend[PROBE_BACKENDS[0]]
    reference = vars(record)
    for backend in PROBE_BACKENDS[1:]:
        other = vars(records_by_backend[backend])
        diverged = sorted(field for field in reference
                          if reference[field] != other.get(field))
        if diverged:
            yield Finding(
                "CX005", Severity.ERROR, where,
                f"backend divergence on the probe: {backend} "
                f"disagrees with {PROBE_BACKENDS[0]} on "
                f"{', '.join(diverged)}",
                hint="the vector backend's contract is bit-identity; "
                     "run `repro gate` for the full "
                     "differential report",
                details={field: {"event": reference[field],
                                 backend: other.get(field)}
                         for field in diverged})

    iterations = kernel.iterations_for(elements, machine.num_clusters)
    factor = iterations * machine.num_clusters
    graph = kernel.graph
    counts = {
        "instructions": (kernel.instructions_per_iteration * factor,
                         record.instructions),
        "arith_ops": (kernel.arith_ops_per_iteration * factor,
                      record.arith_ops),
        "flops": (kernel.flops_per_iteration * factor, record.flops),
    }
    for name, (static, simulated) in counts.items():
        if static != simulated:
            yield Finding(
                "CX001", Severity.ERROR, where,
                f"analysis-vs-sim divergence on {name}: static model "
                f"predicts {static}, simulator measured {simulated}",
                details={"quantity": name, "static": static,
                         "simulated": simulated,
                         "iterations": iterations})

    traffic = {
        "srf_words": ((kernel.words_in_per_iteration
                       + kernel.words_out_per_iteration) * factor,
                      record.srf_words),
        "sp_accesses": (kernel.sp_accesses_per_iteration * factor,
                        record.sp_accesses),
        "comm_ops": (kernel.comm_ops_per_iteration * factor,
                     record.comm_ops),
        "dsq_ops": (graph.fu_count(FuClass.DSQ) * factor,
                    record.dsq_ops),
    }
    for name, (static, simulated) in traffic.items():
        if static != simulated:
            yield Finding(
                "CX002", Severity.ERROR, where,
                f"analysis-vs-sim divergence on {name}: static model "
                f"predicts {static}, simulator measured {simulated}",
                details={"quantity": name, "static": static,
                         "simulated": simulated})

    static_busy = (iterations * kernel.ii + kernel.prologue_cycles
                   + kernel.epilogue_cycles
                   + kernel.outer_overhead_cycles)
    if record.busy_cycles != static_busy:
        yield Finding(
            "CX003", Severity.ERROR, where,
            f"analysis-vs-sim divergence on busy cycles: "
            f"II={kernel.ii} over {iterations} iteration(s) plus "
            f"overheads predicts {static_busy}, simulator charged "
            f"{record.busy_cycles}",
            details={"static": static_busy,
                     "simulated": record.busy_cycles,
                     "ii": kernel.ii, "iterations": iterations})
