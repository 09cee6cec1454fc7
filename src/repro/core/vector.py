"""Compiled/vectorized simulation backend (``backend="vector"``).

The event-driven reference model (:mod:`repro.core.processor`) spends
most of its wall clock re-deriving facts that are static per program:
every kernel invocation re-walks the VLIW schedule arithmetic, every
memory stream re-measures its access pattern, and every scheduling
decision re-scans scoreboard dependency lists.  But the modulo
schedules are static -- a kernel's steady-state cost over ``E``
elements is a pure function of the compiled schedule and the machine
constants -- so this backend *compiles* the program first:

* every distinct ``(kernel, stream_elements)`` demand in the program
  is evaluated in one batched NumPy pass per kernel
  (:func:`compile_invocations`): iterations, the Figure-6 operations
  floor, main-loop overhead and the SRF stall model are computed as
  strided int64/float64 array expressions over all stream lengths at
  once, then materialised into the same
  :class:`~repro.core.cluster.InvocationResult` records the cluster
  model produces;
* memory streams are measured once per ``(pattern signature, words)``
  and replayed from the table; both tables are additionally memoized
  process-wide (keyed by the frozen machine/board configuration), so
  repeated runs skip the static analysis entirely -- compiling once
  is the point of a compiled backend;
* the transition machinery -- host issue, scoreboard residency,
  stream-controller issue windows, shared-memory advancement,
  microcode residency -- still runs event-driven, but over countdown
  dependency counters and per-resource ready heaps instead of
  per-event dependency scans.

The contract is strict: for fault-free, untraced programs the backend
produces **bit-identical** results to ``ImagineProcessor`` -- the same
:class:`~repro.core.metrics.Metrics` (floats accumulated in the same
order), the same trace, the same event DAG, and therefore byte-equal
profile/critpath/evaluation artifacts.  ``repro gate``
enforces this on the full app matrix plus a fuzzed streamc corpus.

Faults and tracing are inherently per-event and stay on the reference
path: constructing this class with an injector or an enabled tracer
raises :class:`BackendUnsupported`, and ``backend="auto"`` falls back
to the event backend for such runs.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from dataclasses import replace
from heapq import heappop, heappush

import numpy as np

from repro.core.cluster import InvocationResult
from repro.core.config import BoardConfig, MachineConfig
from repro.core.errors import SimulationError
from repro.core.invariants import InvariantChecker
from repro.core.metrics import (
    CycleCategory,
    KernelInvocationRecord,
    Metrics,
)
from repro.core.microcontroller import Microcontroller
from repro.core.power import EnergyModel
from repro.core.processor import (
    _EPS,
    InstructionTrace,
    RunResult,
    _restart_adjusted,
)
from repro.core.srf import StreamRegisterFile
from repro.core.watchdog import DiagnosticBundle, ProgressWatchdog
from repro.host.interface import HostInterface
from repro.isa.kernel_ir import FuClass
from repro.isa.stream_ops import StreamInstruction, StreamOpType, histogram
from repro.isa.vliw import CompiledKernel, KernelTiming
from repro.memsys.controller import (
    _BANK_CONFLICT_FACTOR,
    _SAMPLE_WORDS,
    MemorySystem,
    StreamMeasurement,
)
from repro.memsys.dram import PrechargeFault
from repro.obs.critpath import (
    EDGE_AG_BUSY,
    EDGE_CLUSTER_BUSY,
    EDGE_CODE,
    EDGE_CONTROLLER_ISSUE,
    EDGE_DATA_DEP,
    EDGE_HOST_DEPENDENCY,
    EDGE_HOST_ISSUE,
    EDGE_HOST_OP,
    EDGE_KERNEL_EXEC,
    EDGE_LOADER_BUSY,
    EDGE_MEM_STREAM,
    EDGE_MICROCODE_LOAD,
    EDGE_PROGRAM_START,
    EDGE_RESIDENT,
    EDGE_RETIRE,
    EDGE_SCOREBOARD_SLOT,
    NODE_CODE,
    EventGraph,
)
from repro.obs.manifest import build_manifest

__all__ = [
    "BackendUnsupported",
    "VectorProcessor",
    "compile_invocations",
]

# Instruction lifetime states, as small ints for the hot loop; names
# must match the reference model's status strings (diagnostics).
_PENDING, _RESIDENT, _RUNNING, _DONE = 0, 1, 2, 3
_STATUS_NAMES = ("pending", "resident", "running", "done")
# Resource classes for the controller's per-class ready heaps.
_K_KERNEL, _K_MEM, _K_MCL, _K_OTHER = 0, 1, 2, 3

#: Process-wide tables of pure static analysis: warm runs skip
#: pattern sampling and schedule arithmetic entirely.  The invocation
#: table is keyed by (frozen machine config, kernel value identity);
#: the steady-behaviour table by (machine, precharge flag, the full
#: sample-capped access pattern) -- the *full* pattern, because the
#: DRAM channel/bank/row walk depends on the start address and index
#: seed, which :meth:`AccessPattern.signature` deliberately omits.
#: Bounded; cleared when full (fuzzed corpora would otherwise grow
#: them without limit).
_INVOCATION_CACHE: dict = {}
_STEADY_CACHE: dict = {}
_CACHE_LIMIT = 16384


class BackendUnsupported(SimulationError):
    """The vector backend cannot honour this run configuration."""


def _kernel_key(kernel: CompiledKernel) -> tuple:
    """Value identity of the facts the invocation table reads (kernel
    objects are rebuilt per bundle, so object identity is useless)."""
    return (
        kernel.name, kernel.ii,
        kernel.prologue_cycles, kernel.epilogue_cycles,
        kernel.outer_overhead_cycles,
        kernel.elements_per_iteration,
        kernel.fpu_instructions_per_iteration(),
        kernel.words_in_per_iteration, kernel.words_out_per_iteration,
        kernel.arith_ops_per_iteration, kernel.flops_per_iteration,
        kernel.instructions_per_iteration,
        kernel.lrf_accesses_per_iteration,
        kernel.sp_accesses_per_iteration,
        kernel.comm_ops_per_iteration,
        kernel.graph.fu_count(FuClass.DSQ),
        tuple((cls.value, busy) for cls, busy
              in kernel.fu_busy_per_iteration().items()),
    )


def compile_invocations(
        kernels: dict[str, CompiledKernel],
        machine: MachineConfig,
        instructions: list[StreamInstruction],
) -> dict[tuple[str, int, bool], InvocationResult]:
    """Batch-evaluate every kernel invocation the program will make.

    For each kernel, all distinct stream lengths are pushed through
    the steady-state timing model as one NumPy computation: ceil
    divisions on int64 arrays for iterations and the FPU operations
    floor, one float64 expression for the SRF throttle.  The arrays
    reproduce the reference model's scalar arithmetic exactly
    (integer ceils are exact; ``np.rint`` matches Python's
    round-half-even on float64), so the materialised records are
    bit-identical to what ``ClusterArray.run_kernel`` returns.
    """
    demands: dict[str, set[int]] = {}
    restarts: set[tuple[str, int]] = set()
    for instr in instructions:
        if not instr.op.is_kernel or instr.kernel not in kernels:
            continue
        demands.setdefault(instr.kernel, set()).add(
            instr.stream_elements)
        if instr.op is StreamOpType.RESTART:
            restarts.add((instr.kernel, instr.stream_elements))

    num_clusters = machine.num_clusters
    fpus = machine.cluster.fpus
    prime = machine.srf_prime_cycles
    share = machine.srf_peak_words_per_cycle / num_clusters
    table: dict[tuple[str, int, bool], InvocationResult] = {}
    if len(_INVOCATION_CACHE) > _CACHE_LIMIT:
        _INVOCATION_CACHE.clear()
    for name, element_set in demands.items():
        kernel = kernels[name]
        cache_key = (machine, _kernel_key(kernel))
        cached = _INVOCATION_CACHE.get(cache_key)
        if cached is None:
            cached = _INVOCATION_CACHE[cache_key] = {}
        missing = [e for e in sorted(element_set) if e not in cached]
        if missing:
            elements = np.array(missing, dtype=np.int64)
            per_iteration = kernel.elements_per_iteration * num_clusters
            iterations = np.maximum(1, -(-elements // per_iteration))
            main_cycles = iterations * kernel.ii
            fpu_instrs = kernel.fpu_instructions_per_iteration()
            floor = np.minimum(-(-(iterations * fpu_instrs) // fpus),
                               main_cycles)
            non_main_loop = (kernel.prologue_cycles
                             + kernel.epilogue_cycles
                             + kernel.outer_overhead_cycles)
            words_per_iteration = (kernel.words_in_per_iteration
                                   + kernel.words_out_per_iteration)
            if words_per_iteration <= 0:
                stalls = np.zeros(len(elements), dtype=np.int64)
            else:
                throttle = max(0.0,
                               words_per_iteration / share - kernel.ii)
                stalls = np.rint(
                    prime + throttle * iterations.astype(np.float64)
                ).astype(np.int64)
            total_iter_factor = iterations * num_clusters
            fu_busy = kernel.fu_busy_per_iteration()
            for j, stream_elements in enumerate(elements.tolist()):
                iters = int(iterations[j])
                timing = KernelTiming(
                    iterations=iters,
                    operations=int(floor[j]),
                    main_loop_overhead=int(main_cycles[j] - floor[j]),
                    non_main_loop=non_main_loop,
                )
                factor = int(total_iter_factor[j])
                record = KernelInvocationRecord(
                    kernel=kernel.name,
                    stream_elements=stream_elements,
                    busy_cycles=timing.busy_cycles,
                    stall_cycles=int(stalls[j]),
                    arith_ops=(kernel.arith_ops_per_iteration
                               * factor),
                    flops=kernel.flops_per_iteration * factor,
                    instructions=(kernel.instructions_per_iteration
                                  * factor),
                    srf_words=words_per_iteration * factor,
                    lrf_words=(kernel.lrf_accesses_per_iteration
                               * factor),
                    sp_accesses=(kernel.sp_accesses_per_iteration
                                 * factor),
                    comm_ops=kernel.comm_ops_per_iteration * factor,
                    dsq_ops=(kernel.graph.fu_count(FuClass.DSQ)
                             * factor),
                    fu_cycles={cls.value: busy * iters
                               for cls, busy in fu_busy.items()},
                )
                cached[stream_elements] = InvocationResult(
                    record=record, timing=timing)
        for stream_elements in element_set:
            result = cached[stream_elements]
            table[(name, stream_elements, False)] = result
            if (name, stream_elements) in restarts:
                table[(name, stream_elements, True)] = (
                    _restart_adjusted(result))
    return table


class _SharedServer:
    """Processor-sharing memory model, numerically identical to
    :class:`repro.memsys.controller.SharedMemoryServer` but with the
    shared rates cached between active-set changes (the reference
    model recomputes them at every event)."""

    __slots__ = ("peak", "streams")

    def __init__(self, controller_peak: float) -> None:
        self.peak = controller_peak
        #: ident -> [measurement, remaining_words, startup_remaining,
        #: shared_rate]; the shared rate only changes when the active
        #: set does, so it is stored inline instead of rebuilt per
        #: event like the reference model's ``current_rates``.
        self.streams: dict[int, list] = {}

    def _recompute(self) -> None:
        streams = self.streams
        if not streams:
            return
        dram_demand = 0.0
        controller_demand = 0.0
        dram_streams = 0
        for entry in streams.values():
            measurement = entry[0]
            rate = measurement.rate_words_per_cycle
            fraction = measurement.dram_fraction
            controller_demand += rate
            dram_demand += rate * fraction
            if fraction > 0.5:
                dram_streams += 1
        dram_capacity = self.peak
        if dram_streams >= 2:
            dram_capacity *= _BANK_CONFLICT_FACTOR
        scale = 1.0
        if dram_demand > dram_capacity:
            scale = min(scale, dram_capacity / dram_demand)
        if controller_demand > self.peak:
            scale = min(scale, self.peak / controller_demand)
        for entry in streams.values():
            entry[3] = entry[0].rate_words_per_cycle * scale

    def start(self, ident: int, measurement: StreamMeasurement) -> None:
        self.streams[ident] = [measurement, float(measurement.words),
                               float(measurement.startup_cycles), 0.0]
        self._recompute()

    def advance(self, cycles: float) -> list[int]:
        done = []
        for ident, entry in self.streams.items():
            remaining = cycles
            startup = entry[2]
            if startup > 0:
                used = startup if startup < remaining else remaining
                startup = entry[2] = entry[2] - used
                remaining -= used
            if remaining > 0 and startup <= 0:
                entry[1] -= entry[3] * remaining
            if startup <= 0 and entry[1] <= 1e-9:
                done.append(ident)
        if done:
            for ident in done:
                del self.streams[ident]
            self._recompute()
        return done

    def next_completion_delta(self) -> float | None:
        best = None
        for entry in self.streams.values():
            rate = entry[3]
            if rate <= 0:
                continue
            delta = entry[2] + entry[1] / rate
            if best is None or delta < best:
                best = delta
        return best


class VectorProcessor:
    """Compiled-schedule simulator; drop-in for ``ImagineProcessor``
    on fault-free, untraced runs (see module docstring)."""

    backend = "vector"

    def __init__(self, machine: MachineConfig | None = None,
                 board: BoardConfig | None = None,
                 kernels: dict[str, CompiledKernel] | None = None,
                 energy: EnergyModel | None = None,
                 tracer=None, faults=None,
                 strict: bool = False) -> None:
        if faults is not None:
            raise BackendUnsupported(
                "fault injection is per-event; run fault plans on "
                "backend='event' (backend='auto' does this for you)")
        if tracer is not None and getattr(tracer, "enabled", True):
            raise BackendUnsupported(
                "tracing is per-event; run traced simulations on "
                "backend='event' (backend='auto' does this for you)")
        self.machine = machine or MachineConfig()
        self.board = board or BoardConfig()
        self.kernels = dict(kernels or {})
        self.strict = strict
        precharge = (PrechargeFault.from_config(self.machine.dram)
                     if self.board.precharge_bug else None)
        self.energy = energy or EnergyModel(self.machine)
        self.srf = StreamRegisterFile(self.machine)
        self.microcontroller = Microcontroller(self.machine)
        self.memory = MemorySystem(self.machine, precharge=precharge)
        self._steady_key = (self.machine, self.board.precharge_bug)
        self._measurements: dict[tuple, StreamMeasurement] = {}

    def register_kernel(self, kernel: CompiledKernel) -> None:
        self.kernels[kernel.name] = kernel

    def _measure(self, pattern) -> StreamMeasurement:
        """Per-run memoized stream measurement.

        The reference model's :class:`MemorySystem` caches steady
        behaviour per *instance*, keyed by the length-independent
        pattern signature: the first pattern with a given signature in
        a run fixes the cached entry ("first wins"), and the DRAM walk
        it runs *does* depend on the start address.  To stay
        bit-identical we reuse that instance cache verbatim -- but
        seed it from (and publish it to) the process-wide
        :data:`_STEADY_CACHE`, whose key includes the full
        sample-capped pattern, so a warm run skips the expensive DRAM
        service walk without ever serving a wrong-start entry.
        Patterns with explicit ``indices`` stay out of that table:
        their indices come from the data, so a key would almost never
        recur, and each one holds the whole index tuple.
        """
        key = (pattern.signature(), pattern.words)
        measurement = self._measurements.get(key)
        if measurement is not None:
            return measurement
        rate_cache = self.memory._rate_cache
        rate_key = pattern.signature() + (
            min(pattern.words, _SAMPLE_WORDS),)
        global_key = None
        if rate_key not in rate_cache and pattern.indices is None:
            global_key = (self._steady_key, replace(
                pattern, words=min(pattern.words, _SAMPLE_WORDS)))
            steady = _STEADY_CACHE.get(global_key)
            if steady is not None:
                rate_cache[rate_key] = steady
        measurement = self.memory.measure(pattern)
        if global_key is not None and global_key not in _STEADY_CACHE:
            if len(_STEADY_CACHE) > _CACHE_LIMIT:
                _STEADY_CACHE.clear()
            _STEADY_CACHE[global_key] = rate_cache[rate_key]
        self._measurements[key] = measurement
        return measurement

    # ------------------------------------------------------------------
    # Simulation.
    # ------------------------------------------------------------------
    def run(self, program, name: str = "program") -> RunResult:
        """Simulate ``program``; same contract as
        :meth:`repro.core.processor.ImagineProcessor.run`."""
        # Nearly every object allocated below (invocation records,
        # detail dicts) survives into the RunResult, so gen-0
        # collections only rescan a growing live heap.  Pause the
        # collector for the duration; restore whatever state we found.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run(program, name)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run(self, program, name: str = "program") -> RunResult:
        sdr_writes = sdr_references = 0
        if hasattr(program, "instructions"):
            name = getattr(program, "name", name)
            sdr_writes = getattr(program, "sdr_writes", 0)
            sdr_references = getattr(program, "sdr_references", 0)
            instructions = list(program.instructions)
        else:
            instructions = list(program)
        if not instructions:
            raise SimulationError("empty stream program")

        wall_start = time.perf_counter()
        machine = self.machine
        metrics = Metrics(machine)
        metrics.sdr_writes = sdr_writes
        metrics.sdr_references = sdr_references
        cycles_acc = metrics.cycles
        interface = HostInterface(machine, self.board)
        server = _SharedServer(self.memory.controller_peak)
        streams = server.streams
        n = len(instructions)
        invocations = compile_invocations(self.kernels, machine,
                                          instructions)
        microcontroller = self.microcontroller

        # ----------------------------------------------------------
        # Program "compilation": flat per-instruction tables so the
        # event loop never chases instruction attributes.
        # ----------------------------------------------------------
        kind = [0] * n
        labels = [""] * n
        deps_of: list[tuple[int, ...]] = [()] * n
        host_dep = [False] * n
        pre_invocation: list[InvocationResult | None] = [None] * n
        pre_kernel: list[CompiledKernel | None] = [None] * n
        pre_measurement: list[StreamMeasurement | None] = [None] * n
        detail_template: list[dict | None] = [None] * n
        #: Kernel duration and metric deltas flattened out of the
        #: InvocationResult so the hot loop never walks dataclasses.
        pre_total: list[int] = [0] * n
        pre_kcost: list[tuple | None] = [None] * n
        mcl = StreamOpType.MICROCODE_LOAD
        for i, instr in enumerate(instructions):
            op = instr.op
            labels[i] = instr.tag or op.value
            deps_of[i] = tuple(instr.deps)
            host_dep[i] = instr.host_dependency
            if op.is_kernel:
                kind[i] = _K_KERNEL
                if instr.kernel not in self.kernels:
                    raise SimulationError(
                        f"kernel {instr.kernel!r} not registered "
                        f"with the processor")
                kernel = self.kernels[instr.kernel]
                pre_kernel[i] = kernel
                result = invocations[(instr.kernel,
                                      instr.stream_elements,
                                      op is StreamOpType.RESTART)]
                pre_invocation[i] = result
                pre_total[i] = (result.record.busy_cycles
                                + result.record.stall_cycles)
                pre_kcost[i] = (result.timing.operations,
                                result.timing.main_loop_overhead,
                                result.timing.non_main_loop,
                                result.record.stall_cycles,
                                result.record)
                detail_template[i] = {
                    "kernel": kernel.name,
                    "microcode": 0.0,
                    "operations": float(result.timing.operations),
                    "main_loop_overhead": float(
                        result.timing.main_loop_overhead),
                    "non_main_loop": float(
                        result.timing.non_main_loop),
                    "stall": float(result.record.stall_cycles),
                }
            elif op.is_memory:
                kind[i] = _K_MEM
                measurement = self._measure(instr.pattern)
                pre_measurement[i] = measurement
                detail_template[i] = {
                    "kind": instr.pattern.kind,
                    "words": float(measurement.words),
                    "startup": float(measurement.startup_cycles),
                    "dram_cycles": float(
                        measurement.dram_core_cycles),
                    "ag_cycles": float(measurement.ag_core_cycles),
                    "controller_cycles": float(
                        measurement.controller_core_cycles),
                }
            elif op is mcl:
                kind[i] = _K_MCL
                if instr.kernel not in self.kernels:
                    raise SimulationError(
                        f"kernel {instr.kernel!r} not registered "
                        f"with the processor")
                kernel = self.kernels[instr.kernel]
                pre_kernel[i] = kernel
                detail_template[i] = {
                    "kernel": kernel.name,
                    "words": float(kernel.microcode_words),
                }
            else:
                kind[i] = _K_OTHER

        dependents: list[list[int]] = [[] for _ in range(n)]
        for i, deps in enumerate(deps_of):
            for dep in deps:
                dependents[dep].append(i)
        unmet = [len(deps) for deps in deps_of]
        kernel_indices = [i for i in range(n) if kind[i] == _K_KERNEL]
        num_kernels = len(kernel_indices)
        #: Memory instructions not yet executing (pending/resident).
        mem_waiting = sum(1 for k in kind if k == _K_MEM)
        issue_overhead = float(machine.stream_controller_issue_cycles
                               + self.board.issue_pipeline_cycles)
        host_issue_cycles = interface.issue_cycles
        round_trip_cycles = interface.round_trip_cycles
        slots = machine.scoreboard_slots
        num_ags = machine.num_ags

        graph = EventGraph(meta={
            "num_ags": float(num_ags),
            "issue_overhead": issue_overhead,
            "host_issue_cycles": float(
                self.board.host_issue_cycles(machine)),
        })
        graph.add_node("source", -1, 0.0, "start")
        issue_nodes: list[int | None] = [None] * n
        begin_nodes: list[int | None] = [None] * n
        complete_nodes: list[int | None] = [None] * n
        pending_detail: list[dict | None] = [None] * n
        last_issue_node: int | None = None
        last_issue_gap = 0.0
        pending_unblock: int | None = None
        slot_waiting = False
        last_begin_node: int | None = None
        last_kernel_complete: int | None = None
        last_loader_complete: int | None = None
        last_mem_complete: int | None = None
        last_complete_node: int | None = None

        completions: list[tuple[float, int, int]] = []
        tiebreak = 0
        now = 0.0
        cluster_busy_until = 0.0
        loader_busy_until = 0.0
        controller_busy_until = 0.0
        next_kernel_pos = 0
        free_ags = list(range(num_ags))
        mem_lanes: dict[int, tuple[int, float]] = {}
        #: Per-resource-class heaps of issuable instructions
        #: (resident, all dependencies met).  The reference model's
        #: lowest-index-first scan over the scoreboard is equivalent
        #: to popping the smallest eligible head.
        ready: tuple[list[int], ...] = ([], [], [], [])
        ready_kernel, ready_mem, ready_mcl, ready_other = ready
        status = [_PENDING] * n
        resident_time = [0.0] * n
        start_time = [0.0] * n
        finish_time = [0.0] * n
        occupancy = 0
        peak_occupancy = 0
        completed_count = 0
        # Inline host model (fault-free HostModel, unrolled).
        host_next = 0
        host_ready_at = 0.0
        host_blocked_on: int | None = None
        transitions = 0
        host_instructions = 0
        host_busy = 0.0
        loader_busy = 0.0
        mem_words = 0.0
        idle_history: deque[tuple[float, str, float]] = deque(maxlen=16)
        checker = (InvariantChecker(name, num_ags)
                   if self.strict else None)

        # Hot-path prebinds: attribute chains and enum member lookups
        # hoisted out of the per-event closures.
        mc_resident = microcontroller._resident
        mem_stream_words_append = metrics.memory_stream_words.append
        channel_busy = metrics.dram_channel_busy
        ag_busy = metrics.ag_busy_cycles
        idle_blame = metrics.idle_blame
        invocation_append = metrics.kernel_invocations.append
        kernel_seen = False
        acc_operations = 0.0
        acc_main_loop = 0.0
        acc_non_main = 0.0
        acc_stall = 0.0
        cat_sc_overhead = CycleCategory.STREAM_CONTROLLER_OVERHEAD
        cat_mc_load = CycleCategory.MICROCODE_LOAD_STALL
        cat_operations = CycleCategory.OPERATIONS
        cat_main_loop = CycleCategory.KERNEL_MAIN_LOOP_OVERHEAD
        cat_non_main = CycleCategory.KERNEL_NON_MAIN_LOOP
        cat_cluster_stall = CycleCategory.CLUSTER_STALL
        cat_memory_stall = CycleCategory.MEMORY_STALL
        cat_host_stall = CycleCategory.HOST_BANDWIDTH_STALL
        push = heappush
        pop = heappop
        # Event-DAG recording appends straight into the graph's
        # columns: the unchecked equivalent of EventGraph.add_node and
        # add_edge, one append per column.
        node_labels = graph.node_label
        add_t = graph.node_t.append
        add_kind = graph.node_kind.append
        add_index = graph.node_index.append
        add_label = node_labels.append
        edge_srcs = graph.edge_src
        add_src = edge_srcs.append
        add_dst = graph.edge_dst.append
        add_type = graph.edge_type.append
        add_weight = graph.edge_weight.append
        edge_detail = graph.edge_detail
        node_issue = NODE_CODE["issue"]
        node_begin = NODE_CODE["begin"]
        node_complete = NODE_CODE["complete"]
        edge_program_start = EDGE_CODE[EDGE_PROGRAM_START]
        edge_resident = EDGE_CODE[EDGE_RESIDENT]
        edge_data_dep = EDGE_CODE[EDGE_DATA_DEP]
        edge_controller = EDGE_CODE[EDGE_CONTROLLER_ISSUE]
        edge_cluster_busy = EDGE_CODE[EDGE_CLUSTER_BUSY]
        edge_loader_busy = EDGE_CODE[EDGE_LOADER_BUSY]
        edge_ag_busy = EDGE_CODE[EDGE_AG_BUSY]
        edge_kernel_exec = EDGE_CODE[EDGE_KERNEL_EXEC]
        edge_mem_stream = EDGE_CODE[EDGE_MEM_STREAM]
        edge_microcode = EDGE_CODE[EDGE_MICROCODE_LOAD]
        edge_host_op = EDGE_CODE[EDGE_HOST_OP]
        edge_host_issue = EDGE_CODE[EDGE_HOST_ISSUE]
        edge_host_dep = EDGE_CODE[EDGE_HOST_DEPENDENCY]
        edge_slot = EDGE_CODE[EDGE_SCOREBOARD_SLOT]
        edge_retire = EDGE_CODE[EDGE_RETIRE]
        eps = _EPS

        def diagnose(reason: str, stalled: int) -> DiagnosticBundle:
            stuck = []
            for i in range(n):
                if status[i] == _DONE:
                    continue
                stuck.append({
                    "index": i,
                    "op": instructions[i].op.value,
                    "tag": instructions[i].tag or None,
                    "status": _STATUS_NAMES[status[i]],
                    "deps": [{"index": dep,
                              "status": _STATUS_NAMES[status[dep]],
                              "op": instructions[dep].op.value}
                             for dep in deps_of[i]],
                })
            try:
                from repro.obs.critpath import partial_critpath_summary

                critpath = partial_critpath_summary(graph)
            except Exception:
                critpath = None
            resident = [i for i in range(n)
                        if status[i] in (_RESIDENT, _RUNNING)]
            scoreboard_dump = {
                "slots": slots,
                "slots_lost": 0,
                "occupancy": occupancy,
                "peak_occupancy": peak_occupancy,
                "completed": completed_count,
                "resident": [
                    {"index": index,
                     "op": instructions[index].op.value,
                     "tag": instructions[index].tag or None,
                     "deps": list(deps_of[index]),
                     "unmet_deps": [dep for dep in deps_of[index]
                                    if status[dep] != _DONE]}
                    for index in resident
                ],
            }
            host_dump = {
                "next_index": host_next,
                "program_length": n,
                "ready_at": host_ready_at,
                "blocked_on": host_blocked_on,
                "issued": host_next,
                "retries": 0,
                "attempts": 0,
                "done": host_next >= n,
            }
            return DiagnosticBundle(
                program=name, reason=reason, cycle=now,
                stalled_events=stalled, scoreboard=scoreboard_dump,
                stuck=stuck, host=host_dump,
                idle_causes=list(idle_history), critpath=critpath)

        watchdog = ProgressWatchdog(diagnose)
        stall_limit = watchdog.stall_limit
        stalled_events = 0
        last_transitions = -1

        def begin(index: int, t: float) -> None:
            nonlocal cluster_busy_until, loader_busy_until, transitions
            nonlocal last_begin_node, mem_waiting, tiebreak
            nonlocal loader_busy, mem_words
            resource = kind[index]
            status[index] = _RUNNING
            start_time[index] = t
            transitions += 1
            node = len(node_labels)
            add_t(t)
            add_kind(node_begin)
            add_index(index)
            add_label(labels[index])
            begin_nodes[index] = node
            # Every edge into a begin node is one issue window long.
            src_issue = issue_nodes[index]
            if src_issue is not None:
                add_src(src_issue)
                add_dst(node)
                add_type(edge_resident)
                add_weight(issue_overhead)
            for dep in deps_of[index]:
                dep_node = complete_nodes[dep]
                if dep_node is not None:
                    add_src(dep_node)
                    add_dst(node)
                    add_type(edge_data_dep)
                    add_weight(issue_overhead)
            if last_begin_node is not None:
                add_src(last_begin_node)
                add_dst(node)
                add_type(edge_controller)
                add_weight(issue_overhead)
            busy_node = None
            if resource == _K_KERNEL:
                busy_node = last_kernel_complete
                busy_type = edge_cluster_busy
            elif resource == _K_MCL:
                busy_node = last_loader_complete
                busy_type = edge_loader_busy
            elif resource == _K_MEM and len(streams) >= num_ags - 1:
                busy_node = last_mem_complete
                busy_type = edge_ag_busy
            if busy_node is not None:
                add_src(busy_node)
                add_dst(node)
                add_type(busy_type)
                add_weight(issue_overhead)
            last_begin_node = node
            if resource == _K_KERNEL:
                cycles_acc[cat_sc_overhead] += issue_overhead
                kernel_name = pre_kernel[index].name
                extra = 0.0
                if kernel_name not in mc_resident:
                    extra = microcontroller.load(
                        kernel_name,
                        pre_kernel[index].microcode_words)
                    cycles_acc[cat_mc_load] += extra
                    loader_busy += extra
                mc_resident.move_to_end(kernel_name)
                finish = t + extra + pre_total[index]
                cluster_busy_until = finish
                detail = detail_template[index]
                if extra:
                    detail = {**detail, "microcode": float(extra)}
                pending_detail[index] = detail
                tiebreak += 1
                push(completions, (finish, tiebreak, index))
            elif resource == _K_MEM:
                mem_waiting -= 1
                measurement = pre_measurement[index]
                server.start(index, measurement)
                pending_detail[index] = detail_template[index]
                mem_words += measurement.words
                mem_stream_words_append(measurement.words)
                for channel, busy in enumerate(
                        measurement.per_channel_core_cycles):
                    channel_busy[channel] = (
                        channel_busy.get(channel, 0.0) + busy)
                if free_ags:
                    mem_lanes[index] = (free_ags.pop(0), t)
            elif resource == _K_MCL:
                kernel = pre_kernel[index]
                duration = microcontroller.load(
                    kernel.name, kernel.microcode_words)
                charged = duration if duration > 1.0 else 1.0
                loader_busy_until = t + charged
                loader_busy += charged
                pending_detail[index] = detail_template[index]
                tiebreak += 1
                push(completions,
                         (loader_busy_until, tiebreak, index))
            else:
                tiebreak += 1
                push(completions, (t + 1.0, tiebreak, index))

        def complete(index: int, t: float) -> None:
            nonlocal transitions, pending_unblock, last_complete_node
            nonlocal last_kernel_complete, last_loader_complete
            nonlocal last_mem_complete, host_ready_at, host_blocked_on
            nonlocal completed_count, occupancy, mem_words
            nonlocal kernel_seen, acc_operations, acc_main_loop
            nonlocal acc_non_main, acc_stall
            status[index] = _DONE
            finish_time[index] = t
            transitions += 1
            if checker is not None:
                checker.lifetime(index, resident_time[index],
                                 start_time[index], t)
            resource = kind[index]
            node = len(node_labels)
            add_t(t)
            add_kind(node_complete)
            add_index(index)
            add_label(labels[index])
            complete_nodes[index] = node
            begin_node = begin_nodes[index]
            if begin_node is not None:
                if resource == _K_KERNEL:
                    edge_type = edge_kernel_exec
                elif resource == _K_MEM:
                    edge_type = edge_mem_stream
                elif resource == _K_MCL:
                    edge_type = edge_microcode
                else:
                    edge_type = edge_host_op
                detail = pending_detail[index]
                if resource == _K_MEM and index in mem_lanes:
                    detail = {**(detail or {}),
                              "lane": mem_lanes[index][0]}
                if detail:
                    edge_detail[len(edge_srcs)] = detail
                add_src(begin_node)
                add_dst(node)
                add_type(edge_type)
                add_weight(t - start_time[index])
            if resource == _K_KERNEL:
                last_kernel_complete = node
            elif resource == _K_MEM:
                last_mem_complete = node
            elif resource == _K_MCL:
                last_loader_complete = node
            last_complete_node = node
            if host_blocked_on == index:
                pending_unblock = node
                metrics.host_round_trips += 1
                host_blocked_on = None
                host_ready_at_new = t + round_trip_cycles
                if host_ready_at_new > host_ready_at:
                    host_ready_at = host_ready_at_new
            occupancy -= 1
            completed_count += 1
            for dependent in dependents[index]:
                unmet[dependent] -= 1
                if (unmet[dependent] == 0
                        and status[dependent] == _RESIDENT):
                    push(ready[kind[dependent]], dependent)
            if resource == _K_MEM and index in mem_lanes:
                lane, started = mem_lanes.pop(index)
                ag_busy[lane] = ag_busy.get(lane, 0.0) + (t - started)
                free_ags.append(lane)
                free_ags.sort()
            elif resource == _K_KERNEL:
                operations, main_loop, non_main, stall, record = (
                    pre_kcost[index])
                # These four categories are only ever touched here, so
                # they accumulate in plain locals (same add order,
                # bit-identical totals) and flush after the loop.  The
                # 0.0 placeholders pin first-occurrence key order --
                # sum(cycles.values()) is order-sensitive downstream.
                if not kernel_seen:
                    kernel_seen = True
                    cycles_acc[cat_operations] = 0.0
                    cycles_acc[cat_main_loop] = 0.0
                    cycles_acc[cat_non_main] = 0.0
                    cycles_acc[cat_cluster_stall] = 0.0
                acc_operations += operations
                acc_main_loop += main_loop
                acc_non_main += non_main
                acc_stall += stall
                invocation_append(record)

        def idle_cause(t: float) -> CycleCategory:
            # Attribution priority per Section 4.2 (mirrors the
            # reference model's decision tree exactly).
            if next_kernel_pos >= num_kernels:
                if streams or mem_waiting:
                    return cat_memory_stall
                if host_next < n:
                    return cat_host_stall
                return cat_sc_overhead
            index = kernel_indices[next_kernel_pos]
            state = status[index]
            if state == _RUNNING:
                return cat_sc_overhead
            deps = deps_of[index]
            for dep in deps:
                if (status[dep] in (_RESIDENT, _RUNNING)
                        and kind[dep] == _K_MCL):
                    return cat_mc_load
            for dep in deps:
                if (status[dep] in (_RESIDENT, _RUNNING)
                        and kind[dep] == _K_MEM):
                    return cat_memory_stall
            if state == _RESIDENT and unmet[index] == 0:
                return cat_sc_overhead
            if state == _RESIDENT:
                unissued = any(status[d] == _PENDING for d in deps)
                if unissued:
                    return cat_host_stall
                return cat_sc_overhead
            return cat_host_stall

        # --------------------------------------------------------------
        # Event loop: identical decision order to the reference model,
        # minus per-event dependency scans and tracer/injector hooks.
        # --------------------------------------------------------------
        while True:
            # Inlined ProgressWatchdog.observe.
            if transitions != last_transitions:
                last_transitions = transitions
                stalled_events = 0
            else:
                stalled_events += 1
                if stalled_events > stall_limit:
                    watchdog.stalled_events = stalled_events
                    watchdog.fail("livelock")
            if checker is not None:
                checker.clock(now)
                checker.scoreboard(occupancy, slots)
                checker.ag_lanes(len(free_ags), len(mem_lanes))
            progressed = True
            while progressed:
                progressed = False
                while (host_next < n and host_blocked_on is None
                       and now + 1e-9 >= host_ready_at
                       and occupancy < slots):
                    index = host_next
                    node = len(node_labels)
                    add_t(now)
                    add_kind(node_issue)
                    add_index(index)
                    add_label(labels[index])
                    issue_nodes[index] = node
                    if last_issue_node is None:
                        add_src(0)
                        add_dst(node)
                        add_type(edge_program_start)
                        add_weight(0.0)
                    else:
                        add_src(last_issue_node)
                        add_dst(node)
                        add_type(edge_host_issue)
                        add_weight(last_issue_gap)
                    if pending_unblock is not None:
                        add_src(pending_unblock)
                        add_dst(node)
                        add_type(edge_host_dep)
                        add_weight(round_trip_cycles)
                        pending_unblock = None
                    if slot_waiting and last_complete_node is not None:
                        add_src(last_complete_node)
                        add_dst(node)
                        add_type(edge_slot)
                        add_weight(0.0)
                    slot_waiting = False
                    last_issue_node = node
                    host_next += 1
                    host_ready_at = now + host_issue_cycles
                    if host_dep[index]:
                        host_blocked_on = index
                    last_issue_gap = host_ready_at - now
                    occupancy += 1
                    if occupancy > peak_occupancy:
                        peak_occupancy = occupancy
                    status[index] = _RESIDENT
                    resident_time[index] = now
                    if unmet[index] == 0:
                        push(ready[kind[index]], index)
                    host_instructions += 1
                    host_busy += host_issue_cycles
                    transitions += 1
                    progressed = True
                if controller_busy_until <= now + eps:
                    # Lowest eligible index across the per-resource
                    # ready heaps == the reference model's first
                    # issuable scoreboard entry.
                    best = -1
                    if (ready_kernel
                            and cluster_busy_until <= now + eps):
                        best = ready_kernel[0]
                    if (ready_mem and len(streams) < num_ags
                            and (best < 0 or ready_mem[0] < best)):
                        best = ready_mem[0]
                    if (ready_mcl
                            and loader_busy_until <= now + eps
                            and (best < 0 or ready_mcl[0] < best)):
                        best = ready_mcl[0]
                    if ready_other and (best < 0
                                        or ready_other[0] < best):
                        best = ready_other[0]
                    if best >= 0:
                        pop(ready[kind[best]])
                        controller_busy_until = now + issue_overhead
                        begin(best, now + issue_overhead)
                        progressed = True

            if (host_next < n and host_blocked_on is None
                    and host_ready_at <= now + eps
                    and occupancy >= slots):
                slot_waiting = True

            while (next_kernel_pos < num_kernels
                   and status[kernel_indices[next_kernel_pos]]
                   == _DONE):
                next_kernel_pos += 1

            if completed_count == n and host_next >= n:
                break

            # Next event time (min over the reference model's
            # candidate list, inlined).
            target = None
            if (host_next < n and host_blocked_on is None
                    and occupancy < slots):
                target = host_ready_at if host_ready_at > now else now
            if controller_busy_until > now + eps and (
                    target is None or controller_busy_until < target):
                target = controller_busy_until
            if completions and (target is None
                                or completions[0][0] < target):
                target = completions[0][0]
            if streams:
                # Inlined _SharedServer.next_completion_delta.
                mem_delta = None
                for entry in streams.values():
                    rate = entry[3]
                    if rate <= 0:
                        continue
                    delta = entry[2] + entry[1] / rate
                    if mem_delta is None or delta < mem_delta:
                        mem_delta = delta
                if mem_delta is not None:
                    mem_time = now + mem_delta
                    if target is None or mem_time < target:
                        target = mem_time
            if target is None:
                watchdog.stalled_events = stalled_events
                watchdog.fail("deadlock")
            if target < now:
                target = now

            idle_start = (now if now > cluster_busy_until
                          else cluster_busy_until)
            if target > idle_start + eps:
                cause = idle_cause(idle_start)
                gap = target - idle_start
                cycles_acc[cause] += gap
                cause_value = cause.value
                idle_history.append((idle_start, cause_value, gap))
                if next_kernel_pos < num_kernels:
                    blocker = kernel_indices[next_kernel_pos]
                    tag = f"{cause_value}<-{labels[blocker]}"
                    idle_blame[tag] = idle_blame.get(tag, 0.0) + gap

            if streams and target > now:
                # Inlined _SharedServer.advance.
                adv = target - now
                done_streams = None
                for ident, entry in streams.items():
                    remaining = adv
                    startup = entry[2]
                    if startup > 0:
                        used = (startup if startup < remaining
                                else remaining)
                        startup = entry[2] = entry[2] - used
                        remaining -= used
                    if remaining > 0 and startup <= 0:
                        entry[1] -= entry[3] * remaining
                    if startup <= 0 and entry[1] <= 1e-9:
                        if done_streams is None:
                            done_streams = [ident]
                        else:
                            done_streams.append(ident)
                if done_streams is not None:
                    for ident in done_streams:
                        del streams[ident]
                    server._recompute()
                    for ident in done_streams:
                        complete(ident, target)
            while completions and completions[0][0] <= target + eps:
                index = pop(completions)[2]
                complete(index, target)
            now = target

        end_node = graph.add_node("end", -1, now, "end")
        for complete_node in complete_nodes:
            if complete_node is not None:
                add_src(complete_node)
                add_dst(end_node)
                add_type(edge_retire)
                add_weight(0.0)
        graph.meta["total_cycles"] = now

        if kernel_seen:
            cycles_acc[cat_operations] += acc_operations
            cycles_acc[cat_main_loop] += acc_main_loop
            cycles_acc[cat_non_main] += acc_non_main
            cycles_acc[cat_cluster_stall] += acc_stall
        arith_ops = flops = kinstr = comm_ops = 0
        sp_accesses = dsq_ops = lrf_words = srf_words = 0
        for record in metrics.kernel_invocations:
            arith_ops += record.arith_ops
            flops += record.flops
            kinstr += record.instructions
            comm_ops += record.comm_ops
            sp_accesses += record.sp_accesses
            dsq_ops += record.dsq_ops
            lrf_words += record.lrf_words
            srf_words += record.srf_words
        metrics.arith_ops += arith_ops
        metrics.flops += flops
        metrics.instructions += kinstr
        metrics.comm_ops += comm_ops
        metrics.sp_accesses += sp_accesses
        metrics.dsq_ops += dsq_ops
        metrics.lrf_words += lrf_words
        metrics.srf_words += srf_words
        metrics.host_instructions = host_instructions
        metrics.host_busy_cycles = host_busy
        metrics.microcode_loader_busy_cycles = loader_busy
        metrics.mem_words = mem_words
        metrics.total_cycles = now
        metrics.check_conservation(tolerance=1e-3)
        power = self.energy.report(metrics, dsq_ops=metrics.dsq_ops)
        trace = InstructionTrace(instructions, resident_time, start_time,
                                 finish_time)
        manifest = build_manifest(
            name, machine, self.board,
            wall_time_s=time.perf_counter() - wall_start,
            backend="vector")
        return RunResult(
            name=name,
            metrics=metrics,
            power=power,
            instruction_histogram=histogram(instructions),
            board=self.board,
            trace=trace,
            manifest=manifest,
            fault_events=[],
            host_retries=0,
            event_graph=graph,
        )
