"""The Imagine processor: event-driven whole-system simulator.

``ImagineProcessor.run`` executes a compiled stream program (a list of
:class:`~repro.isa.stream_ops.StreamInstruction`) against the full
machine model: the host issues instructions into the 32-slot
scoreboard at the host-interface rate, the stream controller issues
ready instructions to the clusters / address generators / microcode
loader, kernel durations come from compiled VLIW schedules, memory
durations from the SDRAM model, and every cycle of the run is
attributed to one of the paper's eight categories (Figure 11), with
idle-cluster time classified by the paper's priority rule: microcode
load, then memory, then stream-controller overhead, then host
bandwidth.
"""

from __future__ import annotations

import heapq
import itertools
import time
from array import array
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, overload

from repro.core.cluster import ClusterArray, InvocationResult
from repro.core.config import BoardConfig, MachineConfig
from repro.core.errors import InvariantViolation, SimulationError
from repro.core.invariants import InvariantChecker
from repro.core.metrics import CycleCategory, Metrics
from repro.core.microcontroller import Microcontroller
from repro.core.power import EnergyModel, PowerReport
from repro.core.srf import StreamRegisterFile
from repro.core.stream_controller import Scoreboard
from repro.core.watchdog import DiagnosticBundle, ProgressWatchdog
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultEvent, FaultPlan
from repro.host.interface import HostInterface
from repro.host.processor import HostModel
from repro.isa.stream_ops import (
    STREAM_OPS,
    StreamInstruction,
    StreamOpType,
    histogram,
)
from repro.isa.vliw import CompiledKernel
from repro.memsys.address_gen import AddressGenerator
from repro.memsys.controller import MemorySystem, SharedMemoryServer
from repro.memsys.dram import PrechargeFault
from repro.obs.critpath import (
    EDGE_AG_BUSY,
    EDGE_CLUSTER_BUSY,
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
    EventGraph,
)
from repro.obs.manifest import RunManifest, build_manifest
from repro.obs.tracer import (
    NULL_TRACER,
    TRACK_ACCOUNTING,
    TRACK_CLUSTERS,
    TRACK_CONTROLLER,
    TRACK_HOST,
    Tracer,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.profile import Derived

__all__ = [
    "ImagineProcessor",
    "InstructionTrace",
    "RunResult",
    "TraceEvent",
    "SimulationError",
    "InvariantViolation",
]

_EPS = 1e-6
#: Extra non-main-loop cycles charged to a RESTART continuation
#: instead of a full prologue/epilogue.
_RESTART_OVERHEAD_CYCLES = 16


@dataclass(frozen=True)
class TraceEvent:
    """Lifetime of one stream instruction during simulation."""

    index: int
    op: str
    tag: str
    kernel: str | None
    resident_at: float
    started_at: float
    finished_at: float

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def queue_delay(self) -> float:
        return self.started_at - self.resident_at


_OP_CODE = {op: code for code, op in enumerate(StreamOpType)}


class InstructionTrace(Sequence[TraceEvent]):
    """Per-instruction lifetimes stored as columns.

    Row ``i`` is instruction ``i``: ``op`` holds codes into
    :data:`~repro.isa.stream_ops.STREAM_OPS`, the three times are
    ``array('d')`` columns, and ``tag``/``kernel`` are lists.  The
    typed columns pickle as raw buffers and NumPy reads them without a
    copy; iterating or indexing yields frozen :class:`TraceEvent` rows.
    """

    def __init__(self, instructions: Sequence[StreamInstruction] = (),
                 resident_at: Iterable[float] = (),
                 started_at: Iterable[float] = (),
                 finished_at: Iterable[float] = ()) -> None:
        self.op: array[int] = array(
            "B", [_OP_CODE[instr.op] for instr in instructions])
        self.tag: list[str] = [instr.tag for instr in instructions]
        self.kernel: list[str | None] = [instr.kernel
                                         for instr in instructions]
        self.resident_at: array[float] = array("d", resident_at)
        self.started_at: array[float] = array("d", started_at)
        self.finished_at: array[float] = array("d", finished_at)
        if not (len(self.op) == len(self.resident_at)
                == len(self.started_at) == len(self.finished_at)):
            raise ValueError("trace columns differ in length")

    def __len__(self) -> int:
        return len(self.op)

    def _row(self, index: int) -> TraceEvent:
        return TraceEvent(index, STREAM_OPS[self.op[index]],
                          self.tag[index], self.kernel[index],
                          self.resident_at[index], self.started_at[index],
                          self.finished_at[index])

    @overload
    def __getitem__(self, key: int) -> TraceEvent: ...

    @overload
    def __getitem__(self, key: slice) -> list[TraceEvent]: ...

    def __getitem__(self, key: int | slice) -> TraceEvent | list[TraceEvent]:
        rows = range(len(self.op))
        if isinstance(key, slice):
            return [self._row(i) for i in rows[key]]
        return self._row(rows[key])

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(self._row, range(len(self.op)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InstructionTrace):
            return NotImplemented
        return vars(self) == vars(other)


@dataclass
class RunResult:
    """Outcome of one stream-program run."""

    name: str
    metrics: Metrics
    power: PowerReport
    instruction_histogram: dict[str, int]
    board: BoardConfig
    trace: InstructionTrace = field(default_factory=InstructionTrace)
    manifest: RunManifest | None = None
    #: Fault firings recorded by the injector, in time order.
    fault_events: list[FaultEvent] = field(default_factory=list)
    #: Host transfer retries forced by injected drops.
    host_retries: int = 0
    #: Typed dependency DAG recorded during the run; feeds
    #: critical-path extraction and what-if projection
    #: (:mod:`repro.obs.critpath`).
    event_graph: EventGraph | None = None
    #: The profile and critical-path walk the engine derived when it
    #: completed the run (:func:`repro.obs.profile.derive`); pickled
    #: with the result, so a cache entry carries them.  Not an
    #: ``__init__`` argument: ``dataclasses.replace`` resets it.
    derived: "Derived | None" = field(default=None, init=False,
                                      repr=False, compare=False)

    @property
    def cycles(self) -> float:
        return self.metrics.total_cycles

    @property
    def seconds(self) -> float:
        return self.metrics.seconds

    def summary(self) -> str:
        metrics = self.metrics
        return (f"{self.name}: {metrics.total_cycles:.0f} cycles "
                f"({metrics.seconds * 1e3:.2f} ms), "
                f"{metrics.gops:.2f} GOPS, {metrics.gflops:.2f} GFLOPS, "
                f"IPC {metrics.ipc:.1f}, {self.power.watts:.2f} W")

    def profile(self) -> dict:
        """Hierarchical cycle-accounting profile of this run
        (``repro.profile-report/1``; see docs/observability.md)."""
        from repro.obs.profile import build_profile

        return build_profile(self)

    def critpath(self) -> dict:
        """Critical-path report for this run
        (``repro.critpath-report/1``; see docs/observability.md)."""
        from repro.obs.critpath import build_critpath

        return build_critpath(self)


@dataclass
class _InstructionState:
    instruction: StreamInstruction
    status: str = "pending"          # pending -> resident -> running -> done
    resident_time: float = 0.0
    start_time: float = 0.0
    finish_time: float = 0.0
    invocation: InvocationResult | None = None


class ImagineProcessor:
    """Top-level simulator; construct once per run."""

    def __init__(self, machine: MachineConfig | None = None,
                 board: BoardConfig | None = None,
                 kernels: dict[str, CompiledKernel] | None = None,
                 energy: EnergyModel | None = None,
                 tracer: Tracer | None = None,
                 faults: FaultPlan | FaultInjector | None = None,
                 strict: bool = False) -> None:
        self.machine = machine or MachineConfig()
        self.board = board or BoardConfig()
        self.kernels = dict(kernels or {})
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.strict = strict
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults, tracer=self.tracer)
        self.injector = faults
        precharge = (PrechargeFault.from_config(self.machine.dram)
                     if self.board.precharge_bug else None)
        channel_fault = None
        if self.injector is not None:
            # Structural faults reshape the machine before anything
            # is built from it.
            self.machine = self.injector.degrade_machine(self.machine)
            precharge = self.injector.precharge_fault(precharge)
            channel_fault = self.injector.channel_fault(
                self.machine.dram.channels)
        self.energy = energy or EnergyModel(self.machine)
        self.srf = StreamRegisterFile(self.machine)
        self.clusters = ClusterArray(self.machine, self.srf)
        self.microcontroller = Microcontroller(self.machine,
                                               tracer=self.tracer)
        self.memory = MemorySystem(self.machine,
                                   precharge=precharge,
                                   channel_fault=channel_fault,
                                   tracer=self.tracer)
        self.ags = [
            AddressGenerator(i, self.machine.ag_peak_words_per_cycle,
                             tracer=self.tracer)
            for i in range(self.machine.num_ags)
        ]

    def register_kernel(self, kernel: CompiledKernel) -> None:
        self.kernels[kernel.name] = kernel

    # ------------------------------------------------------------------
    # Simulation.
    # ------------------------------------------------------------------
    def run(self, program, name: str = "program") -> RunResult:
        """Simulate ``program`` (a list of instructions or a
        :class:`~repro.streamc.compiler.StreamProgramImage`)."""
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
        tracer = self.tracer
        tracer.clock = 0.0
        metrics = Metrics(machine)
        metrics.sdr_writes = sdr_writes
        metrics.sdr_references = sdr_references
        interface = HostInterface(machine, self.board)
        host = HostModel(interface, instructions, injector=self.injector)
        scoreboard = Scoreboard(machine.scoreboard_slots, tracer=tracer)
        server = SharedMemoryServer(self.memory)
        states = [_InstructionState(instr) for instr in instructions]
        kernel_indices = [i for i, instr in enumerate(instructions)
                          if instr.op.is_kernel]
        issue_overhead = (machine.stream_controller_issue_cycles
                          + self.board.issue_pipeline_cycles)

        # Event DAG for critical-path extraction: one node per
        # instruction lifetime event, one typed edge per timing
        # constraint (see repro.obs.critpath).  Recording is pure --
        # it never changes a simulation decision.
        graph = EventGraph(meta={
            "num_ags": float(machine.num_ags),
            "issue_overhead": float(issue_overhead),
            # Pure host-rate spacing between issues; the what-if
            # replay scales only this much of a host_issue gap (the
            # excess is blocked time that a faster host cannot
            # shrink).
            "host_issue_cycles": float(
                self.board.host_issue_cycles(machine)),
        })
        graph.add_node("source", -1, 0.0, "start")
        issue_nodes: list[int | None] = [None] * len(instructions)
        begin_nodes: list[int | None] = [None] * len(instructions)
        complete_nodes: list[int | None] = [None] * len(instructions)
        exec_detail: dict[int, dict] = {}
        last_issue_node: int | None = None
        last_issue_time = 0.0
        #: Host-rate constraint on the *next* issue, captured when the
        #: previous issue advanced ``host.ready_at`` (widened by
        #: injected-drop back-off windows).
        last_issue_gap = 0.0
        #: Completion the host is blocked on; the next issue gets a
        #: round-trip edge from it.
        pending_unblock: int | None = None
        #: The host was ready but the scoreboard was full; the next
        #: issue gets a slot edge from the freeing completion.
        slot_waiting = False
        last_begin_node: int | None = None
        last_kernel_complete: int | None = None
        last_loader_complete: int | None = None
        last_mem_complete: int | None = None
        last_complete_node: int | None = None

        completions: list[tuple[float, int, int]] = []
        tiebreak = itertools.count()
        now = 0.0
        cluster_busy_until = 0.0
        loader_busy_until = 0.0
        controller_busy_until = 0.0
        next_kernel_pos = 0
        free_ags = list(range(len(self.ags)))
        mem_lanes: dict[int, tuple[int, float]] = {}
        #: Host issues + instruction starts + completions; the
        #: watchdog's progress signal.
        transitions = 0
        #: Recent idle-cause attributions for diagnostics.
        idle_history: deque[tuple[float, str, float]] = deque(maxlen=16)
        checker = (InvariantChecker(name, len(self.ags))
                   if self.strict else None)

        def diagnose(reason: str, stalled: int) -> DiagnosticBundle:
            stuck = []
            for i, state in enumerate(states):
                if state.status == "done":
                    continue
                stuck.append({
                    "index": i,
                    "op": state.instruction.op.value,
                    "tag": state.instruction.tag or None,
                    "status": state.status,
                    "deps": [{"index": dep,
                              "status": states[dep].status,
                              "op": states[dep].instruction.op.value}
                             for dep in state.instruction.deps],
                })
            # Best-effort: attribution must never mask the original
            # diagnosis, so any summarisation failure degrades to
            # critpath=None.
            try:
                from repro.obs.critpath import partial_critpath_summary

                critpath = partial_critpath_summary(graph)
            except Exception:
                critpath = None
            return DiagnosticBundle(
                program=name, reason=reason, cycle=now,
                stalled_events=stalled, scoreboard=scoreboard.dump(),
                stuck=stuck, host=host.dump(),
                idle_causes=list(idle_history), critpath=critpath)

        watchdog = ProgressWatchdog(diagnose)

        def push_completion(time: float, index: int) -> None:
            heapq.heappush(completions, (time, next(tiebreak), index))

        def resource_free(instr: StreamInstruction, t: float) -> bool:
            if instr.op.is_kernel:
                return cluster_busy_until <= t + _EPS
            if instr.op.is_memory:
                return len(server.active()) < machine.num_ags
            if instr.op is StreamOpType.MICROCODE_LOAD:
                return loader_busy_until <= t + _EPS
            return True

        def begin(index: int, t: float) -> None:
            nonlocal cluster_busy_until, loader_busy_until, transitions
            nonlocal last_begin_node
            state = states[index]
            instr = state.instruction
            state.status = "running"
            state.start_time = t
            transitions += 1
            if tracer.enabled:
                tracer.clock = t
            node = graph.add_node("begin", index, t,
                                  instr.tag or instr.op.value)
            begin_nodes[index] = node
            src_issue = issue_nodes[index]
            if src_issue is not None:
                graph.add_edge(src_issue, node, EDGE_RESIDENT,
                               issue_overhead)
            for dep in instr.deps:
                dep_node = complete_nodes[dep]
                if dep_node is not None:
                    graph.add_edge(dep_node, node, EDGE_DATA_DEP,
                                   issue_overhead)
            if last_begin_node is not None:
                graph.add_edge(last_begin_node, node,
                               EDGE_CONTROLLER_ISSUE, issue_overhead)
            if instr.op.is_kernel and last_kernel_complete is not None:
                graph.add_edge(last_kernel_complete, node,
                               EDGE_CLUSTER_BUSY, issue_overhead)
            if (instr.op is StreamOpType.MICROCODE_LOAD
                    and last_loader_complete is not None):
                graph.add_edge(last_loader_complete, node,
                               EDGE_LOADER_BUSY, issue_overhead)
            if (instr.op.is_memory and last_mem_complete is not None
                    and len(server.active()) >= machine.num_ags - 1):
                # Starting this stream (nearly) fills the AG lanes, so
                # the last freeing completion plausibly gated it.
                graph.add_edge(last_mem_complete, node, EDGE_AG_BUSY,
                               issue_overhead)
            last_begin_node = node
            if instr.op.is_kernel:
                # The issue window [decision, t] kept the clusters
                # idle; charge it so cycle accounting stays exact.
                metrics.add_cycles(
                    CycleCategory.STREAM_CONTROLLER_OVERHEAD,
                    issue_overhead)
                kernel = self._lookup_kernel(instr)
                if (self.injector is not None
                        and self.injector.microcode_corrupted(
                            kernel.name, t)):
                    # A corrupted store entry forces a full reload.
                    self.microcontroller.invalidate(kernel.name)
                extra = 0.0
                if not self.microcontroller.is_resident(kernel.name):
                    # Safety net: programs normally carry explicit
                    # MICROCODE_LOAD instructions; charge a serial
                    # load otherwise.
                    extra = self.microcontroller.load(
                        kernel.name, kernel.microcode_words)
                    metrics.add_cycles(
                        CycleCategory.MICROCODE_LOAD_STALL, extra)
                    metrics.microcode_loader_busy_cycles += extra
                self.microcontroller.touch(kernel.name)
                result = self.clusters.run_kernel(
                    kernel, instr.stream_elements)
                if instr.op is StreamOpType.RESTART:
                    result = _restart_adjusted(result)
                state.invocation = result
                finish = t + extra + result.total_cycles
                cluster_busy_until = finish
                exec_detail[index] = {
                    "kernel": kernel.name,
                    "microcode": float(extra),
                    "operations": float(result.timing.operations),
                    "main_loop_overhead": float(
                        result.timing.main_loop_overhead),
                    "non_main_loop": float(
                        result.timing.non_main_loop),
                    "stall": float(result.record.stall_cycles),
                }
                if tracer.enabled:
                    tracer.span(
                        TRACK_CLUSTERS, kernel.name, t, finish,
                        index=index,
                        stream_elements=instr.stream_elements,
                        busy_cycles=result.record.busy_cycles,
                        stall_cycles=result.record.stall_cycles,
                        microcode_load_cycles=extra)
                push_completion(finish, index)
            elif instr.op.is_memory:
                measurement = self.memory.measure(instr.pattern)
                server.start(index, measurement)
                exec_detail[index] = {
                    "kind": instr.pattern.kind,
                    "words": float(measurement.words),
                    "startup": float(measurement.startup_cycles),
                    "dram_cycles": float(
                        measurement.dram_core_cycles),
                    "ag_cycles": float(measurement.ag_core_cycles),
                    "controller_cycles": float(
                        measurement.controller_core_cycles),
                }
                metrics.mem_words += measurement.words
                metrics.memory_stream_words.append(measurement.words)
                for channel, busy in enumerate(
                        measurement.per_channel_core_cycles):
                    metrics.dram_channel_busy[channel] = (
                        metrics.dram_channel_busy.get(channel, 0.0)
                        + busy)
                # Lane assignment is machine state, not reporting: it
                # must not depend on whether a tracer is attached.
                if free_ags:
                    mem_lanes[index] = (free_ags.pop(0), t)
            elif instr.op is StreamOpType.MICROCODE_LOAD:
                kernel = self._lookup_kernel(instr)
                duration = self.microcontroller.load(
                    kernel.name, kernel.microcode_words)
                loader_busy_until = t + max(duration, 1.0)
                metrics.microcode_loader_busy_cycles += max(
                    duration, 1.0)
                exec_detail[index] = {
                    "kernel": kernel.name,
                    "words": float(kernel.microcode_words),
                }
                push_completion(loader_busy_until, index)
            else:
                push_completion(t + 1.0, index)

        def complete(index: int, t: float) -> None:
            nonlocal transitions, pending_unblock, last_complete_node
            nonlocal last_kernel_complete, last_loader_complete
            nonlocal last_mem_complete
            state = states[index]
            state.status = "done"
            state.finish_time = t
            transitions += 1
            if checker is not None:
                checker.lifetime(index, state.resident_time,
                                 state.start_time, t)
            if tracer.enabled:
                tracer.clock = t
            instr = state.instruction
            node = graph.add_node("complete", index, t,
                                  instr.tag or instr.op.value)
            complete_nodes[index] = node
            begin_node = begin_nodes[index]
            if begin_node is not None:
                if instr.op.is_kernel:
                    edge_type = EDGE_KERNEL_EXEC
                elif instr.op.is_memory:
                    edge_type = EDGE_MEM_STREAM
                elif instr.op is StreamOpType.MICROCODE_LOAD:
                    edge_type = EDGE_MICROCODE_LOAD
                else:
                    edge_type = EDGE_HOST_OP
                detail = exec_detail.pop(index, {})
                if index in mem_lanes:
                    detail = {**detail, "lane": mem_lanes[index][0]}
                graph.add_edge(begin_node, node, edge_type,
                               t - state.start_time, **detail)
            if instr.op.is_kernel:
                last_kernel_complete = node
            elif instr.op.is_memory:
                last_mem_complete = node
            elif instr.op is StreamOpType.MICROCODE_LOAD:
                last_loader_complete = node
            last_complete_node = node
            if host.blocked_on == index:
                pending_unblock = node
                metrics.host_round_trips += 1
            scoreboard.complete(index)
            host.notify_completion(index, t)
            if index in mem_lanes:
                lane, started = mem_lanes.pop(index)
                metrics.ag_busy_cycles[lane] = (
                    metrics.ag_busy_cycles.get(lane, 0.0)
                    + (t - started))
                free_ags.append(lane)
                free_ags.sort()
                self.ags[lane].trace_stream(
                    instr.tag or instr.op.value, started, t,
                    index=index, words=instr.pattern.words,
                    kind=instr.pattern.kind)
            if instr.op.is_kernel and state.invocation is not None:
                timing = state.invocation.timing
                record = state.invocation.record
                metrics.add_cycles(CycleCategory.OPERATIONS,
                                   timing.operations)
                metrics.add_cycles(
                    CycleCategory.KERNEL_MAIN_LOOP_OVERHEAD,
                    timing.main_loop_overhead)
                metrics.add_cycles(CycleCategory.KERNEL_NON_MAIN_LOOP,
                                   timing.non_main_loop)
                metrics.add_cycles(CycleCategory.CLUSTER_STALL,
                                   record.stall_cycles)
                metrics.record_invocation(record)

        def idle_cause(t: float) -> CycleCategory:
            # Attribution priority per Section 4.2; next_kernel_pos is
            # advanced past completed kernels by the event loop.
            if next_kernel_pos >= len(kernel_indices):
                if server.active() or any(
                        s.instruction.op.is_memory
                        and s.status in ("pending", "resident")
                        for s in states):
                    return CycleCategory.MEMORY_STALL
                if not host.done:
                    return CycleCategory.HOST_BANDWIDTH_STALL
                return CycleCategory.STREAM_CONTROLLER_OVERHEAD
            index = kernel_indices[next_kernel_pos]
            state = states[index]
            instr = state.instruction
            if state.status == "running":
                return CycleCategory.STREAM_CONTROLLER_OVERHEAD
            # A dependency only counts as a memory / microcode stall
            # if the host has actually issued it; waiting on an
            # instruction the host has not yet delivered is a host
            # bandwidth (or host dependency) stall.
            for dep in instr.deps:
                dep_state = states[dep]
                if (dep_state.status in ("resident", "running")
                        and dep_state.instruction.op
                        is StreamOpType.MICROCODE_LOAD):
                    return CycleCategory.MICROCODE_LOAD_STALL
            for dep in instr.deps:
                dep_state = states[dep]
                if (dep_state.status in ("resident", "running")
                        and dep_state.instruction.op.is_memory):
                    return CycleCategory.MEMORY_STALL
            if state.status == "resident" and scoreboard.deps_met(instr):
                return CycleCategory.STREAM_CONTROLLER_OVERHEAD
            if state.status == "resident":
                unissued = any(states[d].status == "pending"
                               for d in instr.deps)
                if unissued:
                    return CycleCategory.HOST_BANDWIDTH_STALL
                return CycleCategory.STREAM_CONTROLLER_OVERHEAD
            return CycleCategory.HOST_BANDWIDTH_STALL

        # --------------------------------------------------------------
        # Event loop.  The progress watchdog replaces the old blind
        # event budget: iterations that neither advance the clock nor
        # transition an instruction are counted, and a long run of
        # them raises a SimulationError with full diagnostics.
        # --------------------------------------------------------------
        while True:
            watchdog.observe(transitions)
            if self.injector is not None:
                scoreboard.slots_lost = self.injector.slots_lost(now)
            if checker is not None:
                checker.clock(now)
                checker.scoreboard(scoreboard.occupancy,
                                   scoreboard.slots)
                checker.ag_lanes(len(free_ags), len(mem_lanes))
            # Zero-time actions at `now`.
            progressed = True
            while progressed:
                progressed = False
                while host.can_issue(now) and scoreboard.has_free_slot():
                    issued = host.issue(now)
                    if issued is None:
                        # Transfer dropped by an injected fault; the
                        # host backs off and retries later.  The next
                        # host_issue edge absorbs the back-off window.
                        if last_issue_node is not None:
                            last_issue_gap = (host.ready_at
                                              - last_issue_time)
                        break
                    index, instr = issued
                    node = graph.add_node(
                        "issue", index, now,
                        instr.tag or instr.op.value)
                    issue_nodes[index] = node
                    if last_issue_node is None:
                        graph.add_edge(0, node, EDGE_PROGRAM_START,
                                       0.0)
                    else:
                        graph.add_edge(last_issue_node, node,
                                       EDGE_HOST_ISSUE,
                                       last_issue_gap)
                    if pending_unblock is not None:
                        graph.add_edge(pending_unblock, node,
                                       EDGE_HOST_DEPENDENCY,
                                       interface.round_trip_cycles)
                        pending_unblock = None
                    if slot_waiting and last_complete_node is not None:
                        graph.add_edge(last_complete_node, node,
                                       EDGE_SCOREBOARD_SLOT, 0.0)
                    slot_waiting = False
                    last_issue_node = node
                    last_issue_time = now
                    last_issue_gap = host.ready_at - now
                    if tracer.enabled:
                        tracer.instant(
                            TRACK_HOST,
                            f"issue {instr.tag or instr.op.value}",
                            ts=now, index=index)
                    scoreboard.insert(index, instr)
                    states[index].status = "resident"
                    states[index].resident_time = now
                    metrics.host_instructions += 1
                    metrics.host_busy_cycles += interface.issue_cycles
                    transitions += 1
                    progressed = True
                if controller_busy_until <= now + _EPS:
                    for index, instr in scoreboard.resident_instructions():
                        state = states[index]
                        if state.status != "resident":
                            continue
                        if not scoreboard.deps_met(instr):
                            continue
                        if not resource_free(instr, now):
                            continue
                        controller_busy_until = now + issue_overhead
                        if tracer.enabled:
                            tracer.span(
                                TRACK_CONTROLLER,
                                f"issue {instr.tag or instr.op.value}",
                                now, controller_busy_until, index=index)
                        begin(index, now + issue_overhead)
                        progressed = True
                        break

            # Host ready but every scoreboard slot taken: the next
            # issue is gated by the completion that frees a slot.
            ready_at = host.next_event_time()
            if (ready_at is not None and ready_at <= now + _EPS
                    and not scoreboard.has_free_slot()):
                slot_waiting = True

            while (next_kernel_pos < len(kernel_indices)
                   and states[kernel_indices[next_kernel_pos]].status
                   == "done"):
                next_kernel_pos += 1

            all_done = (host.done and all(s.status == "done"
                                          for s in states))
            if all_done:
                break

            # Next event time.
            candidates: list[float] = []
            host_time = host.next_event_time()
            if host_time is not None and scoreboard.has_free_slot():
                candidates.append(max(host_time, now))
            if controller_busy_until > now + _EPS:
                candidates.append(controller_busy_until)
            if completions:
                candidates.append(completions[0][0])
            mem_delta = server.next_completion_delta()
            if mem_delta is not None:
                candidates.append(now + mem_delta)
            if self.injector is not None and not host.done:
                # A slot-loss window ending can unblock the host.
                change = self.injector.next_slot_change(now)
                if change is not None and change > now + _EPS:
                    candidates.append(change)
            if not candidates:
                watchdog.fail("deadlock")
            target = min(candidates)
            target = max(target, now)

            # Attribute idle-cluster time over [now, target].
            idle_start = max(now, cluster_busy_until)
            if target > idle_start + _EPS:
                cause = idle_cause(idle_start)
                metrics.add_cycles(cause, target - idle_start)
                idle_history.append((idle_start, cause.value,
                                     target - idle_start))
                if tracer.enabled:
                    from repro.obs.profile import CATEGORY_LEAF

                    tracer.span(TRACK_ACCOUNTING, cause.value,
                                idle_start, target,
                                leaf=CATEGORY_LEAF[cause])
                    tracer.counter(
                        TRACK_ACCOUNTING, "cycles by category",
                        {cat.value: metrics.cycles.get(cat, 0.0)
                         for cat in CycleCategory},
                        ts=target)
                if next_kernel_pos < len(kernel_indices):
                    blocker = states[kernel_indices[next_kernel_pos]]
                    tag = (f"{cause.value}<-"
                           f"{blocker.instruction.tag or blocker.instruction.op.value}")
                    metrics.idle_blame[tag] = (
                        metrics.idle_blame.get(tag, 0.0)
                        + (target - idle_start))

            # Advance shared memory streams and collect completions.
            for ident in server.advance(target - now):
                complete(ident, target)
            while completions and completions[0][0] <= target + _EPS:
                _, _, index = heapq.heappop(completions)
                complete(index, target)
            now = target
            if tracer.enabled:
                tracer.clock = now

        end_node = graph.add_node("end", -1, now, "end")
        for complete_node in complete_nodes:
            if complete_node is not None:
                graph.add_edge(complete_node, end_node, EDGE_RETIRE,
                               0.0)
        graph.meta["total_cycles"] = now

        metrics.total_cycles = now
        metrics.check_conservation(tolerance=1e-3)
        power = self.energy.report(metrics, dsq_ops=metrics.dsq_ops)
        trace = InstructionTrace(
            [state.instruction for state in states],
            [state.resident_time for state in states],
            [state.start_time for state in states],
            [state.finish_time for state in states])
        manifest = build_manifest(
            name, machine, self.board,
            wall_time_s=time.perf_counter() - wall_start)
        return RunResult(
            name=name,
            metrics=metrics,
            power=power,
            instruction_histogram=histogram(instructions),
            board=self.board,
            trace=trace,
            manifest=manifest,
            fault_events=(list(self.injector.events)
                          if self.injector is not None else []),
            host_retries=host.retries,
            event_graph=graph,
        )

    def _lookup_kernel(self, instr: StreamInstruction) -> CompiledKernel:
        if instr.kernel not in self.kernels:
            raise SimulationError(
                f"kernel {instr.kernel!r} not registered with the "
                f"processor")
        return self.kernels[instr.kernel]


def _restart_adjusted(result: InvocationResult) -> InvocationResult:
    """A RESTART continues a running kernel: no prologue/epilogue."""
    from dataclasses import replace

    from repro.isa.vliw import KernelTiming

    timing = KernelTiming(
        iterations=result.timing.iterations,
        operations=result.timing.operations,
        main_loop_overhead=result.timing.main_loop_overhead,
        non_main_loop=_RESTART_OVERHEAD_CYCLES,
    )
    record = replace(
        result.record,
        busy_cycles=timing.busy_cycles,
        stall_cycles=0,
    )
    return InvocationResult(record=record, timing=timing)
