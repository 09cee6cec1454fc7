"""Static cycle-bound analysis over compiled stream programs.

An abstract interpretation of a :class:`StreamProgramImage` against
one machine/board configuration that -- without simulating -- brackets
the simulated run time:

``lower_bound_cycles <= simulated total_cycles <= upper_bound_cycles``

The **lower bound** is the maximum of two families of sound limits:

* *Per-component serialization floors* -- each shared resource must be
  busy for at least the program's aggregate demand divided by that
  resource's peak bandwidth (cluster compute, SRF bandwidth, DRAM data
  bus, AG lanes, stream-controller issue slots, host-interface issue
  rate, microcode loader).
* *A dependence-DAG path bound* -- the static analogue of the dynamic
  critical path (``repro.obs.critpath``): instruction ``i`` cannot
  issue before the host has transferred its ``i`` predecessors, cannot
  begin until ``issue + issue_overhead`` and until every dependency has
  completed plus the controller pipeline, and cannot complete before
  ``begin + d_min``; a ``host_dependency`` additionally stalls the host
  for a full round trip after the instruction completes.

Each per-instruction minimum duration ``d_min`` reuses the simulator's
own closed-form timing models (``CompiledKernel.timing`` + the SRF
stall model, ``MemorySystem.measure`` under the DRAM page policy, the
microcode loader's cycles-per-word) evaluated at their best case: no
resource sharing, no reloads, no lane contention.  The **upper bound**
charges every instruction its worst-case serialized cost (host issue
slot + controller pipeline + worst-case duration + any round trip),
where the worst-case duration inflates memory streams by the maximum
bandwidth-sharing slowdown (``num_ags / bank-conflict factor``) and
kernels by a full microcode reload.

Soundness arguments for every formula live in ``docs/analysis.md``;
the differential gate (``repro gate``, :mod:`repro.engine.gate`)
enforces them empirically against both simulation backends on the app
matrix and the fuzzed streamc corpus.  Bounds model fault-free runs
only: fault injection adds retries and backoff outside any static
limit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.config import BoardConfig, MachineConfig
from repro.core.srf import StreamRegisterFile
from repro.isa.stream_ops import StreamInstruction, StreamOpType
from repro.isa.vliw import CompiledKernel
from repro.memsys.controller import MemorySystem
from repro.streamc.compiler import StreamProgramImage

#: Schema stamp of the serialized report document.
BOUNDS_SCHEMA = "repro.bounds-report/1"

#: RESTART continues a running kernel (no prologue/epilogue); the
#: simulator charges this flat overhead instead
#: (``repro.core.processor._RESTART_OVERHEAD_CYCLES``).
_RESTART_OVERHEAD_CYCLES = 16

#: Worst-case shared-memory slowdown: the processor-sharing server
#: never scales a stream below ``bank_conflict_factor / active``
#: of its isolated rate, and at most ``num_ags`` streams are active
#: (``repro.memsys.controller.SharedMemoryServer.current_rates``).
_BANK_CONFLICT_FACTOR = 0.9

#: Static resource names, aligned with the dynamic critical-path
#: vocabulary (``repro.obs.critpath``) so predicted and measured
#: bottlenecks are directly comparable.
RESOURCES = ("ags", "clusters", "controller", "dram", "host",
             "microcontroller", "srf")

#: Resources considered equivalent when comparing a static prediction
#: against a dynamic critpath binding resource: the static model
#: cannot know AG lane assignment, and SRF bandwidth throttling
#: surfaces dynamically as cluster (stall) time.
_EQUIVALENT = (
    frozenset({"ags", "ag0", "ag1", "dram"}),
    frozenset({"clusters", "srf"}),
    frozenset({"host", "scoreboard"}),
)


@dataclass(frozen=True)
class InstructionBounds:
    """Static duration window of one stream instruction."""

    index: int
    op: str
    tag: str | None
    resource: str
    min_cycles: float
    max_cycles: float
    detail: dict = field(default_factory=dict)


@dataclass
class BoundsAnalysis:
    """Everything ``compute_bounds`` derives from one image."""

    program: str
    board_mode: str
    instructions: list[InstructionBounds]
    components: dict[str, float]
    path_cycles: float
    path_resources: dict[str, float]
    schedule_resources: dict[str, float]
    lower_bound_cycles: float
    upper_bound_cycles: float
    bottleneck: str
    bottleneck_source: str          # "path" or "component"
    image: StreamProgramImage | None = None

    def brackets(self, simulated_cycles: float) -> bool:
        """Does the bracketing invariant hold for this run?"""
        return (self.lower_bound_cycles - 1e-6 <= simulated_cycles
                <= self.upper_bound_cycles + 1e-6)

    def tightness(self, simulated_cycles: float) -> float:
        """Lower-bound tightness ratio ``simulated / lower`` (>= 1
        whenever the bound is sound; 1.0 is a perfect prediction)."""
        if self.lower_bound_cycles <= 0:
            return float("inf")
        return simulated_cycles / self.lower_bound_cycles

    def report(self) -> dict:
        """The deterministic ``repro.bounds-report/1`` document."""
        per_op: dict[str, dict[str, float]] = {}
        for row in self.instructions:
            slot = per_op.setdefault(
                row.op, {"count": 0, "min_cycles": 0.0,
                         "max_cycles": 0.0})
            slot["count"] += 1
            slot["min_cycles"] += row.min_cycles
            slot["max_cycles"] += row.max_cycles
        return {
            "schema": BOUNDS_SCHEMA,
            "program": self.program,
            "board_mode": self.board_mode,
            "instructions": len(self.instructions),
            "lower_bound_cycles": self.lower_bound_cycles,
            "upper_bound_cycles": self.upper_bound_cycles,
            "path_cycles": self.path_cycles,
            "path_resources": dict(sorted(
                self.path_resources.items())),
            "schedule_resources": dict(sorted(
                self.schedule_resources.items())),
            "components": dict(sorted(self.components.items())),
            "bottleneck": {"resource": self.bottleneck,
                           "source": self.bottleneck_source},
            "per_op": {op: per_op[op] for op in sorted(per_op)},
        }

    def to_json(self) -> str:
        return json.dumps(self.report(), indent=2, sort_keys=True)


def normalize_resource(resource: str) -> str:
    """Collapse lane-level names onto their static component."""
    if resource.startswith("ag") and resource[2:].isdigit():
        return "ags"
    return resource


def resources_match(static: str, dynamic: str) -> bool:
    """Is the dynamic critpath binding resource the one the static
    model predicted, up to vocabulary the static model cannot see?"""
    static = normalize_resource(static)
    dynamic = normalize_resource(dynamic)
    if static == dynamic:
        return True
    return any(static in group and dynamic in group
               for group in _EQUIVALENT)


def _kernel_bounds(instr: StreamInstruction, kernel: CompiledKernel,
                   machine: MachineConfig,
                   srf: StreamRegisterFile) -> tuple[float, float, dict]:
    """Min/max duration of one kernel (or RESTART) invocation.

    The minimum is the simulator's exact invocation cost -- modulo
    schedule II x iterations plus fixed overheads plus the SRF stall
    model -- which the event loop never undercuts.  The maximum adds a
    full microcode reload (the safety-net load path when the kernel
    was evicted between invocations).
    """
    timing = kernel.timing(instr.stream_elements, machine.num_clusters,
                           machine.cluster.fpus)
    if instr.op is StreamOpType.RESTART:
        busy = (timing.operations + timing.main_loop_overhead
                + _RESTART_OVERHEAD_CYCLES)
        stall = 0
    else:
        busy = timing.busy_cycles
        stall = srf.kernel_stall_cycles(kernel, timing.iterations)
    minimum = float(busy + stall)
    reload_cycles = (kernel.microcode_words
                     * machine.microcode_load_cycles_per_word)
    detail = {
        "kernel": kernel.name,
        "iterations": timing.iterations,
        "ii": kernel.ii,
        "steady_cycles": float(timing.operations
                               + timing.main_loop_overhead),
        "overhead_cycles": float(busy + stall) - float(
            timing.operations + timing.main_loop_overhead),
        "srf_words": float(
            (kernel.words_in_per_iteration
             + kernel.words_out_per_iteration)
            * timing.iterations * machine.num_clusters),
    }
    return minimum, minimum + reload_cycles, detail


def _memory_bounds(instr: StreamInstruction, memory: MemorySystem,
                   machine: MachineConfig) -> tuple[float, float, dict]:
    """Min/max duration of one memory stream transfer.

    Minimum: the stream alone at its measured page-policy rate
    (``exclusive_cycles``); the sharing server only ever scales rates
    *down*.  Maximum: the same transfer at the worst sustained shared
    rate, ``bank_conflict_factor / num_ags`` of isolated.
    """
    measurement = memory.measure(instr.pattern)
    steady = measurement.words / measurement.rate_words_per_cycle
    sharing = (1.0 if machine.num_ags <= 1
               else machine.num_ags / _BANK_CONFLICT_FACTOR)
    detail = {
        "kind": instr.pattern.kind,
        "words": float(measurement.words),
        "dram_words": float(measurement.dram_words),
        "startup_cycles": float(measurement.startup_cycles),
        "dram_core_cycles": float(measurement.dram_core_cycles),
    }
    return (float(measurement.exclusive_cycles),
            float(measurement.startup_cycles + steady * sharing),
            detail)


def _instruction_bounds(image: StreamProgramImage,
                        machine: MachineConfig) -> list[InstructionBounds]:
    srf = StreamRegisterFile(machine)
    memory = MemorySystem(machine)
    referenced: set[str] = set()
    rows: list[InstructionBounds] = []
    for instr in image.instructions:
        if instr.op.is_kernel:
            kernel = image.kernels[instr.kernel]
            minimum, maximum, detail = _kernel_bounds(
                instr, kernel, machine, srf)
            resource = "clusters"
        elif instr.op.is_memory:
            minimum, maximum, detail = _memory_bounds(
                instr, memory, machine)
            resource = "ags"
        elif instr.op is StreamOpType.MICROCODE_LOAD:
            kernel = image.kernels[instr.kernel]
            full = max(kernel.microcode_words
                       * machine.microcode_load_cycles_per_word, 1.0)
            # Only the first reference to a kernel is guaranteed a
            # cold store; later explicit loads may hit residency and
            # collapse to the 1-cycle floor.
            minimum = full if instr.kernel not in referenced else 1.0
            maximum = full
            detail = {"kernel": kernel.name,
                      "words": float(kernel.microcode_words)}
            resource = "microcontroller"
        else:
            minimum = maximum = 1.0
            detail = {}
            resource = "controller"
        if instr.kernel:
            referenced.add(instr.kernel)
        rows.append(InstructionBounds(
            index=instr.index, op=instr.op.value,
            tag=instr.tag or None, resource=resource,
            min_cycles=minimum, max_cycles=maximum, detail=detail))
    return rows


def _component_bounds(rows: list[InstructionBounds],
                      machine: MachineConfig,
                      board: BoardConfig) -> dict[str, float]:
    """Per-resource serialization floors (each alone bounds the run).

    Every formula is aggregate demand over peak service rate; each
    resource serves at most its peak no matter how instructions
    overlap, so the busiest one bounds the makespan from below.
    """
    issue_cycles = board.host_issue_cycles(machine)
    issue_overhead = (machine.stream_controller_issue_cycles
                      + board.issue_pipeline_cycles)
    kernel_rows = [r for r in rows if r.resource == "clusters"]
    mem_rows = [r for r in rows if r.resource == "ags"]
    load_rows = [r for r in rows if r.resource == "microcontroller"]
    components = {
        # Kernels serialize on the cluster array.
        "clusters": sum(r.min_cycles for r in kernel_rows),
        # Kernel SRF traffic at the full 16 words/cycle array port.
        "srf": sum(r.detail.get("srf_words", 0.0)
                   for r in kernel_rows)
               / machine.srf_peak_words_per_cycle,
        # DRAM data bus: total off-chip words at the bus peak (the
        # sharing server admits at most this aggregate rate).
        "dram": sum(r.detail.get("dram_words", 0.0)
                    for r in mem_rows)
                / machine.mem_peak_words_per_cycle,
        # Each stream holds one AG lane for >= its exclusive time.
        "ags": sum(r.min_cycles for r in mem_rows)
               / max(1, machine.num_ags),
        # The controller pipelines one begin per issue_overhead.
        "controller": float(len(rows) * issue_overhead),
        # The host transfers instructions at one per issue_cycles;
        # the last one still has to cross the controller and run.
        "host": ((len(rows) - 1) * issue_cycles + issue_overhead + 1.0
                 if rows else 0.0),
        # Explicit microcode loads serialize on the loader.
        "microcontroller": sum(r.min_cycles for r in load_rows),
    }
    return components


def _path_bound(image: StreamProgramImage,
                rows: list[InstructionBounds],
                machine: MachineConfig,
                board: BoardConfig) -> tuple[float, dict[str, float]]:
    """Dependence-DAG lower bound with per-resource attribution.

    A relaxation of the event loop: ignore every finite resource
    (scoreboard, cluster/loader/AG serialization, controller
    back-pressure) and keep only program-order host issue, dependency
    edges, the controller pipeline latency and host round trips.
    Every kept constraint is one the simulator also enforces, so each
    ``complete[i]`` lower-bounds the simulated completion time.
    """
    issue_cycles = board.host_issue_cycles(machine)
    issue_overhead = (machine.stream_controller_issue_cycles
                      + board.issue_pipeline_cycles)
    round_trip = board.host_round_trip_cycles

    instructions = image.instructions
    n = len(instructions)
    if n == 0:
        return 0.0, {}
    issue_at = [0.0] * n
    complete = [0.0] * n
    # Attribution back-pointers: what produced each issue/begin time.
    issue_cause: list[tuple[str, int]] = [("start", -1)] * n
    begin_cause: list[tuple[str, int]] = [("issue", -1)] * n

    host_ready = 0.0
    host_cause: tuple[str, int] = ("start", -1)
    for i, instr in enumerate(instructions):
        issue_at[i] = host_ready
        issue_cause[i] = host_cause
        # Memory streams start at the controller's *decision* time --
        # ``server.start`` runs before the pipeline latency elapses --
        # so they overlap the issue overhead; everything else begins
        # ``issue_overhead`` after its decision.
        overhead = 0.0 if instr.op.is_memory else issue_overhead
        begin = issue_at[i] + overhead
        cause = ("issue", i)
        for dep in instr.deps:
            candidate = complete[dep] + overhead
            if candidate > begin:
                begin = candidate
                cause = ("dep", dep)
        begin_cause[i] = cause
        complete[i] = begin + rows[i].min_cycles
        next_ready = issue_at[i] + issue_cycles
        host_cause = ("rate", i)
        if instr.host_dependency:
            blocked = complete[i] + round_trip
            if blocked > next_ready:
                next_ready = blocked
                host_cause = ("round_trip", i)
        host_ready = next_ready

    path_cycles = max(complete)
    tail = max(range(n), key=lambda i: (complete[i], i))

    # Walk the binding chain backwards, attributing every segment to
    # a resource in the critical-path vocabulary: instruction
    # durations to their resource, controller pipeline latencies to
    # the controller, issue-rate gaps and round trips to the host.
    attributed: dict[str, float] = {}

    def charge(resource: str, cycles: float) -> None:
        if cycles > 0:
            attributed[resource] = (attributed.get(resource, 0.0)
                                    + cycles)

    state, index = "complete", tail
    while index >= 0:
        if state == "complete":
            charge(rows[index].resource, rows[index].min_cycles)
            if not instructions[index].op.is_memory:
                charge("controller", issue_overhead)
            kind, source = begin_cause[index]
            if kind == "dep":
                state, index = "complete", source
            else:
                state, index = "issue", index
        else:                                    # state == "issue"
            kind, source = issue_cause[index]
            if kind == "round_trip":
                charge("host", issue_at[index] - complete[source])
                state, index = "complete", source
            elif kind == "rate":
                charge("host", issue_at[index] - issue_at[source])
                state, index = "issue", source
            else:                                # program start
                break
    return path_cycles, attributed


def _abstract_schedule(image: StreamProgramImage,
                       rows: list[InstructionBounds],
                       machine: MachineConfig,
                       board: BoardConfig) -> dict[str, float]:
    """Greedy in-order schedule of the abstract machine, for
    bottleneck *attribution* only.

    The path relaxation (:func:`_path_bound`) must stay sound, so it
    drops every finite-resource constraint -- which also makes its
    attribution blind to serialization: a program whose dynamic
    critical path chains kernels through the busy cluster array looks
    host-limited to the relaxation.  This pass replays the program
    through the abstract machine *with* the arbitration the event loop
    applies -- scoreboard window, one kernel / one loader at a time,
    ``num_ags`` memory lanes, the controller pipeline, host issue rate
    and round trips -- using the static minimum durations, then walks
    the binding chain backwards exactly like the dynamic critical-path
    extractor, charging execution segments to their resource and
    issue-chain segments (including scoreboard back-pressure, which
    the dynamic extractor also books against the host interface) to
    the host.  Its begin-in-order assumption is *not* a sound
    relaxation, so its completion times are never used as bounds.
    """
    issue_cycles = board.host_issue_cycles(machine)
    issue_overhead = (machine.stream_controller_issue_cycles
                      + board.issue_pipeline_cycles)
    round_trip = board.host_round_trip_cycles
    slots = machine.scoreboard_slots

    instructions = image.instructions
    n = len(instructions)
    if n == 0:
        return {}
    issue_at = [0.0] * n
    begin_at = [0.0] * n
    complete = [0.0] * n
    duration = [row.min_cycles for row in rows]
    #: completion index that round-trip-gated this issue, if any.
    issue_block: list[int | None] = [None] * n
    #: (kind, source): "dep"/"busy" -> complete[source],
    #: "ctrl" -> begin[source], "issue" -> issue_at[index].
    begin_cause: list[tuple[str, int]] = [("issue", -1)] * n

    host_ready = 0.0
    blocked_by: int | None = None
    cluster = (0.0, -1)       # (free at, previous occupant)
    loader = (0.0, -1)
    lanes = [(0.0, -1)] * max(1, machine.num_ags)
    last_begin = (0.0, -1)

    for i, instr in enumerate(instructions):
        slot_free = 0.0
        if i >= slots:
            slot_free = sorted(complete[:i])[i - slots]
        issue_at[i] = max(host_ready, slot_free)
        issue_block[i] = blocked_by
        blocked_by = None

        # Candidates in tie-break priority order (later entries win
        # ties): issue window < controller pipeline < resource
        # serialization < data dependency -- mirroring the dynamic
        # extractor's preference for the most specific cause.
        # Memory streams start at the controller decision (the server
        # is started before the pipeline latency elapses), so their
        # candidates carry no issue overhead.
        overhead = 0.0 if instr.op.is_memory else issue_overhead
        candidates: list[tuple[float, str, int]] = [
            (issue_at[i] + overhead, "issue", i),
            (last_begin[0] + issue_overhead, "ctrl", last_begin[1]),
        ]
        lane = 0
        if instr.op.is_kernel:
            candidates.append(
                (cluster[0] + overhead, "busy", cluster[1]))
        elif instr.op.is_memory:
            lane = min(range(len(lanes)),
                       key=lambda index: lanes[index][0])
            candidates.append(
                (lanes[lane][0] + overhead, "busy",
                 lanes[lane][1]))
        elif instr.op is StreamOpType.MICROCODE_LOAD:
            candidates.append(
                (loader[0] + overhead, "busy", loader[1]))
        for dep in instr.deps:
            candidates.append(
                (complete[dep] + overhead, "dep", dep))
        begin, kind, source = max(
            enumerate(candidates),
            key=lambda item: (item[1][0], item[0]))[1]
        begin_at[i] = begin
        begin_cause[i] = (kind, source)
        if instr.op.is_memory:
            # Approximate the shared-memory server: a stream that
            # overlaps k busy lanes progresses at ~1/k of its
            # isolated rate (the minimum duration assumes isolation).
            active = 1 + sum(1 for free_at, _ in lanes
                             if free_at > begin + 1e-9)
            startup = rows[i].detail.get("startup_cycles", 0.0)
            duration[i] = (startup
                           + (rows[i].min_cycles - startup) * active)
        complete[i] = begin + duration[i]
        last_begin = (begin, i)
        if instr.op.is_kernel:
            cluster = (complete[i], i)
        elif instr.op.is_memory:
            lanes[lane] = (complete[i], i)
        elif instr.op is StreamOpType.MICROCODE_LOAD:
            loader = (complete[i], i)

        host_ready = issue_at[i] + issue_cycles
        if instr.host_dependency:
            blocked = complete[i] + round_trip
            if blocked > host_ready:
                host_ready = blocked
                blocked_by = i

    attributed: dict[str, float] = {}

    def charge(resource: str, cycles: float) -> None:
        if cycles > 0:
            attributed[resource] = (attributed.get(resource, 0.0)
                                    + cycles)

    state, index = "complete", max(range(n),
                                   key=lambda i: (complete[i], i))
    guard = 4 * n + 4
    while index >= 0 and guard > 0:
        guard -= 1
        if state == "complete":
            charge(rows[index].resource, duration[index])
            state = "begin"
        elif state == "begin":
            kind, source = begin_cause[index]
            if not instructions[index].op.is_memory:
                charge("controller", issue_overhead)
            if kind in ("dep", "busy") and source >= 0:
                state, index = "complete", source
            elif kind == "ctrl" and source >= 0:
                state, index = "begin", source
            else:
                state = "issue"
        else:                                    # state == "issue"
            blocker = issue_block[index]
            if blocker is not None:
                charge("host", issue_at[index] - complete[blocker])
                state, index = "complete", blocker
            elif index > 0:
                charge("host",
                       issue_at[index] - issue_at[index - 1])
                state, index = "issue", index - 1
            else:
                break
    return attributed


def _upper_bound(rows: list[InstructionBounds],
                 image: StreamProgramImage,
                 machine: MachineConfig,
                 board: BoardConfig) -> float:
    """Worst-case full serialization.

    At any moment of a fault-free run at least one of these windows is
    open: the host waiting out an issue slot or a round trip, the
    controller pipelining a begin, or an instruction executing.  Each
    window is charged to exactly one instruction at its worst-case
    width, so the sum covers the whole run.
    """
    issue_cycles = board.host_issue_cycles(machine)
    issue_overhead = (machine.stream_controller_issue_cycles
                      + board.issue_pipeline_cycles)
    round_trip = board.host_round_trip_cycles
    total = 0.0
    for row, instr in zip(rows, image.instructions):
        total += issue_cycles + issue_overhead + row.max_cycles
        if instr.host_dependency:
            total += round_trip
    return total


def compute_bounds(image: StreamProgramImage,
                   machine: MachineConfig | None = None,
                   board: BoardConfig | None = None) -> BoundsAnalysis:
    """Statically bracket one compiled image on one configuration."""
    machine = machine or MachineConfig()
    board = board or BoardConfig.hardware()
    rows = _instruction_bounds(image, machine)
    components = _component_bounds(rows, machine, board)
    path_cycles, path_resources = _path_bound(image, rows, machine,
                                              board)
    lower = max([path_cycles] + list(components.values()))
    upper = max(_upper_bound(rows, image, machine, board), lower)

    # Predicted bottleneck: the heaviest resource along the abstract
    # schedule's binding chain (the static analogue of the dynamic
    # critpath binding resource); empty schedules fall back to the
    # saturated component.
    schedule = _abstract_schedule(image, rows, machine, board)
    if schedule:
        source = "schedule"
        bottleneck = sorted(schedule.items(),
                            key=lambda item: (-item[1], item[0]))[0][0]
    elif components:
        source = "component"
        bottleneck = sorted(components.items(),
                            key=lambda item: (-item[1], item[0]))[0][0]
    else:
        source = "component"
        bottleneck = "host"

    return BoundsAnalysis(
        program=image.name,
        board_mode=board.mode,
        instructions=rows,
        components=components,
        path_cycles=path_cycles,
        path_resources=path_resources,
        schedule_resources=schedule,
        lower_bound_cycles=lower,
        upper_bound_cycles=upper,
        bottleneck=bottleneck,
        bottleneck_source=source,
        image=image,
    )


def validate_bounds_report(document: dict) -> None:
    """Structural checks for a serialized bounds report."""
    if document.get("schema") != BOUNDS_SCHEMA:
        raise ValueError(f"not a bounds report: "
                         f"{document.get('schema')!r}")
    lower = document["lower_bound_cycles"]
    upper = document["upper_bound_cycles"]
    if not lower <= upper:
        raise ValueError(
            f"inconsistent bounds: lower {lower} > upper {upper}")
    if document["path_cycles"] > lower + 1e-6:
        raise ValueError("path bound exceeds the lower bound")
    for name, cycles in document["components"].items():
        if cycles > lower + 1e-6:
            raise ValueError(
                f"component {name} ({cycles}) exceeds the lower "
                f"bound ({lower})")
    if document["bottleneck"]["resource"] not in RESOURCES:
        raise ValueError(
            f"unknown bottleneck resource "
            f"{document['bottleneck']['resource']!r}")


def render_bounds(document: dict) -> str:
    """Human-readable one-program summary."""
    lines = [
        f"{document['program']} on {document['board_mode']}: "
        f"{document['instructions']} instruction(s)",
        f"  lower bound {document['lower_bound_cycles']:.0f} cycles "
        f"({document['bottleneck']['resource']} via "
        f"{document['bottleneck']['source']}), "
        f"upper bound {document['upper_bound_cycles']:.0f}",
        f"  dependence path {document['path_cycles']:.0f} cycles",
        "  component floors: " + ", ".join(
            f"{name}={cycles:.0f}" for name, cycles
            in sorted(document["components"].items(),
                      key=lambda item: (-item[1], item[0]))),
    ]
    return "\n".join(lines)


__all__ = [
    "BOUNDS_SCHEMA",
    "BoundsAnalysis",
    "InstructionBounds",
    "RESOURCES",
    "compute_bounds",
    "normalize_resource",
    "render_bounds",
    "resources_match",
    "validate_bounds_report",
]
