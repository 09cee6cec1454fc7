"""Stream-program rules: scoreboard, SRF and descriptor limits (SP###).

Image-scope passes over a :class:`~repro.streamc.compiler.StreamProgramImage`:
dependency-graph sanity (including the static deadlock detection the
runtime watchdog would otherwise only diagnose mid-run), SRF
allocation legality against the 128 KB capacity, SDR/MAR descriptor
bounds, and strided load/store bounds against the declared memory
arrays.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.passes import AnalysisContext, analysis_pass
from repro.isa.stream_ops import StreamOpType
from repro.streamc.program import _pattern_range


@analysis_pass("stream.scoreboard", "image")
def check_scoreboard(context: AnalysisContext) -> Iterator[Finding]:
    """Dependency references: dangling, forward/self, cycles, kernels."""
    image = context.image
    assert image is not None
    where = context.subject
    count = len(image.instructions)

    for position, instr in enumerate(image.instructions):
        spot = f"{where}#{position}"
        if instr.index != position:
            yield Finding(
                "SP001", Severity.ERROR, spot,
                f"instruction mis-indexed as {instr.index} at "
                f"position {position}",
                hint="scoreboard dependencies address instructions "
                     "by position; a wrong index breaks them")
        for dep in instr.deps:
            if not 0 <= dep < count:
                yield Finding(
                    "SP001", Severity.ERROR, spot,
                    f"{instr.op.value} depends on instruction {dep}, "
                    f"which does not exist (program has {count})",
                    hint="the dependency can never be satisfied; the "
                         "scoreboard would hold this slot forever")
            elif dep == position:
                yield Finding(
                    "SP002", Severity.ERROR, spot,
                    f"{instr.op.value} depends on itself",
                    hint="a self-dependency deadlocks the scoreboard")
            elif dep > position:
                yield Finding(
                    "SP002", Severity.ERROR, spot,
                    f"{instr.op.value} depends on later instruction "
                    f"{dep}",
                    hint="the host issues in program order; forward "
                         "dependencies stall the scoreboard until the "
                         "watchdog fires")
        if (instr.op.is_kernel
                or instr.op is StreamOpType.MICROCODE_LOAD):
            if instr.kernel not in image.kernels:
                yield Finding(
                    "SP004", Severity.ERROR, spot,
                    f"{instr.op.value} references kernel "
                    f"{instr.kernel!r}, which the image does not carry",
                    hint="the simulator raises SimulationError at "
                         "issue time; bundle the compiled kernel")

    yield from _dependency_cycles(image, where)


def _dependency_cycles(image, where: str) -> Iterator[Finding]:
    """Flag genuine dependency cycles (mutual forward references)."""
    count = len(image.instructions)
    graph = {
        position: [dep for dep in instr.deps if 0 <= dep < count]
        for position, instr in enumerate(image.instructions)
    }
    state: dict[int, int] = {}
    reported: set[frozenset] = set()

    for root in graph:
        if state.get(root, 0):
            continue
        stack = [(root, iter(graph[root]))]
        state[root] = 1
        path = [root]
        while stack:
            node, deps = stack[-1]
            advanced = False
            for dep in deps:
                mark = state.get(dep, 0)
                if mark == 1:
                    cycle = path[path.index(dep):]
                    key = frozenset(cycle)
                    if key not in reported:
                        reported.add(key)
                        yield Finding(
                            "SP003", Severity.ERROR,
                            f"{where}#{min(cycle)}",
                            f"dependency cycle through instructions "
                            f"{sorted(cycle)}",
                            hint="every instruction in the cycle "
                                 "waits on another; the scoreboard "
                                 "deadlocks at run time")
                elif mark == 0:
                    state[dep] = 1
                    stack.append((dep, iter(graph[dep])))
                    path.append(dep)
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                stack.pop()
                path.pop()


@analysis_pass("stream.srf", "image")
def check_srf(context: AnalysisContext) -> Iterator[Finding]:
    """SRF capacity and allocation-overlap legality."""
    image = context.image
    assert image is not None
    where = context.subject
    capacity = context.machine.srf_words

    records = list(image.srf_allocations)
    for record in records:
        if record.start < 0 or record.end > capacity:
            yield Finding(
                "SP005", Severity.ERROR, where,
                f"stream {record.stream} allocated at SRF words "
                f"[{record.start}, {record.end}) outside the "
                f"{capacity}-word SRF",
                hint="the stream does not fit; shorten it or free "
                     "earlier streams first",
                details={"start": record.start, "words": record.words,
                         "srf_words": capacity})
    ordered = sorted(records, key=lambda r: (r.start, r.allocated_at))
    for i, first in enumerate(ordered):
        for second in ordered[i + 1:]:
            if second.start >= first.end:
                break
            if first.overlaps(second):
                yield Finding(
                    "SP006", Severity.ERROR, where,
                    f"streams {first.stream} and {second.stream} "
                    f"overlap in the SRF (words "
                    f"[{max(first.start, second.start)}, "
                    f"{min(first.end, second.end)})) while both live",
                    hint="one stream would silently corrupt the "
                         "other; the allocator double-booked the SRF",
                    details={"first": first.stream,
                             "second": second.stream})


@analysis_pass("stream.descriptors", "image")
def check_descriptors(context: AnalysisContext) -> Iterator[Finding]:
    """SDR / MAR indices within the descriptor files (32 / 8)."""
    image = context.image
    assert image is not None
    machine = context.machine
    for position, instr in enumerate(image.instructions):
        spot = f"{context.subject}#{position}"
        if instr.sdr is not None and not (
                0 <= instr.sdr < machine.num_sdrs):
            yield Finding(
                "SP007", Severity.ERROR, spot,
                f"{instr.op.value} writes SDR {instr.sdr}, but the "
                f"machine has {machine.num_sdrs} SDRs",
                details={"sdr": instr.sdr,
                         "num_sdrs": machine.num_sdrs})
        if instr.mar is not None and not (
                0 <= instr.mar < machine.num_mars):
            yield Finding(
                "SP008", Severity.ERROR, spot,
                f"{instr.op.value} writes MAR {instr.mar}, but the "
                f"machine has {machine.num_mars} MARs",
                details={"mar": instr.mar,
                         "num_mars": machine.num_mars})


@analysis_pass("stream.memory", "image")
def check_memory_bounds(context: AnalysisContext) -> Iterator[Finding]:
    """Strided load/store word ranges within a declared array.

    Indexed patterns wrap modulo the array length at run time, so only
    strided transfers have a statically checkable range.  Images built
    by hand carry no array extents and are skipped.
    """
    image = context.image
    assert image is not None
    if not image.arrays:
        return
    extents = sorted(image.arrays, key=lambda a: a.base)
    for position, instr in enumerate(image.instructions):
        if not instr.op.is_memory or instr.pattern is None:
            continue
        if getattr(instr.pattern, "kind", None) != "strided":
            continue
        lo, hi = _pattern_range(instr.pattern)
        if any(array.base <= lo and hi <= array.end
               for array in extents):
            continue
        yield Finding(
            "SP009", Severity.ERROR, f"{context.subject}#{position}",
            f"{instr.op.value} touches words [{lo}, {hi}), outside "
            f"every declared array",
            hint="the transfer reads or clobbers memory no array "
                 "owns; check the pattern's start/stride/length",
            details={"lo": lo, "hi": hi,
                     "arrays": [[a.name, a.base, a.end]
                                for a in extents]})
