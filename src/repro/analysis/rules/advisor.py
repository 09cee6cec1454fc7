"""Bound-model rules and the optimization advisor (BD###, ADV###).

Image-scope passes over the static cycle-bound analysis
(:mod:`repro.analysis.bounds`).  ``BD`` rules report properties of the
bound model itself (internal consistency, microcode-store pressure,
host-interface-bound programs); ``ADV`` rules are the optimization
advisor from the paper's Figures 7-8 discussion: each finding names a
restructuring opportunity and carries an *estimated* cycle saving
derived from the static minimum durations.  Advisor findings are
``INFO`` severity -- they describe performance left on the table, not
defects -- and every estimate is an upper bound on the benefit (the
cycles are real, but overlap after restructuring is assumed perfect).

The advisor is deliberately silent on steady-state probe programs
(one microcode load + one kernel invocation): every rule requires
either memory streams or repeated kernel invocations, so the kernel
probes of ``repro gate`` (:func:`repro.engine.gate.probe_image`)
never trip it.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.bounds import compute_bounds
from repro.analysis.findings import Finding, Severity
from repro.analysis.passes import AnalysisContext, analysis_pass

#: An advisor rule only fires when its estimated saving is at least
#: this fraction of the whole-program lower bound: advice about noise
#: is worse than no advice.
SAVINGS_FLOOR = 0.05
#: A stream is "startup dominated" when fixed startup latency is at
#: least this fraction of its minimum duration (paper Figure 7: short
#: streams cannot amortize the memory-access setup).
STARTUP_SHARE = 0.25
#: AG-serialization advice needs at least this fraction of the lower
#: bound tied up in dependency-chained memory streams.
AG_CHAIN_FLOOR = 0.10


def _ancestors(image) -> list[int]:
    """Transitive-dependency bitmask per instruction.

    Bit ``j`` of entry ``i`` is set when instruction ``i`` depends on
    instruction ``j``, directly or through intermediaries.  Programs
    are dependency-acyclic in program order (SP002 flags the rest), so
    one forward sweep suffices.
    """
    masks = [0] * len(image.instructions)
    for i, instr in enumerate(image.instructions):
        mask = 0
        for dep in instr.deps:
            if 0 <= dep < i:
                mask |= masks[dep] | (1 << dep)
        masks[i] = mask
    return masks


@analysis_pass("image.bounds", "image")
def check_bounds(context: AnalysisContext) -> Iterator[Finding]:
    """Static cycle-bound consistency and optimization advice."""
    image = context.image
    assert image is not None
    where = context.subject
    try:
        analysis = compute_bounds(image, machine=context.machine)
    except Exception as error:  # broken images are SP/MC territory
        yield Finding(
            "BD004", Severity.INFO, where,
            f"cycle-bound analysis unavailable: {error}",
            hint="fix the structural findings first; the bound model "
                 "only covers images the simulator would accept")
        return

    lower = analysis.lower_bound_cycles
    upper = analysis.upper_bound_cycles
    rows = analysis.instructions

    # ------------------------------------------------------------------
    # BD: properties of the bound model.
    # ------------------------------------------------------------------
    if lower > upper + 1e-6:
        yield Finding(
            "BD001", Severity.ERROR, where,
            f"static lower bound {lower:.0f} exceeds upper bound "
            f"{upper:.0f}",
            hint="the bound model is internally inconsistent for "
                 "this image; report it as a discrepancy seed")

    machine = context.machine
    store = machine.microcode_store_words
    resident = sorted(image.kernels)
    words = {name: image.kernels[name].microcode_words
             for name in resident}
    total_words = sum(words.values())
    if store and total_words > store:
        yield Finding(
            "BD002", Severity.WARNING, where,
            f"aggregate microcode ({total_words} words across "
            f"{len(resident)} kernels) exceeds the "
            f"{store}-word store; reloads will evict working set",
            hint="split the program or shrink kernels; every evicted "
                 "kernel pays the full microcode reload on reuse",
            details={"microcode_words": total_words,
                     "store_words": store,
                     "kernels": {k: words[k] for k in resident}})

    components = analysis.components
    if components:
        top = max(sorted(components), key=lambda k: components[k])
        if top == "host" and len(image.instructions) > 1:
            yield Finding(
                "BD003", Severity.INFO, where,
                f"statically host-interface bound: the host issue "
                f"floor ({components['host']:.0f} cycles) exceeds "
                f"every datapath floor",
                hint="batch work into fewer, longer stream "
                     "instructions; the host interface caps "
                     "throughput regardless of datapath speed",
                details={"host_floor": round(components["host"], 1),
                         "cluster_floor": round(
                             components.get("clusters", 0.0), 1)})

    if lower <= 0:
        return

    # ------------------------------------------------------------------
    # ADV: the optimization advisor.
    # ------------------------------------------------------------------
    masks = _ancestors(image)
    kernel_positions = [i for i, instr in enumerate(image.instructions)
                        if instr.op.is_kernel]
    kernel_mask = 0
    for i in kernel_positions:
        kernel_mask |= 1 << i

    # ADV001 -- memory streams that no kernel can overlap: every
    # kernel either feeds the stream or consumes it, so its whole
    # duration is exposed latency the clusters sit out.
    exposed = []
    for i, instr in enumerate(image.instructions):
        if not instr.op.is_memory or not kernel_positions:
            continue
        concurrent = kernel_mask
        concurrent &= ~masks[i]            # kernels this stream needs
        for k in kernel_positions:         # kernels needing this stream
            if masks[k] & (1 << i):
                concurrent &= ~(1 << k)
        if concurrent == 0:
            exposed.append(i)
    saving = sum(rows[i].min_cycles for i in exposed)
    if exposed and saving >= SAVINGS_FLOOR * lower:
        spots = ", ".join(f"#{i}" for i in exposed[:6])
        yield Finding(
            "ADV001", Severity.INFO, where,
            f"{len(exposed)} memory stream(s) ({spots}"
            f"{', ...' if len(exposed) > 6 else ''}) cannot overlap "
            f"any kernel; up to {saving:.0f} cycles of exposed "
            f"memory latency ({100 * saving / lower:.0f}% of the "
            f"lower bound)",
            hint="software-pipeline the loop: double-buffer the "
                 "streams so iteration i's loads run under "
                 "iteration i-1's kernels",
            details={"instructions": exposed,
                     "estimated_saving_cycles": round(saving, 1)})

    # ADV002 -- short, startup-dominated streams (paper Figure 7).
    short = [i for i, instr in enumerate(image.instructions)
             if instr.op.is_memory
             and rows[i].min_cycles > 0
             and (rows[i].detail.get("startup_cycles", 0.0)
                  >= STARTUP_SHARE * rows[i].min_cycles)]
    startup_total = sum(rows[i].detail["startup_cycles"] for i in short)
    if len(short) >= 2 and startup_total >= SAVINGS_FLOOR * lower:
        saving = startup_total * (len(short) - 1) / len(short)
        yield Finding(
            "ADV002", Severity.INFO, where,
            f"{len(short)} short memory stream(s) pay "
            f"{startup_total:.0f} cycles of access setup "
            f"({100 * startup_total / lower:.0f}% of the lower "
            f"bound); batching them could save ~{saving:.0f}",
            hint="merge short transfers into longer streams; startup "
                 "latency amortizes only over stream length",
            details={"instructions": short,
                     "startup_cycles": round(startup_total, 1),
                     "estimated_saving_cycles": round(saving, 1)})

    # ADV003 -- kernel prologue domination (paper Figure 8): repeated
    # short invocations of the same kernel each pay the loop prologue
    # and epilogue; one batched invocation pays it once.
    by_kernel: dict[str, list[int]] = {}
    for i, instr in enumerate(image.instructions):
        if instr.op.is_kernel and rows[i].detail.get("kernel"):
            by_kernel.setdefault(rows[i].detail["kernel"], []).append(i)
    for name in sorted(by_kernel):
        calls = by_kernel[name]
        if len(calls) < 2:
            continue
        overhead = sum(rows[i].detail.get("overhead_cycles", 0.0)
                       for i in calls)
        if overhead < SAVINGS_FLOOR * lower:
            continue
        saving = overhead * (len(calls) - 1) / len(calls)
        yield Finding(
            "ADV003", Severity.INFO, where,
            f"kernel {name!r} is invoked {len(calls)} times and "
            f"spends {overhead:.0f} cycles in prologue/epilogue "
            f"({100 * overhead / lower:.0f}% of the lower bound); "
            f"batching invocations could save ~{saving:.0f}",
            hint="lengthen streams so each invocation runs more "
                 "main-loop iterations (strip-mine less aggressively)",
            details={"kernel": name, "invocations": len(calls),
                     "overhead_cycles": round(overhead, 1),
                     "estimated_saving_cycles": round(saving, 1)})

    # ADV004 -- AG serialization: dependency-chained memory streams
    # cannot use the machine's parallel address generators.
    if machine.num_ags >= 2:
        chained = [
            i for i, instr in enumerate(image.instructions)
            if instr.op.is_memory
            and any(image.instructions[j].op.is_memory
                    for j in range(i)
                    if masks[i] & (1 << j))
        ]
        chain_cycles = sum(rows[i].min_cycles for i in chained)
        if chained and chain_cycles >= AG_CHAIN_FLOOR * lower:
            saving = chain_cycles * (1 - 1 / machine.num_ags)
            yield Finding(
                "ADV004", Severity.INFO, where,
                f"{len(chained)} memory stream(s) are dependency-"
                f"chained behind other streams, serializing "
                f"{chain_cycles:.0f} cycles on one address generator "
                f"path; overlapping them could save ~{saving:.0f}",
                hint=f"break the dependence (separate buffers) so "
                     f"independent streams spread across the "
                     f"{machine.num_ags} AGs",
                details={"instructions": chained,
                         "chained_cycles": round(chain_cycles, 1),
                         "estimated_saving_cycles": round(saving, 1)})


__all__ = ["check_bounds", "SAVINGS_FLOOR", "STARTUP_SHARE",
           "AG_CHAIN_FLOOR"]
