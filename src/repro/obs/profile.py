"""Hierarchical cycle-accounting profiler (``repro.profile-report/1``).

Every figure in the paper is a cycle-attribution exercise: Figure 6
splits kernel run time into busy categories plus SRF stalls, Figure 11
splits whole-application time into the eight
:class:`~repro.core.metrics.CycleCategory` buckets, and Table 6
compares those splits across platform models.  This module folds one
finished :class:`~repro.core.RunResult` into a single deterministic
JSON artifact that answers all of those questions at once:

* a **component tree** -- for the cluster array, each address
  generator, each DRAM channel and the host interface, an *exclusive*
  busy / stall / idle decomposition whose leaves sum exactly to the
  run's total cycles (conservation is checked by
  :func:`validate_profile` and asserted in the test matrix);
* **per-kernel** and **per-stream-op rollups** -- the Figure 6 and
  Table 5 views, including the per-FU occupancy detail behind
  Figure 7 (inter-cluster COMM shows up here);
* the verbatim **figure6** / **figure11** blocks the benchmark
  ``.txt`` writers render, byte-identical to the pre-profiler output.

Category taxonomy (see docs/observability.md for the full story):

==============================  =====================================
profile leaf                    source :class:`CycleCategory`
==============================  =====================================
busy.operations                 OPERATIONS
busy.kernel_main_loop_overhead  KERNEL_MAIN_LOOP_OVERHEAD
busy.kernel_non_main_loop       KERNEL_NON_MAIN_LOOP
stall.srf_starve                CLUSTER_STALL
stall.microcode_load            MICROCODE_LOAD_STALL
stall.memory                    MEMORY_STALL
stall.scoreboard_dispatch       STREAM_CONTROLLER_OVERHEAD
stall.host_serialization        HOST_BANDWIDTH_STALL
idle                            exact residual (``total - busy - stall``)
==============================  =====================================

Per-FU busy cycles are *occupancy* (concurrent units overlap), so
they are reported as the ``fu_occupancy_cycles`` annotation next to
the exclusive tree, never inside it.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.gcpause import collector_paused
from repro.core.metrics import CycleCategory
from repro.isa.stream_ops import STREAM_OPS, StreamOpType

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import MachineConfig
    from repro.core.processor import InstructionTrace, RunResult
    from repro.obs.critpath import _Walk

#: Version tag for the profile-report layout.
PROFILE_SCHEMA = "repro.profile-report/1"

#: Cluster busy leaves, in :class:`CycleCategory` declaration order.
BUSY_LEAVES: dict[str, CycleCategory] = {
    "operations": CycleCategory.OPERATIONS,
    "kernel_main_loop_overhead": CycleCategory.KERNEL_MAIN_LOOP_OVERHEAD,
    "kernel_non_main_loop": CycleCategory.KERNEL_NON_MAIN_LOOP,
}

#: Cluster stall leaves, in :class:`CycleCategory` declaration order.
STALL_LEAVES: dict[str, CycleCategory] = {
    "srf_starve": CycleCategory.CLUSTER_STALL,
    "microcode_load": CycleCategory.MICROCODE_LOAD_STALL,
    "memory": CycleCategory.MEMORY_STALL,
    "scoreboard_dispatch": CycleCategory.STREAM_CONTROLLER_OVERHEAD,
    "host_serialization": CycleCategory.HOST_BANDWIDTH_STALL,
}

#: CycleCategory -> profile leaf path (used to tag tracer accounting
#: spans so a Perfetto view and a profile report share vocabulary).
CATEGORY_LEAF: dict[CycleCategory, str] = {
    **{category: f"busy.{leaf}"
       for leaf, category in BUSY_LEAVES.items()},
    **{category: f"stall.{leaf}"
       for leaf, category in STALL_LEAVES.items()},
}

#: Conservation tolerance: the simulator asserts attribution to
#: 1e-3 of total cycles, so the cluster idle residual is bounded by
#: the same figure.
CONSERVATION_TOLERANCE = 1e-3


class ProfileError(ValueError):
    """The document is not a valid profile report."""


def _component(total: float, busy: dict[str, float],
               stall: dict[str, float]) -> dict[str, Any]:
    """One exclusive busy/stall/idle decomposition over ``total``.

    ``idle`` is computed as the exact residual, so
    ``busy_total + stall_total + idle == total`` holds by
    construction (to float addition error).
    """
    busy = {leaf: float(value) for leaf, value in busy.items()}
    stall = {leaf: float(value) for leaf, value in stall.items()}
    busy_total = sum(busy.values())
    stall_total = sum(stall.values())
    return {
        "total": float(total),
        "busy": busy,
        "busy_total": busy_total,
        "stall": stall,
        "stall_total": stall_total,
        "idle": float(total) - busy_total - stall_total,
    }


def _kernel_rollup(result: "RunResult") -> list[dict[str, Any]]:
    """Aggregate invocation records by kernel name (Figure 6 rows)."""
    # One accumulator per kernel: invocations, stream elements, busy
    # and stall cycles, and FU cycles by unit.
    totals: dict[str, list[Any]] = {}
    for record in result.metrics.kernel_invocations:
        entry = totals.get(record.kernel)
        if entry is None:
            entry = totals[record.kernel] = [0, 0, 0, 0, {}]
        entry[0] += 1
        entry[1] += record.stream_elements
        entry[2] += record.busy_cycles
        entry[3] += record.stall_cycles
        fu_cycles = entry[4]
        for unit, cycles in record.fu_cycles.items():
            fu_cycles[unit] = fu_cycles.get(unit, 0) + cycles
    rows = []
    for kernel in sorted(totals):
        invocations, elements, busy, stall, fu_cycles = totals[kernel]
        cycles = max(busy + stall, 1)
        rows.append({
            "kernel": kernel,
            "invocations": invocations,
            "stream_elements": elements,
            "busy_cycles": busy,
            "stall_cycles": stall,
            "busy_fraction": busy / cycles,
            "stall_fraction": stall / cycles,
            "fu_cycles": {unit: fu_cycles[unit]
                          for unit in sorted(fu_cycles)},
        })
    return rows


def _op_counts(trace: "InstructionTrace") -> np.ndarray:
    """Instructions per op code (positions in :data:`STREAM_OPS`)."""
    return np.bincount(np.asarray(trace.op), minlength=len(STREAM_OPS))


def _stream_op_rollup(result: "RunResult") -> list[dict[str, Any]]:
    """Aggregate the instruction trace by stream-op type.

    A weighted ``bincount`` adds in trace order, so each op's cycles
    are the sums a per-instruction loop makes, bit for bit."""
    trace = result.trace
    op = np.asarray(trace.op)
    started = np.asarray(trace.started_at)
    duration = np.asarray(trace.finished_at) - started
    queue_delay = started - np.asarray(trace.resident_at)
    size = len(STREAM_OPS)
    counts = _op_counts(trace).tolist()
    cycles = np.bincount(op, weights=duration, minlength=size).tolist()
    queue = np.bincount(op, weights=queue_delay, minlength=size).tolist()
    return [{
        "op": STREAM_OPS[code],
        "count": counts[code],
        "cycles": cycles[code],
        "queue_cycles": queue[code],
    } for code in sorted(range(size), key=STREAM_OPS.__getitem__)
        if counts[code]]


#: Op codes the stream controller executes itself, one dispatch cycle
#: each.
_DISPATCHED_CODES = [code for code, op in enumerate(StreamOpType)
                     if op.is_register_op or op.is_misc]


def _dispatch_count(trace: "InstructionTrace") -> int:
    """Instructions the stream controller executed itself."""
    return int(_op_counts(trace)[_DISPATCHED_CODES].sum())


def profile_components(result: "RunResult") -> dict[str, dict[str, Any]]:
    """The profile's per-component busy/stall/idle trees (its
    ``components`` block), shared with the critical path's
    profile-bounds check."""
    metrics = result.metrics
    total = float(metrics.total_cycles)
    cycles = {category: float(metrics.cycles.get(category, 0.0))
              for category in CycleCategory}

    components: dict[str, dict[str, Any]] = {}
    clusters = _component(
        total,
        busy={leaf: cycles[category]
              for leaf, category in BUSY_LEAVES.items()},
        stall={leaf: cycles[category]
               for leaf, category in STALL_LEAVES.items()})
    fu_occupancy: dict[str, int] = {}
    for record in metrics.kernel_invocations:
        for unit, busy in record.fu_cycles.items():
            fu_occupancy[unit] = fu_occupancy.get(unit, 0) + busy
    clusters["fu_occupancy_cycles"] = {
        unit: fu_occupancy[unit] for unit in sorted(fu_occupancy)}
    components["clusters"] = clusters

    for lane in range(metrics.machine.num_ags):
        busy = min(metrics.ag_busy_cycles.get(lane, 0.0), total)
        components[f"ag{lane}"] = _component(
            total, busy={"stream_transfer": busy}, stall={})
    for channel in range(metrics.machine.dram.channels):
        busy = min(metrics.dram_channel_busy.get(channel, 0.0), total)
        components[f"dram_ch{channel}"] = _component(
            total, busy={"access": busy}, stall={})
    host_busy = min(metrics.host_busy_cycles, total)
    # Round-trip waits never overlap issue transfers (the host does
    # one thing at a time), but clamp so busy can never exceed total.
    round_trip_busy = min(
        metrics.host_round_trips * result.board.host_round_trip_cycles,
        max(0.0, total - host_busy))
    components["host"] = _component(
        total, busy={"issue": host_busy,
                     "round_trip": round_trip_busy}, stall={})

    # Stream-controller occupancy: one disjoint issue window per
    # instruction, plus one dispatch cycle per register/misc op it
    # executes itself.  Dispatch can overlap the next issue window,
    # hence the nested clamp.
    issue_overhead = (metrics.machine.stream_controller_issue_cycles
                      + result.board.issue_pipeline_cycles)
    dispatched = _dispatch_count(result.trace)
    controller_issue = min(issue_overhead * len(result.trace), total)
    components["controller"] = _component(
        total,
        busy={"issue": controller_issue,
              "dispatch": min(float(dispatched),
                              max(0.0, total - controller_issue))},
        stall={})

    components["microcontroller"] = _component(
        total,
        busy={"load": min(metrics.microcode_loader_busy_cycles,
                          total)},
        stall={})
    return components


@dataclass(frozen=True, slots=True)
class Derived:
    """A finished run's profile and critical-path walk, derived once
    (:func:`derive`) and kept on :attr:`RunResult.derived`, the one
    memo every report reads.  The engine derives when it completes a
    run, so the result-cache entry stores them and a hit re-derives
    neither.

    They hold while the run's event graph keeps the shape it had: an
    append, or another graph (``dataclasses.replace`` on a result
    resets :attr:`RunResult.derived`), derives afresh.  With slots it
    pickles its fields without their names.
    """

    #: The event graph's ``(nodes, edges)`` when derived.
    shape: tuple[int, int]
    #: The pickled ``repro.profile-report/1`` with ``request_digest``
    #: unset; each read unpickles a fresh copy and stamps the digest
    #: from the result's manifest.
    profile: bytes
    #: The critical-path walk: all that a critical-path report reads,
    #: so a hit's reports decode none of the graph's packed parts.
    walk: "_Walk"


@collector_paused
def derive(result: "RunResult") -> Derived | None:
    """``result``'s profile and critical-path walk: the ones it holds
    while its event graph keeps their shape, else walked and folded
    now and kept on :attr:`RunResult.derived`.  ``None`` for a run
    without an event graph.

    Raises :class:`~repro.obs.critpath.CritpathError` when the graph
    admits no walk; the result is then left as it was.
    """
    from repro.obs import critpath

    graph = getattr(result, "event_graph", None)
    if graph is None or not graph.shape[0]:
        return None
    derived = result.derived
    if derived is None or derived.shape != graph.shape:
        walk = critpath._walk(graph)
        derived = result.derived = Derived(
            shape=graph.shape, profile=pickle.dumps(_fold(result, walk)),
            walk=walk)
    return derived


@collector_paused
def build_profile(result: "RunResult") -> dict[str, Any]:
    """Fold one finished run into a ``repro.profile-report/1`` dict.

    The document is deterministic for a given run: every map is
    emitted in declaration or sorted order and nothing wall-clock
    dependent is included, so serialising it with ``json.dumps`` is
    byte-stable across processes, job counts and hash seeds.  Each
    call returns a fresh copy of the run's derived profile
    (:func:`derive`).
    """
    derived = derive(result)
    profile = (_fold(result, None) if derived is None
               else pickle.loads(derived.profile))
    manifest = result.manifest
    profile["request_digest"] = (manifest.request_digest
                                 if manifest is not None else None)
    return profile


def _fold(result: "RunResult", walk: "_Walk | None") -> dict[str, Any]:
    """The profile of ``result`` with ``walk`` its critical path
    (``request_digest`` unset)."""
    metrics = result.metrics
    total = float(metrics.total_cycles)
    components = profile_components(result)
    clusters = components["clusters"]

    kernels = _kernel_rollup(result)
    figure6 = {row["kernel"]: {"busy": row["busy_fraction"],
                               "stall": row["stall_fraction"]}
               for row in kernels}
    # Figure 11 verbatim: CycleCategory declaration order, fractions
    # of total, so the benchmark .txt renders are byte-identical.
    fractions = metrics.cycle_fractions()
    figure11 = {category.value: fractions[category]
                for category in CycleCategory}

    from repro.obs.critpath import _summary

    return {
        "schema": PROFILE_SCHEMA,
        "kind": "run",
        "program": result.name,
        "board_mode": result.board.mode,
        "request_digest": None,
        "total_cycles": total,
        "critpath": None if walk is None else _summary(walk),
        "summary": {
            "busy_fraction": clusters["busy_total"] / max(total, 1e-30),
            "stall_fraction": clusters["stall_total"] / max(total, 1e-30),
            "idle_fraction": clusters["idle"] / max(total, 1e-30),
            "gops": metrics.gops,
            "gflops": metrics.gflops,
            "watts": result.power.watts,
        },
        "components": components,
        "kernels": kernels,
        "stream_ops": _stream_op_rollup(result),
        "figure6": figure6,
        "figure11": figure11,
    }


def kernel_catalog_profile(machine: "MachineConfig | None" = None
                           ) -> dict[str, Any]:
    """Figure-6 profile of the standalone Table-2 kernel catalog.

    A ``kind: "kernel-catalog"`` sibling of :func:`build_profile` for
    the compiled-schedule view (no simulation): each kernel's
    :func:`~repro.analysis.breakdown.kernel_breakdown` fractions at
    its application-typical stream length.
    :meth:`repro.evaluation.Evaluation.figure6`, the section that
    ``repro evaluate``, ``repro kernels`` and the paper-artifact
    benchmark print, renders from this single artifact.
    """
    from repro.analysis.breakdown import kernel_breakdown
    from repro.kernels import KERNEL_LIBRARY
    from repro.kernels.library import TABLE2_KERNELS

    return {
        "schema": PROFILE_SCHEMA,
        "kind": "kernel-catalog",
        "kernels": {name: kernel_breakdown(KERNEL_LIBRARY[name],
                                           machine=machine)
                    for name in TABLE2_KERNELS},
    }


def validate_profile(profile: Any,
                     tolerance: float = CONSERVATION_TOLERANCE) -> None:
    """Check schema and exact cycle conservation; raises
    :class:`ProfileError`.

    For every component, the busy and stall leaves must sum to their
    recorded totals and ``busy + stall + idle`` must equal the
    component total exactly (float addition error only); the cluster
    idle residual must stay within ``tolerance`` of total cycles,
    mirroring the simulator's own conservation assertion.
    """
    if not isinstance(profile, dict):
        raise ProfileError("profile must be an object")
    if profile.get("schema") != PROFILE_SCHEMA:
        raise ProfileError(
            f"schema is {profile.get('schema')!r}, "
            f"expected {PROFILE_SCHEMA!r}")
    if profile.get("kind") == "kernel-catalog":
        if not isinstance(profile.get("kernels"), dict):
            raise ProfileError("kernel-catalog profile missing kernels")
        return
    total = profile.get("total_cycles")
    components = profile.get("components")
    if not isinstance(total, (int, float)) or not isinstance(
            components, dict) or not components:
        raise ProfileError("profile missing total_cycles/components")
    scale = max(1.0, float(total))
    for name, component in components.items():
        for side in ("busy", "stall"):
            leaves = component.get(side, {})
            recorded = component.get(f"{side}_total", 0.0)
            if abs(sum(leaves.values()) - recorded) > 1e-6 * scale:
                raise ProfileError(
                    f"{name}: {side} leaves sum to "
                    f"{sum(leaves.values())}, recorded {recorded}")
        attributed = (component["busy_total"] + component["stall_total"]
                      + component["idle"])
        if abs(attributed - component["total"]) > 1e-6 * scale:
            raise ProfileError(
                f"{name}: busy+stall+idle = {attributed}, "
                f"total {component['total']}")
        if component["idle"] < -tolerance * scale:
            raise ProfileError(
                f"{name}: over-attributed by {-component['idle']} "
                f"cycles (idle residual below -{tolerance} * total)")


def render_profile(profile: dict[str, Any]) -> str:
    """Human-readable summary of a run profile."""
    from repro.analysis.report import render_table

    lines = [f"profile of {profile['program']} "
             f"({profile['board_mode']}): "
             f"{profile['total_cycles']:.0f} cycles, "
             f"busy {profile['summary']['busy_fraction'] * 100:.1f}% / "
             f"stall {profile['summary']['stall_fraction'] * 100:.1f}% / "
             f"idle {profile['summary']['idle_fraction'] * 100:.1f}%",
             ""]
    rows = []
    for name, component in profile["components"].items():
        total = max(component["total"], 1e-30)
        rows.append([
            name,
            f"{component['busy_total']:.0f}",
            f"{component['stall_total']:.0f}",
            f"{component['idle']:.0f}",
            f"{component['busy_total'] / total * 100:.1f}%",
        ])
    lines.append(render_table(
        "Component cycle accounting",
        ["component", "busy", "stall", "idle", "utilization"], rows))
    lines.append("")
    stall_rows = [
        [leaf, f"{cycles:.0f}",
         f"{cycles / max(profile['total_cycles'], 1e-30) * 100:.1f}%"]
        for leaf, cycles
        in profile["components"]["clusters"]["stall"].items()]
    lines.append(render_table(
        "Cluster stall causes",
        ["cause", "cycles", "of total"], stall_rows))
    if profile["kernels"]:
        lines.append("")
        kernel_rows = [
            [row["kernel"], row["invocations"],
             f"{row['busy_cycles']}",
             f"{row['busy_fraction'] * 100:.1f}%",
             f"{row['stall_fraction'] * 100:.1f}%"]
            for row in profile["kernels"]]
        lines.append(render_table(
            "Per-kernel busy/stall (Figure 6 view)",
            ["kernel", "calls", "busy cycles", "busy", "stall"],
            kernel_rows))
    return "\n".join(lines)


__all__ = [
    "PROFILE_SCHEMA",
    "BUSY_LEAVES",
    "STALL_LEAVES",
    "CATEGORY_LEAF",
    "CONSERVATION_TOLERANCE",
    "Derived",
    "ProfileError",
    "build_profile",
    "derive",
    "kernel_catalog_profile",
    "profile_components",
    "validate_profile",
    "render_profile",
]
