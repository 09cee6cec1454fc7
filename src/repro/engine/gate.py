"""The differential gate (``repro gate``).

The repo has three estimators of one machine's cycle count: the
event-driven reference model, the vectorized backend, and the static
bound interpreter (:mod:`repro.analysis.bounds`).  This module checks
them against each other in one serial sweep over the 4x2 app matrix
plus a seeded fuzzed ``streamc`` corpus.  Each matrix cell and each
fuzz program runs once per backend on every selected board (matrix
cells then repeat each backend for timing), and three comparators
read those runs:

* **equality** -- :func:`result_fingerprint` of the event run equals
  that of the vector run (the vector backend's bit-identity
  contract);
* **bracketing** -- ``lower <= cycles <= upper`` on both backends
  (the bound model's soundness claim);
* **agreement** -- the static bottleneck against the binding
  resource of the event run's critical path.  A disagreement is
  recorded as a *discrepancy seed*, not a failure: a sound bound that
  attributes differently from the simulator marks where a mechanistic
  explanation is missing.

:func:`run_gate` returns the ``repro.gate/1`` report, which holds
only simulated cycle counts and static bounds, so a rerun is
byte-identical, plus the ``repro.gate-bench/1`` perf-history lines,
the only place the best-of-3 wall-clock timings go (appended per
sweep, never deduplicated).

Processors are constructed directly here -- this *is* the sanctioned
engine-side construction site -- because routing both runs through a
warm cache would compare a result with itself.
"""

from __future__ import annotations

import functools
import json
import random
import time
from typing import Any, Iterable

import numpy as np

from repro.core.config import BoardConfig, MachineConfig

#: Schema for the gate report document.
GATE_SCHEMA = "repro.gate/1"

#: Schema for per-cell wall-clock lines in the perf-history store.
GATE_BENCH_SCHEMA = "repro.gate-bench/1"

#: Board models the matrix sweeps.
BOARD_MODES = ("hardware", "isim")

#: Tightness and attribution targets, calibrated for the full
#: ``APP_NAMES x BOARD_MODES`` matrix and applied only to it.
MAX_MEAN_TIGHTNESS = 1.5
MIN_BOTTLENECK_MATCHES = 6

#: Every matrix cell must run faster on vector than on event.  The
#: measured margin is 4-12x per cell (shared x86 VM, best of 3), so
#: this floor only catches a regression that erases the backend's
#: reason to exist.
MIN_CELL_SPEEDUP = 1.0

#: Timed repetitions per backend per matrix cell; the minimum is
#: recorded, the standard defence against scheduler noise.
BEST_OF = 3

_BACKENDS = ("event", "vector")


# ----------------------------------------------------------------------
# Fingerprinting.
# ----------------------------------------------------------------------
def result_fingerprint(result) -> str:
    """Canonical JSON of every simulated fact one run produced.

    Includes the metrics (cycle ledger, counters, per-kernel records),
    power report, instruction histogram, full trace, the recorded
    event DAG, and the derived profile and critpath documents.
    Excludes the manifest: wall time, timestamps and the executing
    backend differ between backends by construction.
    """
    from repro.obs.critpath import EDGE_TYPES, NODE_KINDS, build_critpath
    from repro.obs.profile import build_profile, validate_profile

    metrics = result.metrics
    graph = result.event_graph
    profile = build_profile(result)
    validate_profile(profile)
    document = {
        "metrics": {
            "cycles": {c.value: v for c, v in metrics.cycles.items()},
            "total_cycles": metrics.total_cycles,
            "arith_ops": metrics.arith_ops,
            "flops": metrics.flops,
            "instructions": metrics.instructions,
            "comm_ops": metrics.comm_ops,
            "sp_accesses": metrics.sp_accesses,
            "dsq_ops": metrics.dsq_ops,
            "lrf_words": metrics.lrf_words,
            "srf_words": metrics.srf_words,
            "mem_words": metrics.mem_words,
            "sdr_writes": metrics.sdr_writes,
            "sdr_references": metrics.sdr_references,
            "host_instructions": metrics.host_instructions,
            "host_busy_cycles": metrics.host_busy_cycles,
            "host_round_trips": metrics.host_round_trips,
            "microcode_loader_busy_cycles":
                metrics.microcode_loader_busy_cycles,
            "memory_stream_words": list(metrics.memory_stream_words),
            "idle_blame": dict(metrics.idle_blame),
            "ag_busy_cycles": dict(metrics.ag_busy_cycles),
            "dram_channel_busy": dict(metrics.dram_channel_busy),
            "invocations": [vars(r)
                            for r in metrics.kernel_invocations],
        },
        "power": vars(result.power),
        "histogram": dict(result.instruction_histogram),
        "trace": [vars(t) for t in result.trace],
        "graph_nodes": [
            {"ident": ident, "kind": NODE_KINDS[kind], "index": index,
             "t": t, "label": label}
            for ident, (kind, index, t, label) in enumerate(zip(
                graph.node_kind, graph.node_index, graph.node_t,
                graph.node_label))],
        "graph_edges": [
            (src, dst, EDGE_TYPES[code], weight,
             graph.edge_detail.get(edge, {}))
            for edge, (src, dst, code, weight) in enumerate(zip(
                graph.edge_src, graph.edge_dst, graph.edge_type,
                graph.edge_weight))],
        "graph_meta": dict(graph.meta),
        "profile": profile,
        "critpath": build_critpath(result),
    }
    return json.dumps(document, sort_keys=True, default=str)


def processor(backend: str, kernels, board: BoardConfig,
              machine: MachineConfig):
    """A fresh fault-free, untraced processor of ``backend``
    (``"event"`` or ``"vector"``): the differential replays' one
    construction site."""
    if backend == "vector":
        from repro.core.vector import VectorProcessor

        cls = VectorProcessor
    else:
        from repro.core.processor import ImagineProcessor

        cls = ImagineProcessor
    return cls(machine=machine, board=board, kernels=kernels)




# ----------------------------------------------------------------------
# Fuzzed streamc programs: one generator, seeded here, drawn in tests.
# ----------------------------------------------------------------------
@functools.cache
def _fuzz_specs():
    from repro.isa.kernel_ir import KernelBuilder
    from repro.streamc.program import KernelSpec, same_words

    def make(name: str, inputs: int) -> KernelSpec:
        builder = KernelBuilder(name)
        streams = [builder.stream_input(f"x{i}")
                   for i in range(inputs)]
        total = builder.reduce("fadd", streams)
        builder.stream_output("o", builder.op("fmul", total, total))
        return KernelSpec(
            name, builder.build(),
            lambda ins, p: [np.sum(ins, axis=0) ** 2],
            output_words=same_words)

    return {n: make(f"vfuzz{n}", n) for n in (1, 2, 3)}


class FuzzChooser:
    """The draws a fuzz program is made of, from ``random.Random``.

    The tests' Hypothesis strategy overrides the three methods to
    draw from a ``draw`` instead, so both make the same programs.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def integer(self, low: int, high: int) -> int:
        return self.rng.randint(low, high)

    def choice(self, options: list):
        return self.rng.choice(options)

    def coin(self) -> bool:
        return self.rng.random() < 0.5


def fuzz_program(choose: FuzzChooser, name: str = "fuzz"):
    """One random-but-well-formed stream program (unbuilt).

    Load/kernel/store/host-read mixes over live streams, kept far from
    SRF capacity, with at least one kernel so the run has cluster
    work.
    """
    from repro.streamc import StreamProgram

    specs = _fuzz_specs()
    program = StreamProgram(name, max_batch_elements=512)
    source = program.array("src", np.arange(4096, dtype=float) % 7)
    sink = program.alloc_array("sink", 8192)
    live = []
    budget = 20000
    sink_cursor = 0
    kernels = 0
    for step in range(choose.integer(3, 25)):
        action = choose.choice(["load", "kernel", "store",
                                "kernel", "load"])
        if action == "load" or not live:
            words = choose.integer(8, 1024)
            if words > budget:
                continue
            start = choose.integer(0, 4096 - words)
            live.append(program.load(source, start=start, words=words,
                                     name=f"l{step}"))
            budget -= words
        elif action == "kernel":
            arity = min(choose.integer(1, 3), len(live))
            picks = [live[choose.integer(0, len(live) - 1)]
                     for _ in range(arity)]
            # Kernels read streams elementwise: when lengths differ,
            # use the shortest for every input.
            if len({s.words for s in picks}) > 1:
                shortest = min(picks, key=lambda s: s.words)
                picks = [shortest] * arity
            out = program.kernel1(specs[arity], picks, name=f"k{step}")
            live.append(out)
            budget -= out.words
            kernels += 1
        else:
            stream = live[choose.integer(0, len(live) - 1)]
            if sink_cursor + stream.words <= 8192:
                program.store(stream, sink, start=sink_cursor)
                sink_cursor += stream.words
            if choose.coin():
                program.host_read(tag=f"hr{step}")
        if len(live) > 6:
            live = live[-6:]     # let old streams die
    if not kernels:
        out = program.kernel1(specs[1], [live[0]], name="kfinal")
        program.store(out, sink, start=0)
    return program


def fuzz_corpus(count: int, seed: int = 0) -> list:
    """``count`` seeded :func:`fuzz_program` images.

    The draws come from ``random.Random(seed)``, so the corpus -- and
    therefore the gate verdict -- is reproducible from the seed alone.
    """
    choose = FuzzChooser(random.Random(seed))
    images = []
    for index in range(count):
        image = fuzz_program(choose, f"fuzz{index}").build()
        image.validate()
        images.append(image)
    return images


# ----------------------------------------------------------------------
# The sweep.
# ----------------------------------------------------------------------
def _board_of(mode: str) -> BoardConfig:
    return (BoardConfig.hardware() if mode == "hardware"
            else BoardConfig.isim())


def _run(backend: str, image, kernels, board: BoardConfig,
         machine: MachineConfig, timed: int):
    """One run's result plus the best wall time of ``timed`` more.

    Every run builds a fresh processor (no per-instance state reuse).
    The first run is untimed: compiling the vector schedule tables is
    a one-off cost warm runs never pay.
    """
    result = processor(backend, kernels, board, machine).run(image)
    best = float("inf")
    for _ in range(timed):
        fresh = processor(backend, kernels, board, machine)
        started = time.perf_counter()
        fresh.run(image)
        best = min(best, time.perf_counter() - started)
    return result, best


def _compare(image, kernels, mode: str, machine: MachineConfig,
             timed: int = 0):
    """Bounds plus both backends' runs of one image on one board.

    Returns the bound analysis, the event result, the comparator
    fields every cell and fuzz failure carries, and the best wall
    times per backend.
    """
    from repro.analysis.bounds import compute_bounds

    board = _board_of(mode)
    analysis = compute_bounds(image, machine=machine, board=board)
    results, seconds = {}, {}
    for backend in _BACKENDS:
        results[backend], seconds[backend] = _run(
            backend, image, kernels, board, machine, timed)
    cycles = {backend: result.metrics.total_cycles
              for backend, result in results.items()}
    fields = {
        "board_mode": mode,
        "lower": analysis.lower_bound_cycles,
        "upper": analysis.upper_bound_cycles,
        "event_cycles": cycles["event"],
        "vector_cycles": cycles["vector"],
        "identical": (result_fingerprint(results["event"])
                      == result_fingerprint(results["vector"])),
        "bracketed": all(analysis.brackets(c)
                         for c in cycles.values()),
    }
    return analysis, results["event"], fields, seconds


def run_gate(apps: Iterable[str] | None = None,
             boards: Iterable[str] = BOARD_MODES,
             fuzz: int = 100, fuzz_seed: int = 0,
             progress=None) -> tuple[dict[str, Any], list[dict]]:
    """Sweep the app matrix and fuzz corpus through all comparators.

    Returns ``(report, history)``: the deterministic ``repro.gate/1``
    document and its ``repro.gate-bench/1`` wall-clock lines (one per
    matrix cell plus a ``MATRIX`` aggregate).  ``progress`` is an
    optional ``callable(str)`` for live per-cell reporting.
    """
    from repro.analysis.bounds import normalize_resource, resources_match
    from repro.engine.catalog import APP_NAMES, build_app
    from repro.obs.critpath import critpath_summary

    apps = [name.lower() for name in (apps or APP_NAMES)]
    boards = list(boards)
    say = progress if progress is not None else (lambda message: None)
    machine = MachineConfig()

    matrix, timings, seeds, tightnesses = [], [], [], []
    for app in apps:
        bundle = build_app(app)
        for mode in boards:
            analysis, event, fields, seconds = _compare(
                bundle.image, bundle.kernels, mode, machine,
                timed=BEST_OF)
            dynamic = normalize_resource(
                critpath_summary(event)["binding_resource"] or "")
            tightness = analysis.tightness(fields["event_cycles"])
            tightnesses.append(tightness)
            cell = {
                "app": app,
                **fields,
                "tightness": tightness,
                "upper_ratio": (fields["upper"] / fields["event_cycles"]
                                if fields["event_cycles"] else 0.0),
                "static_bottleneck": analysis.bottleneck,
                "bottleneck_source": analysis.bottleneck_source,
                "dynamic_binding": dynamic,
                "bottleneck_match": resources_match(
                    analysis.bottleneck, dynamic),
            }
            matrix.append(cell)
            timings.append(seconds)
            if not cell["bottleneck_match"]:
                seeds.append({"app": app, "board_mode": mode,
                              "static": analysis.bottleneck,
                              "dynamic": dynamic})
            say(f"{app}/{mode}: lower={cell['lower']:.0f} "
                f"sim={cell['event_cycles']:.0f} "
                f"upper={cell['upper']:.0f} "
                f"tightness={tightness:.3f} "
                f"bottleneck {analysis.bottleneck}/{dynamic} "
                f"event={seconds['event']:.3f}s "
                f"vector={seconds['vector']:.3f}s "
                f"{_cell_word(cell)}")

    fuzz_failures = []
    fuzz_max_tightness = 0.0
    images = fuzz_corpus(fuzz, seed=fuzz_seed) if fuzz else []
    for index, image in enumerate(images):
        for mode in boards:
            analysis, _, fields, _ = _compare(image, image.kernels,
                                              mode, machine)
            if not (fields["identical"] and fields["bracketed"]):
                fuzz_failures.append({"index": index, **fields})
            fuzz_max_tightness = max(
                fuzz_max_tightness,
                analysis.tightness(fields["event_cycles"]),
                analysis.tightness(fields["vector_cycles"]))
    if images:
        say(f"fuzz corpus: {len(images)} seeded programs x "
            f"{len(boards)} boards, {len(fuzz_failures)} failure(s)")

    counts = _matrix_counts(matrix)
    mean_tightness = (sum(tightnesses) / len(tightnesses)
                      if tightnesses else 0.0)
    full_matrix = (sorted(apps) == sorted(APP_NAMES)
                   and sorted(boards) == sorted(BOARD_MODES))
    report = {
        "schema": GATE_SCHEMA,
        "ok": _gate_ok(counts, fuzz_failures, full_matrix,
                       mean_tightness),
        "matrix": matrix,
        **counts,
        "bottleneck_cells": len(matrix),
        "discrepancy_seeds": seeds,
        "fuzz": {"count": len(images), "seed": fuzz_seed,
                 "boards": boards,
                 "failures": fuzz_failures,
                 "max_tightness": fuzz_max_tightness},
        "aggregate": {
            "mean_tightness": mean_tightness,
            "max_tightness": max(tightnesses, default=0.0),
            "full_matrix": full_matrix,
            "max_mean_tightness": MAX_MEAN_TIGHTNESS,
            "min_bottleneck_matches": MIN_BOTTLENECK_MATCHES,
        },
    }
    return report, _history(report, timings)


def _cell_word(cell: dict[str, Any]) -> str:
    if not cell["identical"]:
        return "MISMATCH"
    return "OK" if cell["bracketed"] else "BRACKET FAILURE"


def _matrix_counts(matrix: list[dict[str, Any]]) -> dict[str, int]:
    return {
        "matrix_mismatches": sum(not c["identical"] for c in matrix),
        "matrix_bracket_failures": sum(not c["bracketed"]
                                       for c in matrix),
        "bottleneck_matches": sum(c["bottleneck_match"] for c in matrix),
    }


def _gate_ok(counts: dict[str, int], fuzz_failures: list,
             full_matrix: bool, mean_tightness: float) -> bool:
    """Every comparator passed; the tightness and attribution targets
    count only on the full matrix they are calibrated for."""
    targets_met = not full_matrix or (
        mean_tightness <= MAX_MEAN_TIGHTNESS
        and counts["bottleneck_matches"] >= MIN_BOTTLENECK_MATCHES)
    return (counts["matrix_mismatches"] == 0
            and counts["matrix_bracket_failures"] == 0
            and not fuzz_failures and targets_met)


def _history(report: dict[str, Any], timings: list[dict[str, float]]
             ) -> list[dict[str, Any]]:
    """``repro.gate-bench/1`` lines: one per matrix cell, then the
    ``MATRIX`` aggregate."""
    recorded_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")

    def line(verdict: dict[str, Any], event_s: float,
             vector_s: float) -> dict[str, Any]:
        return {"schema": GATE_BENCH_SCHEMA, **verdict,
                "event_s": event_s, "vector_s": vector_s,
                "speedup": event_s / vector_s if vector_s > 0 else 0.0,
                "best_of": BEST_OF, "recorded_at": recorded_at}

    keys = ("app", "board_mode", "identical", "bracketed", "tightness",
            "bottleneck_match")
    entries = [line({key: cell[key] for key in keys},
                    seconds["event"], seconds["vector"])
               for cell, seconds in zip(report["matrix"], timings)]
    entries.append(line(
        {"app": "MATRIX", "board_mode": "all",
         "identical": report["matrix_mismatches"] == 0,
         "bracketed": report["matrix_bracket_failures"] == 0,
         "tightness": report["aggregate"]["mean_tightness"],
         "bottleneck_match": (report["bottleneck_matches"]
                              >= MIN_BOTTLENECK_MATCHES)},
        sum(seconds["event"] for seconds in timings),
        sum(seconds["vector"] for seconds in timings)))
    return entries


def validate_gate_report(report: dict[str, Any]) -> None:
    """Structural check for a ``repro.gate/1`` document.

    Raises ``ValueError`` on a malformed report; returns ``None`` on a
    well-formed one.  CI calls this on the uploaded artifact so schema
    drift fails loudly instead of silently passing a gate that checked
    nothing.
    """
    if report.get("schema") != GATE_SCHEMA:
        raise ValueError(f"not a {GATE_SCHEMA} document: "
                         f"{report.get('schema')!r}")
    for key in ("ok", "matrix", "matrix_mismatches",
                "matrix_bracket_failures", "bottleneck_matches",
                "bottleneck_cells", "discrepancy_seeds", "fuzz",
                "aggregate"):
        if key not in report:
            raise ValueError(f"missing report key {key!r}")
    cell_keys = {"app", "board_mode", "lower", "upper",
                 "event_cycles", "vector_cycles", "identical",
                 "bracketed", "tightness", "upper_ratio",
                 "static_bottleneck", "bottleneck_source",
                 "dynamic_binding", "bottleneck_match"}
    for cell in report["matrix"]:
        missing = cell_keys - set(cell)
        if missing:
            raise ValueError(f"matrix cell missing {sorted(missing)}")
        name = f"{cell['app']}/{cell['board_mode']}"
        if not (cell["lower"] <= cell["upper"]):
            raise ValueError(f"{name}: lower {cell['lower']} exceeds "
                             f"upper {cell['upper']}")
        if cell["bracketed"] != (
                cell["lower"] <= cell["event_cycles"] <= cell["upper"]
                and cell["lower"] <= cell["vector_cycles"]
                <= cell["upper"]):
            raise ValueError(f"{name}: bracketed flag inconsistent "
                             f"with recorded cycles")
        if cell["identical"] and \
                cell["event_cycles"] != cell["vector_cycles"]:
            raise ValueError(f"{name}: identical backends recorded "
                             f"different cycles")
    for key, count in _matrix_counts(report["matrix"]).items():
        if report[key] != count:
            raise ValueError(f"{key} {report[key]} inconsistent with "
                             f"the matrix cells ({count})")
    fuzz = report["fuzz"]
    for key in ("count", "seed", "boards", "failures",
                "max_tightness"):
        if key not in fuzz:
            raise ValueError(f"missing fuzz key {key!r}")
    aggregate = report["aggregate"]
    if report["ok"] != _gate_ok(
            _matrix_counts(report["matrix"]), fuzz["failures"],
            aggregate["full_matrix"], aggregate["mean_tightness"]):
        raise ValueError("ok flag inconsistent with recorded failures")


__all__ = [
    "BEST_OF",
    "BOARD_MODES",
    "GATE_BENCH_SCHEMA",
    "GATE_SCHEMA",
    "MAX_MEAN_TIGHTNESS",
    "MIN_BOTTLENECK_MATCHES",
    "MIN_CELL_SPEEDUP",
    "FuzzChooser",
    "fuzz_corpus",
    "fuzz_program",
    "result_fingerprint",
    "run_gate",
    "validate_gate_report",
]
