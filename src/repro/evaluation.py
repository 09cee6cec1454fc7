"""One-call reproduction of the paper's entire evaluation.

``run_full_evaluation()`` regenerates every table and figure (the
same code paths the individual benchmarks use) and returns them as a
name -> rendered-text mapping; ``python -m repro evaluate`` prints
them in the paper's order.  This is the "reproduce the paper" button.

The application runs behind Tables 3-6 / Figure 11 go through the
:mod:`repro.engine` session: pass ``jobs=N`` to shard them across
worker processes and ``cache=True`` to serve repeats from the
content-addressed result cache.  Output is byte-identical whatever
the job count or cache temperature -- the engine only reorders
scheduling, never simulated behaviour.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.analysis import kernel_breakdown, measure_kernel
from repro.analysis.power_compare import power_efficiency_comparison
from repro.analysis.report import render_breakdown, render_table
from repro.core import BoardConfig, MachineConfig
from repro.engine import Session, SessionConfig, build_app
from repro.engine.catalog import APP_NAMES
from repro.kernels import KERNEL_LIBRARY
from repro.kernels.library import TABLE2_KERNELS
from repro.workloads.microbench import run_all_microbenchmarks
from repro.workloads.streamlen import (
    MEMORY_PATTERNS,
    kernel_length_sweep,
    memory_length_sweep,
)

#: Display names (the paper's capitalization), catalog order.
_APP_DISPLAY = tuple(name.upper() for name in APP_NAMES)

#: Board modes each app-backed section needs (used for prefetching).
_SECTION_MODES = {
    "table3": ("hardware",),
    "figure11": ("isim",),
    "tables4_5": ("hardware",),
    "table6": ("hardware", "isim"),
    "targets": ("hardware",),
}


class Evaluation:
    """Caches the expensive shared pieces (app runs) across sections.

    All application simulations flow through one engine
    :class:`~repro.engine.Session` (supplied or owned), so they can be
    sharded across processes and answered from the result cache.
    """

    def __init__(self, machine: MachineConfig | None = None,
                 board: BoardConfig | None = None,
                 session: Session | None = None,
                 history=None) -> None:
        self.machine = machine or MachineConfig()
        self.board = board or BoardConfig.hardware()
        self.session = session
        self._owns_session = session is None
        if self.session is None:
            # ``history`` only configures an owned session; a supplied
            # session keeps whatever history store it was built with.
            self.session = Session(config=SessionConfig(
                jobs=1, cache=False, history=history))
        self._bundles = {}
        self._handles = {}
        self._results = {}

    def profile(self, name: str, mode: str = "hardware") -> dict:
        """Cycle-accounting profile of one cached app run
        (``repro.profile-report/1``)."""
        from repro.obs.profile import build_profile

        return build_profile(self.result(name, mode))

    def close(self) -> None:
        if self._owns_session:
            self.session.close()

    def bundle(self, name: str):
        if name not in self._bundles:
            self._bundles[name] = build_app(name.lower())
        return self._bundles[name]

    def _mode_board(self, mode: str) -> BoardConfig:
        return self.board if mode == "hardware" else BoardConfig.isim()

    def _handle(self, name: str, mode: str):
        key = (name, mode)
        if key not in self._handles:
            self._handles[key] = self.session.submit_bundle(
                self.bundle(name), machine=self.machine,
                board=self._mode_board(mode))
        return self._handles[key]

    def prefetch(self, sections: list[str] | None = None) -> None:
        """Submit every app run the chosen sections need, so a
        parallel session shards them instead of running on demand."""
        modes: set[str] = set()
        for section in sections or list(_SECTION_MODES):
            modes.update(_SECTION_MODES.get(section, ()))
        for mode in sorted(modes):
            for name in _APP_DISPLAY:
                self._handle(name, mode)

    def result(self, name: str, mode: str = "hardware"):
        key = (name, mode)
        if key not in self._results:
            self._results[key] = self._handle(name, mode).result()
        return self._results[key]

    # ------------------------------------------------------------------
    # Sections.
    # ------------------------------------------------------------------
    def table1(self) -> str:
        rows = [[r.component, r.achieved, r.theoretical, r.unit,
                 r.power_watts]
                for r in run_all_microbenchmarks(self.machine,
                                                 self.board)]
        return render_table("Table 1: component peaks",
                            ["component", "achieved", "theoretical",
                             "unit", "W"], rows)

    def table2(self) -> str:
        rows = []
        for name in TABLE2_KERNELS:
            row = measure_kernel(KERNEL_LIBRARY[name],
                                 machine=self.machine)
            rows.append([name, f"{row.rate:.2f} {row.rate_unit}",
                         row.lrf_gbytes, row.srf_gbytes,
                         f"{row.ipc:.1f}", row.power_watts])
        return render_table("Table 2: kernels",
                            ["kernel", "ALU", "LRF GB/s", "SRF GB/s",
                             "IPC", "W"], rows)

    def figure6(self) -> str:
        return render_breakdown(
            "Figure 6: kernel breakdown",
            {name: kernel_breakdown(KERNEL_LIBRARY[name],
                                    machine=self.machine)
             for name in TABLE2_KERNELS})

    def figures7_8(self) -> str:
        lengths = [32, 256, 2048]
        parts = []
        for title, configs in (
                ("Figure 7 (prologue 64)",
                 [(m, 64) for m in (8, 64, 256)]),
                ("Figure 8 (main loop 32)",
                 [(32, p) for p in (8, 64, 256)])):
            rows = []
            for main, prologue in configs:
                points = kernel_length_sweep(
                    main, prologue, lengths, invocations=16,
                    machine=self.machine, board=self.board)
                rows.append([f"main {main} / prologue {prologue}"]
                            + [p.gops for p in points])
            parts.append(render_table(
                title, ["config"] + [str(n) for n in lengths], rows))
        return "\n\n".join(parts)

    def figures9_10(self) -> str:
        lengths = [64, 1024, 8192]
        parts = []
        for ags in (1, 2):
            points = memory_length_sweep(
                lengths, ags, loads_per_point=6,
                machine=self.machine, board=self.board)
            table = {name: [] for name in MEMORY_PATTERNS}
            for point in points:
                table[point.pattern].append(point.gbytes_per_sec)
            parts.append(render_table(
                f"Figure {8 + ags}: memory bandwidth, {ags} AG(s)",
                ["pattern"] + [str(n) for n in lengths],
                [[k] + v for k, v in table.items()]))
        return "\n\n".join(parts)

    def table3(self) -> str:
        rows = []
        for name in _APP_DISPLAY:
            result = self.result(name)
            bundle = self.bundle(name)
            metrics = result.metrics
            rows.append([
                name,
                f"{metrics.gflops:.2f} GFLOPS" if name == "QRD"
                else f"{metrics.gops:.2f} GOPS",
                f"{metrics.ipc:.1f}",
                f"{bundle.throughput(result.seconds):.1f} "
                f"{bundle.work_name}/s",
                result.power.watts])
        return render_table("Table 3: applications",
                            ["app", "ALU", "IPC", "rate", "W"], rows)

    def figure11(self) -> str:
        return render_breakdown(
            "Figure 11: application breakdown",
            {name: self.profile(name, "isim")["figure11"]
             for name in _APP_DISPLAY})

    def tables4_5(self) -> str:
        rows4, rows5 = [], []
        for name in _APP_DISPLAY:
            image = self.bundle(name).image
            metrics = self.result(name).metrics
            histogram = image.histogram()
            rows4.append([name, histogram["kernel"],
                          histogram["memory"], histogram["total"],
                          f"{image.sdr_reuse:.1f}x",
                          f"{metrics.host_mips:.2f}"])
            rows5.append([name,
                          f"{metrics.average_kernel_duration:.0f}",
                          f"{metrics.average_kernel_stream_length:.0f}",
                          f"{metrics.average_memory_stream_length:.0f}"])
        return "\n\n".join([
            render_table("Table 4: stream operations",
                         ["app", "kernel", "memory", "total",
                          "SDR reuse", "MIPS"], rows4),
            render_table("Table 5: cluster characteristics",
                         ["app", "kernel cycles", "kernel stream",
                          "memory stream"], rows5)])

    def table6(self) -> str:
        rows = [[name,
                 f"{self.result(name, 'hardware').cycles / 1e6:.3f} M",
                 f"{self.result(name, 'isim').cycles / 1e6:.3f} M",
                 f"{self.result(name, 'hardware').cycles / self.result(name, 'isim').cycles:.3f}"]
                for name in _APP_DISPLAY]
        return render_table("Table 6: lab vs ISIM",
                            ["app", "lab", "ISIM", "ratio"], rows)

    def power(self) -> str:
        rows = [[r.processor, r.pj_per_flop, r.technology]
                for r in power_efficiency_comparison(self.machine,
                                                     self.board)]
        return render_table("Section 5.5: power efficiency",
                            ["processor", "pJ/FLOP", "technology"],
                            rows, floatfmt="{:.1f}")

    def targets(self) -> str:
        """Counter-registry probes vs their paper targets, per app."""
        from repro.obs.registry import registry_from_result

        rows = []
        for name in _APP_DISPLAY:
            registry = registry_from_result(self.result(name))
            for probe in registry:
                if probe.target is None:
                    continue
                rows.append([
                    name, probe.name,
                    f"{probe.value:.2f} {probe.unit}",
                    f"{probe.target.expected:.2f}",
                    f"±{probe.target.rel_tolerance * 100:.0f}%",
                    probe.target.source,
                    "ok" if probe.within_target else "DRIFT"])
        return render_table(
            "Paper targets: measured vs expected",
            ["app", "probe", "measured", "expected", "tolerance",
             "source", "status"], rows)


#: Section name -> generator method, in the paper's order.
SECTIONS: dict[str, Callable[[Evaluation], str]] = {
    "table1": Evaluation.table1,
    "table2": Evaluation.table2,
    "figure6": Evaluation.figure6,
    "figures7_8": Evaluation.figures7_8,
    "figures9_10": Evaluation.figures9_10,
    "table3": Evaluation.table3,
    "figure11": Evaluation.figure11,
    "tables4_5": Evaluation.tables4_5,
    "table6": Evaluation.table6,
    "power": Evaluation.power,
    "targets": Evaluation.targets,
}


#: Schema tag for the machine-readable evaluation report
#: (``repro evaluate --json``).  The document is deterministic:
#: byte-identical across job counts and cache temperatures.
EVALUATION_SCHEMA = "repro.evaluation-report/1"


def run_full_evaluation(machine: MachineConfig | None = None,
                        board: BoardConfig | None = None,
                        sections: list[str] | None = None,
                        session: Session | None = None,
                        history=None) -> dict[str, str]:
    """Regenerate the paper's evaluation; returns section -> text.

    Pass an engine ``session`` (e.g.
    ``Session(config=SessionConfig(jobs=8))``) to shard
    the application runs across processes and reuse cached results;
    the returned text is identical either way.  ``history`` records
    each digest-keyed run to a perf-history store when no session is
    supplied (a supplied session keeps its own setting).
    """
    chosen = sections or list(SECTIONS)
    unknown = set(chosen) - set(SECTIONS)
    if unknown:
        raise ValueError(f"unknown sections: {sorted(unknown)}")
    evaluation = Evaluation(machine, board, session=session,
                            history=history)
    try:
        evaluation.prefetch(chosen)
        return {name: SECTIONS[name](evaluation) for name in chosen}
    finally:
        evaluation.close()


def evaluation_report(texts: dict[str, str],
                      board: BoardConfig | None = None) -> dict:
    """Wrap rendered sections as the deterministic JSON report."""
    board = board or BoardConfig.hardware()
    return {
        "schema": EVALUATION_SCHEMA,
        "board_mode": board.mode,
        "host_mips": board.host_mips,
        "sections": {name: texts[name]
                     for name in SECTIONS if name in texts},
    }
