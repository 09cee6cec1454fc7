"""The paper's evaluation: one renderer per table and figure.

Every paper artifact -- Tables 1-6, Figures 6-14 and the Section 5.5
power comparison -- is one section method of :class:`Evaluation`,
and :data:`ARTIFACTS` names the ``benchmarks/results/<file>.txt`` it
is committed as.  ``python -m repro evaluate`` prints the sections in
the paper's order, the benchmark suite
(``benchmarks/bench_paper_artifacts.py``) writes them to
``benchmarks/results/``, and ``repro microbench``, ``kernels``,
``memory`` and ``power`` print single sections: every number the CLI
prints for the paper is the number the repository commits.  One more
section, ``targets`` (counter probes vs their paper targets), has no
committed file.

The application runs behind Tables 3-6 and Figures 11-14 go through
the :mod:`repro.engine` session: pass ``jobs=N`` to shard them across
worker processes and ``cache=True`` to serve repeats from the
content-addressed result cache.  Output is byte-identical whatever
the job count or cache temperature -- the engine only reorders
scheduling, never simulated behaviour.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.analysis import measure_kernel
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
    host_interface_bandwidth_limit,
    ideal_kernel_gops,
    kernel_length_sweep,
    memory_length_sweep,
)

#: Section -> the file under ``benchmarks/results/`` (without
#: ``.txt``) that commits its text, in the paper's order.
ARTIFACTS = {
    "table1": "table1_components",
    "table2": "table2_kernels",
    "figure6": "fig6_kernel_breakdown",
    "figure7": "fig7_streamlen_mainloop",
    "figure8": "fig8_streamlen_prologue",
    "figure9": "fig9_memory_1ag",
    "figure10": "fig10_memory_2ag",
    "table3": "table3_applications",
    "figure11": "fig11_app_breakdown",
    "figure12": "fig12_component_utilization",
    "figure13": "fig13_bandwidth_hierarchy",
    "table4": "table4_stream_ops",
    "table5": "table5_cluster_characteristics",
    "figure14": "fig14_host_bandwidth",
    "table6": "table6_lab_vs_isim",
    "power": "power_efficiency",
}

#: Display names (the paper's capitalization), catalog order.
_APP_DISPLAY = tuple(name.upper() for name in APP_NAMES)

#: Board modes of the four app runs each app-backed section reads
#: (used for prefetching; Figure 14 prefetches its own sweep).
_SECTION_MODES = {
    "table3": ("hardware",),
    "figure11": ("isim",),
    "figure12": ("hardware",),
    "figure13": ("hardware",),
    "table4": ("hardware",),
    "table5": ("hardware",),
    "table6": ("hardware", "isim"),
    "targets": ("hardware",),
}

# Paper values printed beside the measured ones (ISCA 2004 text; `~`
# marks values partially garbled in the available source).
TABLE1_PAPER = {  # achieved, theoretical, watts
    "Cluster (OPS)": (25.4, 25.7, 5.79),
    "Cluster (FLOPS)": (7.96, 8.13, 6.88),
    "Inter-cluster comm.": (7.84, 8.00, 8.53),
    "SRF": (12.7, 12.8, 5.79),
    "MEM": (1.58, 1.60, 5.42),
    "Host interface": (2.03, 20.0, 4.72),
}
TABLE2_PAPER = {
    "dct8x8": "6.92 GOPS", "blocksearch": "9.62 GOPS",
    "rle": "1.21 GOPS", "conv7x7": "~10.5 GOPS",
    "blocksad": "4.05 GOPS", "house": "3.67 GFLOPS",
    "update2": "~4.80 GFLOPS", "gromacs": "2.24 GFLOPS",
}
TABLE3_PAPER = {  # ALU rate, application rate, watts
    "DEPTH": ("4.91 GOPS", "41 frames/s", 7.49),
    "MPEG": ("7.36 GOPS", "138 frames/s", 6.80),
    "QRD": ("4.81 GFLOPS", "326 QRD/s", 7.42),
    "RTSL": ("1.30 GOPS", "11.2 frames/s", 5.91),
}
TABLE5_PAPER = {  # kernel cycles, kernel stream, memory stream
    "DEPTH": (729, 161.8, 234.8),
    "MPEG": (8244, 1191, 2543),
    "QRD": (2234, 2087, 1261),
    "RTSL": (1022, 786, 786),
}
TABLE6_PAPER = {"DEPTH": 2.22 / 2.11, "MPEG": 4.33 / 4.24,
                "QRD": 10.40 / 10.14, "RTSL": 4.47 / 4.24}

#: Figures 7-8 sweep lengths (words) and the varied loop lengths.
STREAM_LENGTHS = (8, 32, 128, 512, 2048, 8192)
LOOP_CYCLES = (8, 16, 32, 64, 128, 256)
#: Figures 9-10 sweep lengths (words).
MEMORY_LENGTHS = (16, 64, 256, 1024, 4096, 16384)
#: Figure 14 host-interface bandwidths (MIPS).
HOST_MIPS = (0.5, 1.0, 2.0, 4.0, 10.0, 50.0)


def _with_average(breakdowns: dict[str, dict[str, float]]
                  ) -> dict[str, dict[str, float]]:
    """``breakdowns`` plus their per-category mean as ``Average``."""
    average: dict[str, float] = {}
    for fractions in breakdowns.values():
        for key, value in fractions.items():
            average[key] = average.get(key, 0.0) + value / len(
                breakdowns)
    return {**breakdowns, "Average": average}


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
        self.isim = BoardConfig.isim()
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

    def close(self) -> None:
        if self._owns_session:
            self.session.close()

    @property
    def backend(self) -> str:
        """The session's backend mode; the sweeps run under it too."""
        return self.session.config.backend

    def bundle(self, name: str):
        if name not in self._bundles:
            self._bundles[name] = build_app(name.lower(),
                                            machine=self.machine)
        return self._bundles[name]

    def _mode_board(self, mode: str) -> BoardConfig:
        return self.board if mode == "hardware" else self.isim

    def _handle(self, name: str, board: BoardConfig):
        key = (name, board)
        if key not in self._handles:
            self._handles[key] = self.session.submit_bundle(
                self.bundle(name), machine=self.machine, board=board)
        return self._handles[key]

    def _runs(self, section: str) -> list[tuple[str, BoardConfig]]:
        """The (app, board) runs ``section`` reads."""
        if section == "figure14":
            return [("DEPTH", self.board.with_host_mips(mips))
                    for mips in HOST_MIPS]
        return [(name, self._mode_board(mode))
                for mode in _SECTION_MODES.get(section, ())
                for name in _APP_DISPLAY]

    def prefetch(self, sections: list[str] | None = None) -> None:
        """Submit every app run the chosen sections need, so a
        parallel session shards them instead of running on demand."""
        for section in sections or list(SECTIONS):
            for name, board in self._runs(section):
                self._handle(name, board)

    def result(self, name: str, board: BoardConfig | None = None):
        """One app run, on the evaluation's board unless ``board``."""
        board = board or self.board
        key = (name, board)
        if key not in self._results:
            self._results[key] = self._handle(name, board).result()
        return self._results[key]

    def _breakdown(self, name: str, board: BoardConfig
                   ) -> dict[str, float]:
        """One run's Figure-11 fractions, from its cycle-accounting
        profile (``repro.profile-report/1``)."""
        from repro.obs.profile import build_profile

        return build_profile(self.result(name, board))["figure11"]

    # ------------------------------------------------------------------
    # Sections: one per paper artifact.
    # ------------------------------------------------------------------
    def table1(self) -> str:
        """Component peaks from the six micro-benchmarks."""
        rows = []
        for result in run_all_microbenchmarks(self.machine, self.board,
                                              self.backend):
            paper = TABLE1_PAPER[result.component]
            rows.append([
                result.component,
                f"{result.achieved:.2f} / {result.theoretical:.2f}",
                result.unit, result.power_watts,
                f"{paper[0]} / {paper[1]}", paper[2]])
        return render_table(
            "Table 1: Performance of Imagine components "
            "(achieved / theoretical)",
            ["Component", "measured", "unit", "Power (W)",
             "paper measured", "paper W"],
            rows)

    def table2(self) -> str:
        """The eight kernels at application-typical stream lengths."""
        rows = []
        for name in TABLE2_KERNELS:
            row = measure_kernel(KERNEL_LIBRARY[name],
                                 machine=self.machine)
            rows.append([name, f"{row.rate:.2f} {row.rate_unit}",
                         row.lrf_gbytes, row.srf_gbytes,
                         f"{row.ipc:.1f}", row.power_watts,
                         TABLE2_PAPER[name]])
        return render_table(
            "Table 2: Performance of representative kernels",
            ["Kernel", "ALU", "LRF GB/s", "SRF GB/s", "IPC",
             "Power (W)", "paper ALU"],
            rows)

    def figure6(self) -> str:
        """Kernel run-time breakdown, from the profiler's
        kernel-catalog report (the one ``repro profile`` uses)."""
        from repro.obs.profile import kernel_catalog_profile

        return render_breakdown(
            "Figure 6: Breakdown of kernel performance",
            _with_average(dict(kernel_catalog_profile(
                self.machine)["kernels"])))

    def _kernel_sweep(self, title: str, varied: str) -> str:
        """Figures 7-8: GOPS vs stream length, one row per length of
        the ``varied`` loop; Figure 7 holds the prologue at 64 cycles,
        Figure 8 the main loop at 32."""
        rows = []
        for cycles in LOOP_CYCLES:
            main, prologue = ((cycles, 64) if varied == "main loop"
                              else (32, cycles))
            points = kernel_length_sweep(
                main, prologue, list(STREAM_LENGTHS),
                machine=self.machine, board=self.board,
                backend=self.backend)
            rows.append([f"{varied} {cycles} cycles"]
                        + [point.gops for point in points])
        rows.append(["ideal BW"] + [ideal_kernel_gops(self.machine)]
                    * len(STREAM_LENGTHS))
        return render_table(
            title, ["configuration"]
            + [f"len {n}" for n in STREAM_LENGTHS], rows)

    def figure7(self) -> str:
        return self._kernel_sweep(
            "Figure 7: Kernel GOPS vs stream length (prologue = 64)",
            "main loop")

    def figure8(self) -> str:
        return self._kernel_sweep(
            "Figure 8: Kernel GOPS vs stream length (main loop = 32)",
            "prologue")

    def _memory_sweep(self, address_generators: int) -> str:
        """Figures 9-10: bandwidth per access pattern vs length."""
        points = memory_length_sweep(
            list(MEMORY_LENGTHS), address_generators,
            machine=self.machine, board=self.board,
            backend=self.backend)
        by_pattern: dict[str, list] = {name: []
                                       for name in MEMORY_PATTERNS}
        for point in points:
            by_pattern[point.pattern].append(point.gbytes_per_sec)
        peak = self.machine.mem_peak_gbytes
        rows = [[name] + values for name, values in by_pattern.items()]
        rows.append(["HI limit"] + [
            min(host_interface_bandwidth_limit(n, self.machine,
                                               self.board), peak)
            for n in MEMORY_LENGTHS])
        rows.append(["ideal BW"] + [peak] * len(MEMORY_LENGTHS))
        return render_table(
            f"Figure {8 + address_generators}: Memory bandwidth "
            f"(GB/s), {address_generators} AG(s)",
            ["pattern"] + [f"len {n}" for n in MEMORY_LENGTHS], rows)

    def figure9(self) -> str:
        return self._memory_sweep(1)

    def figure10(self) -> str:
        return self._memory_sweep(2)

    def table3(self) -> str:
        """Application performance."""
        rows = []
        for name in _APP_DISPLAY:
            bundle = self.bundle(name)
            result = self.result(name)
            metrics = result.metrics
            paper = TABLE3_PAPER[name]
            rows.append([
                name,
                f"{metrics.gflops:.2f} GFLOPS" if name == "QRD"
                else f"{metrics.gops:.2f} GOPS",
                f"{metrics.ipc:.1f}",
                f"{bundle.throughput(result.seconds):.1f} "
                f"{bundle.work_name}/s",
                result.power.watts, *paper])
        return render_table(
            "Table 3: Application performance",
            ["App", "ALU", "IPC", "Summary", "Power (W)",
             "paper ALU", "paper rate", "paper W"],
            rows)

    def figure11(self) -> str:
        """Application execution-time breakdown on the ISIM board."""
        return render_breakdown(
            "Figure 11: Execution time breakdown of applications (ISIM)",
            _with_average({name: self._breakdown(name, self.isim)
                           for name in _APP_DISPLAY}))

    def figure12(self) -> str:
        """Sustained component utilization, % of each peak."""
        machine = self.machine
        rows = []
        for name in _APP_DISPLAY:
            metrics = self.result(name).metrics
            alu, peak_alu = ((metrics.gflops, machine.peak_gflops)
                             if name == "QRD"
                             else (metrics.gops, machine.peak_gops))
            rows.append([
                name,
                f"{alu / peak_alu * 100:.1f}%",
                f"{metrics.host_mips / self.board.host_peak_mips * 100:.2f}%",
                f"{metrics.mem_gbytes / machine.mem_peak_gbytes * 100:.1f}%",
                f"{metrics.srf_gbytes / machine.srf_peak_gbytes * 100:.1f}%",
                f"{metrics.lrf_gbytes / machine.lrf_peak_gbytes * 100:.1f}%",
            ])
        return render_table(
            "Figure 12: Sustained component utilization (% of peak)",
            ["App", "ALU", "HI BW", "MEM BW", "SRF BW", "LRF BW"],
            rows)

    def figure13(self) -> str:
        """The LRF / SRF / DRAM bandwidth hierarchy."""
        machine = self.machine
        rows = [["Peak", machine.lrf_peak_gbytes,
                 machine.srf_peak_gbytes, machine.mem_peak_gbytes, "-"]]
        ratios = []
        for name in _APP_DISPLAY:
            metrics = self.result(name).metrics
            ratio = metrics.lrf_gbytes / max(metrics.mem_gbytes, 1e-9)
            ratios.append(ratio)
            rows.append([name, metrics.lrf_gbytes, metrics.srf_gbytes,
                         metrics.mem_gbytes, f"{ratio:.0f}:1"])
        rows.append(["Average", "-", "-", "-",
                     f"{sum(ratios) / len(ratios):.0f}:1"])
        return render_table(
            "Figure 13: Bandwidth hierarchy (GB/s)",
            ["App", "LRF", "SRF", "DRAM", "LRF:DRAM"], rows)

    def table4(self) -> str:
        """Histogram of stream operations per application."""
        rows = []
        for name in _APP_DISPLAY:
            image = self.bundle(name).image
            histogram = image.histogram()
            rows.append([
                name,
                *(histogram[kind] for kind in (
                    "kernel", "memory", "sdr_write", "mar_write",
                    "ucr_write", "move", "misc", "total")),
                f"{image.sdr_reuse:.1f}x",
                f"{self.result(name).metrics.host_mips:.2f}"])
        return render_table(
            "Table 4: Histogram of stream operations",
            ["App", "Kernel+Restart", "Memory", "SDR wr", "MAR wr",
             "UCR wr", "Move", "Misc", "Total", "SDR reuse",
             "BW (MIPS)"],
            rows)

    def table5(self) -> str:
        """Cluster characteristics of applications."""
        rows = []
        for name in _APP_DISPLAY:
            metrics = self.result(name).metrics
            paper = TABLE5_PAPER[name]
            rows.append([
                name,
                f"{metrics.average_kernel_duration:.0f} cycles",
                f"{metrics.average_kernel_stream_length:.1f} words",
                f"{metrics.average_memory_stream_length:.1f} words",
                f"{paper[0]} / {paper[1]} / {paper[2]}"])
        return render_table(
            "Table 5: Cluster characteristics of applications",
            ["App", "Avg kernel duration", "Avg kernel stream",
             "Avg memory stream", "paper (dur/kstream/mstream)"],
            rows)

    def figure14(self) -> str:
        """DEPTH execution time vs host-interface bandwidth."""
        rows = []
        for _, board in self._runs("figure14"):
            result = self.result("DEPTH", board)
            share = self._breakdown("DEPTH", board)
            busy = (share["operations"]
                    + share["kernel main loop overhead"]
                    + share["kernel non main loop"]
                    + share["cluster stalls"])
            rows.append([
                f"{board.host_mips:.1f} MIPS",
                f"{result.seconds * 1e3:.2f} ms",
                f"{share['host bandwidth stalls'] * 100:.1f}%",
                f"{share['memory stalls'] * 100:.1f}%",
                f"{share['stream controller overhead'] * 100:.1f}%",
                f"{busy * 100:.1f}%"])
        return render_table(
            "Figure 14: DEPTH execution time vs host interface bandwidth",
            ["Host BW", "exec time", "host stalls", "memory stalls",
             "controller", "cluster busy"],
            rows)

    def table6(self) -> str:
        """Lab (hardware board) vs ISIM running cycles."""
        rows = []
        for name in _APP_DISPLAY:
            lab = self.result(name).cycles
            isim = self.result(name, self.isim).cycles
            rows.append([name, f"{lab / 1e6:.3f} M",
                         f"{isim / 1e6:.3f} M", f"{lab / isim:.3f}",
                         f"{TABLE6_PAPER[name]:.3f}"])
        return render_table(
            "Table 6: Lab vs ISIM running cycles",
            ["App", "Lab cycles", "ISIM cycles", "ratio",
             "paper ratio"],
            rows)

    def power(self) -> str:
        """Section 5.5: pJ per FLOP against a DSP and a CPU."""
        rows = [[row.processor, row.pj_per_flop, row.technology]
                for row in power_efficiency_comparison(
                    self.machine, self.board, self.backend)]
        normalized = rows[1][1]
        for label, row in (("C67x", rows[2]), ("Pentium M", rows[3])):
            rows.append([f"advantage vs {label}",
                         f"{row[1] / normalized:.1f}x", "-"])
        return render_table(
            "Section 5.5: Power efficiency (pJ per FLOP)",
            ["Processor", "pJ/FLOP", "technology"],
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
    name: getattr(Evaluation, name) for name in (*ARTIFACTS, "targets")}


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
