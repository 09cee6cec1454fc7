"""Probe/counter registry: named, self-describing counters.

The scattered :class:`~repro.core.metrics.Metrics` fields become a
uniform set of :class:`Probe` entries -- each with a unit, a
description, and optionally a *paper target* (an expected value with a
relative tolerance, citing the paper table or figure it comes from) so
machine-readable reports can flag drift from the reproduced Tables 1-5
automatically.

:func:`registry_from_result` builds the registry for one finished
:class:`~repro.core.RunResult`; :meth:`ProbeRegistry.snapshot` /
:meth:`ProbeRegistry.diff` support before/after comparisons across
runs or code changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.core.metrics import CycleCategory

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.processor import RunResult


@dataclass(frozen=True)
class PaperTarget:
    """Expected value (relative tolerance) from the paper's tables."""

    expected: float
    rel_tolerance: float
    source: str

    def within(self, value: float) -> bool:
        scale = max(abs(self.expected), 1e-30)
        return abs(value - self.expected) / scale <= self.rel_tolerance


@dataclass(frozen=True)
class Probe:
    """One named counter with its unit and provenance."""

    name: str
    value: float
    unit: str
    description: str
    target: PaperTarget | None = None

    @property
    def within_target(self) -> bool | None:
        """True/False against the paper target; None when untargeted."""
        if self.target is None:
            return None
        return self.target.within(self.value)

    def as_dict(self) -> dict:
        entry: dict = {"value": self.value, "unit": self.unit,
                       "description": self.description}
        if self.target is not None:
            entry["target"] = {
                "expected": self.target.expected,
                "rel_tolerance": self.target.rel_tolerance,
                "source": self.target.source,
                "within": self.within_target,
            }
        return entry


class ProbeRegistry:
    """Ordered, name-unique collection of probes."""

    def __init__(self) -> None:
        self._probes: dict[str, Probe] = {}

    def add(self, name: str, value: float, unit: str,
            description: str, target: PaperTarget | None = None) -> None:
        if name in self._probes:
            raise ValueError(f"probe {name!r} already registered")
        self._probes[name] = Probe(name, float(value), unit,
                                   description, target)

    def __iter__(self) -> Iterator[Probe]:
        return iter(self._probes.values())

    def __len__(self) -> int:
        return len(self._probes)

    def __contains__(self, name: str) -> bool:
        return name in self._probes

    def get(self, name: str) -> Probe:
        return self._probes[name]

    def names(self) -> list[str]:
        return list(self._probes)

    # ------------------------------------------------------------------
    # Snapshots and drift.
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict]:
        """Self-describing name -> {value, unit, description, target}."""
        return {name: probe.as_dict()
                for name, probe in self._probes.items()}

    def diff(self, other: "ProbeRegistry") -> dict[str, float]:
        """Per-probe ``self - other`` for the shared probe names."""
        return {name: probe.value - other.get(name).value
                for name, probe in self._probes.items()
                if name in other}

    def drifted(self) -> list[Probe]:
        """Probes whose value falls outside their paper target."""
        return [probe for probe in self._probes.values()
                if probe.within_target is False]


#: Unit vocabulary, by series name.  Two consumers join on this:
#: the tracer's counter tracks (``counters_csv`` stamps each row's
#: unit column from here) and the live metrics plane
#: (:mod:`repro.obs.metrics` refuses to build a metric whose name has
#: no unit registered here unless one is passed explicitly) -- so an
#: unregistered unit fails tier-1, not a dashboard review.
COUNTER_UNITS: dict[str, str] = {
    # Tracer counter series (PR 1).
    "scoreboard": "slots",
    "cycles by category": "cycles",
    "channel busy (sampled mem cycles)": "mem cycles",
    # Service job lifecycle (repro.serve.service).
    "serve_jobs_submitted_total": "jobs",
    "serve_jobs_accepted_total": "jobs",
    "serve_jobs_rejected_total": "jobs",
    "serve_jobs_terminal_total": "jobs",
    "serve_jobs_coalesced_total": "jobs",
    "serve_jobs_deadline_exceeded_total": "jobs",
    "serve_jobs_recovered_total": "jobs",
    "serve_artifact_hits_total": "jobs",
    "serve_job_retries_total": "retries",
    "serve_job_executions_total": "executions",
    "serve_queue_depth": "jobs",
    "serve_breaker_state": "state",
    "serve_breaker_transitions_total": "transitions",
    "serve_job_latency_ms": "ms",
    # HTTP front end (repro.serve.http).
    "serve_http_requests_total": "requests",
    "serve_http_latency_ms": "ms",
    # Engine sessions (repro.engine.session).
    "engine_cache_requests_total": "runs",
    "engine_cache_evictions_total": "entries",
    "engine_inflight_dedup_total": "runs",
    "engine_worker_timeouts_total": "runs",
    "engine_worker_retries_total": "retries",
    "engine_backend_selected_total": "runs",
    "engine_runs_executed_total": "runs",
    "engine_runs_reused_total": "runs",
    "engine_runs_failed_total": "runs",
}


#: Table-3 paper values for the four applications at their default
#: (reproduction-scale) builds.  The reproduction criterion is *shape*
#: (EXPERIMENTS.md), so the tolerances are generous; a probe outside
#: them signals a real regression, not dataset-scale noise.
PAPER_TARGETS: dict[str, dict[str, PaperTarget]] = {
    "DEPTH": {
        "rate.gops": PaperTarget(4.91, 0.5, "Table 3"),
        "power.watts": PaperTarget(7.49, 0.5, "Table 3"),
    },
    "MPEG": {
        "rate.gops": PaperTarget(7.36, 0.5, "Table 3"),
        "power.watts": PaperTarget(6.80, 0.5, "Table 3"),
    },
    "QRD": {
        "rate.gflops": PaperTarget(4.81, 0.5, "Table 3"),
        "power.watts": PaperTarget(7.42, 0.5, "Table 3"),
    },
    "RTSL": {
        "rate.gops": PaperTarget(1.30, 0.5, "Table 3"),
        "power.watts": PaperTarget(5.91, 0.5, "Table 3"),
    },
}


def registry_from_result(result: "RunResult",
                         targets: dict[str, PaperTarget] | None = None
                         ) -> ProbeRegistry:
    """Build the full counter registry for one finished run.

    ``targets`` overrides the default :data:`PAPER_TARGETS` lookup by
    run name (pass ``{}`` to disable target annotation entirely).
    """
    metrics = result.metrics
    if targets is None:
        targets = PAPER_TARGETS.get(result.name, {})

    registry = ProbeRegistry()

    def add(name: str, value: float, unit: str, description: str) -> None:
        registry.add(name, value, unit, description,
                     target=targets.get(name))

    add("cycles.total", metrics.total_cycles, "cycles",
        "end-to-end execution time")
    for category in CycleCategory:
        key = category.value.replace(" ", "_")
        add(f"cycles.{key}", metrics.cycles.get(category, 0.0),
            "cycles", f"cycles attributed to '{category.value}' "
                      f"(Figure 11 category)")
    add("time.seconds", metrics.seconds, "s", "simulated wall time")
    add("ops.arith", metrics.arith_ops, "ops",
        "arithmetic operations executed across all clusters")
    add("ops.flops", metrics.flops, "ops",
        "floating-point operations executed")
    add("ops.comm", metrics.comm_ops, "ops",
        "inter-cluster communication operations")
    add("ops.dsq", metrics.dsq_ops, "ops",
        "divide/square-root unit operations (Table 2 power inputs)")
    add("ops.instructions", metrics.instructions, "instructions",
        "VLIW instructions issued across all clusters")
    add("words.lrf", metrics.lrf_words, "words",
        "local register file accesses (Figure 13 tier 1)")
    add("words.srf", metrics.srf_words, "words",
        "stream register file words transferred (Figure 13 tier 2)")
    add("words.mem", metrics.mem_words, "words",
        "DRAM stream words transferred (Figure 13 tier 3)")
    add("words.sp", metrics.sp_accesses, "words",
        "cluster scratchpad accesses (Figure 12 component traffic)")
    add("bandwidth.lrf_gbytes", metrics.lrf_gbytes, "GB/s",
        "sustained LRF bandwidth")
    add("bandwidth.srf_gbytes", metrics.srf_gbytes, "GB/s",
        "sustained SRF bandwidth")
    add("bandwidth.mem_gbytes", metrics.mem_gbytes, "GB/s",
        "sustained DRAM bandwidth")
    add("rate.gops", metrics.gops, "GOPS",
        "sustained arithmetic rate (Table 3)")
    add("rate.gflops", metrics.gflops, "GFLOPS",
        "sustained floating-point rate (Table 3)")
    add("rate.ipc", metrics.ipc, "instr/cycle",
        "sustained VLIW instructions per cycle (Table 3)")
    add("host.instructions", metrics.host_instructions, "instructions",
        "stream instructions delivered by the host")
    add("host.mips", metrics.host_mips, "MIPS",
        "sustained host-interface rate (Table 4)")
    add("kernel.invocations", len(metrics.kernel_invocations),
        "invocations", "kernel invocations executed")
    add("kernel.avg_duration", metrics.average_kernel_duration,
        "cycles", "average kernel invocation duration (Table 5)")
    add("kernel.avg_stream_elements",
        metrics.average_kernel_stream_length, "elements",
        "average kernel stream length (Table 5)")
    add("memory.avg_stream_words",
        metrics.average_memory_stream_length, "words",
        "average memory stream length (Table 5)")
    add("sdr.reuse", metrics.sdr_reuse, "refs/write",
        "stream descriptor register reuse (Table 4)")
    add("power.watts", result.power.watts, "W",
        "average power over the run (Table 3)")
    add("faults.events", len(result.fault_events), "events",
        "injected hardware-fault firings (repro.faults)")
    add("host.retries", result.host_retries, "retries",
        "host transfers retried after injected drops")
    return registry
