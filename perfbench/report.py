"""What a run measured, and how it is printed.

The human-readable lines name every metric with its unit and sample
count; the last line is the one JSON object the benchmark contract
asks for: the end-to-end metrics for an untraced run, the per-layer
metrics for a traced one.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field

from layers import PER_LAYER
from stats import TooFewSamples, kind_gmean, p50, p90


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


#: The gated end-to-end metrics, reported on every workload.  Times are
#: gated at reference host speed (speed.py); the wall-clock figures are
#: printed beside them.  Across ten seeds request_ref_ms.gm spreads
#: (IQR/median) about 0.05 in process but 0.06-0.15 on serve-open,
#: whose hot answers are mostly fsync'd journal appends that host CPU
#: speed does not track; hence its bound.  The p90s are printed but
#: not gated: on serve-open the tail is the hot path stalled behind
#: cold executions, and across runs it spreads wider than any bound a
#: regression gate can use.
END_TO_END = (
    EndToEnd("request_ref_ms.gm", "ms", "lower", 0.25),
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
)


@dataclass
class Outcome:
    """What one workload run measured."""

    #: Latency of every correctly answered request, the factor that
    #: takes it to reference host speed (speed.py), and its kind (what
    #: it shares with its repeats: app, shape, board, and hot or cold
    #: when served).
    latencies_ms: list[float] = field(default_factory=list)
    latency_scales: list[float] = field(default_factory=list)
    latency_kinds: list[tuple] = field(default_factory=list)
    attempted: int = 0
    #: (request index, message); a request counts as failed once.
    failures: list[tuple[int, str]] = field(default_factory=list)
    window_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: Set-up times (s), and the factor for each as above.
    setup_samples: list[float] = field(default_factory=list)
    setup_scales: list[float] = field(default_factory=list)
    #: Named latency samples besides the request latencies.
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: Ratios and input properties measured in every run.
    extra: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics (traced runs only).
    layer_metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len({index for index, _ in self.failures})

    @property
    def ref_latencies_ms(self) -> list[float]:
        return [ms * factor for ms, factor
                in zip(self.latencies_ms, self.latency_scales, strict=True)]

    @property
    def ref_setup_samples(self) -> list[float]:
        return [s * factor for s, factor
                in zip(self.setup_samples, self.setup_scales, strict=True)]


def _line(name: str, value: float | None, unit: str, count: int | None,
          note: str = "") -> str:
    shown = "n/a" if value is None else f"{value:.6g}"
    counted = "" if count is None else f"n={count}"
    return f"  {name:36s} {shown:>12s} {unit:6s} {counted:8s} {note}"


def _percentile(samples: list[float], which) -> tuple[float | None, str]:
    try:
        return which(samples), ""
    except TooFewSamples as error:
        return None, f"refused: {error}"


def end_to_end(outcome: Outcome) -> dict[str, float]:
    return {"request_ref_ms.gm": kind_gmean(outcome.ref_latencies_ms,
                                            outcome.latency_kinds),
            "setup_s": statistics.median(outcome.ref_setup_samples),
            "peak_rss_mb": outcome.peak_rss_mb}


def per_layer(outcome: Outcome) -> dict[str, float]:
    values = {metric.name: 0.0 for metric in PER_LAYER}
    for source in (outcome.extra, outcome.layer_metrics):
        values.update({name: value for name, value in source.items()
                       if name in values})
    lags = outcome.samples.get("loadgen.lag_ms")
    if lags:
        values["loadgen.lag_ms.p90"] = _percentile(lags, p90)[0] or 0.0
    return values


def render(workload: str, seed: int, trace: bool,
           outcome: Outcome) -> list[str]:
    """Every named metric, with unit and sample count."""
    answered = len(outcome.latencies_ms)
    lines = [f"perfbench {workload} seed={seed} trace={int(trace)} "
             f"window={outcome.window_s:.1f}s "
             f"attempted={outcome.attempted} failed={outcome.failed}"]
    served = workload == "serve-open"
    scope = ("every answered request, timed from when it was due"
             if served else "every answered request")
    for name, which in (("request_ms.p50", p50),
                        ("request_ms.p90", p90)):
        value, why = _percentile(outcome.latencies_ms, which)
        lines.append(_line(name, value, "ms", answered, why or scope))
    for kind in ("serve_cold_ms", "serve_hot_ms"):
        samples = outcome.samples.get(kind)
        for suffix, which in (("p50", p50), ("p90", p90)):
            if samples is None:
                lines.append(_line(f"{kind}.{suffix}", None, "ms", None,
                                   "not exercised on this workload"))
                continue
            value, why = _percentile(samples, which)
            lines.append(_line(f"{kind}.{suffix}", value, "ms",
                               len(samples), why))
    goodput = outcome.extra.get("serve_goodput")
    lines.append(_line("serve_goodput", goodput, "ratio",
                       outcome.attempted if served else None,
                       "answered correctly within the latency limit"
                       if served else "not exercised on this workload"))
    lines.append(_line("error_ratio",
                       outcome.failed / max(outcome.attempted, 1),
                       "ratio", outcome.attempted,
                       "failed or wrong answers / attempted"))
    kinds = len(set(outcome.latency_kinds))
    lines.append(_line("request_ms.gm", kind_gmean(
        outcome.latencies_ms, outcome.latency_kinds), "ms", answered,
        f"geometric mean of the medians of {kinds} request kinds, "
        f"weighted by count"))
    lines.append(_line("request_ref_ms.gm", kind_gmean(
        outcome.ref_latencies_ms, outcome.latency_kinds), "ms", answered,
        "request_ms.gm at reference host speed"))
    lines.append(_line("setup_s", statistics.median(
        outcome.ref_setup_samples), "s", len(outcome.setup_samples),
        "median set-up at reference host speed"))
    lines.append(_line("setup_wall_s", statistics.median(
        outcome.setup_samples), "s", len(outcome.setup_samples),
        "median of the set-ups: "
        + ", ".join(f"{s:.3f}" for s in outcome.setup_samples)))
    if outcome.peak_rss_mb:
        lines.append(_line("peak_rss_mb", outcome.peak_rss_mb, "MB",
                           None, "server process" if served
                           else "client process"))
    for name in ("input.repeat_share", "input.hot_share",
                 "engine.cache.hit_ratio", "reference_checks"):
        if name in outcome.extra:
            lines.append(_line(name, outcome.extra[name],
                               "ratio" if name != "reference_checks"
                               else "count", answered))
    if trace:
        lines.append("  per-layer (what each should move):")
        values = per_layer(outcome)
        for metric in PER_LAYER:
            lines.append(_line(metric.name, values[metric.name],
                               metric.unit, None, metric.moves))
        waits = outcome.samples.get("serve.service.queue_wait_ms", [])
        value, why = _percentile(waits, p90)
        lines.append(_line("serve.service.queue_wait_ms.p90", value,
                           "ms", len(waits), why))
    lines.extend(f"  note: {note}" for note in outcome.notes)
    lines.extend(f"  FAILED request {index}: {message}"
                 for index, message in outcome.failures[:20])
    return lines


def result_line(trace: bool, outcome: Outcome) -> str:
    """The contract's last line."""
    if trace:
        units = {metric.name: metric.unit for metric in PER_LAYER}
        values = per_layer(outcome)
    else:
        units = {metric.name: metric.unit for metric in END_TO_END}
        values = end_to_end(outcome)
    correct = outcome.failed == 0 and all(
        math.isfinite(value) for value in values.values())
    return json.dumps({
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    })
