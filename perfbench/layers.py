"""The program's layers: which entry points are timed, and the
per-layer metrics derived from their spans.

Spans are named after the layer that owns the wrapped function.  Most
per-layer times are self times (a layer minus the wrapped layers it
calls); ``engine.catalog.build_ms`` is inclusive, and
``apps.functional_ms`` is the catalog build's self time -- input
generation plus the NumPy kernel models, i.e. the build minus the
stream and kernel compilers.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass, field
from typing import Any, Sequence

from spans import Span, self_times


def _file_kb(path: pathlib.Path) -> float:
    try:
        return os.stat(path).st_size / 1024.0
    except OSError:
        return 0.0


def _cache_entry(cache: Any, digest: str) -> pathlib.Path:
    # The documented on-disk layout of repro.engine.cache.
    return pathlib.Path(cache.root) / "objects" / digest[:2] \
        / f"{digest}.pkl"


def _note_run(args, kwargs, result) -> dict[str, float]:
    graph = getattr(result, "event_graph", None)
    return {"instructions": float(sum(
                result.instruction_histogram.values())),
            "dag_nodes": float(len(graph.nodes) if graph else 0)}


def _note_load(args, kwargs, outcome) -> dict[str, float]:
    if outcome is None:
        return {"hit": 0.0}
    return {"hit": 1.0, "kb": _file_kb(_cache_entry(args[0], args[1]))}


def _note_store(args, kwargs, value) -> dict[str, float]:
    return {"kb": _file_kb(_cache_entry(args[0], args[1]))}


#: (module, class or None, attribute, layer, note) -- the engine side,
#: timed wherever simulations run (client or server process).
ENGINE_ENTRY_POINTS = (
    ("repro.engine.catalog", None, "build_app", "engine.catalog", None),
    ("repro.streamc.program", "StreamProgram", "build",
     "streamc.compile", None),
    # KernelSpec.compiled memoizes; this name is only called when it
    # actually compiles.
    ("repro.streamc.program", None, "compile_kernel",
     "kernelc.compile", None),
    ("repro.core.vector", "VectorProcessor", "run", "core.vector",
     _note_run),
    ("repro.core.processor", "ImagineProcessor", "run",
     "core.processor", _note_run),
    ("repro.engine.request", "RunRequest", "digest",
     "engine.request.digest", None),
    ("repro.engine.cache", "ResultCache", "load", "engine.cache.load",
     _note_load),
    ("repro.engine.cache", "ResultCache", "store", "engine.cache.store",
     _note_store),
    ("repro.obs.profile", None, "build_profile", "obs.profile", None),
    ("repro.obs.critpath", None, "build_critpath", "obs.critpath", None),
    ("repro.obs.critpath", None, "critpath_summary", "obs.critpath",
     None),
)

#: Server-only entry points (the service process).
SERVE_ENTRY_POINTS = (
    ("repro.engine.session", "Session", "submit", "engine.session",
     None),
    ("repro.serve.service", "ExperimentService", "submit",
     "serve.service.submit", None),
    ("repro.serve.journal", "JobJournal", "append",
     "serve.journal.append", None),
    ("repro.serve.artifacts", "ArtifactStore", "load",
     "serve.artifacts.load", None),
    ("repro.serve.artifacts", "ArtifactStore", "store",
     "serve.artifacts.store", None),
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: Which end-to-end metric this should move, on which workload,
    #: and where it should stay flat.
    moves: str


PER_LAYER: tuple[LayerMetric, ...] = (
    LayerMetric("engine.catalog.build_ms", "ms", "lower",
                "request_ms on cold-sweep; serve cold path on "
                "serve-open; zero on warm-replay"),
    LayerMetric("apps.functional_ms", "ms", "lower",
                "request_ms on cold-sweep; serve cold path; zero on "
                "warm-replay"),
    LayerMetric("streamc.compile_ms", "ms", "lower",
                "request_ms on cold-sweep; serve cold path; zero on "
                "warm-replay"),
    LayerMetric("kernelc.compile_ms", "ms", "lower",
                "request_ms on cold-sweep; serve cold path; zero on "
                "warm-replay"),
    LayerMetric("kernelc.compiles", "count", "lower",
                "request_ms on cold-sweep: kernels the set-up did not "
                "compile (the memo is process-wide)"),
    LayerMetric("core.vector.run_ms", "ms", "lower",
                "request_ms on cold-sweep only"),
    LayerMetric("core.vector.instr_per_s", "1/s", "higher",
                "request_ms on cold-sweep only"),
    LayerMetric("core.processor.run_ms", "ms", "lower",
                "serve cold path on serve-open only"),
    LayerMetric("core.processor.instr_per_s", "1/s", "higher",
                "serve cold path on serve-open only"),
    LayerMetric("core.sim_instructions", "count", "lower",
                "peak_rss_mb everywhere, with engine.cache.entry_kb"),
    LayerMetric("core.dag_nodes", "count", "lower",
                "peak_rss_mb everywhere, with engine.cache.entry_kb"),
    LayerMetric("engine.request.digest_ms", "ms", "lower",
                "request_ms on warm-replay; serve hot path"),
    LayerMetric("engine.cache.load_ms", "ms", "lower",
                "request_ms on warm-replay"),
    LayerMetric("engine.cache.store_ms", "ms", "lower",
                "request_ms on cold-sweep; serve cold path"),
    LayerMetric("engine.cache.entry_kb", "KB", "lower",
                "request_ms on warm-replay; peak_rss_mb"),
    LayerMetric("engine.cache.hit_ratio", "ratio", "higher",
                "must be 0 on cold-sweep and 1 on warm-replay"),
    LayerMetric("obs.profile.build_ms", "ms", "lower",
                "request_ms on cold-sweep and warm-replay; serve cold "
                "path; flat on the serve hot path"),
    LayerMetric("obs.critpath.build_ms", "ms", "lower",
                "request_ms on cold-sweep and warm-replay; serve cold "
                "path; flat on the serve hot path"),
    LayerMetric("engine.session.residual_ms", "ms", "lower",
                "conservation slack: request time not in any layer"),
    LayerMetric("serve.service.submit_ms", "ms", "lower",
                "serve hot path on serve-open"),
    LayerMetric("serve.journal.append_ms", "ms", "lower",
                "serve hot path on serve-open"),
    LayerMetric("serve.journal.appends", "count", "lower",
                "serve hot path on serve-open"),
    LayerMetric("serve.artifacts.load_ms", "ms", "lower",
                "serve hot path on serve-open"),
    LayerMetric("serve.artifacts.store_ms", "ms", "lower",
                "serve cold p90 and goodput on serve-open"),
    LayerMetric("serve.service.queue_wait_ms.p50", "ms", "lower",
                "serve cold p90 and goodput on serve-open"),
    LayerMetric("serve.http.response_kb", "KB", "lower",
                "serve hot path on serve-open"),
    LayerMetric("serve.http.polls", "count", "lower",
                "serve cold p90 and goodput on serve-open"),
    LayerMetric("loadgen.lag_ms.p90", "ms", "lower",
                "benchmark health: how late the open-loop generator "
                "ran (zero for the closed loops)"),
    LayerMetric("trace.overhead", "ratio", "lower",
                "benchmark health: traced / untraced latency (the "
                "request_ms.gm statistic; p50 on serve-open)"),
    LayerMetric("trace.residual_share", "ratio", "lower",
                "benchmark health: residual share of request time"),
    LayerMetric("input.repeat_share", "ratio", "higher",
                "cold-sweep input property: requests whose (app, "
                "shape, board) appeared earlier in the run"),
    LayerMetric("input.hot_share", "ratio", "higher",
                "serve-open input property: hot share delivered"),
)

#: Span layer -> per-layer time metric built from its self time.
_SELF_TIME_METRICS = {
    "engine.catalog": "apps.functional_ms",
    "streamc.compile": "streamc.compile_ms",
    "kernelc.compile": "kernelc.compile_ms",
    "core.vector": "core.vector.run_ms",
    "core.processor": "core.processor.run_ms",
    "engine.request.digest": "engine.request.digest_ms",
    "engine.cache.load": "engine.cache.load_ms",
    "engine.cache.store": "engine.cache.store_ms",
    "obs.profile": "obs.profile.build_ms",
    "obs.critpath": "obs.critpath.build_ms",
    "engine.session": "engine.session.residual_ms",
    "serve.service.submit": "serve.service.submit_ms",
    "serve.journal.append": "serve.journal.append_ms",
    "serve.artifacts.load": "serve.artifacts.load_ms",
    "serve.artifacts.store": "serve.artifacts.store_ms",
}


@dataclass
class LayerTotals:
    """Self time, inclusive time, call count and noted counts per
    span layer, summed over any number of span lists."""

    self_s: dict[str, float] = field(default_factory=dict)
    inclusive_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    counts: dict[str, dict[str, float]] = field(default_factory=dict)

    def add(self, spans: Sequence[Span],
            since: float | None = None) -> None:
        """Sum ``spans`` (one list, parent links intact), keeping only
        finished spans that started at or after ``since``."""
        for span, own in zip(spans, self_times(spans)):
            if span.end < span.start or (since is not None
                                         and span.start < since):
                continue
            layer = span.layer
            self.self_s[layer] = self.self_s.get(layer, 0.0) + own
            self.inclusive_s[layer] = (self.inclusive_s.get(layer, 0.0)
                                       + span.duration)
            self.calls[layer] = self.calls.get(layer, 0) + 1
            bucket = self.counts.setdefault(layer, {})
            for key, value in span.counts.items():
                bucket[key] = bucket.get(key, 0.0) + value

    def _count(self, layer: str, key: str) -> float:
        return self.counts.get(layer, {}).get(key, 0.0)

    def metrics(self, requests: int) -> dict[str, float]:
        """Per-request means (and the counts, rates and ratios named
        in :data:`PER_LAYER`) derivable from spans alone."""
        per = max(requests, 1)
        out = {metric: self.self_s.get(layer, 0.0) * 1e3 / per
               for layer, metric in _SELF_TIME_METRICS.items()}
        out["engine.catalog.build_ms"] = (
            self.inclusive_s.get("engine.catalog", 0.0) * 1e3 / per)
        out["kernelc.compiles"] = float(self.calls.get("kernelc.compile",
                                                       0))
        out["serve.journal.appends"] = (
            self.calls.get("serve.journal.append", 0) / per)
        runs = 0
        instructions = nodes = 0.0
        for layer in ("core.vector", "core.processor"):
            layer_instr = self._count(layer, "instructions")
            seconds = self.self_s.get(layer, 0.0)
            out[f"{layer}.instr_per_s"] = (layer_instr / seconds
                                           if seconds > 0 else 0.0)
            runs += self.calls.get(layer, 0)
            instructions += layer_instr
            nodes += self._count(layer, "dag_nodes")
        out["core.sim_instructions"] = instructions / runs if runs else 0.0
        out["core.dag_nodes"] = nodes / runs if runs else 0.0
        loads = self.calls.get("engine.cache.load", 0)
        hits = self._count("engine.cache.load", "hit")
        out["engine.cache.hit_ratio"] = hits / loads if loads else 0.0
        entries = hits + self.calls.get("engine.cache.store", 0)
        entry_kb = (self._count("engine.cache.load", "kb")
                    + self._count("engine.cache.store", "kb"))
        out["engine.cache.entry_kb"] = entry_kb / entries if entries \
            else 0.0
        return out
