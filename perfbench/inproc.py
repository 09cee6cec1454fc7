"""The in-process workloads: cold-sweep and warm-replay.

One client, one process, closed loop: each request builds a fresh
``Session`` (as separate CLI invocations do), runs one request, and
derives the profile and critical-path reports from the result.  The
request's latency covers exactly that; validation, bookkeeping and
cache-directory clean-up happen outside it.
"""

from __future__ import annotations

import random
import resource
import shutil
import tempfile
import time

import checks
import layers
import mix
import spans
import speed
from report import Outcome
from stats import kind_gmean


def _answer(request, cache_dir: str):
    """One request as a user runs it: fresh session, run, reports."""
    from repro.engine import Session, SessionConfig
    from repro.obs import critpath, profile

    config = SessionConfig(backend="auto", cache_dir=cache_dir)
    with Session(config=config) as session:
        result = session.run(request)
    return (result, profile.build_profile(result),
            critpath.build_critpath(result))


def setup(workload: str, seed: int, run_dir: str) -> dict[str, float]:
    """Imports plus warm-up: one request per app for cold-sweep; the
    4 apps x 2 boards into the shared cache for warm-replay.  Returns
    the expected cycles per warmed digest."""
    expected: dict[str, float] = {}
    if workload == "cold-sweep":
        warm = [mix.payload(app, "hardware", seed, mix.SHAPES[app][0])
                for app in mix.APPS]
    else:
        warm = mix.hot_set()
    for payload in warm:
        cache_dir = (tempfile.mkdtemp(dir=run_dir)
                     if workload == "cold-sweep"
                     else f"{run_dir}/cache")
        result, profile, critpath = _answer(checks.to_request(payload),
                                            cache_dir)
        checks.validate_answer(profile, critpath)
        expected[result.manifest.request_digest] = float(
            result.metrics.total_cycles)
    return expected


def run(workload: str, seed: int, seconds: float, trace: bool,
        run_dir: str, expected: dict[str, float]) -> Outcome:
    outcome = Outcome()
    requests = (mix.cold_sweep(seed) if workload == "cold-sweep"
                else mix.warm_replay(seed))
    want_status = "miss" if workload == "cold-sweep" else "hit"
    sampled = set(random.Random(f"perfbench:check:{workload}:{seed}")
                  .sample(range(checks.REFERENCE_POOL),
                          checks.REFERENCE_SAMPLES))
    kept: list[tuple[int, dict, float, str, str]] = []
    recorder = spans.SpanRecorder()
    undo = (spans.install(recorder, layers.ENGINE_ENTRY_POINTS)
            if trace else None)
    recorder.enabled = False
    coin = random.Random(f"perfbench:trace:{seed}")
    totals = layers.LayerTotals()
    #: (latency ms, kind) of the traced and the untraced requests.
    traced_ms: list[tuple[float, tuple]] = []
    untraced_ms: list[tuple[float, tuple]] = []
    residual_s = traced_s = 0.0
    seen_cells: set = set()
    repeats = hits = 0
    instructions = dag_nodes = 0.0

    start = time.perf_counter()
    try:
        while time.perf_counter() - start < seconds:
            index = outcome.attempted
            payload = next(requests)
            outcome.attempted += 1
            cell = mix.cell(payload)
            repeats += cell in seen_cells
            seen_cells.add(cell)
            request = checks.to_request(payload)
            cache_dir = (tempfile.mkdtemp(dir=run_dir)
                         if workload == "cold-sweep"
                         else f"{run_dir}/cache")
            traced = trace and coin.random() < 0.5
            factor = speed.scale(speed.unit_ms())
            recorder.enabled = traced
            t0 = time.perf_counter()
            root = recorder.open("engine.session", start=t0) \
                if traced else None
            try:
                result, profile, critpath = _answer(request, cache_dir)
            except Exception as error:       # a failed request is data
                outcome.failures.append(
                    (index, f"{payload}: {type(error).__name__}: "
                            f"{error}"))
                result = None
            t1 = time.perf_counter()
            recorder.enabled = False
            request_spans = []
            if root is not None:
                recorder.close(root, end=t1)
                request_spans = recorder.take()
            if workload == "cold-sweep":
                shutil.rmtree(cache_dir, ignore_errors=True)
            if result is None:
                continue
            latency = t1 - t0
            outcome.latencies_ms.append(latency * 1e3)
            outcome.latency_scales.append(factor)
            outcome.latency_kinds.append(cell)
            hits += result.manifest.cache == "hit"
            instructions += sum(result.instruction_histogram.values())
            dag_nodes += len(result.event_graph.nodes)
            if request_spans:
                try:
                    residual_s += spans.check_conservation(
                        request_spans, latency)
                except ValueError as error:
                    outcome.failures.append(
                        (index, f"conservation: {error}"))
                totals.add(request_spans)
                traced_s += latency
            (traced_ms if request_spans else untraced_ms).append(
                (latency * 1e3, cell))
            try:
                _check(result, profile, critpath, want_status, expected)
            except checks.Mismatch as error:
                outcome.failures.append((index, f"{payload}: {error}"))
            if index in sampled:
                kept.append((index, payload,
                             float(result.metrics.total_cycles),
                             checks.canonical(profile),
                             checks.canonical(critpath)))
    finally:
        if undo is not None:
            undo()
    outcome.window_s = time.perf_counter() - start
    outcome.peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for index, payload, cycles, profile_json, critpath_json in kept:
        try:
            checks.check_inprocess(payload, cycles, profile_json,
                                   critpath_json)
        except checks.Mismatch as error:
            outcome.failures.append((index, f"reference: {error}"))
    outcome.extra["reference_checks"] = float(len(kept))
    answered = len(outcome.latencies_ms)
    if workload == "cold-sweep":
        outcome.extra["input.repeat_share"] = repeats / max(answered, 1)
    outcome.extra["engine.cache.hit_ratio"] = hits / max(answered, 1)
    if trace:
        outcome.layer_metrics = totals.metrics(len(traced_ms))
        # What each delivered result holds, simulated or loaded.
        outcome.layer_metrics["core.sim_instructions"] = (
            instructions / max(answered, 1))
        outcome.layer_metrics["core.dag_nodes"] = (
            dag_nodes / max(answered, 1))
        outcome.layer_metrics["trace.residual_share"] = (
            residual_s / traced_s if traced_s else 0.0)
        if traced_ms and untraced_ms:
            outcome.layer_metrics["trace.overhead"] = (
                kind_gmean(*zip(*traced_ms))
                / kind_gmean(*zip(*untraced_ms)))
        outcome.notes.append(
            f"traced {len(traced_ms)} of {answered} requests "
            f"(seeded coin); per-layer values are means over them")
    return outcome


def _check(result, profile, critpath, want_status: str,
           expected: dict[str, float]) -> None:
    checks.validate_answer(profile, critpath)
    manifest = result.manifest
    if manifest.cache != want_status:
        raise checks.Mismatch(
            f"cache status {manifest.cache!r}, workload needs "
            f"{want_status!r}")
    cycles = float(result.metrics.total_cycles)
    if profile["total_cycles"] != cycles:
        raise checks.Mismatch("profile and result disagree on cycles")
    want = expected.get(manifest.request_digest)
    if want is not None and want != cycles:
        raise checks.Mismatch(f"{cycles} cycles, set-up saw {want}")
