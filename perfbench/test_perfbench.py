"""Self-tests for the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import asyncio
import itertools
import json
from pathlib import Path

import pytest

import layers
import mix
import report
import serveload
import spans
import speed
import stats

HERE = Path(__file__).resolve().parent


# ----------------------------------------------------------------------
# Seeded request mixes.
# ----------------------------------------------------------------------
def _take(generator, count=60):
    return list(itertools.islice(generator, count))


@pytest.mark.parametrize("make", [mix.cold_sweep, mix.warm_replay])
def test_closed_loop_mix_is_deterministic_per_seed(make):
    assert _take(make(5)) == _take(make(5))
    assert _take(make(5)) != _take(make(6))


def test_serve_schedule_is_deterministic_per_seed():
    first = mix.serve_schedule(5, 20.0, 20.0, 0.5)
    assert first == mix.serve_schedule(5, 20.0, 20.0, 0.5)
    assert first != mix.serve_schedule(6, 20.0, 20.0, 0.5)
    assert all(0 <= a.due_s < 20.0 for a in first)
    assert [a.due_s for a in first] == sorted(a.due_s for a in first)


def test_cold_sweep_digests_are_all_new():
    requests = _take(mix.cold_sweep(3), 200)
    keys = [json.dumps(r, sort_keys=True) for r in requests]
    assert len(set(keys)) == len(keys)
    cells = [mix.cell(r) for r in requests]
    # Stratified: every block of 24 covers each (app, shape, board).
    assert len(set(cells[:24])) == 24


def test_serve_cold_count_is_fixed_and_cold_never_hot():
    arrivals = mix.serve_schedule(9, 30.0, 20.0, 0.5)
    cold = [a for a in arrivals if a.cold]
    assert len(cold) == 16
    assert all(sum(a.cold for a in mix.serve_schedule(
        seed, 30.0, 20.0, 0.5)) == 16 for seed in range(5))
    apps = [a.request["app"] for a in cold]
    assert all(apps.count(app) == len(cold) // len(mix.APPS)
               for app in mix.APPS)
    hot_keys = {json.dumps(r, sort_keys=True)
                for r in mix.serve_hot_set()}
    assert all(json.dumps(a.request, sort_keys=True) in hot_keys
               for a in arrivals if not a.cold)
    assert not any(json.dumps(a.request, sort_keys=True) in hot_keys
                   for a in cold)


# ----------------------------------------------------------------------
# Percentiles.
# ----------------------------------------------------------------------
def test_p90_refused_below_100_samples():
    with pytest.raises(stats.TooFewSamples):
        stats.p90([1.0] * 99)
    assert stats.p90([float(i) for i in range(101)]) == pytest.approx(90)


def test_quantile_interpolates():
    assert stats.quantile([0.0, 10.0], 0.25) == 2.5
    assert stats.p50([3.0, 1.0, 2.0]) == 2.0


def test_kind_gmean_holds_still_when_kind_counts_shift():
    """Two kinds, 10 ms and 40 ms: the median jumps as one more of
    either arrives; the count-weighted mean of log medians barely does."""
    def sample(cheap, dear):
        return [10.0] * cheap + [40.0] * dear, ["a"] * cheap + ["b"] * dear

    values, kinds = sample(3, 1)
    assert stats.kind_gmean(values, kinds) == pytest.approx(
        (10 ** 3 * 40) ** 0.25)
    even, after = sample(50, 51), sample(51, 50)
    assert stats.p50(even[0]) == 40.0 and stats.p50(after[0]) == 10.0
    assert stats.kind_gmean(*even) / stats.kind_gmean(*after) \
        == pytest.approx(4 ** (1 / 101))
    with pytest.raises(stats.TooFewSamples):
        stats.kind_gmean([], [])


# ----------------------------------------------------------------------
# Span arithmetic.
# ----------------------------------------------------------------------
def _tree():
    return [spans.Span("root", 0.0, 10.0),
            spans.Span("a", 1.0, 4.0, parent=0),
            spans.Span("a.inner", 2.0, 3.0, parent=1),
            spans.Span("b", 5.0, 9.0, parent=0)]


def test_self_time_subtracts_children():
    assert spans.self_times(_tree()) == [3.0, 2.0, 1.0, 4.0]
    assert spans.check_conservation(_tree(), 10.0) == 3.0


def test_self_time_counts_overlapping_children_once():
    tree = _tree() + [spans.Span("c", 8.0, 9.5, parent=0)]
    assert spans.self_times(tree)[0] == pytest.approx(2.5)


def test_conservation_rejects_escaping_and_overlapping_spans():
    escaping = _tree() + [spans.Span("late", 9.0, 11.0, parent=0)]
    with pytest.raises(ValueError, match="escapes"):
        spans.check_conservation(escaping, 10.0)
    overlapping = _tree() + [spans.Span("c", 8.0, 9.5, parent=0)]
    with pytest.raises(ValueError):
        spans.check_conservation(overlapping, 10.0)
    with pytest.raises(ValueError):
        spans.check_conservation(_tree(), 10.5)


def test_wrapped_calls_nest_and_restore():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    recorder = spans.SpanRecorder()
    undo = [spans.wrap(recorder, Layer, "outer", "outer"),
            spans.wrap(recorder, Layer, "inner", "inner",
                       note=lambda args, kwargs, value: {"n": value})]
    assert Layer().outer() == 2
    recorded = recorder.take()
    assert [(s.layer, s.parent) for s in recorded] == [
        ("outer", None), ("inner", 0)]
    assert recorded[1].counts == {"n": 1}
    totals = layers.LayerTotals()
    totals.add(recorded)
    assert totals.calls == {"outer": 1, "inner": 1}
    for step in undo:
        step()
    assert "wrapper" not in repr(Layer.__dict__["outer"])
    Layer().outer()
    assert recorder.take() == []


# ----------------------------------------------------------------------
# Open-loop timing.
# ----------------------------------------------------------------------
def test_open_loop_latency_counts_from_due_time(monkeypatch):
    """Three requests due at once behind two in-flight slots: the
    third waits for a slot, and its latency includes that wait."""
    delay = 0.05

    async def slow_exchange(port, method, path, body=None):
        await asyncio.sleep(delay)
        return 200, b"{}"

    monkeypatch.setattr(serveload, "exchange", slow_exchange)
    monkeypatch.setattr(serveload, "INFLIGHT", 2)
    arrivals = [mix.Arrival(0.0, False, {"app": "rtsl"})] * 3
    replies = asyncio.run(serveload.drive(0, arrivals))
    latencies = sorted(r.latency_s for r in replies)
    assert latencies[0] >= delay
    assert latencies[2] >= 2 * delay
    for reply in replies:
        root = reply.spans[0]
        assert root[1] == reply.due
        assert reply.latency_s == pytest.approx(root[2] - reply.due)
        tree = [spans.Span(layer, start, end, None if i == 0 else 0)
                for i, (layer, start, end) in enumerate(reply.spans)]
        spans.check_conservation(tree, reply.latency_s)


def test_late_generator_shows_as_lag(monkeypatch):
    async def instant(port, method, path, body=None):
        return 200, b"{}"

    monkeypatch.setattr(serveload, "exchange", instant)

    async def main():
        client = serveload.Client(0)
        reply = serveload.Reply({"app": "rtsl"}, serveload.now() - 0.2,
                                cold=False)
        await client.one(reply)
        return reply

    reply = asyncio.run(main())
    assert reply.latency_s >= 0.2
    lag = reply.spans[1]
    assert lag[0] == "loadgen.lag" and lag[2] - lag[1] >= 0.2


# ----------------------------------------------------------------------
# The benchmark definition.
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    import run

    document = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in document["workloads"]] == list(
        run.WORKLOADS)
    assert document["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in report.END_TO_END]
    assert document["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in layers.PER_LAYER]


def test_per_layer_output_names_every_metric():
    outcome = report.Outcome(latencies_ms=[1.0] * 100,
                             latency_scales=[0.5] * 100,
                             latency_kinds=[("rtsl",)] * 100,
                             attempted=100,
                             setup_samples=[1.0, 2.0, 3.0],
                             setup_scales=[0.5] * 3,
                             peak_rss_mb=50.0)
    traced = json.loads(report.result_line(True, outcome))
    assert set(traced["metrics"]) == {m.name for m in layers.PER_LAYER}
    untraced = json.loads(report.result_line(False, outcome))
    assert set(untraced["metrics"]) == {m.name
                                        for m in report.END_TO_END}
    assert untraced["metrics"]["setup_s"]["value"] == 1.0


# ----------------------------------------------------------------------
# Reference host speed.
# ----------------------------------------------------------------------
def test_speed_scale_uses_samples_inside_the_interval():
    ref = speed.REFERENCE_MS
    samples = [(1.0, ref), (2.0, 2 * ref), (3.0, 4 * ref)]
    # Mean unit time 1.5 ref inside [0.5, 2.5]: wall time shrinks by 1.5.
    assert speed.scale_at(samples, 0.5, 2.5) == pytest.approx(1 / 1.5)
    # No sample inside: the nearest one stands in.
    assert speed.scale_at(samples, 2.8, 2.9) == pytest.approx(0.25)
    assert speed.scale_at(samples, 9.0, 9.5) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        speed.scale_at([], 0.0, 1.0)
    assert speed.scale(ref, 3 * ref) == pytest.approx(0.5)
    assert speed.unit_ms() > 0
