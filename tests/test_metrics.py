"""The labeled metrics subsystem (:mod:`repro.obs.metrics`) and the
cross-process trace stitcher (:mod:`repro.obs.stitch`).

The contracts under test are the ones the telemetry plane leans on:
frozen label sets, get-or-create registration that worker-thread
sessions share, byte-identical rendering, a strict exposition parser
(so CI validates real scrapes, not just shapes), unit vocabulary
enforcement against ``COUNTER_UNITS``, and stitched documents that
pass the pid-aware Chrome-trace validator.
"""

import json

import pytest

from repro.obs.metrics import (
    CONTENT_TYPE,
    ExpositionError,
    MetricError,
    MetricsRegistry,
    counter_totals,
    parse_prometheus,
    probes_from_metrics,
    render_prometheus,
)
from repro.obs.registry import COUNTER_UNITS
from repro.obs.stitch import (
    SERVICE_PID,
    SIMULATOR_PID,
    TraceContext,
    stitch_job_trace,
    validate_stitched_trace,
)


def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestRegistrySemantics:
    def test_counter_inc_and_labels(self):
        metrics = registry()
        jobs = metrics.counter("serve_jobs_terminal_total",
                               "terminal jobs", labels=("state",))
        jobs.labels(state="completed").inc()
        jobs.labels(state="completed").inc(2)
        jobs.labels(state="failed").inc()
        values = {key: child.value
                  for key, child in jobs.children()}
        assert values == {("completed",): 3.0, ("failed",): 1.0}

    def test_label_set_is_frozen(self):
        metrics = registry()
        jobs = metrics.counter("serve_jobs_terminal_total",
                               "terminal jobs", labels=("state",))
        with pytest.raises(MetricError):
            jobs.labels(wrong="x")
        with pytest.raises(MetricError):
            jobs.labels(state="ok", extra="y")
        with pytest.raises(MetricError):
            jobs.labels()

    def test_counter_rejects_negative_and_gauge_allows(self):
        metrics = registry()
        counter = metrics.counter("serve_jobs_submitted_total",
                                  "submissions")
        with pytest.raises(MetricError):
            counter.labels().inc(-1)
        gauge = metrics.gauge("serve_queue_depth", "queue depth")
        gauge.labels().set(5)
        gauge.labels().dec(2)
        assert gauge.labels().value == 3.0

    def test_get_or_create_shares_and_conflicts_raise(self):
        # Worker-thread sessions re-register the same families into
        # the service registry; identical signatures must alias.
        metrics = registry()
        first = metrics.counter("engine_runs_executed_total", "runs")
        again = metrics.counter("engine_runs_executed_total", "runs")
        assert first is again
        with pytest.raises(MetricError):
            metrics.gauge("engine_runs_executed_total", "runs")
        with pytest.raises(MetricError):
            metrics.counter("engine_runs_executed_total", "runs",
                            labels=("backend",))

    def test_unregistered_name_needs_explicit_unit(self):
        # The COUNTER_UNITS vocabulary is the registration gate: a
        # metric whose name has no registered unit fails tier-1
        # unless it declares one explicitly.
        metrics = registry()
        assert "totally_unknown_metric" not in COUNTER_UNITS
        with pytest.raises(MetricError):
            metrics.counter("totally_unknown_metric", "mystery")
        explicit = metrics.counter("totally_unknown_metric",
                                   "mystery", unit="widgets")
        assert explicit.unit == "widgets"
        assert (metrics.counter("serve_jobs_submitted_total",
                                "jobs").unit
                == COUNTER_UNITS["serve_jobs_submitted_total"])

    def test_histogram_buckets_and_quantiles(self):
        metrics = registry()
        latency = metrics.histogram(
            "serve_job_latency_ms", "latency",
            buckets=(1.0, 10.0, 100.0))
        child = latency.labels()
        for value in (0.5, 5.0, 5.0, 50.0, 500.0):
            child.observe(value)
        assert child.count == 5
        assert child.sum == pytest.approx(560.5)
        # Quantiles are bucket-boundary upper bounds.
        assert child.quantile(0.5) == 10.0
        assert child.quantile(0.99) == float("inf")
        with pytest.raises(MetricError):
            metrics.histogram("engine_runs_failed_total", "bad",
                              buckets=(10.0, 1.0))

    def test_snapshot_and_reset(self):
        metrics = registry()
        counter = metrics.counter("serve_jobs_submitted_total",
                                  "submissions")
        counter.labels().inc(4)
        snap = metrics.snapshot()
        assert snap["serve_jobs_submitted_total"]["type"] == "counter"
        metrics.reset()
        assert metrics.get(
            "serve_jobs_submitted_total").labels().value == 0.0
        # Registrations survive a reset.
        assert "serve_jobs_submitted_total" in metrics


class TestExposition:
    def build(self) -> MetricsRegistry:
        metrics = registry()
        jobs = metrics.counter("serve_jobs_terminal_total",
                               "terminal jobs", labels=("state",))
        jobs.labels(state="completed").inc(7)
        jobs.labels(state="failed").inc()
        metrics.gauge("serve_queue_depth",
                      "queued + running").labels().set(2)
        latency = metrics.histogram("serve_job_latency_ms",
                                    "latency",
                                    buckets=(1.0, 10.0))
        latency.labels().observe(0.5)
        latency.labels().observe(5.0)
        return metrics

    def test_render_is_byte_stable_and_name_sorted(self):
        metrics = self.build()
        one = render_prometheus(metrics)
        two = render_prometheus(metrics)
        assert one == two
        names = [line.split()[2] for line in one.splitlines()
                 if line.startswith("# TYPE")]
        assert names == sorted(names)
        assert CONTENT_TYPE.startswith("text/plain")

    def test_parse_roundtrip_and_counter_totals(self):
        families = parse_prometheus(render_prometheus(self.build()))
        assert families["serve_jobs_terminal_total"]["type"] == (
            "counter")
        totals = counter_totals(families)
        assert totals[
            'serve_jobs_terminal_total{state="completed"}'] == 7.0
        # Gauges and histograms are not part of the determinism
        # surface.
        assert not any(key.startswith("serve_queue_depth")
                       for key in totals)
        assert not any(key.startswith("serve_job_latency_ms")
                       for key in totals)

    def test_parser_is_strict(self):
        good = render_prometheus(self.build())
        with pytest.raises(ExpositionError):
            parse_prometheus("no_help_or_type 1\n")
        # Reordering families breaks the name-sorted contract.
        blocks = good.split("# HELP ")
        shuffled = "# HELP ".join(
            [blocks[0]] + list(reversed(blocks[1:])))
        with pytest.raises(ExpositionError):
            parse_prometheus(shuffled)
        with pytest.raises(ExpositionError):
            parse_prometheus(good.replace(" 7", " nan", 1))

    def test_histogram_exposition_is_coherent(self):
        text = render_prometheus(self.build())
        families = parse_prometheus(text)
        histogram = families["serve_job_latency_ms"]
        assert histogram["type"] == "histogram"
        assert 'le="+Inf"' in text
        assert "serve_job_latency_ms_sum" in text
        assert "serve_job_latency_ms_count 2" in text

    def test_probes_bridge_reuses_units(self):
        table = {probe.name: (probe.value, probe.unit)
                 for probe in probes_from_metrics(self.build())}
        assert table['serve_jobs_terminal_total{state=completed}'] \
            == (7.0, COUNTER_UNITS["serve_jobs_terminal_total"])
        assert table["serve_queue_depth"] == (
            2.0, COUNTER_UNITS["serve_queue_depth"])
        assert table["serve_job_latency_ms.count"] == (
            2.0, "observations")


class TestServiceMetricNamesRegistered:
    def test_every_wired_family_has_a_unit(self, tmp_path):
        # Constructing the service + an engine session registers the
        # full family set; every name must be in COUNTER_UNITS (the
        # sorted-CSV vocabulary the tracer also draws from).
        from repro.engine import Session, SessionConfig
        from repro.serve import ExperimentService, ServiceConfig

        service = ExperimentService(ServiceConfig(
            data_dir=str(tmp_path / "serve"), journal_fsync=False))
        Session(config=SessionConfig(
            cache_dir=str(tmp_path / "cache")),
            metrics=service.metrics)
        names = set(service.metrics.names())
        assert {"serve_jobs_submitted_total",
                "serve_job_latency_ms",
                "engine_cache_requests_total"} <= names
        unregistered = sorted(names - set(COUNTER_UNITS))
        assert not unregistered, (
            f"metric names missing from COUNTER_UNITS: "
            f"{unregistered}")


class TestStitcher:
    def context(self) -> TraceContext:
        return TraceContext(job_id="job-1", digest="ab" * 8)

    def test_service_only_document_validates(self):
        document = stitch_job_trace(self.context(), admit_s=0.001,
                                    queue_s=0.05, execute_s=1.2)
        summary = validate_stitched_trace(document)
        assert summary["job_id"] == "job-1"
        assert summary["tracks"] == ["job", "lifecycle"]
        assert summary["simulator_spans"] == 0
        pids = {event["pid"]
                for event in document["traceEvents"]}
        assert pids == {SERVICE_PID}
        assert document["otherData"]["schema"] == "repro.job-trace/1"

    def test_simulator_spans_reparented_and_rebased(self):
        simulator = {"traceEvents": [
            {"name": "process_name", "ph": "M", "ts": 0, "pid": 1,
             "tid": 0, "args": {"name": "imagine"}},
            {"name": "thread_name", "ph": "M", "ts": 0, "pid": 1,
             "tid": 0, "args": {"name": "clusters"}},
            {"name": "kernel", "ph": "X", "ts": 10.0, "dur": 5.0,
             "pid": 1, "tid": 0, "args": {}},
        ]}
        document = stitch_job_trace(self.context(), admit_s=0.001,
                                    queue_s=0.01, execute_s=0.5,
                                    simulator=simulator)
        summary = validate_stitched_trace(document)
        assert summary["simulator_spans"] == 1
        assert "clusters" in summary["tracks"]
        spans = [event for event in document["traceEvents"]
                 if event["ph"] == "X"]
        execute = next(event for event in spans
                       if event["name"] == "engine execute")
        kernel = next(event for event in spans
                      if event["name"] == "kernel")
        assert kernel["pid"] == SIMULATOR_PID
        assert execute["pid"] == SERVICE_PID
        # Simulator time is rebased onto the engine-execute span.
        assert kernel["ts"] >= execute["ts"]
        assert kernel["args"]["job_id"] == "job-1"
        # Stitched output is pure data: JSON-serializable as-is.
        json.dumps(document)

    def test_validator_rejects_mislabeled_simulator(self):
        simulator = {"traceEvents": [
            {"name": "process_name", "ph": "M", "ts": 0, "pid": 1,
             "tid": 0, "args": {"name": "imagine"}},
            {"name": "thread_name", "ph": "M", "ts": 0, "pid": 1,
             "tid": 0, "args": {"name": "clusters"}},
            {"name": "kernel", "ph": "X", "ts": 10.0, "dur": 5.0,
             "pid": 1, "tid": 0, "args": {}},
        ]}
        document = stitch_job_trace(self.context(), admit_s=0.001,
                                    queue_s=0.01, execute_s=0.5,
                                    simulator=simulator)
        for event in document["traceEvents"]:
            if event["name"] == "kernel":
                event["args"]["job_id"] = "someone-else"
        with pytest.raises(ValueError):
            validate_stitched_trace(document)
