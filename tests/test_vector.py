"""The vectorized backend and the engine's one backend rule.

Three contracts under test (``docs/engine.md``):

* **bit-identity** -- for every run it accepts, the vector backend
  produces byte-identical results to the event-driven reference
  model (fingerprints over metrics, trace, event DAG, profile and
  critpath), both via the differential harness and property-fuzzed
  over random ``streamc`` programs;
* **one digest per request** -- the backend is not part of the
  request, so the two backends share cache entries in both
  directions and the manifest records which backend actually
  executed;
* **one rule** -- under ``SessionConfig(backend="auto")`` (the
  default) the vector backend runs unless the run has a tracer or a
  fault plan, which the vector processor itself refuses with
  ``BackendUnsupported``; ``backend="event"`` is the reference mode.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BoardConfig
from repro.engine import (
    RunRequest,
    Session,
    SessionConfig,
    build_app,
    engine_counts,
)
from repro.engine.gate import (
    GATE_BENCH_SCHEMA,
    fuzz_corpus,
    result_fingerprint,
    run_gate,
)
from repro.faults import BUILTIN_PLANS

#: Small builds keep each differential pair fast.
SIZES = {"height": 24, "width": 64, "disparities": 4}


def small_request(**overrides) -> RunRequest:
    overrides.setdefault("sizes", SIZES)
    return RunRequest.for_app("depth", **overrides)


def _uncached(backend: str = "auto") -> Session:
    return Session(config=SessionConfig(cache=False, backend=backend))


class TestBitIdentity:
    @pytest.mark.parametrize("app", ("depth", "mpeg", "qrd", "rtsl"))
    @pytest.mark.parametrize("mode", ("hardware", "isim"))
    def test_matrix_cell_is_byte_identical(self, app, mode):
        board = (BoardConfig.hardware() if mode == "hardware"
                 else BoardConfig.isim())
        request = RunRequest.for_app(app, board=board)
        with _uncached("event") as session:
            event = session.run(request)
        with _uncached("auto") as session:
            vector = session.run(request)
        assert result_fingerprint(event) == result_fingerprint(vector)

    def test_strict_mode_is_supported_and_identical(self):
        request = small_request(strict=True)
        with _uncached("event") as session:
            event = session.run(request)
        with _uncached("auto") as session:
            vector = session.run(request)
        assert result_fingerprint(event) == result_fingerprint(vector)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_fuzzed_programs_match(self, seed):
        from repro.apps.common import AppBundle

        image = fuzz_corpus(1, seed=seed)[0]
        results = {}
        for backend in ("event", "auto"):
            with _uncached(backend) as session:
                results[backend] = session.run_bundle(
                    AppBundle(name=image.name, image=image),
                    board=BoardConfig.hardware())
        assert results["auto"].manifest.backend == "vector"
        assert result_fingerprint(results["event"]) == \
            result_fingerprint(results["auto"])
        # Cycle conservation holds on the vectorized ledger too.
        results["auto"].metrics.check_conservation(1e-3)

    def test_gate_harness_passes(self):
        report, entries = run_gate(apps=["rtsl"], boards=["hardware"],
                                   fuzz=2)
        assert report["ok"]
        assert report["matrix"][0]["identical"]
        fuzz = report["fuzz"]
        assert (fuzz["count"], fuzz["seed"], fuzz["failures"]) == \
            (2, 0, [])
        assert [e["schema"] for e in entries] == \
            [GATE_BENCH_SCHEMA] * 2
        assert entries[-1]["app"] == "MATRIX"

    def test_fuzz_corpus_is_seed_deterministic(self):
        a = fuzz_corpus(3, seed=7)
        b = fuzz_corpus(3, seed=7)
        assert [i.name for i in a] == [i.name for i in b]
        assert [len(i.instructions) for i in a] == \
            [len(i.instructions) for i in b]


def _backend_counts(session: Session) -> dict:
    from repro.obs.metrics import counter_count

    return {backend: counter_count(
                session.metrics, "engine_backend_selected_total",
                backend=backend)
            for backend in ("auto", "event", "vector")}


class TestBackendSelection:
    def test_backend_excluded_from_digest(self, tmp_path):
        digests = set()
        for backend in ("auto", "event"):
            with Session(config=SessionConfig(
                    backend=backend, cache_dir=tmp_path / backend,
                    )) as session:
                digests.add(session.submit(small_request()).digest)
        assert len(digests) == 1

    def test_invalid_backend_rejected(self):
        # Only the rule ("auto") and the reference mode ("event"):
        # an explicit "vector" could only fail the runs auto would
        # send to the event backend.
        for backend in ("cuda", "vector", None):
            with pytest.raises(ValueError, match="backend"):
                SessionConfig(backend=backend)
        assert SessionConfig().backend == "auto"

    def test_manifest_records_executing_backend(self):
        with _uncached("auto") as session:
            result = session.run(small_request())
        assert result.manifest.backend == "vector"
        with _uncached("event") as session:
            result = session.run(small_request())
        assert result.manifest.backend == "event"

    def test_auto_uses_vector_when_eligible(self):
        from repro.obs.tracer import Tracer

        with _uncached("auto") as session:
            plain = session.run(small_request())
            faulted = session.submit(
                small_request(faults=BUILTIN_PLANS["board"]))
            faulted_manifest = faulted.result().manifest
            traced = session.run(small_request(), tracer=Tracer())
        assert plain.manifest.backend == "vector"
        # Fault injection and tracing are event-only.
        assert faulted_manifest.backend == "event"
        assert traced.manifest.backend == "event"

    def test_counter_labels_the_backend_that_ran(self):
        from repro.obs.tracer import Tracer

        with _uncached("auto") as session:
            session.run(small_request())
            session.run(small_request(faults=BUILTIN_PLANS["board"]))
            session.run(small_request(), tracer=Tracer())
            bundle = build_app("depth", **SIZES)
            session.run_bundle(bundle, board=BoardConfig.isim())
            assert _backend_counts(session) == {
                "auto": 0, "event": 2, "vector": 2}
        with _uncached("event") as session:
            session.run(small_request())
            assert _backend_counts(session) == {
                "auto": 0, "event": 1, "vector": 0}

    def test_faulted_run_is_cached_like_any_other(self, tmp_path):
        # The engine never asks the vector backend for a faulted run,
        # so no refusal can reach (or be kept out of) the cache.
        request = small_request(faults=BUILTIN_PLANS["board"])
        with Session(config=SessionConfig(
                cache_dir=tmp_path)) as session:
            handle = session.submit(request)
            assert handle.outcome().completed
            assert handle.cache_status == "miss"
            assert handle.result().manifest.backend == "event"
            assert session.submit(request).cache_status == "hit"

    def test_history_line_carries_backend(self, tmp_path):
        from repro.obs.history import read_history

        path = tmp_path / "history.jsonl"
        with Session(config=SessionConfig(
                cache_dir=tmp_path / "cache",
                history=path)) as session:
            session.run(small_request())
        (entry,) = read_history(path)
        assert entry["backend"] == "vector"


class TestCrossBackendCache:
    def test_event_warmed_cache_serves_vector(self, tmp_path):
        request = small_request()
        with Session(config=SessionConfig(
                backend="event", cache_dir=tmp_path)) as session:
            warmed = session.run(request)
        with Session(config=SessionConfig(
                cache_dir=tmp_path)) as session:
            handle = session.submit(request)
            result = handle.result()
            assert handle.cache_status == "hit"
            assert engine_counts(session.metrics)["executed"] == 0
        # The hit replays the original run, provenance included.
        assert result.manifest.backend == "event"
        assert result.metrics.total_cycles == \
            warmed.metrics.total_cycles

    def test_vector_warmed_cache_serves_event(self, tmp_path):
        request = small_request()
        with Session(config=SessionConfig(
                cache_dir=tmp_path)) as session:
            session.run(request)
        with Session(config=SessionConfig(
                backend="event", cache_dir=tmp_path)) as session:
            handle = session.submit(request)
            result = handle.result()
            assert handle.cache_status == "hit"
        assert result.manifest.backend == "vector"


class TestSteadyCache:
    def test_data_indexed_patterns_stay_out_of_process_table(self):
        # RTSL's framebuffer gathers carry indices derived from the
        # scene, so every data seed would add keys that never recur.
        from repro.core import vector

        with _uncached("auto") as session:
            for seed in (11, 12, 13):
                session.run(RunRequest.for_app("rtsl", sizes={
                    "triangles": 60, "width": 64, "height": 48,
                    "seed": seed}))
        patterns = [pattern for _, pattern in vector._STEADY_CACHE]
        assert patterns
        assert all(pattern.indices is None for pattern in patterns)


class TestInvocationRecords:
    def test_records_are_frozen_so_runs_stay_independent(self):
        """The vector backend hands every run of a kernel and stream
        length the records its process-level cache holds: changing
        one must fail, not reach the next run."""
        from repro.apps.common import AppBundle

        image = fuzz_corpus(1, seed=3)[0]

        def run():
            with _uncached("auto") as session:
                return session.run_bundle(
                    AppBundle(name=image.name, image=image),
                    board=BoardConfig.hardware())

        first = run()
        record = first.metrics.kernel_invocations[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.busy_cycles += 1000
        second = run()
        assert result_fingerprint(second) == result_fingerprint(first)
        second.metrics.check_conservation(1e-3)


class TestSessionConfigShims:
    # SessionConfig is the only way in: the per-knob keywords and the
    # positional jobs count are gone, not deprecated.
    def test_legacy_keywords_raise_type_error(self):
        with pytest.raises(TypeError):
            Session(jobs=2, cache=False)

    def test_positional_int_raises_type_error(self):
        with pytest.raises(TypeError):
            Session(3)

    def test_backend_keyword_is_not_deprecated(self):
        # Removed outright, not deprecated: every backend route but
        # SessionConfig.backend is a TypeError, never a warning.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with pytest.raises(TypeError):
                Session(backend="event")
            with Session(config=SessionConfig(cache=False)) as session:
                with pytest.raises(TypeError):
                    session.submit(small_request(), backend="event")
            with pytest.raises(TypeError):
                small_request(backend="event")
            with pytest.raises(TypeError):
                small_request(trace=True)

    def test_config_object_is_the_source_of_truth(self):
        config = SessionConfig(backend="event", jobs=2, cache=False,
                               retries=0)
        with Session(config=config) as session:
            assert session.config is config
            assert session.config.backend == "event"
            assert session.retries == 0


class TestCliBackendFlag:
    def test_app_backend_vector_reports_provenance(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["app", "rtsl", "--no-cache", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["manifest"]["backend"] == "vector"
        # There is no flag to pick a backend.
        with pytest.raises(SystemExit):
            cli_main(["app", "rtsl", "--backend", "event"])

    def test_gate_command(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.obs.history import read_history

        history = tmp_path / "history.jsonl"
        out = tmp_path / "report.json"
        assert cli_main(["gate", "--apps", "rtsl",
                         "--boards", "hardware",
                         "--fuzz", "1", "--out", str(out),
                         "--history", str(history)]) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "repro.gate/1"
        assert report["ok"]
        # Bench lines are alien to the perf-history reader: tolerated
        # in the shared file, never surfaced as perf entries.
        assert read_history(history) == []
        lines = [json.loads(line) for line
                 in history.read_text().splitlines()]
        assert {line["schema"] for line in lines} == {GATE_BENCH_SCHEMA}

    def test_serve_counts_the_backend_that_ran(self, tmp_path):
        import asyncio

        from repro.obs.metrics import counter_totals, parse_prometheus
        from repro.serve import (
            ExperimentService,
            ServiceConfig,
            ServiceServer,
        )

        async def scenario():
            service = ExperimentService(ServiceConfig(
                data_dir=str(tmp_path), journal_fsync=False,
                trace_jobs=1))
            await service.start()
            try:
                for seed in (1, 2):
                    job, _ = service.submit({
                        "app": "depth", "sizes": SIZES, "seed": seed})
                    await service.wait(job.id, timeout_s=60)
                server = ServiceServer(service)
                status, payload, _ = server._route(
                    "GET", "/v1/stats", b"")
                metrics = service.render_metrics()
            finally:
                await service.stop()
            return status, payload, metrics

        status, payload, metrics = asyncio.run(scenario())
        assert status == 200
        assert "backend" not in payload
        # The first execution is traced (event), the second is not.
        totals = counter_totals(parse_prometheus(metrics))
        selected = {key: value for key, value in totals.items()
                    if key.startswith("engine_backend_selected_total")}
        assert selected == {
            'engine_backend_selected_total{backend="event"}': 1,
            'engine_backend_selected_total{backend="vector"}': 1}
