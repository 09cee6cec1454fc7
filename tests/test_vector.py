"""The vectorized backend and the ``backend=`` selection API.

Three contracts under test (``docs/engine.md``):

* **bit-identity** -- for every run it accepts, the vector backend
  produces byte-identical results to the event-driven reference
  model (fingerprints over metrics, trace, event DAG, profile and
  critpath), both via the differential harness and property-fuzzed
  over random ``streamc`` programs;
* **one digest per request** -- the backend selector is excluded
  from the request digest, so the two backends share cache entries
  in both directions and the manifest records which backend actually
  executed;
* **honest refusal** -- runs the vector model cannot reproduce
  exactly (fault injection, tracing) raise ``BackendUnsupported``
  under an explicit ``backend="vector"``, fall back to the event
  model under ``backend="auto"``, and the refusal is never cached.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BoardConfig
from repro.engine import (
    BACKENDS,
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


def _uncached(backend: str = "event") -> Session:
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
        with _uncached("vector") as session:
            vector = session.run(request)
        assert result_fingerprint(event) == result_fingerprint(vector)

    def test_strict_mode_is_supported_and_identical(self):
        request = small_request(strict=True)
        with _uncached("event") as session:
            event = session.run(request)
        with _uncached("vector") as session:
            vector = session.run(request)
        assert result_fingerprint(event) == result_fingerprint(vector)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_fuzzed_programs_match(self, seed):
        from repro.apps.common import AppBundle

        image = fuzz_corpus(1, seed=seed)[0]
        results = {}
        for backend in ("event", "vector"):
            with _uncached(backend) as session:
                results[backend] = session.run_bundle(
                    AppBundle(name=image.name, image=image),
                    board=BoardConfig.hardware())
        assert result_fingerprint(results["event"]) == \
            result_fingerprint(results["vector"])
        # Cycle conservation holds on the vectorized ledger too.
        results["vector"].metrics.check_conservation(1e-3)

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


class TestBackendSelection:
    def test_backend_excluded_from_digest(self):
        digests = {small_request(backend=backend).digest(salt="s")
                   for backend in (None, "auto", "event", "vector")}
        assert len(digests) == 1

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            small_request(backend="cuda")
        with pytest.raises(ValueError, match="backend"):
            SessionConfig(backend="cuda")
        assert BACKENDS == ("auto", "event", "vector")

    def test_manifest_records_executing_backend(self):
        with _uncached("vector") as session:
            result = session.run(small_request())
        assert result.manifest.backend == "vector"
        with _uncached("event") as session:
            result = session.run(small_request())
        assert result.manifest.backend == "event"

    def test_per_call_override_beats_session_default(self):
        with _uncached("event") as session:
            handle = session.submit(small_request(),
                                    backend="vector")
            assert handle.result().manifest.backend == "vector"
            assert handle.backend == "vector"

    def test_request_backend_beats_session_default(self):
        with _uncached("event") as session:
            result = session.run(small_request(backend="vector"))
        assert result.manifest.backend == "vector"

    def test_auto_uses_vector_when_eligible(self):
        with _uncached("auto") as session:
            plain = session.run(small_request())
            faulted = session.submit(
                small_request(faults=BUILTIN_PLANS["board"]))
            faulted_manifest = faulted.result().manifest
        assert plain.manifest.backend == "vector"
        # Fault injection is event-only; auto falls back silently.
        assert faulted_manifest.backend == "event"

    def test_explicit_vector_refuses_faults_uncached(self, tmp_path):
        request = small_request(faults=BUILTIN_PLANS["board"],
                                backend="vector")
        with Session(config=SessionConfig(
                cache_dir=tmp_path)) as session:
            outcome = session.submit(request).outcome()
            assert not outcome.completed
            assert outcome.error_type == "BackendUnsupported"
            # The refusal must not poison the backend-agnostic cache
            # entry: the same digest still executes on the event
            # backend.
            retry = session.submit(request, backend="event")
            assert retry.outcome().completed
            assert retry.cache_status == "miss"

    def test_history_line_carries_backend(self, tmp_path):
        from repro.obs.history import read_history

        path = tmp_path / "history.jsonl"
        with Session(config=SessionConfig(
                backend="vector", cache_dir=tmp_path / "cache",
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
                backend="vector", cache_dir=tmp_path)) as session:
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
                backend="vector", cache_dir=tmp_path)) as session:
            session.run(request)
        with Session(config=SessionConfig(
                backend="event", cache_dir=tmp_path)) as session:
            handle = session.submit(request)
            result = handle.result()
            assert handle.cache_status == "hit"
        assert result.manifest.backend == "vector"


class TestSessionConfigShims:
    # SessionConfig is the only way in: the per-knob keywords and the
    # positional jobs count are gone, not deprecated.
    def test_legacy_keywords_raise_type_error(self):
        with pytest.raises(TypeError):
            Session(jobs=2, cache=False)

    def test_positional_int_raises_type_error(self):
        with pytest.raises(TypeError):
            Session(3)

    def test_backend_keyword_is_not_deprecated(self, recwarn):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with Session(backend="vector") as session:
                assert session.backend == "vector"

    def test_config_object_is_the_source_of_truth(self):
        config = SessionConfig(backend="auto", jobs=2, cache=False,
                               retries=0)
        with Session(config=config) as session:
            assert session.config is config
            assert session.backend == "auto"
            assert session.retries == 0


class TestCliBackendFlag:
    def test_app_backend_vector_reports_provenance(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["app", "rtsl", "--backend", "vector",
                         "--no-cache", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["manifest"]["backend"] == "vector"

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

    def test_serve_stats_expose_backend(self, tmp_path):
        import asyncio

        from repro.serve import (
            ExperimentService,
            ServiceConfig,
            ServiceServer,
        )

        async def scenario():
            service = ExperimentService(ServiceConfig(
                data_dir=str(tmp_path), backend="vector",
                journal_fsync=False))
            await service.start()
            try:
                server = ServiceServer(service)
                status, payload, _ = server._route(
                    "GET", "/v1/stats", b"")
            finally:
                await service.stop()
            return status, payload

        status, payload = asyncio.run(scenario())
        assert status == 200
        assert payload["backend"] == "vector"
