"""The resilient experiment service and its chaos harness.

Covers the PR 7 promises end to end: strict admission, bounded-queue
backpressure, deterministic retry/backoff, the circuit breaker's
cache-hits-only mode, the crash-safe journal and restart recovery,
digest-verified artifacts, the counted chaos injections, and the
byte-identical soak report -- plus the satellites: locked
perf-history appends, LRU cache eviction, and the partial
critical-path block in watchdog diagnostics.
"""

import asyncio
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    ArtifactStore,
    BadRequest,
    ChaosMonkey,
    ChaosPlan,
    ExperimentService,
    JobJournal,
    QueueFull,
    RetryPolicy,
    ServiceConfig,
    ServiceServer,
    ServiceUnavailable,
    get_chaos_plan,
    http_request,
    is_retryable,
    request_from_payload,
    serve_counts,
)
from repro.serve.chaos import ChaosPlanError, ChaosSpec
from repro.serve.journal import TERMINAL_EVENTS

DEPTH = {"app": "depth", "sizes": {"width": 32, "height": 24}}
DEPTH2 = {"app": "depth", "sizes": {"width": 40, "height": 24}}


def run(coro):
    return asyncio.run(coro)


def service_config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(data_dir=str(tmp_path / "serve"), workers=2,
                    journal_fsync=False, default_deadline_s=60.0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


# ----------------------------------------------------------------------
# Retry policy: deterministic schedules, capped jitter (satellite).
# ----------------------------------------------------------------------
class TestRetryPolicy:
    @given(seed=st.integers(0, 2 ** 31), key=st.text(max_size=32),
           attempt=st.integers(1, 16),
           cap=st.floats(0.0, 10.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_jitter_never_exceeds_cap(self, seed, key, attempt, cap):
        policy = RetryPolicy(seed=seed, jitter_cap_s=cap)
        jitter = policy.jitter(key, attempt)
        assert 0.0 <= jitter <= cap

    @given(seed=st.integers(0, 2 ** 31), key=st.text(max_size=32),
           attempts=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_schedule_deterministic_under_fixed_seed(self, seed, key,
                                                     attempts):
        a = RetryPolicy(seed=seed, max_attempts=attempts)
        b = RetryPolicy(seed=seed, max_attempts=attempts)
        assert a.schedule(key) == b.schedule(key)
        assert len(a.schedule(key)) == attempts - 1

    @given(key=st.text(max_size=32), attempt=st.integers(1, 32))
    @settings(max_examples=100, deadline=None)
    def test_delay_bounded_by_cap_plus_jitter_cap(self, key, attempt):
        policy = RetryPolicy(cap_s=0.5, jitter_cap_s=0.05)
        assert policy.delay(key, attempt) <= 0.5 + 0.05

    def test_backoff_curve_doubles_until_cap(self):
        policy = RetryPolicy(max_attempts=6, base_s=0.1, factor=2.0,
                             cap_s=0.4, jitter_cap_s=0.0)
        assert policy.schedule("job") == pytest.approx(
            [0.1, 0.2, 0.4, 0.4, 0.4])

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_s=-1)

    def test_classification(self):
        # Simulation results are answers, never retried.
        assert not is_retryable("SimulationError")
        assert not is_retryable("InvariantViolation")
        assert not is_retryable("HostError")
        assert not is_retryable("DeadlineExceeded")
        assert not is_retryable(None)
        # Infrastructure failures are retried.
        assert is_retryable("RunTimeout")
        assert is_retryable("WorkerCrashed")
        assert is_retryable("ChaosWorkerKill")


class TestHostBackoffProperties:
    """The engine-level retry ring keeps the same contract: a pure
    function of the attempt (zero jitter), capped at 64x."""

    def _interface(self):
        from repro.core import BoardConfig, MachineConfig
        from repro.host.interface import HostInterface

        return HostInterface(MachineConfig(), BoardConfig.hardware())

    @given(attempt=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_deterministic_and_capped(self, attempt):
        interface = self._interface()
        delay = interface.backoff_cycles(attempt)
        assert delay == interface.backoff_cycles(attempt)  # no jitter
        assert delay <= interface.issue_cycles * 64
        assert delay >= interface.issue_cycles * 2

    @given(attempt=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_monotone_until_cap(self, attempt):
        interface = self._interface()
        assert (interface.backoff_cycles(attempt + 1)
                >= interface.backoff_cycles(attempt))


# ----------------------------------------------------------------------
# Payload parsing.
# ----------------------------------------------------------------------
class TestRequestParsing:
    def test_minimal_payload(self):
        request, deadline = request_from_payload(DEPTH)
        assert request.app == "depth"
        assert deadline == ServiceConfig().default_deadline_s

    def test_unknown_field_rejected(self):
        with pytest.raises(BadRequest, match="unknown field"):
            request_from_payload({**DEPTH, "bogus": 1})

    def test_unknown_app_rejected(self):
        with pytest.raises(BadRequest, match="unknown application"):
            request_from_payload({"app": "quake"})

    def test_board_strings(self):
        request, _ = request_from_payload({**DEPTH, "board": "isim"})
        assert request.board.mode == "isim"
        with pytest.raises(BadRequest, match="unknown board"):
            request_from_payload({**DEPTH, "board": "fpga"})

    def test_deadline_clamped_and_validated(self):
        config = ServiceConfig(max_deadline_s=100.0)
        _, deadline = request_from_payload(
            {**DEPTH, "deadline_s": 1e9}, config)
        assert deadline == 100.0
        with pytest.raises(BadRequest, match="deadline_s"):
            request_from_payload({**DEPTH, "deadline_s": -5})

    def test_builtin_fault_plan_accepted(self):
        request, _ = request_from_payload({**DEPTH, "faults": "board"})
        assert request.faults is not None
        with pytest.raises(BadRequest, match="unknown fault plan"):
            request_from_payload({**DEPTH, "faults": "nope"})


# ----------------------------------------------------------------------
# Journal.
# ----------------------------------------------------------------------
class TestJournal:
    def test_fold_and_in_flight(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl", fsync=False)
        journal.append("accepted", "job-1", digest="d1",
                       payload=DEPTH, deadline_s=60.0)
        journal.append("started", "job-1", attempt=1)
        journal.append("accepted", "job-2", digest="d2",
                       payload=DEPTH2, deadline_s=60.0)
        journal.append("completed", "job-2", digest="d2")
        folded = journal.fold()
        assert folded["job-1"]["state"] == "started"
        assert folded["job-1"]["payload"] == DEPTH
        assert folded["job-2"]["state"] in TERMINAL_EVENTS
        assert [record["job_id"] for record in journal.in_flight()] \
            == ["job-1"]

    def test_torn_and_alien_lines_skipped(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl", fsync=False)
        journal.append("accepted", "job-1", digest="d1",
                       payload=DEPTH, deadline_s=60.0)
        with open(journal.path, "a") as handle:
            handle.write('{"alien": true}\n')
            handle.write('{"schema": "repro.serve.journal/1", "ev')
        events = journal.replay()
        assert len(events) == 1
        assert events[0]["job_id"] == "job-1"

    def test_unknown_event_rejected(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl", fsync=False)
        with pytest.raises(ValueError, match="unknown journal event"):
            journal.append("exploded", "job-1")


# ----------------------------------------------------------------------
# Artifact store: never a wrong-digest serve.
# ----------------------------------------------------------------------
class TestArtifactStore:
    def test_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.store("aa" * 8, {"cycles": 123.0})
        envelope = store.load("aa" * 8)
        assert envelope["body"] == {"cycles": 123.0}
        assert envelope["digest"] == "aa" * 8

    def test_corruption_reads_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.store("bb" * 8, {"cycles": 1.0})
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        assert store.load("bb" * 8) is None
        assert not store.has("bb" * 8)  # corrupt entry discarded

    def test_truncation_reads_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.store("cc" * 8, {"cycles": 1.0})
        path.write_bytes(path.read_bytes()[: 20])
        assert store.load("cc" * 8) is None

    def test_misaddressed_entry_never_served(self, tmp_path):
        store = ArtifactStore(tmp_path)
        source = store.store("dd" * 8, {"cycles": 1.0})
        target = store.path("ee" * 8)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(source.read_bytes())
        assert store.load("ee" * 8) is None


# ----------------------------------------------------------------------
# Chaos plans.
# ----------------------------------------------------------------------
class TestChaos:
    def test_builtin_plans_resolve(self):
        assert get_chaos_plan("ci-soak").name == "ci-soak"
        with pytest.raises(ChaosPlanError, match="unknown chaos plan"):
            get_chaos_plan("nope")

    def test_plan_validation(self):
        with pytest.raises(ChaosPlanError, match="unknown chaos kind"):
            ChaosSpec("meteor", {})
        with pytest.raises(ChaosPlanError, match="unknown parameter"):
            ChaosSpec("worker_kill", {"sharpness": 9})

    def test_dict_roundtrip(self):
        plan = get_chaos_plan("full").with_seed(11)
        clone = ChaosPlan.from_dict(plan.as_dict())
        assert clone == plan

    def test_counted_kills_deterministic(self):
        plan = ChaosPlan(name="k", faults=(
            ChaosSpec("worker_kill", {"start": 2, "every": 2,
                                      "count": 2}),))
        for _ in range(2):
            monkey = ChaosMonkey(plan)
            killed = []
            for n in range(1, 7):
                try:
                    monkey.execution_started()
                except Exception:
                    killed.append(n)
            assert killed == [2, 4]
            assert monkey.fired["worker_kill"] == 2

    def test_artifact_corruption_fires_on_schedule(self, tmp_path):
        plan = ChaosPlan(name="c", faults=(
            ChaosSpec("cache_corrupt", {"start": 2, "count": 1}),))
        monkey = ChaosMonkey(plan)
        store = ArtifactStore(tmp_path,
                              on_written=monkey.artifact_written)
        store.store("aa" * 8, {"n": 1})
        store.store("bb" * 8, {"n": 2})          # corrupted
        assert store.load("aa" * 8) is not None
        assert store.load("bb" * 8) is None      # integrity: a miss


# ----------------------------------------------------------------------
# The service: admission, execution, resilience.
# ----------------------------------------------------------------------
class TestService:
    def test_cold_run_then_pure_io_hot_hit(self, tmp_path):
        async def scenario():
            service = ExperimentService(service_config(tmp_path))
            await service.start()
            try:
                job, envelope = service.submit(DEPTH)
                assert envelope is None and job.state == "queued"
                await service.wait(job.id, timeout_s=120)
                done = service.status(job.id)
                assert done.state == "completed"
                assert done.served_from == "execution"
                _, artifact = service.artifact_for(job.id)
                assert artifact["body"]["cycles"] > 0
                # Same digest again: answered from the artifact
                # store, no execution.
                executions = serve_counts(service.metrics)["executions"]
                hot, hot_env = service.submit(DEPTH)
                assert hot.state == "completed"
                assert hot.served_from == "artifact"
                assert hot_env == artifact
                assert serve_counts(
                    service.metrics)["executions"] == executions
            finally:
                await service.stop()

        run(scenario())

    def test_artifact_is_the_json_half_of_the_cache_entry(self,
                                                          tmp_path):
        """One store: the served envelope sits beside the pickled
        outcome in the engine cache, so pruning the cache removes it
        and a resubmit executes again, to the same bytes."""
        from repro.engine.cache import ResultCache, entry_path

        async def scenario():
            service = ExperimentService(service_config(tmp_path))
            await service.start()
            try:
                job, _ = service.submit(DEPTH)
                await service.wait(job.id, timeout_s=120)
                path = entry_path(service.cache_dir, job.digest, ".json")
                first = path.read_bytes()
                assert entry_path(service.cache_dir, job.digest).exists()
                assert not (service.data_dir / "artifacts").exists()

                ResultCache(service.cache_dir).prune(0)
                assert not path.exists()
                executions = serve_counts(service.metrics)["executions"]
                again, envelope = service.submit(DEPTH)
                assert envelope is None
                await service.wait(again.id, timeout_s=120)
                assert service.status(again.id).state == "completed"
                assert serve_counts(
                    service.metrics)["executions"] == executions + 1
                assert path.read_bytes() == first
            finally:
                await service.stop()

        run(scenario())

    def test_failed_artifact_write_never_ends_the_worker(self,
                                                         tmp_path):
        """An artifact write that raises is an attempt failure, not a
        dead worker: with one worker, both queued jobs still settle,
        a later job completes and ``drain`` returns."""
        import errno

        async def scenario():
            service = ExperimentService(
                service_config(tmp_path, workers=1))
            store = service.artifacts.store
            failed: list[str] = []

            def store_once_full(digest, body):
                if not failed:
                    failed.append(digest)
                    raise OSError(errno.ENOSPC, "No space left on device")
                return store(digest, body)

            service.artifacts.store = store_once_full
            await service.start()
            try:
                first, _ = service.submit(DEPTH)
                second, _ = service.submit(DEPTH2)
                assert await service.drain(timeout_s=60)
                assert failed == [first.digest]
                assert service.status(first.id).state == "completed"
                assert service.status(first.id).attempts == 2
                assert service.status(second.id).state == "completed"
                later, _ = service.submit(
                    {"app": "depth", "sizes": {"width": 48,
                                               "height": 24}})
                await service.wait(later.id, timeout_s=120)
                assert service.status(later.id).state == "completed"
                assert await service.drain(timeout_s=60)
                assert service._pending == 0
            finally:
                await service.stop()

        run(scenario())

    def test_worker_survives_a_job_that_raises(self, tmp_path):
        """Whatever escapes one job's attempt loop fails that job (with
        its traceback) and leaves the worker serving the queue."""
        async def scenario():
            service = ExperimentService(
                service_config(tmp_path, workers=1))
            run_job = service._run_job
            broken: list[str] = []

            async def run_job_once_broken(loop, job, request):
                if not broken:
                    broken.append(job.id)
                    raise RuntimeError("attempt loop bug")
                await run_job(loop, job, request)

            service._run_job = run_job_once_broken
            await service.start()
            try:
                first, _ = service.submit(DEPTH)
                second, _ = service.submit(DEPTH2)
                assert await service.drain(timeout_s=60)
                failed = service.status(first.id)
                assert failed.state == "failed"
                assert failed.error_type == "RuntimeError"
                assert "attempt loop bug" in \
                    failed.diagnostics["traceback"]
                assert service.status(second.id).state == "completed"
                assert service._pending == 0
            finally:
                await service.stop()

        run(scenario())

    def test_duplicate_digest_coalesces(self, tmp_path):
        async def scenario():
            service = ExperimentService(
                service_config(tmp_path, workers=1))
            await service.start()
            try:
                primary, _ = service.submit(DEPTH)
                follower, _ = service.submit(DEPTH)
                assert follower.coalesced_into == primary.id
                await service.wait(follower.id, timeout_s=120)
                assert service.status(follower.id).state == "completed"
                assert service.status(primary.id).state == "completed"
                assert serve_counts(service.metrics)["coalesced"] == 1
                # One execution served both jobs.
                assert serve_counts(service.metrics)["executions"] == 1
            finally:
                await service.stop()

        run(scenario())

    def test_queue_full_backpressure(self, tmp_path):
        async def scenario():
            service = ExperimentService(
                service_config(tmp_path, workers=1, queue_limit=1))
            await service.start()
            try:
                service.submit(DEPTH)
                with pytest.raises(QueueFull) as info:
                    service.submit(DEPTH2)
                assert info.value.retry_after_s >= 1.0
                assert serve_counts(service.metrics)["shed_queue_full"] == 1
                await service.drain(timeout_s=120)
            finally:
                await service.stop()

        run(scenario())

    def test_injected_worker_kill_is_retried_not_surfaced(self,
                                                          tmp_path):
        plan = ChaosPlan(name="kill-once", faults=(
            ChaosSpec("worker_kill", {"start": 1, "count": 1}),))
        async def scenario():
            service = ExperimentService(service_config(tmp_path),
                                        chaos=ChaosMonkey(plan))
            await service.start()
            try:
                job, _ = service.submit(DEPTH)
                await service.wait(job.id, timeout_s=120)
                done = service.status(job.id)
                assert done.state == "completed"
                assert done.attempts == 2
                assert serve_counts(service.metrics)["retried"] == 1
            finally:
                await service.stop()

        run(scenario())

    def test_breaker_sheds_cold_serves_hot(self, tmp_path):
        # Kill every execution: retries exhaust, the breaker opens.
        plan = ChaosPlan(name="kill-all", faults=(
            ChaosSpec("worker_kill", {"start": 1, "every": 1,
                                      "count": 1000}),))
        async def scenario():
            config = service_config(
                tmp_path, workers=1, breaker_threshold=2,
                breaker_cooldown_s=60.0,
                retry=RetryPolicy(max_attempts=2, base_s=0.01,
                                  jitter_cap_s=0.0))
            service = ExperimentService(config,
                                        chaos=ChaosMonkey(plan))
            await service.start()
            try:
                # Pre-seed an artifact so the hot path has something
                # to serve while the breaker is open.
                service.artifacts.store("f" * 16, {"cycles": 1.0})
                job, _ = service.submit(DEPTH)
                await service.wait(job.id, timeout_s=60)
                assert service.status(job.id).state == "failed"
                assert service.breaker.state == "open"
                with pytest.raises(ServiceUnavailable):
                    service.submit(DEPTH2)
                assert serve_counts(service.metrics)["shed_breaker"] == 1
                # The artifact path stays pure I/O and keeps serving.
                envelope = service.artifacts.load("f" * 16)
                assert envelope["body"] == {"cycles": 1.0}
            finally:
                await service.stop()

        run(scenario())

    def test_deadline_exceeded_is_terminal_never_retried(self,
                                                         tmp_path):
        async def scenario():
            service = ExperimentService(service_config(tmp_path))
            await service.start()
            try:
                job, _ = service.submit(
                    {**DEPTH, "deadline_s": 0.001})
                await service.wait(job.id, timeout_s=60)
                done = service.status(job.id)
                assert done.state == "failed"
                assert done.error_type == "DeadlineExceeded"
            finally:
                await service.stop()

        run(scenario())

    def test_simulation_failure_is_the_answer(self, tmp_path):
        # A fault plan that kills every host transfer produces a
        # typed HostError: the simulation's deterministic verdict,
        # never retried by the service.
        async def scenario():
            service = ExperimentService(service_config(tmp_path))
            await service.start()
            try:
                job, _ = service.submit(
                    {**DEPTH,
                     "faults": {"name": "dead-host", "faults": [
                         {"kind": "host_drop", "probability": 1.0,
                          "max_retries": 2}]}})
                await service.wait(job.id, timeout_s=120)
                done = service.status(job.id)
                assert done.state == "failed"
                assert done.error_type == "HostError"
                assert done.attempts == 1
                assert serve_counts(service.metrics)["retried"] == 0
            finally:
                await service.stop()

        run(scenario())

    def test_restart_recovers_accepted_jobs(self, tmp_path):
        config = service_config(tmp_path)

        async def crash_then_recover():
            first = ExperimentService(config)
            # Simulate a crash after acceptance: journal only.
            first.journal.append(
                "accepted", "job-00000001", digest="dead" * 4,
                payload=DEPTH, deadline_s=60.0)
            first.journal.append(
                "accepted", "job-00000002", digest="beef" * 4,
                payload={"app": "gone"}, deadline_s=60.0)
            second = ExperimentService(config)
            await second.start()
            try:
                assert await second.drain(timeout_s=120)
                recovered = second.status("job-00000001")
                assert recovered.state == "completed"
                broken = second.status("job-00000002")
                assert broken.state == "failed"
                assert broken.error_type == "UnrecoverableJob"
                # New ids continue after the recovered ones.
                fresh, _ = second.submit(DEPTH2)
                assert fresh.id == "job-00000003"
                await second.drain(timeout_s=120)
            finally:
                await second.stop()

        run(crash_then_recover())


# ----------------------------------------------------------------------
# HTTP layer.
# ----------------------------------------------------------------------
class TestHttp:
    def test_submit_poll_fetch_and_errors(self, tmp_path):
        async def scenario():
            server = ServiceServer(
                ExperimentService(service_config(tmp_path)))
            await server.start()
            host, port = server.host, server.port
            try:
                status, _, health = await http_request(
                    host, port, "GET", "/healthz")
                assert status == 200 and health["status"] == "ok"
                status, _, ready = await http_request(
                    host, port, "GET", "/readyz")
                assert status == 200 and ready["ready"]

                status, _, doc = await http_request(
                    host, port, "POST", "/v1/jobs", DEPTH)
                assert status == 202
                job_id = doc["job"]["id"]

                status, _, doc = await http_request(
                    host, port, "GET", f"/v1/jobs/{job_id}")
                assert status == 200

                await server.service.drain(timeout_s=120)
                status, _, doc = await http_request(
                    host, port, "GET", f"/v1/jobs/{job_id}/artifact")
                assert status == 200
                assert doc["artifact"]["body"]["cycles"] > 0
                digest = doc["job"]["digest"]

                status, _, doc = await http_request(
                    host, port, "GET", f"/v1/artifacts/{digest}")
                assert status == 200
                assert doc["artifact"]["digest"] == digest

                # Hot resubmission answers inline with 200.
                status, _, doc = await http_request(
                    host, port, "POST", "/v1/jobs", DEPTH)
                assert status == 200
                assert doc["job"]["served_from"] == "artifact"

                status, _, doc = await http_request(
                    host, port, "POST", "/v1/jobs", {"app": "nope"})
                assert status == 400
                status, _, _ = await http_request(
                    host, port, "GET", "/v1/jobs/job-99999999")
                assert status == 404
                status, _, _ = await http_request(
                    host, port, "GET", "/nowhere")
                assert status == 404
            finally:
                await server.stop()

        run(scenario())

    def test_queue_full_maps_to_429_with_retry_after(self, tmp_path):
        async def scenario():
            server = ServiceServer(ExperimentService(
                service_config(tmp_path, workers=1, queue_limit=1)))
            await server.start()
            try:
                status, _, _ = await http_request(
                    server.host, server.port, "POST", "/v1/jobs",
                    DEPTH)
                assert status == 202
                status, headers, _ = await http_request(
                    server.host, server.port, "POST", "/v1/jobs",
                    DEPTH2)
                assert status == 429
                assert int(headers["retry-after"]) >= 1
                await server.service.drain(timeout_s=120)
            finally:
                await server.stop()

        run(scenario())


# ----------------------------------------------------------------------
# The telemetry plane: /metrics, counter conservation, stitched
# traces, the access log and the SLO verdict.
# ----------------------------------------------------------------------
def _counter_total(service, name: str) -> float:
    metric = service.metrics.get(name)
    return sum(child.value for _, child in metric.children())


class TestTelemetryPlane:
    def test_counter_conservation_under_concurrent_load(self,
                                                        tmp_path):
        # The serving analogue of the profiler's cycle-conservation
        # invariant: every submission is accounted for -- accepted or
        # rejected at admission, and every accepted job terminal
        # (completed or failed) with nothing left in flight.
        async def scenario():
            config = service_config(tmp_path, workers=2,
                                    queue_limit=3)
            service = ExperimentService(config)
            server = ServiceServer(service)
            await server.start()
            try:
                payloads = [
                    {"app": "depth",
                     "sizes": {"width": 24 + 8 * (index % 4),
                               "height": 24}}
                    for index in range(16)]

                async def fire(payload):
                    status, _, _ = await http_request(
                        server.host, server.port, "POST",
                        "/v1/jobs", body=payload)
                    return status

                statuses = await asyncio.gather(
                    *(fire(payload) for payload in payloads))
                await service.drain(timeout_s=300)
                submitted = _counter_total(
                    service, "serve_jobs_submitted_total")
                accepted = _counter_total(
                    service, "serve_jobs_accepted_total")
                rejected = _counter_total(
                    service, "serve_jobs_rejected_total")
                terminal = _counter_total(
                    service, "serve_jobs_terminal_total")
                queue_depth = sum(
                    child.value for _, child in service.metrics.get(
                        "serve_queue_depth").children())
                assert submitted == len(payloads)
                assert submitted == accepted + rejected
                # Drained: nothing in flight, every accepted job hit
                # exactly one terminal state.
                assert queue_depth == 0
                assert accepted == terminal
                completed = service.metrics.get(
                    "serve_jobs_terminal_total")
                by_state = {key[0]: child.value
                            for key, child in completed.children()}
                assert terminal == (by_state.get("completed", 0)
                                    + by_state.get("failed", 0))
                # Client-observed refusals match the counter.
                refused = sum(1 for status in statuses
                              if status in (429, 503))
                assert refused == rejected
            finally:
                await server.stop()

        run(scenario())

    def test_idle_metrics_scrapes_byte_identical(self, tmp_path):
        from repro.obs.metrics import parse_prometheus

        async def scenario():
            service = ExperimentService(service_config(tmp_path))
            server = ServiceServer(service)
            await server.start()
            try:
                # Touch a non-metrics route first so request counters
                # are non-empty, then prove /metrics does not count
                # itself.
                await http_request(server.host, server.port, "GET",
                                   "/healthz")
                one = await http_request(server.host, server.port,
                                         "GET", "/metrics", raw=True)
                two = await http_request(server.host, server.port,
                                         "GET", "/metrics", raw=True)
                assert one[0] == 200
                assert one[2] == two[2]
                families = parse_prometheus(one[2])
                assert "serve_http_requests_total" in families
            finally:
                await server.stop()

        run(scenario())

    def test_stitched_trace_route(self, tmp_path):
        from repro.obs.stitch import validate_stitched_trace

        async def scenario():
            service = ExperimentService(
                service_config(tmp_path, trace_jobs=1))
            server = ServiceServer(service)
            await server.start()
            try:
                _, _, created = await http_request(
                    server.host, server.port, "POST", "/v1/jobs",
                    body=DEPTH)
                job_id = created["job"]["id"]
                await service.wait(job_id, timeout_s=120)
                status, _, document = await http_request(
                    server.host, server.port, "GET",
                    f"/v1/jobs/{job_id}/trace")
                assert status == 200
                summary = validate_stitched_trace(document)
                assert summary["job_id"] == job_id
                assert summary["tracks"][:2] == ["job", "lifecycle"]
                assert summary["simulator_spans"] > 0
                missing, _, _ = await http_request(
                    server.host, server.port, "GET",
                    "/v1/jobs/nope/trace")
                assert missing == 404
            finally:
                await server.stop()

        run(scenario())

    def test_access_log_entries(self, tmp_path):
        async def scenario():
            entries = []
            service = ExperimentService(service_config(tmp_path))
            server = ServiceServer(service,
                                   access_log=entries.append)
            await server.start()
            try:
                _, _, created = await http_request(
                    server.host, server.port, "POST", "/v1/jobs",
                    body=DEPTH)
                await http_request(server.host, server.port, "GET",
                                   "/healthz")
                await service.drain(timeout_s=120)
            finally:
                await server.stop()
            assert len(entries) == 2
            post, health = entries
            assert post["method"] == "POST"
            assert post["path"] == "/v1/jobs"
            assert post["status"] == 202
            assert post["latency_ms"] >= 0
            assert post["job_id"] == created["job"]["id"]
            assert post["digest"] == created["job"]["digest"]
            assert health["path"] == "/healthz"
            assert "job_id" not in health
            # Every entry is JSON-serializable as-is (the --log-json
            # sink writes them verbatim).
            for entry in entries:
                json.dumps(entry)

        run(scenario())

    def test_route_template_bounds_cardinality(self):
        from repro.serve import route_template

        assert route_template("/v1/jobs/abc123") == "/v1/jobs/{id}"
        assert (route_template("/v1/jobs/abc123/artifact")
                == "/v1/jobs/{id}/artifact")
        assert (route_template("/v1/jobs/abc123/trace")
                == "/v1/jobs/{id}/trace")
        assert (route_template("/v1/artifacts/" + "ab" * 8)
                == "/v1/artifacts/{digest}")
        assert route_template("/metrics") == "/metrics"
        assert route_template("/anything/else") == "other"

    def test_slo_verdict_fails_on_burned_budget(self):
        from repro.serve.slo import (SloError, build_slo_block,
                                     evaluate_slo)

        block = build_slo_block(accepted=100, completed=96, failed=4,
                                unresolved=0,
                                availability_target=0.99,
                                p99_target_ms=1000.0)
        verdict = evaluate_slo({"slo": block})
        assert not verdict["pass"]
        availability = next(c for c in verdict["checks"]
                            if c["name"] == "availability")
        assert not availability["ok"]
        # Overriding the target can flip the verdict.
        assert evaluate_slo({"slo": block},
                            availability=0.95)["pass"]
        # Conservation failure is always fatal.
        broken = build_slo_block(accepted=10, completed=8, failed=1,
                                 unresolved=1,
                                 availability_target=0.5,
                                 p99_target_ms=1000.0)
        assert not evaluate_slo({"slo": broken})["pass"]
        with pytest.raises(SloError):
            evaluate_slo({"schema": "repro.soak-report/1"})

    def test_breaker_transitions_counted(self, tmp_path):
        # Kill every execution: the breaker opens; the transition
        # counter and state gauge follow CircuitBreaker.on_transition.
        plan = ChaosPlan(name="kill-all", faults=(
            ChaosSpec("worker_kill", {"start": 1, "every": 1,
                                      "count": 1000}),))

        async def scenario():
            service = ExperimentService(
                service_config(tmp_path, workers=1),
                chaos=ChaosMonkey(plan))
            await service.start()
            try:
                job, _ = service.submit(DEPTH)
                await service.wait(job.id, timeout_s=120)
                transitions = service.metrics.get(
                    "serve_breaker_transitions_total")
                by_target = {key[0]: child.value
                             for key, child in transitions.children()}
                assert by_target.get("open", 0) >= 1
                state = next(iter(service.metrics.get(
                    "serve_breaker_state").children()))[1].value
                assert state in (0.0, 1.0, 2.0)
            finally:
                await service.stop()

        run(scenario())


# ----------------------------------------------------------------------
# The soak: chaos end to end, byte-identical report.
# ----------------------------------------------------------------------
class TestSoak:
    def test_soak_reports_byte_identical_and_invariants_hold(self):
        from repro.serve.load import (run_soak, soak_report_bytes,
                                      stable_projection)
        from repro.serve.slo import evaluate_slo

        async def both():
            first = await run_soak(seed=5, requests=16,
                                   cold_digests=2, concurrency=4,
                                   chaos="ci-soak")
            second = await run_soak(seed=5, requests=16,
                                    cold_digests=2, concurrency=4,
                                    chaos="ci-soak")
            return first, second

        first, second = run(both())
        # The byte-identity surface excludes only slo.latency (the
        # wall-clock histogram observations); everything else --
        # including the rest of the SLO block -- must agree.
        assert (soak_report_bytes(stable_projection(first))
                == soak_report_bytes(stable_projection(second)))
        invariants = first["invariants"]
        assert invariants["no_lost_jobs"]
        assert invariants["digest_integrity"]
        assert invariants["wrong_digest_serves"] == 0
        assert invariants["chaos_fired_matches_configured"]
        assert first["chaos"]["fired"]["worker_kill"] == 1
        assert first["chaos"]["fired"]["cache_corrupt"] == 1
        slo = first["slo"]
        assert slo["conservation"]["ok"]
        assert slo["availability"]["accepted"] == 16
        assert slo["latency"]["cold"]["count"] >= 1
        verdict = evaluate_slo(first)
        assert verdict["pass"], verdict
        assert {c["name"] for c in verdict["checks"]} >= {
            "conservation", "availability", "no_lost_jobs",
            "digest_integrity", "cold_p99"}

    def test_request_mix_seeded(self):
        from repro.serve.load import build_request_mix

        assert (build_request_mix(seed=9, requests=50)
                == build_request_mix(seed=9, requests=50))
        assert (build_request_mix(seed=9, requests=50)
                != build_request_mix(seed=10, requests=50))


# ----------------------------------------------------------------------
# Satellite: locked history appends.
# ----------------------------------------------------------------------
class TestHistoryLocking:
    def test_concurrent_appends_every_line_parses(self, tmp_path):
        from repro.obs.history import append_entries

        path = tmp_path / "history.jsonl"
        # Large entries maximise the torn-write window without the
        # lock; with it, every recovered line must parse.
        def worker(tag):
            entries = [{"schema": "repro.serve-load/1", "tag": tag,
                        "n": n, "pad": "x" * 4096}
                       for n in range(25)]
            append_entries(path, entries)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        lines = path.read_text().splitlines()
        assert len(lines) == 8 * 25
        for line in lines:
            entry = json.loads(line)      # every line parses
            assert len(entry["pad"]) == 4096

    def test_append_history_still_dedups_by_digest(self, tmp_path):
        from repro.obs.history import append_history, read_history

        path = tmp_path / "history.jsonl"
        entry = {"schema": "repro.perf-history/1", "digest": "d1",
                 "cycles": 5.0}
        assert append_history(path, [entry]) == 1
        assert append_history(path, [entry]) == 0
        # serve-load lines share the file and are invisible to
        # read_history.
        from repro.obs.history import append_entries

        append_entries(path, [{"schema": "repro.serve-load/1",
                               "hot": {}}])
        assert len(read_history(path)) == 1


# ----------------------------------------------------------------------
# Satellite: LRU cache eviction.
# ----------------------------------------------------------------------
class TestCacheEviction:
    def _fill(self, cache, count):
        import types

        outcome = types.SimpleNamespace(status="completed",
                                        result=None, error_type=None)
        import os
        import time as _time

        for index in range(count):
            digest = f"{index:02d}" + "ab" * 7
            cache.store(digest, outcome)
            # Space out mtimes so LRU order is unambiguous even on
            # coarse filesystem timestamps.
            past = _time.time() - (count - index) * 10
            os.utime(cache._object_path(digest), (past, past))
        return [f"{index:02d}" + "ab" * 7 for index in range(count)]

    def test_prune_evicts_oldest_first(self, tmp_path):
        from repro.engine.cache import ResultCache

        cache = ResultCache(tmp_path)
        digests = self._fill(cache, 5)
        per_entry = cache.entries()[0]["bytes"]
        report = cache.prune(per_entry * 2 + per_entry // 2)
        assert report["evicted"] == 3
        kept = {row["digest"] for row in cache.entries()}
        assert kept == set(digests[-2:])
        assert cache.index_path.exists()

    def test_load_refreshes_recency(self, tmp_path):
        from repro.engine.cache import ResultCache

        cache = ResultCache(tmp_path)
        digests = self._fill(cache, 4)
        cache.load(digests[0])            # touch the oldest
        per_entry = cache.entries()[0]["bytes"]
        cache.prune(per_entry * 2 + per_entry // 2)
        kept = {row["digest"] for row in cache.entries()}
        assert digests[0] in kept

    def test_hot_artifact_load_refreshes_recency(self, tmp_path):
        """A served digest is hot: its artifact loads refresh the
        entry, so under a budget that fits one entry it outlives a
        newer entry nobody is reading."""
        import os
        import time as _time
        import types

        from repro.engine.cache import ResultCache, entry_path

        async def scenario():
            service = ExperimentService(service_config(tmp_path))
            await service.start()
            try:
                job, _ = service.submit(DEPTH)
                await service.wait(job.id, timeout_s=120)
                cache = ResultCache(service.cache_dir)
                unserved = "cd" * 8
                cache.store(unserved, types.SimpleNamespace(
                    status="completed", result=None, error_type=None))
                now = _time.time()
                for digest, age in ((job.digest, 200), (unserved, 100)):
                    for suffix in (".pkl", ".json"):
                        path = entry_path(service.cache_dir, digest,
                                          suffix)
                        if path.exists():
                            os.utime(path, (now - age, now - age))
                _, envelope = service.submit(DEPTH)
                assert envelope is not None
                budget = max(row["bytes"] for row in cache.entries())
                report = cache.prune(budget)
                assert report["evicted"] == 1
                assert [row["digest"] for row in cache.entries()] == \
                    [job.digest]
                assert service.artifacts.load(job.digest) is not None
            finally:
                await service.stop()

        run(scenario())

    def test_envelope_only_entry_is_counted_and_evicted(self, tmp_path):
        """A traced serve job runs uncached and leaves only the
        envelope half; the cache still counts and prunes it."""
        from repro.engine.cache import ResultCache, entry_path

        async def scenario():
            service = ExperimentService(
                service_config(tmp_path, trace_jobs=1))
            await service.start()
            try:
                job, _ = service.submit(DEPTH)
                await service.wait(job.id, timeout_s=120)
                assert service.status(job.id).state == "completed"
                assert not entry_path(service.cache_dir,
                                      job.digest).exists()
                envelope = entry_path(service.cache_dir, job.digest,
                                      ".json")
                cache = ResultCache(service.cache_dir)
                assert cache.entries() == [{
                    "digest": job.digest,
                    "bytes": envelope.stat().st_size,
                    "last_used": envelope.stat().st_mtime}]
                assert cache.prune(0)["evicted"] == 1
                assert not envelope.exists()
            finally:
                await service.stop()

        run(scenario())

    @pytest.mark.parametrize("budget", (1000, 12000))
    def test_every_write_holds_the_budget(self, tmp_path, monkeypatch,
                                          budget):
        """Envelope writes prune too: two served DEPTH jobs leave the
        cache within budget, whether nothing fits (1000 bytes) or one
        envelope but not two (12000)."""
        from repro.engine.cache import ResultCache

        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", str(budget))

        async def scenario():
            service = ExperimentService(service_config(tmp_path))
            await service.start()
            try:
                for payload in (DEPTH, DEPTH2):
                    job, _ = service.submit(payload)
                    await service.wait(job.id, timeout_s=120)
                    assert service.status(job.id).state == "completed"
                return ResultCache(service.cache_dir).stats()
            finally:
                await service.stop()

        stats = run(scenario())
        assert stats["max_bytes"] == budget
        assert stats["over_budget"] is False
        assert stats["entries"] == (0 if budget == 1000 else 1)

    def test_oversized_half_is_never_written(self, tmp_path,
                                             monkeypatch):
        """A half larger than the whole budget is skipped, not written
        and evicted again, and it evicts none of the entries that
        fit."""
        import types

        from repro.engine.cache import ResultCache, entry_path
        from repro.serve.artifacts import ArtifactStore

        probe = ResultCache(tmp_path)
        self._fill(probe, 1)
        per_entry = probe.entries()[0]["bytes"]
        probe.prune(0)
        budget = per_entry * 2 + 10
        evicted = []
        cache = ResultCache(tmp_path, max_bytes=budget,
                            on_evict=evicted.append)
        kept = self._fill(cache, 2)
        big = "ef" * 8
        cache.store(big, types.SimpleNamespace(
            status="completed", result=b"x" * budget, error_type=None))
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", str(budget))
        assert ArtifactStore(tmp_path).store(
            big, {"blob": "x" * budget}) is None
        assert not entry_path(tmp_path, big).exists()
        assert not entry_path(tmp_path, big, ".json").exists()
        assert evicted == []
        assert [row["digest"] for row in cache.entries()] == kept

    def test_store_enforces_budget(self, tmp_path):
        from repro.engine.cache import ResultCache

        probe = ResultCache(tmp_path)
        self._fill(probe, 1)
        per_entry = probe.entries()[0]["bytes"]
        probe.prune(0)
        cache = ResultCache(tmp_path, max_bytes=per_entry * 2 + 10)
        self._fill(cache, 5)
        assert len(cache.entries()) <= 2
        assert not cache.stats()["over_budget"]

    def test_env_budget(self, tmp_path, monkeypatch):
        from repro.engine.cache import ResultCache

        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "12345")
        assert ResultCache(tmp_path).max_bytes == 12345
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "bogus")
        assert ResultCache(tmp_path).max_bytes is None
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES")
        assert ResultCache(tmp_path).max_bytes is None


# ----------------------------------------------------------------------
# Satellite: watchdog diagnostics carry the partial critical path.
# ----------------------------------------------------------------------
class TestWatchdogCritpath:
    def test_mid_run_deadlock_names_binding_resource(self):
        import numpy as np

        from repro.core import ImagineProcessor
        from repro.core.processor import SimulationError
        from repro.isa.kernel_ir import KernelBuilder
        from repro.isa.stream_ops import StreamInstruction, StreamOpType
        from repro.kernelc import compile_kernel
        from repro.streamc import StreamProgram
        from repro.streamc.program import KernelSpec

        builder = KernelBuilder("tiny")
        x = builder.stream_input("x")
        builder.stream_output("o", builder.op("fadd", x, x))
        kir = builder.build()
        spec = KernelSpec("tiny", kir,
                          lambda ins, p: [ins[0] + ins[0]])
        program = StreamProgram("p")
        data = program.array("d", np.zeros(64))
        stream = program.load(data)
        program.kernel(spec, [stream])
        image = program.build()
        instructions = list(image.instructions)
        instructions.append(StreamInstruction(
            StreamOpType.SYNC, deps=[len(instructions)],
            index=len(instructions)))
        processor = ImagineProcessor()
        processor.register_kernel(compile_kernel(kir))
        with pytest.raises(SimulationError) as info:
            processor.run(instructions, name="midway")
        bundle = info.value.diagnostics.as_dict()
        critpath = bundle["critpath"]
        assert critpath is not None
        assert critpath["binding_resource"]
        assert critpath["top_segment"]["weight"] > 0
        assert "partial critical path" in info.value.diagnostics.render()

    def test_pre_progress_deadlock_degrades_to_none(self):
        from dataclasses import replace

        from repro.core import ImagineProcessor, MachineConfig
        from repro.core.processor import SimulationError
        from repro.isa.stream_ops import StreamInstruction, StreamOpType

        machine = replace(MachineConfig(), scoreboard_slots=1)
        instructions = [
            StreamInstruction(StreamOpType.SYNC, deps=[1], index=0),
            StreamInstruction(StreamOpType.SYNC, deps=[], index=1),
        ]
        with pytest.raises(SimulationError) as info:
            ImagineProcessor(machine=machine).run(instructions,
                                                 name="early")
        assert info.value.diagnostics.as_dict()["critpath"] is None
