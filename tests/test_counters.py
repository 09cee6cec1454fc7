"""Pinned counter views: the engine and service counts users see.

Two scripted scenarios walk every counting path once and pin the
exact views they produce -- the CLI's ``[engine]`` stderr line, the
perf-history ``engine`` block, the ``/v1/stats`` ``serve`` and
``engine`` blocks and the ``/readyz`` probe names -- key order and
value types included, because those outputs are compared byte for
byte downstream.
"""

import asyncio

import pytest

from repro.engine import RunRequest, Session, SessionConfig
from repro.serve import (
    BadRequest,
    ChaosMonkey,
    ChaosPlan,
    ExperimentService,
    QueueFull,
    RetryPolicy,
    ServiceConfig,
    ServiceServer,
    ServiceUnavailable,
)
from repro.obs.metrics import counter_totals, parse_prometheus
from repro.serve.chaos import ChaosSpec

SIZES = {"height": 24, "width": 64, "disparities": 4}
DEPTH = {"app": "depth", "sizes": {"width": 32, "height": 24}}
DEPTH2 = {"app": "depth", "sizes": {"width": 40, "height": 24}}
DEPTH3 = {"app": "depth", "sizes": {"width": 48, "height": 24}}

ENGINE_KEYS = ("runs", "hits", "misses", "uncached", "executed",
               "failed", "timeouts", "retried", "hit_rate")


def engine_block(runs, hits, misses, uncached, executed, failed,
                 timeouts, retried):
    keyed = hits + misses
    return list(zip(ENGINE_KEYS, (
        runs, hits, misses, uncached, executed, failed, timeouts,
        retried, hits / keyed if keyed else 0.0)))


def assert_counts_are_ints(block):
    for name, value in block.items():
        expected = float if name == "hit_rate" else int
        assert type(value) is expected, (name, value)


# ----------------------------------------------------------------------
# Engine: miss, in-flight dedup, disk hit, traced run, timeout.
# ----------------------------------------------------------------------
def test_engine_sequence_pins_line_and_history(tmp_path, capsys):
    from repro.cli import _print_engine_stats
    from repro.obs.history import read_history
    from repro.obs.tracer import Tracer

    def request(seed):
        return RunRequest.for_app("depth", sizes=SIZES, seed=seed)

    cache_dir = tmp_path / "cache"
    history = tmp_path / "history.jsonl"
    # Warm request 2 in a separate session: its counts are its own.
    with Session(config=SessionConfig(cache_dir=cache_dir)) as warm:
        warm.run(request(2))

    with Session(config=SessionConfig(
            jobs=2, cache_dir=cache_dir, history=history)) as session:
        first = session.submit(request(1))              # miss
        duplicate = session.submit(request(1))          # in-flight dedup
        assert duplicate.cache_status == "hit"
        first.result()
        duplicate.result()
        assert first.cache_status == "miss"
        hit = session.submit(request(2))                # disk hit
        assert hit.cache_status == "hit"
        traced = session.submit(request(1), tracer=Tracer())
        assert traced.cache_status == "uncached"
        # A wall-clock budget no pooled run can meet.
        session.timeout = 0.001
        timed_out = session.submit(request(3)).outcome()
        assert timed_out.error_type == "RunTimeout"
        capsys.readouterr()
        _print_engine_stats(session)
        line = capsys.readouterr().err

    assert line == ("[engine] jobs=2 runs=5 hits=2 misses=2 "
                    "uncached=1 hit_rate=50.0%\n")
    entries = read_history(history)
    assert [entry["cache"] for entry in entries] == ["miss", "hit"]
    for entry in entries:
        assert_counts_are_ints(entry["engine"])
    assert entries[0]["engine"] == dict(engine_block(
        runs=2, hits=1, misses=1, uncached=0, executed=1, failed=0,
        timeouts=0, retried=0))
    assert entries[1]["engine"] == dict(engine_block(
        runs=3, hits=2, misses=1, uncached=0, executed=1, failed=0,
        timeouts=0, retried=0))
    # The stored text (sorted keys) carries bare integers.
    text = history.read_text().splitlines()[0]
    assert ('"engine": {"executed": 1, "failed": 0, "hit_rate": 0.5, '
            '"hits": 1, "misses": 1, "retried": 0, "runs": 2, '
            '"timeouts": 0, "uncached": 0}') in text


# ----------------------------------------------------------------------
# Service: every admission and terminal path once.
# ----------------------------------------------------------------------
#: Executions 1, 3 and 4 are killed: the first is retried, the
#: other two exhaust a job's two attempts and open the breaker.
KILLS = ChaosPlan(name="pin-kills", faults=(
    ChaosSpec("worker_kill", {"start": 1, "count": 1}),
    ChaosSpec("worker_kill", {"start": 3, "every": 1, "count": 2}),))

SERVE_BLOCK = [
    ("accepted", 5), ("completed", 3), ("failed", 2), ("retried", 2),
    ("coalesced", 1), ("artifact_hits", 1), ("shed_queue_full", 1),
    ("shed_breaker", 1), ("recovered", 0), ("deadline_failures", 1),
    ("executions", 4), ("bad_requests", 1),
]

READYZ_PROBES = sorted([
    "serve.accepted", "serve.artifact_hits", "serve.bad_requests",
    "serve.breaker.trips", "serve.coalesced", "serve.completed",
    "serve.deadline_failures", "serve.executions", "serve.failed",
    "serve.pending", "serve.recovered", "serve.retried",
    "serve.shed_breaker", "serve.shed_queue_full",
    "serve.engine.executed", "serve.engine.failed",
    "serve.engine.hit_rate", "serve.engine.hits",
    "serve.engine.misses", "serve.engine.retried",
    "serve.engine.runs", "serve.engine.timeouts",
    "serve.engine.uncached",
    "engine_backend_selected_total{backend=vector}",
    "engine_cache_requests_total{result=miss}",
    "engine_runs_executed_total",
    "serve_artifact_hits_total",
    "serve_breaker_state",
    "serve_breaker_transitions_total{to=open}",
    "serve_job_executions_total",
    "serve_job_latency_ms{temperature=cold}.count",
    "serve_job_latency_ms{temperature=cold}.sum",
    "serve_job_latency_ms{temperature=hot}.count",
    "serve_job_latency_ms{temperature=hot}.sum",
    "serve_job_retries_total",
    "serve_jobs_accepted_total{path=artifact}",
    "serve_jobs_accepted_total{path=coalesced}",
    "serve_jobs_accepted_total{path=queued}",
    "serve_jobs_coalesced_total",
    "serve_jobs_deadline_exceeded_total",
    "serve_jobs_rejected_total{reason=bad_request}",
    "serve_jobs_rejected_total{reason=breaker}",
    "serve_jobs_rejected_total{reason=queue_full}",
    "serve_jobs_submitted_total",
    "serve_jobs_terminal_total{state=completed}",
    "serve_jobs_terminal_total{state=failed}",
    "serve_queue_depth",
])


def test_service_scenario_pins_stats_and_probes(tmp_path):
    config = ServiceConfig(
        data_dir=str(tmp_path / "serve"), workers=1, queue_limit=1,
        journal_fsync=False, default_deadline_s=60.0,
        breaker_threshold=2, breaker_cooldown_s=600.0,
        retry=RetryPolicy(max_attempts=2, base_s=0.01,
                          jitter_cap_s=0.0))

    async def scenario():
        service = ExperimentService(config, chaos=ChaosMonkey(KILLS))
        await service.start()
        server = ServiceServer(service)
        try:
            with pytest.raises(BadRequest):
                service.submit({**DEPTH, "bogus": 1})
            primary, _ = service.submit(DEPTH)
            follower, _ = service.submit(DEPTH)
            assert follower.coalesced_into == primary.id
            with pytest.raises(QueueFull):
                service.submit(DEPTH2)
            await service.wait(follower.id, timeout_s=120)
            done = service.status(primary.id)
            assert done.state == "completed" and done.attempts == 2

            hot, envelope = service.submit(DEPTH)
            assert hot.served_from == "artifact" and envelope

            late, _ = service.submit({**DEPTH2, "deadline_s": 1e-9})
            await service.wait(late.id, timeout_s=60)
            assert service.status(late.id).error_type == \
                "DeadlineExceeded"

            doomed, _ = service.submit(DEPTH3)
            await service.wait(doomed.id, timeout_s=120)
            assert service.status(doomed.id).attempts == 2
            assert service.breaker.state == "open"
            with pytest.raises(ServiceUnavailable):
                service.submit(DEPTH2)
            assert await service.drain(timeout_s=60)

            _, stats, _ = server._route("GET", "/v1/stats", b"")
            _, ready, _ = server._route("GET", "/readyz", b"")
        finally:
            await service.stop()
        return stats, ready

    stats, ready = asyncio.run(scenario())
    assert list(stats["serve"].items()) == SERVE_BLOCK
    for value in stats["serve"].values():
        assert type(value) is int
    # Only execution 2 reached the engine: the kills fire first.
    assert list(stats["engine"].items()) == engine_block(
        runs=1, hits=0, misses=1, uncached=0, executed=1, failed=0,
        timeouts=0, retried=0)
    assert_counts_are_ints(stats["engine"])
    assert sorted(ready["probes"]) == READYZ_PROBES


def test_recovered_artifact_completion_is_counted(tmp_path):
    """A journal-accepted job whose artifact already exists completes
    at restart; ``/v1/stats`` counts that completion as ``/metrics``
    does (the hand-kept counters once missed it)."""
    config = ServiceConfig(data_dir=str(tmp_path / "serve"),
                           workers=1, journal_fsync=False)
    digest = "ab" * 8

    async def scenario():
        crashed = ExperimentService(config)
        crashed.artifacts.store(digest, {"cycles": 1.0})
        crashed.journal.append("accepted", "job-00000001",
                               digest=digest, payload=DEPTH,
                               deadline_s=60.0)
        service = ExperimentService(config)
        await service.start()
        try:
            assert service.status("job-00000001").state == "completed"
            server = ServiceServer(service)
            _, stats, _ = server._route("GET", "/v1/stats", b"")
            _, scrape, _ = server._route("GET", "/metrics", b"")
        finally:
            await service.stop()
        return stats, counter_totals(parse_prometheus(scrape))

    stats, scraped = asyncio.run(scenario())
    assert stats["serve"]["completed"] == 1
    assert stats["serve"]["recovered"] == 1
    assert stats["serve"]["completed"] == \
        scraped['serve_jobs_terminal_total{state="completed"}']
    # No worker session has run yet: every engine key reads zero.
    assert list(stats["engine"].items()) == engine_block(
        runs=0, hits=0, misses=0, uncached=0, executed=0, failed=0,
        timeouts=0, retried=0)
