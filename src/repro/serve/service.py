"""The resilient async experiment service.

:class:`ExperimentService` owns the whole job lifecycle:

* **admission** -- parse the payload into a
  :class:`~repro.engine.request.RunRequest`; serve verified artifacts
  straight from the engine cache entry for the digest (pure I/O, no
  simulation); coalesce duplicate digests onto the in-flight primary;
  refuse work beyond the bounded queue with explicit backpressure
  (:class:`~repro.serve.models.QueueFull` -> 429 + Retry-After);
* **execution** -- asyncio worker tasks run jobs on a thread pool of
  per-thread engine :class:`~repro.engine.Session` objects (shared
  content-addressed cache), bounded by the per-request deadline
  layered over the engine's own per-run timeout;
* **resilience** -- infrastructure failures (killed workers, broken
  pools, engine timeouts) are retried on the deterministic
  :class:`~repro.serve.retry.RetryPolicy` backoff; repeated strikes
  open a circuit breaker that sheds cold work and keeps serving
  artifact hits; every transition is fsync'd to the crash-safe
  :class:`~repro.serve.journal.JobJournal`, and on restart unfinished
  jobs are recovered or cleanly failed.

See ``docs/serving.md`` for the API schema and failure-mode table.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import pathlib
import tempfile
import threading
import time
import traceback
from typing import TYPE_CHECKING, Any

from repro.serve.artifacts import ArtifactStore
from repro.serve.chaos import ChaosMonkey
from repro.serve.journal import TERMINAL_EVENTS, JobJournal
from repro.serve.models import (
    BadRequest,
    Job,
    QueueFull,
    ServiceConfig,
    ServiceUnavailable,
    canonical_payload,
    request_from_payload,
)
from repro.serve.retry import is_retryable

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.request import RunRequest
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.registry import ProbeRegistry
    from repro.obs.tracer import Tracer


#: The ``/v1/stats`` ``serve`` block, in key order: each count is one
#: counter family, optionally narrowed to one label value.
_SERVE_COUNTS: tuple[tuple[str, str, dict[str, str]], ...] = (
    ("accepted", "serve_jobs_accepted_total", {}),
    ("completed", "serve_jobs_terminal_total", {"state": "completed"}),
    ("failed", "serve_jobs_terminal_total", {"state": "failed"}),
    ("retried", "serve_job_retries_total", {}),
    ("coalesced", "serve_jobs_coalesced_total", {}),
    ("artifact_hits", "serve_artifact_hits_total", {}),
    ("shed_queue_full", "serve_jobs_rejected_total",
     {"reason": "queue_full"}),
    ("shed_breaker", "serve_jobs_rejected_total", {"reason": "breaker"}),
    ("recovered", "serve_jobs_recovered_total", {}),
    ("deadline_failures", "serve_jobs_deadline_exceeded_total", {}),
    ("executions", "serve_job_executions_total", {}),
    ("bad_requests", "serve_jobs_rejected_total",
     {"reason": "bad_request"}),
)


def serve_counts(metrics: "MetricsRegistry") -> dict[str, int]:
    """Service counters, read from the ``serve_*`` metric families --
    the only place the service counts anything."""
    from repro.obs.metrics import counter_count

    return {key: counter_count(metrics, name, **labels)
            for key, name, labels in _SERVE_COUNTS}


def breaker_trips(metrics: "MetricsRegistry") -> int:
    """Times the circuit breaker opened."""
    from repro.obs.metrics import counter_count

    return counter_count(metrics, "serve_breaker_transitions_total",
                         to="open")


class CircuitBreaker:
    """Sheds cold-cache work while the worker pool is unhealthy.

    ``closed`` admits everything; ``threshold`` consecutive
    infrastructure strikes open it.  While ``open``, cold work is
    refused (artifact hits still flow -- they touch no worker).
    After ``cooldown_s`` one probe job is admitted (``half-open``);
    its fate closes or re-opens the breaker.
    """

    def __init__(self, threshold: int, cooldown_s: float,
                 on_transition: Any = None) -> None:
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.state = "closed"
        self.strikes = 0
        self.opened_at = 0.0
        #: Called as ``on_transition(old_state, new_state)`` on every
        #: state change (the service bridges this into metrics).
        self.on_transition = on_transition

    def _transition(self, state: str) -> None:
        if state == self.state:
            return
        old, self.state = self.state, state
        if self.on_transition is not None:
            self.on_transition(old, state)

    def strike(self, now: float) -> None:
        self.strikes += 1
        if self.state == "half-open" or (
                self.state == "closed"
                and self.strikes >= self.threshold):
            self._transition("open")
            self.opened_at = now

    def success(self) -> None:
        self.strikes = 0
        self._transition("closed")

    def allow_cold(self, now: float) -> bool:
        if self.state == "closed":
            return True
        if self.state == "open":
            if now - self.opened_at >= self.cooldown_s:
                self._transition("half-open")
                return True
            return False
        # half-open: one probe is already in flight.
        return False

    def retry_after_s(self, now: float) -> float:
        if self.state == "open":
            return max(self.cooldown_s - (now - self.opened_at), 1.0)
        return 1.0

    def as_dict(self, metrics: "MetricsRegistry") -> dict[str, Any]:
        """State plus ``trips``, the times the breaker opened, read
        from the transition counter in ``metrics``."""
        return {"state": self.state, "strikes": self.strikes,
                "threshold": self.threshold,
                "trips": breaker_trips(metrics),
                "cooldown_s": self.cooldown_s}


class ExperimentService:
    """Submit / poll / fetch front end over the parallel engine."""

    def __init__(self, config: ServiceConfig | None = None,
                 chaos: ChaosMonkey | None = None,
                 metrics: "MetricsRegistry | None" = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.chaos = chaos if chaos is not None else \
            ChaosMonkey.disabled()
        data_dir = self.config.data_dir
        if data_dir is None:
            data_dir = tempfile.mkdtemp(prefix="repro-serve-")
        self.data_dir = pathlib.Path(data_dir)
        cache_dir = self.config.cache_dir
        if cache_dir is None:
            cache_dir = str(self.data_dir / "engine-cache")
        self.cache_dir = cache_dir
        self.journal = JobJournal(self.data_dir / "journal.jsonl",
                                  fsync=self.config.journal_fsync)
        self._init_metrics(metrics)
        self.artifacts = ArtifactStore(
            cache_dir, on_written=self.chaos.artifact_written,
            on_evict=self._m_evictions.inc)
        self.breaker = CircuitBreaker(self.config.breaker_threshold,
                                      self.config.breaker_cooldown_s,
                                      on_transition=self._on_breaker)
        self.jobs: dict[str, Job] = {}
        self._requests: dict[str, "RunRequest"] = {}
        self._deadline_at: dict[str, float] = {}
        self._inflight: dict[str, str] = {}      # digest -> primary id
        self._followers: dict[str, list[str]] = {}
        self._events: dict[str, asyncio.Event] = {}
        self._queue: asyncio.Queue[str] = asyncio.Queue()
        self._pending = 0
        self._job_counter = 0
        self._avg_exec_s = 1.0
        self._salt: str | None = None
        self._workers: list[asyncio.Task] = []
        self._executor: concurrent.futures.ThreadPoolExecutor | None = None
        self._thread_sessions: list[Any] = []
        self._local = threading.local()
        self._sessions_lock = threading.Lock()
        self._trace_lock = threading.Lock()
        self._trace_budget = self.config.trace_jobs
        self._tracers: dict[str, "Tracer"] = {}
        self._started = False

    def _init_metrics(self, metrics: "MetricsRegistry | None") -> None:
        """Register the service's live-metric families.

        The registry is the only counter source: ``/v1/stats`` reads
        it back (:func:`serve_counts`) and the probes export it.  It
        is shared with every worker-thread engine session, so one
        ``/metrics`` scrape carries the ``serve_*`` and ``engine_*``
        vocabularies together.
        """
        from repro.obs.metrics import MetricsRegistry

        self.metrics = (metrics if metrics is not None
                        else MetricsRegistry())
        m = self.metrics
        self._m_submitted = m.counter(
            "serve_jobs_submitted_total",
            "submissions received, before any admission decision")
        self._m_accepted = m.counter(
            "serve_jobs_accepted_total",
            "admitted submissions by admission path",
            labels=("path",))
        self._m_rejected = m.counter(
            "serve_jobs_rejected_total",
            "refused submissions by reason", labels=("reason",))
        self._m_terminal = m.counter(
            "serve_jobs_terminal_total",
            "jobs reaching a terminal state", labels=("state",))
        self._m_coalesced = m.counter(
            "serve_jobs_coalesced_total",
            "duplicate digests coalesced onto an in-flight primary")
        self._m_recovered = m.counter(
            "serve_jobs_recovered_total",
            "jobs recovered from the journal at startup")
        # Envelope writes prune the engine cache too; their evictions
        # count with the sessions' own.
        self._m_evictions = m.counter(
            "engine_cache_evictions_total",
            "cache entries evicted by the LRU pruner")
        self._m_artifact_hits = m.counter(
            "serve_artifact_hits_total",
            "submissions answered from the verified artifact store")
        self._m_retries = m.counter(
            "serve_job_retries_total",
            "execution attempts retried on the backoff policy")
        self._m_executions = m.counter(
            "serve_job_executions_total",
            "execution attempts dispatched to worker threads")
        self._m_deadline = m.counter(
            "serve_jobs_deadline_exceeded_total",
            "jobs failed because their deadline passed")
        self._m_queue_depth = m.gauge(
            "serve_queue_depth", "queued + running jobs")
        self._m_breaker_state = m.gauge(
            "serve_breaker_state",
            "circuit breaker state (0 closed, 1 half-open, 2 open)")
        self._m_breaker_transitions = m.counter(
            "serve_breaker_transitions_total",
            "circuit breaker state changes by target state",
            labels=("to",))
        self._m_latency = m.histogram(
            "serve_job_latency_ms",
            "accepted-to-terminal latency; hot = artifact-store "
            "answers, cold = executed work", labels=("temperature",))

    def _on_breaker(self, old: str, new: str) -> None:
        self._m_breaker_transitions.labels(to=new).inc()
        self._m_breaker_state.set(
            {"closed": 0, "half-open": 1, "open": 2}[new])

    # ------------------------------------------------------------------
    # Clock (skewable by chaos).
    # ------------------------------------------------------------------
    def now(self) -> float:
        return time.monotonic() + self.chaos.clock_skew_s()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Recover the journal, then spawn the worker tasks."""
        if self._started:
            return
        from repro.engine.request import code_salt

        self._salt = code_salt()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve")
        self._recover()
        for index in range(self.config.workers):
            self._workers.append(asyncio.create_task(
                self._worker(index), name=f"serve-worker-{index}"))
        self._started = True

    async def stop(self) -> None:
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._workers.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        with self._sessions_lock:
            for session in self._thread_sessions:
                session.close()
            self._thread_sessions.clear()
        self._started = False

    async def drain(self, timeout_s: float = 120.0) -> bool:
        """Wait until every accepted job is terminal."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if all(job.terminal for job in self.jobs.values()):
                return True
            await asyncio.sleep(0.02)
        return False

    # ------------------------------------------------------------------
    # Recovery.
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Replay the journal: finish, re-enqueue or cleanly fail
        every job a previous incarnation accepted but never resolved."""
        folded = self.journal.fold()
        for job_id in sorted(folded):
            record = folded[job_id]
            self._bump_counter(job_id)
            if record["state"] in TERMINAL_EVENTS:
                continue
            digest = record.get("digest")
            payload = record.get("payload")
            job = Job(id=job_id, digest=digest or "",
                      payload=payload or {},
                      accepted_at=self.now(),
                      deadline_s=float(record.get("deadline_s")
                                       or self.config.default_deadline_s),
                      attempts=int(record.get("attempts") or 0))
            if record.get("coalesced_into"):
                # Followers are resolved by their primary; after a
                # restart the primary link is gone, so fold the
                # follower onto the artifact/requeue paths below.
                job.coalesced_into = None
            if digest and self.artifacts.load(digest) is not None:
                job.state = "completed"
                job.served_from = "artifact"
                self.jobs[job_id] = job
                self.journal.append("completed", job_id, digest=digest,
                                    served_from="artifact",
                                    recovered=True)
                self._m_recovered.inc()
                self._m_terminal.labels(state="completed").inc()
                continue
            try:
                if payload is None:
                    raise BadRequest("journal entry lost its payload")
                request, deadline_s = request_from_payload(
                    payload, self.config)
            except BadRequest as error:
                job.state = "failed"
                job.error_type = "UnrecoverableJob"
                job.error_message = str(error)
                self.jobs[job_id] = job
                self.journal.append("failed", job_id,
                                    error_type="UnrecoverableJob",
                                    error_message=str(error))
                self._m_terminal.labels(state="failed").inc()
                continue
            job.deadline_s = deadline_s
            job.served_from = "recovered"
            self.jobs[job_id] = job
            self._requests[job_id] = request
            self._events[job_id] = asyncio.Event()
            self._inflight.setdefault(job.digest, job_id)
            self._pending += 1
            self._m_recovered.inc()
            self._m_queue_depth.set(self._pending)
            self.journal.append("recovered", job_id, digest=job.digest)
            self._queue.put_nowait(job_id)

    def _bump_counter(self, job_id: str) -> None:
        try:
            number = int(job_id.rsplit("-", 1)[-1])
        except ValueError:
            return
        self._job_counter = max(self._job_counter, number)

    # ------------------------------------------------------------------
    # Admission.
    # ------------------------------------------------------------------
    def _next_job_id(self) -> str:
        self._job_counter += 1
        return f"job-{self._job_counter:08d}"

    def submit(self, payload: Any) -> tuple[Job, dict | None]:
        """Admit one submission.

        Returns ``(job, artifact_envelope_or_None)``; the artifact is
        non-None only for the pure-I/O hot path.  Raises
        :class:`BadRequest`, :class:`QueueFull` or
        :class:`ServiceUnavailable`.
        """
        if not self._started:
            raise ServiceUnavailable("service not started",
                                     retry_after_s=1.0)
        admit_start = time.perf_counter()
        self._m_submitted.inc()
        now = self.now()
        try:
            request, deadline_s = request_from_payload(payload,
                                                       self.config)
        except BadRequest:
            self._m_rejected.labels(reason="bad_request").inc()
            raise
        digest = request.digest(salt=self._salt)

        # Hot path: a verified artifact answers immediately, whatever
        # the queue or breaker state -- it costs pure file I/O.
        envelope = self.artifacts.load(digest)
        if envelope is not None:
            job = Job(id=self._next_job_id(), digest=digest,
                      payload=canonical_payload(payload),
                      state="completed", accepted_at=now,
                      deadline_s=deadline_s, served_from="artifact")
            self.jobs[job.id] = job
            self._m_accepted.labels(path="artifact").inc()
            self._m_artifact_hits.inc()
            self._m_terminal.labels(state="completed").inc()
            self.journal.append("accepted", job.id, digest=digest,
                                payload=job.payload,
                                deadline_s=deadline_s,
                                then=("completed", {
                                    "digest": digest,
                                    "served_from": "artifact"}))
            job.admit_s = time.perf_counter() - admit_start
            self._m_latency.labels(temperature="hot").observe(
                job.admit_s * 1e3)
            return job, envelope

        # Coalesce onto an in-flight primary for the same digest.
        primary_id = self._inflight.get(digest)
        if primary_id is not None and not \
                self.jobs[primary_id].terminal:
            job = Job(id=self._next_job_id(), digest=digest,
                      payload=canonical_payload(payload),
                      accepted_at=now, deadline_s=deadline_s,
                      coalesced_into=primary_id,
                      served_from="coalesced")
            self.jobs[job.id] = job
            self._followers.setdefault(primary_id, []).append(job.id)
            self._m_accepted.labels(path="coalesced").inc()
            self._m_coalesced.inc()
            self.journal.append("accepted", job.id, digest=digest,
                                payload=job.payload,
                                deadline_s=deadline_s,
                                then=("coalesced", {"into": primary_id}))
            job.admit_s = time.perf_counter() - admit_start
            return job, None

        # Cold work: the breaker may be shedding it.
        if not self.breaker.allow_cold(now):
            self._m_rejected.labels(reason="breaker").inc()
            raise ServiceUnavailable(
                "worker pool unhealthy; serving cache hits only",
                retry_after_s=self.breaker.retry_after_s(now))

        # Bounded admission queue: explicit backpressure beyond it.
        if self._pending >= self.config.queue_limit:
            self._m_rejected.labels(reason="queue_full").inc()
            retry_after = max(
                1.0, self._pending * self._avg_exec_s
                / self.config.workers)
            raise QueueFull(
                f"admission queue full "
                f"({self._pending}/{self.config.queue_limit})",
                retry_after_s=retry_after)

        job = Job(id=self._next_job_id(), digest=digest,
                  payload=canonical_payload(payload),
                  accepted_at=now, deadline_s=deadline_s)
        self.jobs[job.id] = job
        self._requests[job.id] = request
        self._events[job.id] = asyncio.Event()
        self._inflight[digest] = job.id
        self._pending += 1
        self._m_accepted.labels(path="queued").inc()
        self._m_queue_depth.set(self._pending)
        self.journal.append("accepted", job.id, digest=digest,
                            payload=job.payload, deadline_s=deadline_s)
        self._queue.put_nowait(job.id)
        job.admit_s = time.perf_counter() - admit_start
        return job, None

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def status(self, job_id: str) -> Job | None:
        return self.jobs.get(job_id)

    def artifact_for(self, job_id: str) -> tuple[Job | None,
                                                 dict | None]:
        """The job and, when completed, its verified artifact."""
        job = self.jobs.get(job_id)
        if job is None or job.state != "completed":
            return job, None
        return job, self.artifacts.load(job.digest)

    async def wait(self, job_id: str,
                   timeout_s: float | None = None) -> Job:
        """Block until ``job_id`` is terminal."""
        job = self.jobs[job_id]
        target = job
        if job.coalesced_into is not None:
            target = self.jobs[job.coalesced_into]
        event = self._events.get(target.id)
        if event is not None and not target.terminal:
            await asyncio.wait_for(event.wait(), timeout=timeout_s)
        return self.jobs[job_id]

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def _thread_session(self):
        """One engine session per worker thread, sharing the on-disk
        cache and the metrics registry; created lazily, closed by
        :meth:`stop`."""
        session = getattr(self._local, "session", None)
        if session is None:
            from repro.engine import Session, SessionConfig

            session = Session(config=SessionConfig(
                cache_dir=self.cache_dir), metrics=self.metrics)
            self._local.session = session
            with self._sessions_lock:
                self._thread_sessions.append(session)
        return session

    def _claim_trace(self) -> bool:
        """Atomically consume one unit of the end-to-end trace budget.

        Claimed *after* the chaos execution hook, so an injected
        worker kill never burns the budget on a run that produced no
        spans.
        """
        with self._trace_lock:
            if self._trace_budget > 0:
                self._trace_budget -= 1
                return True
        return False

    def _execute_blocking(self, request: "RunRequest", job: Job):
        """Worker-thread entry: chaos hook, then one engine run.

        When the trace budget allows, the run executes traced: the
        simulator's per-component spans are kept for
        :meth:`stitched_trace` (traced runs stay in-process and
        uncached by the engine's contract, so tracing is sampling,
        never the steady-state path).
        """
        self.chaos.execution_started()
        session = self._thread_session()
        if self._claim_trace():
            from repro.obs.tracer import Tracer

            tracer = Tracer()
            handle = session.submit(request, tracer=tracer)
            self._tracers[job.id] = tracer
        else:
            handle = session.submit(request)
        return handle.outcome(), handle.cache_status

    async def _worker(self, index: int) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job_id = await self._queue.get()
            job = self.jobs.get(job_id)
            if job is None or job.terminal:
                continue
            request = self._requests.get(job_id)
            if request is None:
                self._fail(job, "UnrecoverableJob",
                           "no request attached")
                continue
            try:
                await self._run_job(loop, job, request)
            except Exception as error:
                # No single job may end the worker: a job the attempt
                # loop could not settle fails here, with its traceback.
                if not job.terminal:
                    self._fail(job, type(error).__name__, str(error),
                               diagnostics={
                                   "traceback": traceback.format_exc()})

    async def _run_job(self, loop: asyncio.AbstractEventLoop,
                       job: Job, request: "RunRequest") -> None:
        while True:
            remaining = job.deadline_remaining(self.now())
            if remaining <= 0:
                self._m_deadline.inc()
                self._fail(job, "DeadlineExceeded",
                           f"deadline of {job.deadline_s:.1f}s "
                           f"passed before completion")
                return
            job.state = "running"
            job.attempts += 1
            job.started_at = self.now()
            self._m_executions.inc()
            self.journal.append("started", job.id,
                                attempt=job.attempts)
            started = time.monotonic()
            try:
                outcome, cache_status = await asyncio.wait_for(
                    loop.run_in_executor(self._executor,
                                         self._execute_blocking,
                                         request, job),
                    timeout=max(remaining, 0.001))
            except asyncio.TimeoutError:
                self._m_deadline.inc()
                self.breaker.strike(self.now())
                self._fail(job, "DeadlineExceeded",
                           f"execution exceeded the "
                           f"{job.deadline_s:.1f}s deadline "
                           f"(attempt {job.attempts})")
                return
            except asyncio.CancelledError:
                raise
            except Exception as error:       # infrastructure failure
                if await self._maybe_retry(job,
                                           type(error).__name__,
                                           str(error)):
                    continue
                return
            self._observe_exec_time(time.monotonic() - started)
            if outcome.completed:
                try:
                    self.artifacts.store(job.digest, self._build_artifact(
                        job, outcome, cache_status))
                except Exception as error:   # a failed write or derivation
                    if await self._maybe_retry(job,
                                               type(error).__name__,
                                               str(error)):
                        continue
                    return
                self.breaker.success()
                self._complete(job)
                return
            if is_retryable(outcome.error_type):
                # Engine-side infrastructure failure (RunTimeout,
                # WorkerCrashed): same retry ring as a raised one.
                if await self._maybe_retry(job, outcome.error_type,
                                           outcome.error_message or ""):
                    continue
                return
            # A typed simulation failure is the answer.
            self.breaker.success()
            self._fail(job, outcome.error_type or "UnknownError",
                       outcome.error_message or "",
                       diagnostics=outcome.diagnostics)
            return

    async def _maybe_retry(self, job: Job, error_type: str,
                           message: str) -> bool:
        """Strike the breaker; back off and retry when allowed.
        Returns True to continue the attempt loop."""
        self.breaker.strike(self.now())
        if (job.attempts < self.config.retry.max_attempts
                and is_retryable(error_type)
                and job.deadline_remaining(self.now()) > 0):
            delay = self.config.retry.delay(job.digest, job.attempts)
            self._m_retries.inc()
            self.journal.append("retrying", job.id,
                                attempt=job.attempts,
                                error_type=error_type,
                                delay_s=round(delay, 6))
            await asyncio.sleep(delay)
            return True
        self._fail(job, error_type, message)
        return False

    def _observe_exec_time(self, elapsed: float) -> None:
        self._avg_exec_s = 0.8 * self._avg_exec_s + 0.2 * elapsed

    # ------------------------------------------------------------------
    # Artifacts.
    # ------------------------------------------------------------------
    def _build_artifact(self, job: Job, outcome: Any,
                        cache_status: str | None) -> dict:
        """The served document for a completed run: summary metrics,
        the full cycle-accounting profile and the critical-path
        summary.  Deterministic for a given request digest."""
        from repro.obs.profile import build_profile

        result = outcome.result
        profile = build_profile(result)
        return {
            "program": result.name,
            "board_mode": result.board.mode,
            "cycles": float(result.metrics.total_cycles),
            "gops": result.metrics.gops,
            "gflops": result.metrics.gflops,
            "watts": result.power.watts,
            "summary": profile["summary"],
            "profile": profile,
            "critpath": profile["critpath"],
        }

    # ------------------------------------------------------------------
    # Terminal transitions.
    # ------------------------------------------------------------------
    def _complete(self, job: Job) -> None:
        job.state = "completed"
        if job.served_from is None:
            job.served_from = "execution"
        self._m_terminal.labels(state="completed").inc()
        self.journal.append("completed", job.id, digest=job.digest,
                            served_from=job.served_from)
        self._settle(job)

    def _fail(self, job: Job, error_type: str, message: str,
              diagnostics: dict | None = None) -> None:
        job.state = "failed"
        job.error_type = error_type
        job.error_message = message
        job.diagnostics = diagnostics
        self._m_terminal.labels(state="failed").inc()
        self.journal.append("failed", job.id, error_type=error_type,
                            error_message=message)
        self._settle(job)

    def _settle(self, job: Job) -> None:
        """Release bookkeeping and resolve coalesced followers."""
        job.finished_at = self.now()
        self._m_latency.labels(temperature="cold").observe(
            max(job.finished_at - job.accepted_at, 0.0) * 1e3)
        if self._inflight.get(job.digest) == job.id:
            del self._inflight[job.digest]
        if job.coalesced_into is None:
            self._pending = max(self._pending - 1, 0)
            self._m_queue_depth.set(self._pending)
        event = self._events.pop(job.id, None)
        if event is not None:
            event.set()
        self._requests.pop(job.id, None)
        for follower_id in self._followers.pop(job.id, []):
            follower = self.jobs.get(follower_id)
            if follower is None or follower.terminal:
                continue
            follower.state = job.state
            follower.error_type = job.error_type
            follower.error_message = job.error_message
            follower.served_from = "coalesced"
            follower.finished_at = job.finished_at
            self._m_terminal.labels(state=job.state).inc()
            if job.state == "completed":
                self.journal.append("completed", follower.id,
                                    digest=follower.digest,
                                    served_from="coalesced")
            else:
                self.journal.append(
                    "failed", follower.id,
                    error_type=job.error_type or "UnknownError",
                    error_message=job.error_message or "")

    # ------------------------------------------------------------------
    # Health / observability.
    # ------------------------------------------------------------------
    def stitched_trace(self, job_id: str) -> dict[str, Any] | None:
        """The cross-process Perfetto document for one finished job.

        ``None`` for unknown or still-running jobs.  The service-side
        spans (HTTP accept -> queue wait -> engine execute) come from
        the job's phase clocks; when the job's execution was traced
        (``ServiceConfig.trace_jobs``), the simulator's per-component
        spans are rebased under the execute span.
        """
        job = self.jobs.get(job_id)
        if job is None or not job.terminal:
            return None
        from repro.obs.export import to_chrome_trace
        from repro.obs.stitch import TraceContext, stitch_job_trace

        started = (job.started_at if job.started_at is not None
                   else job.accepted_at)
        finished = (job.finished_at if job.finished_at is not None
                    else started)
        tracer = self._tracers.get(job.id)
        simulator = (to_chrome_trace(tracer)
                     if tracer is not None else None)
        return stitch_job_trace(
            TraceContext(job.id, job.digest),
            admit_s=job.admit_s,
            queue_s=started - job.accepted_at,
            execute_s=finished - started,
            simulator=simulator)

    def render_metrics(self) -> str:
        """The ``GET /metrics`` body (Prometheus text v0.0.4)."""
        from repro.obs.metrics import render_prometheus

        return render_prometheus(self.metrics)

    def probes(self) -> "ProbeRegistry":
        """The live metric families (``serve_*`` and, through the
        shared registry, every worker session's ``engine_*``) as a
        probe registry, under their exposition names."""
        from repro.obs.metrics import probes_from_metrics

        return probes_from_metrics(self.metrics)

    def health(self) -> dict[str, Any]:
        """Liveness: the event loop is running and workers exist."""
        return {
            "status": "ok" if self._started else "starting",
            "workers": len(self._workers),
        }

    def readiness(self) -> tuple[bool, dict[str, Any]]:
        """Readiness: can this instance accept cold work right now?"""
        now = self.now()
        queue_ok = self._pending < self.config.queue_limit
        breaker_ok = self.breaker.state != "open" or (
            now - self.breaker.opened_at >= self.breaker.cooldown_s)
        ready = self._started and queue_ok and breaker_ok
        reasons = []
        if not self._started:
            reasons.append("not started")
        if not queue_ok:
            reasons.append("admission queue full")
        if not breaker_ok:
            reasons.append("circuit breaker open")
        return ready, {
            "ready": ready,
            "reasons": reasons,
            "queue": {"pending": self._pending,
                      "limit": self.config.queue_limit},
            "breaker": self.breaker.as_dict(self.metrics),
            "probes": self.probes().snapshot(),
        }


__all__ = ["CircuitBreaker", "ExperimentService", "serve_counts"]
