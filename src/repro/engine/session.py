"""The parallel experiment engine: ``Session`` / ``RunHandle``.

A :class:`Session` is the one front door for running simulations
(``docs/engine.md``).  It takes declarative
:class:`~repro.engine.request.RunRequest` objects (or already-built
:class:`~repro.apps.common.AppBundle` instances), executes them

* in-process for ``jobs=1``, traced runs and non-catalog bundles,
* across a ``ProcessPoolExecutor`` for ``jobs>1`` batches of
  declarative requests (workers rebuild bundles from the catalog, so
  nothing unpicklable ever crosses the process boundary),

and backs completed outcomes with the content-addressed
:class:`~repro.engine.cache.ResultCache`, so a request that has run
before -- in any process, on any earlier day -- is a near-instant
cache hit.  Results are byte-identical regardless of ``jobs`` and of
cache temperature: the engine only ever reorders *scheduling*, never
simulated behaviour.

Failure handling reuses PR 2's machinery: a livelocked or deadlocked
run raises ``SimulationError`` inside the worker with the progress
watchdog's :class:`~repro.core.watchdog.DiagnosticBundle`; the engine
captures it as a typed, cacheable :class:`RunOutcome` rather than
tearing down the batch.  A wall-clock ``timeout`` bounds each
parallel run as a backstop, and ``retries`` re-dispatches runs lost
to worker crashes.
"""

from __future__ import annotations

import concurrent.futures
import copy
import dataclasses
import time
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.core import SimulationError
from repro.core.config import BoardConfig, MachineConfig
from repro.engine import catalog
from repro.engine.cache import PackedResult, ResultCache
from repro.engine.request import RunRequest, code_salt
from repro.host.processor import HostError
from repro.obs.manifest import timestamp

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.common import AppBundle
    from repro.core.processor import RunResult
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer

#: Cache statuses a delivered result can carry in its manifest.
CACHE_STATUSES = ("hit", "miss", "uncached")

#: Deterministic simulation failures that are themselves cacheable
#: results; infrastructure failures (timeouts, crashes) never are.
_CACHEABLE_ERRORS = ("SimulationError", "InvariantViolation", "HostError")


@dataclass(frozen=True)
class SessionConfig:
    """Engine knobs, consolidated (``docs/api.md``).

    Pass one of these as ``Session(config=...)``; it is the only way
    to set these knobs.

    Parameters
    ----------
    backend:
        ``"auto"`` runs the compiled vector backend
        (:mod:`repro.core.vector`) unless the run has a tracer or a
        fault plan, which run on the event backend; ``"event"`` runs
        everything on the event backend, the per-event reference
        model.  Bit-identical by contract (``repro gate``).
    jobs:
        Worker processes for declarative batches (1 = in-process).
    cache / cache_dir:
        Enable the content-addressed result cache, optionally rooted
        somewhere other than ``~/.cache/repro``.
    timeout:
        Wall-clock seconds per parallel run; a run past it is
        reported as a failed ``RunTimeout`` outcome.
    retries:
        Re-dispatch attempts for runs lost to worker crashes.
    preflight:
        Statically verify artifacts (``repro.analysis``) before
        simulating them (applies to ``strict=True`` requests).
    history:
        Append-only ``repro.perf-history/1`` JSONL store path;
        ``None`` disables recording.
    """

    backend: str = "auto"
    jobs: int = 1
    cache: bool = True
    cache_dir: Any = None
    timeout: float | None = None
    retries: int = 1
    preflight: bool = False
    history: Any = None

    def __post_init__(self) -> None:
        if self.backend not in ("auto", "event"):
            raise ValueError(
                f"backend must be 'auto' or 'event', "
                f"got {self.backend!r}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.retries < 0:
            raise ValueError(
                f"retries must be >= 0, got {self.retries}")


class EngineError(RuntimeError):
    """Engine-level failure (bad request, worker loss, timeout)."""


class RunFailure(EngineError):
    """Raised by :meth:`RunHandle.result` for a failed outcome."""

    def __init__(self, outcome: "RunOutcome") -> None:
        super().__init__(
            f"{outcome.error_type}: {outcome.error_message}")
        self.outcome = outcome


@dataclass
class RunOutcome:
    """What one run produced: a result, or a typed failure."""

    status: str                                # "completed" | "failed"
    result: "RunResult | None" = None
    error_type: str | None = None
    error_message: str | None = None
    #: Watchdog diagnostics (``DiagnosticBundle.as_dict()``) when the
    #: failure carried them.
    diagnostics: dict | None = None
    #: Original exception object for in-process failures; never
    #: pickled or cached, so cross-process failures re-raise as
    #: :class:`RunFailure` instead.
    exception: BaseException | None = field(
        default=None, repr=False, compare=False)
    #: The result pickled once where it ran (a held playback run, or
    #: any run a pool worker returns), until the session stores it; a
    #: served or pool-returned outcome carries only this until the
    #: session unpacks it.
    packed: PackedResult | None = field(
        default=None, repr=False, compare=False)

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    def unwrap(self) -> "RunResult":
        if self.completed:
            return self.result
        if self.exception is not None:
            raise self.exception
        raise RunFailure(self)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["exception"] = None      # exceptions don't cross processes
        return state

    @property
    def cacheable(self) -> bool:
        return (self.completed
                or self.error_type in _CACHEABLE_ERRORS)


def engine_counts(metrics: "MetricsRegistry") -> dict:
    """Engine counters, read from the ``engine_*`` metric families.

    The registry is the only source: ``hits``/``misses``/``uncached``
    are the ``engine_cache_requests_total{result}`` series and
    ``runs`` is their sum.  Over a registry shared by several
    sessions (the experiment service's) this is their aggregate.
    """
    from repro.obs.metrics import counter_count

    def count(name: str, **labels: str) -> int:
        return counter_count(metrics, name, **labels)

    hits = count("engine_cache_requests_total", result="hit")
    misses = count("engine_cache_requests_total", result="miss")
    uncached = count("engine_cache_requests_total", result="uncached")
    keyed = hits + misses
    return {"runs": hits + misses + uncached, "hits": hits,
            "misses": misses, "uncached": uncached,
            "executed": count("engine_runs_executed_total"),
            "failed": count("engine_runs_failed_total"),
            "timeouts": count("engine_worker_timeouts_total"),
            "retried": count("engine_worker_retries_total"),
            "hit_rate": hits / keyed if keyed else 0.0}


# ----------------------------------------------------------------------
# Execution primitives (module-level: picklable for worker processes).
# ----------------------------------------------------------------------
def backend_for(mode: str, tracer: "Tracer | None" = None,
                faults: Any = None) -> str:
    """The one backend rule: under ``mode="auto"`` the vector backend
    runs unless the run has a tracer or a fault plan; everything else
    runs on the event backend.  ``mode`` is
    :attr:`SessionConfig.backend`; programs run outside a session (the
    Table 1 and Figure 7-10 sweeps) take it as their ``backend``."""
    return ("vector" if mode == "auto" and tracer is None
            and faults is None else "event")


def processor(backend: str, **options: Any):
    """A fresh simulator of ``backend`` (``"event"`` or ``"vector"``)
    built with ``options`` (``machine``, ``board``, ``kernels``,
    ``tracer``, ``faults``, ``strict``): the engine's one processor
    construction site."""
    if backend == "vector":
        from repro.core.vector import VectorProcessor

        return VectorProcessor(**options)
    from repro.core.processor import ImagineProcessor

    return ImagineProcessor(**options)


def _simulate(bundle: "AppBundle", request: RunRequest, backend: str,
              tracer: "Tracer | None" = None) -> "RunResult":
    """Run ``bundle`` under ``request``'s configuration on ``backend``
    (``"event"`` or ``"vector"``); raises on simulation failure."""
    return processor(
        backend,
        machine=request.effective_machine(),
        board=request.effective_board(),
        kernels=bundle.kernels,
        tracer=tracer,
        faults=request.fault_plan(),
        strict=request.strict).run(bundle.image)


def _capture(bundle: "AppBundle", request: RunRequest, backend: str,
             tracer: "Tracer | None" = None,
             preflight: bool = False) -> RunOutcome:
    """Run and fold simulation failures into a typed outcome."""
    if preflight and request.strict:
        # Opt-in strict-mode gate: statically verify the artifact
        # before spending any simulated cycles on it.  A failed
        # pre-flight is a typed, *uncacheable* outcome ("AnalysisError"
        # is not in _CACHEABLE_ERRORS), so tightening a rule later is
        # never masked by a stale cached verdict.
        from repro.analysis.findings import AnalysisError
        from repro.analysis.lint import preflight_image

        try:
            preflight_image(bundle.image, request.effective_machine())
        except AnalysisError as error:
            return RunOutcome(
                status="failed",
                error_type="AnalysisError",
                error_message=str(error),
                exception=error)
    try:
        result = _simulate(bundle, request, backend, tracer=tracer)
    except (SimulationError, HostError) as error:
        diagnostics = getattr(error, "diagnostics", None)
        return RunOutcome(
            status="failed",
            error_type=type(error).__name__,
            error_message=str(error),
            diagnostics=(diagnostics.as_dict()
                         if diagnostics is not None else None),
            exception=error)
    return RunOutcome(status="completed", result=result)


def _derive(outcome: RunOutcome) -> RunOutcome:
    """Derive a completed run's profile and critical-path walk where
    it ran, so its cache entry stores them
    (:func:`repro.obs.profile.derive`).  A graph the walk rejects
    leaves the run underived: it is stored and returned all the same,
    and its readers derive, and raise, when asked."""
    if outcome.completed:
        from repro.obs.critpath import CritpathError
        from repro.obs.profile import derive

        try:
            derive(outcome.result)
        except CritpathError:
            pass
    return outcome


def _bundle(request: RunRequest,
            prebuilt: "AppBundle | None") -> "AppBundle":
    """What an in-process run of ``request`` executes: ``prebuilt``
    when it was compiled for the request's machine, else the catalog's
    build, which is what a pool worker runs, so a digest's result does
    not depend on the job count."""
    if prebuilt is not None and \
            prebuilt.machine == request.effective_machine():
        return prebuilt
    return catalog.bundle_for(request)


def _execute_request(request: RunRequest, backend: str,
                     preflight: bool = False, derive: bool = False,
                     prebuilt: "AppBundle | None" = None
                     ) -> tuple[RunOutcome, bool]:
    """Run ``request`` in process and derive the reports when the
    outcome feeds the cache.  Returns the outcome and whether it was
    served from a held result instead of simulated.

    A derived vector run of a playback image is packed once, for the
    memo and the store, and held; a later request of its shape at
    another data seed is served the packed result, restamped, with no
    live result yet ("Simulate once per image" in
    ``docs/engine.md``).  A run that preflights neither reads nor
    holds one.
    """
    start = time.perf_counter()
    key = (catalog.result_key(request)
           if derive and backend == "vector"
           and not (preflight and request.strict) else None)
    held = catalog.held_result(key)
    if held is not None:
        manifest = dataclasses.replace(
            held.manifest, wall_time_s=time.perf_counter() - start,
            created_at=timestamp())
        return RunOutcome(status="completed", packed=dataclasses.replace(
            held, manifest=manifest)), True
    bundle = _bundle(request, prebuilt)
    outcome = _capture(bundle, request, backend, preflight=preflight)
    if derive:
        outcome = _derive(outcome)
    if (key is not None and bundle.image.playback and outcome.completed
            and outcome.result.derived is not None):
        outcome.packed = PackedResult.of(outcome.result)
        catalog.hold_result(key, outcome.packed)
    return outcome, False


def _execute_in_worker(request: RunRequest, backend: str,
                       preflight: bool, derive: bool
                       ) -> tuple[RunOutcome, bool]:
    """The pool worker's entry point: :func:`_execute_request`, with a
    result that feeds the cache packed and sent without its live
    copy, so it crosses back as the body the cache stores and the
    main process unpickles it once."""
    outcome, reused = _execute_request(request, backend, preflight,
                                       derive)
    if derive and outcome.completed:
        if outcome.packed is None:
            outcome.packed = PackedResult.of(outcome.result)
        outcome.result = None
    return outcome, reused


def _stamp(outcome: RunOutcome, digest: str | None,
           status: str) -> RunOutcome:
    """Mark the outcome's manifest with its provenance (digest +
    hit/miss/uncached), making every downstream report self-describing."""
    result = outcome.result
    if result is not None and result.manifest is not None:
        result.manifest = dataclasses.replace(
            result.manifest, request_digest=digest, cache=status)
    return outcome


def _hit_copy(outcome: RunOutcome, digest: str | None) -> RunOutcome:
    """A shallow copy of a memoized outcome, restamped as a hit, so
    the original delivery's manifest is left untouched."""
    result = outcome.result
    if result is not None and result.manifest is not None:
        result = copy.copy(result)
        result.manifest = dataclasses.replace(
            result.manifest, request_digest=digest, cache="hit")
    return dataclasses.replace(outcome, result=result)


# ----------------------------------------------------------------------
# Handles.
# ----------------------------------------------------------------------
class RunHandle:
    """A submitted run: resolves to a :class:`RunOutcome`.

    ``result()`` unwraps to the :class:`RunResult` (raising the
    original simulation error in-process, or :class:`RunFailure` for
    worker-side failures); ``outcome()`` never raises for simulation
    failures -- a typed failure is a campaign datum.
    """

    def __init__(self, session: "Session", request: RunRequest,
                 digest: str | None) -> None:
        self._session = session
        self.request = request
        self.digest = digest
        self.cache_status: str | None = None
        self.tracer: "Tracer | None" = None
        self._outcome: RunOutcome | None = None
        self._future: concurrent.futures.Future | None = None
        #: Another handle for the same digest this one memoizes from.
        self._shared: "RunHandle | None" = None
        self._attempts = 0

    def done(self) -> bool:
        return self._outcome is not None or (
            self._shared is not None and self._shared.done()) or (
            self._future is not None and self._future.done())

    def outcome(self) -> RunOutcome:
        if self._outcome is None:
            if self._shared is not None:
                self._outcome = _hit_copy(self._shared.outcome(),
                                          self.digest)
                self._session._record_history(self, self._outcome)
            else:
                self._session._finalize(self)
        return self._outcome

    def result(self) -> "RunResult":
        return self.outcome().unwrap()


class Session:
    """The run API: submit requests, shard them, cache the results.

    Engine knobs live in one :class:`SessionConfig`
    (``Session(config=SessionConfig(jobs=4))``); the simulated-world
    parameters stay as keywords:

    Parameters
    ----------
    config:
        Engine knobs (backend/jobs/cache/timeout/...); defaults to
        ``SessionConfig()``.
    machine / board:
        Defaults applied to requests that leave theirs ``None``.
    salt:
        Cache-salt override (defaults to the source-tree code salt).
    metrics:
        Registry for the ``engine_*`` counters (a private one by
        default); every count the session reports is read from it.
    """

    def __init__(self, *, config: SessionConfig | None = None,
                 machine: MachineConfig | None = None,
                 board: BoardConfig | None = None,
                 salt: str | None = None,
                 metrics: "MetricsRegistry | None" = None) -> None:
        if config is None:
            config = SessionConfig()
        self.config = config
        self.jobs = config.jobs
        self.preflight = config.preflight
        self.machine = machine
        self.board = board
        self.timeout = config.timeout
        self.retries = config.retries
        self.history = config.history
        self._salt = salt if salt is not None else code_salt()
        self._init_metrics(metrics)
        self._cache = (ResultCache(config.cache_dir,
                                   on_evict=self._m_evictions.inc)
                       if config.cache else None)
        #: Digest -> handle, for coalescing a submission onto a run of
        #: the same digest: held strongly while the run executes, then
        #: only while a caller still holds the handle, so settled
        #: outcomes are not kept for the life of the session.
        self._running: dict[str, RunHandle] = {}
        self._settled: weakref.WeakValueDictionary[str, RunHandle] = (
            weakref.WeakValueDictionary())
        self._history_recorded: set[str] = set()
        self._executor: concurrent.futures.ProcessPoolExecutor | None = None
        self._closed = False

    def _init_metrics(self, metrics: "MetricsRegistry | None") -> None:
        """Register this session's live-metric families.

        A shared registry (the experiment service passes its own into
        every worker-thread session) aggregates naturally:
        registration is get-or-create, so N sessions increment the
        same counter children.  Units come from the
        ``COUNTER_UNITS`` vocabulary at registration time.
        """
        from repro.obs.metrics import MetricsRegistry

        self.metrics = (metrics if metrics is not None
                        else MetricsRegistry())
        m = self.metrics
        self._m_cache = m.counter(
            "engine_cache_requests_total",
            "cache lookups by result", labels=("result",))
        self._m_evictions = m.counter(
            "engine_cache_evictions_total",
            "cache entries evicted by the LRU pruner")
        self._m_dedup = m.counter(
            "engine_inflight_dedup_total",
            "submissions coalesced onto an in-flight run")
        self._m_timeouts = m.counter(
            "engine_worker_timeouts_total",
            "runs abandoned at the wall-clock timeout")
        self._m_retries = m.counter(
            "engine_worker_retries_total",
            "pool re-dispatches after a worker crash")
        self._m_backend = m.counter(
            "engine_backend_selected_total",
            "backend picked per submission", labels=("backend",))
        self._m_executed = m.counter(
            "engine_runs_executed_total",
            "simulations actually executed")
        self._m_reused = m.counter(
            "engine_runs_reused_total",
            "runs served from a held result instead of simulated")
        self._m_failed = m.counter(
            "engine_runs_failed_total",
            "typed simulation failures captured as outcomes")

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._running.clear()
        self._closed = True

    def _pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._closed:
            raise EngineError("session is closed")
        if self._executor is None:
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs)
        return self._executor

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------
    def _backend(self, request: RunRequest,
                 tracer: "Tracer | None") -> str:
        """The backend this submission runs on, counted."""
        backend = backend_for(self.config.backend, tracer,
                              request.faults)
        self._m_backend.labels(backend=backend).inc()
        return backend

    def submit(self, request: RunRequest,
               prebuilt: "AppBundle | None" = None,
               tracer: "Tracer | None" = None) -> RunHandle:
        """Schedule one declarative request; returns immediately when
        a pool is available, else executes in-process."""
        if self._closed:
            raise EngineError("session is closed")
        catalog.canonical_name(request.app)   # fail fast on bad names
        request = request.resolved(self.machine, self.board)
        backend = self._backend(request, tracer)

        if tracer is not None:
            # Traced runs stay in-process (tracers do not cross
            # process boundaries) and bypass the cache.
            return self._run_uncached(
                request, _bundle(request, prebuilt), tracer, backend)

        digest = request.digest(salt=self._salt)
        if self._cache is not None:
            shared = self._running.get(digest)
            if shared is None:
                shared = self._settled.get(digest)
            if shared is not None:
                self._m_cache.labels(result="hit").inc()
                self._m_dedup.inc()
                handle = RunHandle(self, request, digest)
                handle.cache_status = "hit"
                handle._shared = shared
                return handle
        handle = RunHandle(self, request, digest)

        if self._cache is not None:
            cached = self._cache.load(digest)
            if cached is not None:
                self._m_cache.labels(result="hit").inc()
                handle._outcome = _stamp(cached, digest, "hit")
                handle.cache_status = "hit"
                self._settled[digest] = handle
                self._record_history(handle, handle._outcome)
                return handle
            self._running[digest] = handle

        if self.jobs > 1:
            handle._future = self._pool().submit(
                _execute_in_worker, request, backend, self.preflight,
                self._cache is not None)
            handle._attempts = 1
        else:
            self._complete(handle, *_execute_request(
                request, backend, self.preflight, self._cache is not None,
                prebuilt))
        return handle

    def submit_bundle(self, bundle: "AppBundle", *,
                      board: BoardConfig | None = None,
                      machine: MachineConfig | None = None,
                      faults=None, seed: int | None = None,
                      strict: bool = False,
                      tracer: "Tracer | None" = None) -> RunHandle:
        """Schedule a run of an already-built bundle.

        Catalog-built bundles (see :func:`repro.engine.catalog.build_app`)
        are converted to declarative requests -- cacheable and
        pool-shardable.  Hand-built bundles run in-process, uncached,
        against the exact object given.
        """
        source = getattr(bundle, "source", None)
        if source is not None and tracer is None:
            name, sizes = source
            request = RunRequest.for_app(
                name, sizes=dict(sizes), machine=machine, board=board,
                faults=faults, seed=seed, strict=strict)
            return self.submit(request, prebuilt=bundle)

        # Hand-built bundle: the request only carries configuration
        # (its app field names the bundle, it is never rebuilt).
        request = RunRequest.for_app(
            bundle.name, machine=machine, board=board, faults=faults,
            seed=seed, strict=strict)
        request = request.resolved(self.machine, self.board)
        return self._run_uncached(request, bundle, tracer,
                                  self._backend(request, tracer))

    def _run_uncached(self, request: RunRequest, bundle: "AppBundle",
                      tracer: "Tracer | None",
                      backend: str) -> RunHandle:
        """Run ``bundle`` in-process, outside the cache (traced and
        hand-built runs)."""
        handle = RunHandle(self, request, digest=None)
        handle.tracer = tracer
        outcome = _capture(bundle, request, backend, tracer=tracer,
                           preflight=self.preflight)
        self._m_cache.labels(result="uncached").inc()
        self._m_executed.inc()
        if not outcome.completed:
            self._m_failed.inc()
        handle._outcome = _stamp(outcome, None, "uncached")
        handle.cache_status = "uncached"
        return handle

    # ------------------------------------------------------------------
    # Blocking conveniences.
    # ------------------------------------------------------------------
    def run(self, request: RunRequest,
            tracer: "Tracer | None" = None) -> "RunResult":
        """Submit one request and wait for its result."""
        return self.submit(request, tracer=tracer).result()

    def run_bundle(self, bundle: "AppBundle", *,
                   board: BoardConfig | None = None,
                   machine: MachineConfig | None = None,
                   faults=None, seed: int | None = None,
                   strict: bool = False,
                   tracer: "Tracer | None" = None) -> "RunResult":
        return self.submit_bundle(
            bundle, board=board, machine=machine, faults=faults,
            seed=seed, strict=strict, tracer=tracer).result()

    def run_batch(self, requests: Iterable[RunRequest]
                  ) -> "list[RunResult]":
        """Run a batch sharded across the pool; results in order."""
        handles = [self.submit(request) for request in requests]
        return [handle.result() for handle in handles]

    def outcomes(self, requests: Iterable[RunRequest]
                 ) -> list[RunOutcome]:
        """Like :meth:`run_batch` but failures stay data."""
        handles = [self.submit(request) for request in requests]
        return [handle.outcome() for handle in handles]

    # ------------------------------------------------------------------
    # Completion plumbing.
    # ------------------------------------------------------------------
    def _finalize(self, handle: RunHandle) -> None:
        """Collect a pool future (with timeout/retry) into the handle."""
        if handle._outcome is not None:
            return
        if handle._future is None:
            raise EngineError("handle has neither outcome nor future")
        reused = False
        while True:
            try:
                outcome, reused = handle._future.result(
                    timeout=self.timeout)
                break
            except concurrent.futures.TimeoutError:
                self._m_timeouts.inc()
                outcome = RunOutcome(
                    status="failed", error_type="RunTimeout",
                    error_message=(
                        f"{handle.request.app}: no result within "
                        f"{self.timeout}s wall-clock"))
                break
            except concurrent.futures.process.BrokenProcessPool:
                if handle._attempts > self.retries:
                    outcome = RunOutcome(
                        status="failed", error_type="WorkerCrashed",
                        error_message=(
                            f"{handle.request.app}: worker process "
                            f"died ({handle._attempts} attempt(s))"))
                    break
                # Recreate the pool and re-dispatch.
                self._m_retries.inc()
                handle._attempts += 1
                if self._executor is not None:
                    self._executor.shutdown(wait=False,
                                            cancel_futures=True)
                    self._executor = None
                handle._future = self._pool().submit(
                    _execute_in_worker, handle.request,
                    backend_for(self.config.backend,
                                faults=handle.request.faults),
                    self.preflight, self._cache is not None)
        self._complete(handle, outcome, reused)

    def _complete(self, handle: RunHandle, outcome: RunOutcome,
                  reused: bool) -> None:
        if outcome.result is None and outcome.packed is not None:
            outcome.result = outcome.packed.unpack()
        (self._m_reused if reused else self._m_executed).inc()
        if not outcome.completed:
            self._m_failed.inc()
        if handle.digest is not None and self._cache is not None:
            self._m_cache.labels(result="miss").inc()
            handle.cache_status = "miss"
            outcome = _stamp(outcome, handle.digest, "miss")
            if outcome.cacheable:
                self._cache.store(handle.digest, outcome)
        else:
            self._m_cache.labels(result="uncached").inc()
            handle.cache_status = "uncached"
            outcome = _stamp(outcome, handle.digest, "uncached")
        # The memo, if anything, keeps the bytes; a settled handle
        # keeps only the live result.
        outcome.packed = None
        handle._outcome = outcome
        if (handle.digest is not None
                and self._running.get(handle.digest) is handle):
            del self._running[handle.digest]
            # Non-cacheable failures (worker crashes, timeouts) must
            # not coalesce onto later submissions of the same digest.
            if outcome.cacheable:
                self._settled[handle.digest] = handle
        self._record_history(handle, outcome)

    def _record_history(self, handle: RunHandle,
                        outcome: RunOutcome) -> None:
        """Append one perf-history line for a delivered digest-keyed
        run (no-op without a history path, a digest, or a completed
        result; each digest is recorded at most once per store)."""
        if (self.history is None or handle.digest is None
                or not outcome.completed or outcome.result is None
                or handle.digest in self._history_recorded):
            return
        self._history_recorded.add(handle.digest)
        from repro.obs.history import append_history, history_entry

        append_history(self.history, [history_entry(
            outcome.result, engine=engine_counts(self.metrics))])

    # ------------------------------------------------------------------
    # Profiling.
    # ------------------------------------------------------------------
    def diff(self, request_a: RunRequest, request_b: RunRequest,
             threshold: float | None = None) -> dict:
        """Run (or fetch) two requests and diff their cycle profiles.

        Returns a ``repro.profile-diff/1`` document (see
        :func:`repro.obs.diff.diff_profiles`); both runs go through
        the normal submit path, so warm-cache diffs are near-instant.
        """
        from repro.obs.diff import DEFAULT_THRESHOLD, diff_profiles
        from repro.obs.profile import build_profile

        handle_a = self.submit(request_a)
        handle_b = self.submit(request_b)
        return diff_profiles(
            build_profile(handle_a.result()),
            build_profile(handle_b.result()),
            threshold=(DEFAULT_THRESHOLD if threshold is None
                       else threshold))

    def critpath(self, request: RunRequest) -> dict:
        """Run (or fetch) one request and extract its critical path.

        Returns a ``repro.critpath-report/1`` document (see
        :func:`repro.obs.critpath.build_critpath`): the binding
        dependency chain through the recorded event DAG, every
        critical cycle attributed to a profile-vocabulary leaf, plus
        per-resource slack and the conservation cross-checks.
        """
        from repro.obs.critpath import build_critpath

        return build_critpath(self.run(request))

    def whatif(self, request: RunRequest, scales: dict[str, float],
               validate: bool = False) -> dict:
        """Project the speedup of scaling resources, optionally
        validating against a real rerun.

        ``scales`` maps resource names (see
        :data:`repro.obs.critpath.KNOWN_SCALES`) to factors, e.g.
        ``{"dram": 2.0}``.  The recorded event DAG is replayed with
        scaled edge weights to *predict* the new cycle count; with
        ``validate=True`` the simulator is rerun with the
        corresponding machine/board change
        (:func:`repro.obs.critpath.whatif_configs`) and the report
        gains ``actual_cycles`` / ``prediction_error``.  Returns a
        ``repro.whatif-report/1`` document.
        """
        from repro.obs.critpath import build_whatif, whatif_configs

        request = request.resolved(self.machine, self.board)
        baseline = self.run(request)
        rerun = None
        if validate:
            machine, board = whatif_configs(
                request.effective_machine(),
                request.effective_board(), scales)
            rerun = self.run(dataclasses.replace(
                request, machine=machine, board=board))
        return build_whatif(baseline, scales, validated=rerun)

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """The one-line ``[engine]`` summary the CLI prints to stderr."""
        stats = engine_counts(self.metrics)
        return (f"[engine] jobs={self.jobs} runs={stats['runs']} "
                f"hits={stats['hits']} misses={stats['misses']} "
                f"uncached={stats['uncached']} "
                f"hit_rate={stats['hit_rate'] * 100:.1f}%")


# ----------------------------------------------------------------------
# Default session (one-off convenience runs without a context
# manager; previously backed the removed ``run_app`` shim).
# ----------------------------------------------------------------------
_default_session: Session | None = None


def get_default_session() -> Session:
    """In-process, uncached session for one-off convenience runs."""
    global _default_session
    if _default_session is None:
        _default_session = Session(config=SessionConfig(cache=False))
    return _default_session


__all__ = [
    "CACHE_STATUSES",
    "EngineError",
    "RunFailure",
    "RunHandle",
    "RunOutcome",
    "Session",
    "SessionConfig",
    "backend_for",
    "engine_counts",
    "get_default_session",
    "processor",
]
