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
import dataclasses
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.core import SimulationError
from repro.core.config import BoardConfig, MachineConfig
from repro.engine import catalog
from repro.engine.cache import ResultCache
from repro.engine.request import BACKENDS, RunRequest, code_salt
from repro.host.processor import HostError

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.common import AppBundle
    from repro.core.processor import RunResult
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.registry import ProbeRegistry
    from repro.obs.tracer import Tracer

#: Cache statuses a delivered result can carry in its manifest.
CACHE_STATUSES = ("hit", "miss", "uncached")

#: Deterministic simulation failures that are themselves cacheable
#: results; infrastructure failures (timeouts, crashes) never are.
#: ``BackendUnsupported`` is deliberately absent: a vector-backend
#: refusal is a property of the *selection*, not of the request, and
#: the digest is backend-agnostic -- caching the refusal would serve
#: a failure to an event-backend run of the same request.
_CACHEABLE_ERRORS = ("SimulationError", "InvariantViolation", "HostError")


@dataclass(frozen=True)
class SessionConfig:
    """Engine knobs, consolidated (``docs/api.md``).

    Pass one of these as ``Session(config=...)``; it is the only way
    to set these knobs.

    Parameters
    ----------
    backend:
        Simulation backend: ``"event"`` (the per-event reference
        model), ``"vector"`` (the compiled backend,
        :mod:`repro.core.vector`) or ``"auto"`` (vector for fault-free
        untraced runs, event otherwise).  Bit-identical by contract;
        requests may override per call.
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

    backend: str = "event"
    jobs: int = 1
    cache: bool = True
    cache_dir: Any = None
    timeout: float | None = None
    retries: int = 1
    preflight: bool = False
    history: Any = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, "
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
def _resolve_backend(backend: str, request: RunRequest,
                     traced: bool) -> str:
    """Collapse an ``auto`` selection to the backend that will run.

    ``auto`` picks the vector backend exactly when the run is eligible
    for it -- no fault plan and no tracer attached -- and falls back
    to the event reference model otherwise.  An *explicit*
    ``"vector"`` is never rewritten: an ineligible run then fails with
    a typed :class:`~repro.core.vector.BackendUnsupported` outcome.
    """
    if backend == "vector":
        return "vector"
    if (backend == "auto" and not traced and not request.trace
            and request.faults is None):
        return "vector"
    return "event"


def _simulate(bundle: "AppBundle", request: RunRequest,
              tracer: "Tracer | None" = None,
              backend: str = "event") -> "RunResult":
    """Run ``bundle`` under ``request``'s configuration; raises on
    simulation failure."""
    resolved = _resolve_backend(backend, request, tracer is not None)
    if resolved == "vector":
        from repro.core.vector import VectorProcessor

        processor_cls = VectorProcessor
    else:
        from repro.core.processor import ImagineProcessor

        processor_cls = ImagineProcessor
    processor = processor_cls(
        machine=request.effective_machine(),
        board=request.effective_board(),
        kernels=bundle.kernels,
        tracer=tracer,
        faults=request.fault_plan(),
        strict=request.strict)
    return processor.run(bundle.image)


def _capture(bundle: "AppBundle", request: RunRequest,
             tracer: "Tracer | None" = None,
             preflight: bool = False,
             backend: str = "event") -> RunOutcome:
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
        result = _simulate(bundle, request, tracer=tracer,
                           backend=backend)
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
    and its readers derive, and raise, when asked.  An outcome that
    crossed from a worker arrives derived already."""
    if outcome.completed and outcome.result.derived is None:
        from repro.obs.critpath import CritpathError
        from repro.obs.profile import derive

        try:
            derive(outcome.result)
        except CritpathError:
            pass
    return outcome


def _execute_request(request: RunRequest,
                     preflight: bool = False,
                     backend: str = "event",
                     derive: bool = False) -> RunOutcome:
    """Worker entry point: rebuild the bundle from the catalog, run,
    and derive the reports when the outcome feeds the cache."""
    bundle = catalog.build_app(request.app, **dict(request.sizes))
    outcome = _capture(bundle, request, preflight=preflight,
                       backend=backend)
    return _derive(outcome) if derive else outcome


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
        derived = result.derived
        result = dataclasses.replace(
            result,
            manifest=dataclasses.replace(
                result.manifest, request_digest=digest, cache="hit"))
        result.derived = derived
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
        #: Backend selection this run will execute under if it is not
        #: served from the cache ("auto" collapses at execution time).
        self.backend: str = "event"
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
    (``Session(config=SessionConfig(jobs=4, backend="auto"))``); the
    simulated-world parameters stay as keywords:

    Parameters
    ----------
    config:
        Engine knobs (backend/jobs/cache/timeout/...); defaults to
        ``SessionConfig()``.
    backend:
        Convenience override for ``config.backend`` -- the headline
        selector (``Session(backend="vector")``); ``"event"``,
        ``"vector"`` or ``"auto"``.
    machine / board:
        Defaults applied to requests that leave theirs ``None``.
    salt:
        Cache-salt override (defaults to the source-tree code salt).
    metrics:
        Registry for the ``engine_*`` counters (a private one by
        default); every count the session reports is read from it.
    """

    def __init__(self, *, config: SessionConfig | None = None,
                 backend: str | None = None,
                 machine: MachineConfig | None = None,
                 board: BoardConfig | None = None,
                 salt: str | None = None,
                 metrics: "MetricsRegistry | None" = None) -> None:
        if config is None:
            config = SessionConfig()
        if backend is not None:
            config = dataclasses.replace(config, backend=backend)
        self.config = config
        self.jobs = config.jobs
        self.backend = config.backend
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
            "backend resolution per submission", labels=("backend",))
        self._m_executed = m.counter(
            "engine_runs_executed_total",
            "simulations actually executed")
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
    def submit(self, request: RunRequest,
               prebuilt: "AppBundle | None" = None,
               tracer: "Tracer | None" = None,
               backend: str | None = None) -> RunHandle:
        """Schedule one declarative request; returns immediately when
        a pool is available, else executes in-process.

        Backend precedence: the ``backend`` argument, else
        ``request.backend``, else the session's configured backend.
        The choice never enters the request digest, so it cannot
        change which cache entry the run keys to.
        """
        if self._closed:
            raise EngineError("session is closed")
        catalog.canonical_name(request.app)   # fail fast on bad names
        request = request.resolved(self.machine, self.board)
        effective_backend = (backend if backend is not None
                             else request.backend
                             if request.backend is not None
                             else self.backend)
        self._m_backend.labels(backend=effective_backend).inc()

        if request.trace or tracer is not None:
            # Traced runs stay in-process (tracers do not cross
            # process boundaries) and bypass the cache.
            from repro.obs.tracer import Tracer

            bundle = prebuilt if prebuilt is not None else \
                catalog.build_app(request.app, **dict(request.sizes))
            return self._run_uncached(
                request, bundle,
                tracer if tracer is not None else Tracer(),
                effective_backend)

        digest = request.digest(salt=self._salt)
        if self._cache is not None:
            shared = self._running.get(digest)
            if shared is None:
                shared = self._settled.get(digest)
            if shared is not None:
                self._m_cache.labels(result="hit").inc()
                self._m_dedup.inc()
                handle = RunHandle(self, request, digest)
                handle.backend = effective_backend
                handle.cache_status = "hit"
                handle._shared = shared
                return handle
        handle = RunHandle(self, request, digest)
        handle.backend = effective_backend

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
                _execute_request, request, self.preflight,
                effective_backend, self._cache is not None)
            handle._attempts = 1
        else:
            bundle = prebuilt if prebuilt is not None else \
                catalog.build_app(request.app, **dict(request.sizes))
            self._complete(handle, _capture(
                bundle, request, preflight=self.preflight,
                backend=effective_backend))
        return handle

    def submit_bundle(self, bundle: "AppBundle", *,
                      board: BoardConfig | None = None,
                      machine: MachineConfig | None = None,
                      faults=None, seed: int | None = None,
                      strict: bool = False,
                      tracer: "Tracer | None" = None,
                      backend: str | None = None) -> RunHandle:
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
                faults=faults, seed=seed, strict=strict,
                backend=backend)
            return self.submit(request, prebuilt=bundle)

        # Hand-built bundle: the request only carries configuration
        # (its app field names the bundle, it is never rebuilt).
        request = RunRequest.for_app(
            bundle.name, machine=machine, board=board, faults=faults,
            seed=seed, strict=strict, backend=backend)
        request = request.resolved(self.machine, self.board)
        effective_backend = (backend if backend is not None
                             else self.backend)
        self._m_backend.labels(backend=effective_backend).inc()
        return self._run_uncached(request, bundle, tracer,
                                  effective_backend)

    def _run_uncached(self, request: RunRequest, bundle: "AppBundle",
                      tracer: "Tracer | None",
                      backend: str) -> RunHandle:
        """Run ``bundle`` in-process, outside the cache (traced and
        hand-built runs)."""
        handle = RunHandle(self, request, digest=None)
        handle.backend = backend
        handle.tracer = tracer
        outcome = _capture(bundle, request, tracer=tracer,
                           preflight=self.preflight, backend=backend)
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
            tracer: "Tracer | None" = None,
            backend: str | None = None) -> "RunResult":
        """Submit one request and wait for its result."""
        return self.submit(request, tracer=tracer,
                           backend=backend).result()

    def run_bundle(self, bundle: "AppBundle", *,
                   board: BoardConfig | None = None,
                   machine: MachineConfig | None = None,
                   faults=None, seed: int | None = None,
                   strict: bool = False,
                   tracer: "Tracer | None" = None,
                   backend: str | None = None) -> "RunResult":
        return self.submit_bundle(
            bundle, board=board, machine=machine, faults=faults,
            seed=seed, strict=strict, tracer=tracer,
            backend=backend).result()

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
        while True:
            try:
                outcome = handle._future.result(timeout=self.timeout)
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
                    _execute_request, handle.request, self.preflight,
                    handle.backend, self._cache is not None)
        self._complete(handle, outcome)

    def _complete(self, handle: RunHandle, outcome: RunOutcome) -> None:
        self._m_executed.inc()
        if not outcome.completed:
            self._m_failed.inc()
        if handle.digest is not None and self._cache is not None:
            self._m_cache.labels(result="miss").inc()
            handle.cache_status = "miss"
            outcome = _stamp(_derive(outcome), handle.digest, "miss")
            if outcome.cacheable:
                self._cache.store(handle.digest, outcome,
                                  handle.request)
        else:
            self._m_cache.labels(result="uncached").inc()
            handle.cache_status = "uncached"
            outcome = _stamp(outcome, handle.digest, "uncached")
        handle._outcome = outcome
        if (handle.digest is not None
                and self._running.get(handle.digest) is handle):
            del self._running[handle.digest]
            # Non-cacheable failures (worker crashes, backend
            # refusals) must not coalesce onto later submissions of
            # the same digest: a vector BackendUnsupported would
            # otherwise answer a subsequent event-backend submit.
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

    def probes(self) -> "ProbeRegistry":
        """Engine counters as a PR 1 probe registry."""
        from repro.obs.registry import ProbeRegistry

        registry = ProbeRegistry()
        stats = engine_counts(self.metrics)
        registry.add("engine.jobs", self.jobs, "processes",
                     "worker processes available to this session")
        registry.add("engine.runs", stats["runs"], "runs",
                     "runs delivered by this session")
        registry.add("engine.cache.hits", stats["hits"], "runs",
                     "runs served from the content-addressed cache")
        registry.add("engine.cache.misses", stats["misses"], "runs",
                     "cache-keyed runs that had to execute")
        registry.add("engine.cache.hit_rate", stats["hit_rate"],
                     "fraction", "hits / (hits + misses)")
        registry.add("engine.runs.uncached", stats["uncached"], "runs",
                     "runs executed outside the cache")
        registry.add("engine.runs.executed", stats["executed"], "runs",
                     "simulations actually executed")
        registry.add("engine.runs.failed", stats["failed"], "runs",
                     "typed simulation failures captured as outcomes")
        registry.add("engine.runs.timeouts", stats["timeouts"], "runs",
                     "runs abandoned at the wall-clock timeout")
        # Live metric families (engine_* counters, plus whatever else
        # shares this session's registry) ride along, so one probe
        # snapshot carries both vocabularies.
        from repro.obs.metrics import probes_from_metrics

        probes_from_metrics(self.metrics, add=registry.add)
        return registry


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
    "engine_counts",
    "get_default_session",
]
