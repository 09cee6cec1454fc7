"""Service data model: configuration, job records, typed refusals.

The wire format is the engine's own declarative vocabulary: a job
submission is a JSON body that parses into a
:class:`~repro.engine.request.RunRequest` (app + sizes, optional
machine/board overrides, optional fault plan, seed, strict), plus the
one service-level field ``deadline_s``.  Parsing is strict -- an
unknown field or a bad value is a :class:`BadRequest`, never a
silently-defaulted job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.serve.retry import RetryPolicy

#: Job lifecycle states.  ``queued -> running -> completed | failed``;
#: coalesced followers sit in ``queued`` until their primary resolves.
JOB_STATES = ("queued", "running", "completed", "failed")

#: States a job never leaves.
TERMINAL_STATES = ("completed", "failed")

#: Fields a submission body may carry.
_PAYLOAD_FIELDS = frozenset({
    "app", "sizes", "machine", "board", "faults", "seed", "strict",
    "deadline_s",
})


class ServeError(RuntimeError):
    """Base class for service-level failures."""


class BadRequest(ServeError):
    """Malformed submission payload (HTTP 400)."""


class QueueFull(ServeError):
    """Admission queue at capacity (HTTP 429 + Retry-After)."""

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ServiceUnavailable(ServeError):
    """Circuit breaker shedding cold work (HTTP 503 + Retry-After)."""

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


@dataclass
class ServiceConfig:
    """Tunables for one :class:`~repro.serve.service.ExperimentService`.

    ``data_dir`` roots the crash-safe journal; ``cache_dir`` roots the
    engine's content-addressed result cache, whose entries also hold
    the served artifacts (defaults to ``<data_dir>/engine-cache`` so a
    service instance is self-contained).
    """

    data_dir: str | None = None
    cache_dir: str | None = None
    workers: int = 2
    #: Admission bound: queued + running jobs beyond this are refused
    #: with 429 + Retry-After.
    queue_limit: int = 64
    #: Deadline applied to submissions that do not carry their own.
    default_deadline_s: float = 60.0
    #: Hard ceiling on client-requested deadlines.
    max_deadline_s: float = 600.0
    #: Engine-level wall-clock timeout per run (layered *under* the
    #: service deadline; applies to pooled engine execution).
    engine_timeout_s: float | None = 120.0
    #: Worker processes inside each engine session (1 = in worker
    #: thread; the service's own thread pool provides concurrency).
    engine_jobs: int = 1
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Consecutive infrastructure failures before the breaker opens.
    breaker_threshold: int = 3
    #: Seconds the breaker stays open before probing with one job.
    breaker_cooldown_s: float = 5.0
    #: Per-read socket timeout: a slow or wedged client cannot hold a
    #: connection handler forever.
    io_timeout_s: float = 10.0
    #: Optional perf-history JSONL store for load-test percentiles.
    history: str | None = None
    #: fsync every journal append (disable only in tests that measure
    #: throughput, never in production).
    journal_fsync: bool = True
    #: Trace the first N *executions* end to end: the job carries a
    #: :class:`~repro.obs.stitch.TraceContext` into the worker, the
    #: simulator runs traced (in-process, uncached), and
    #: ``GET /v1/jobs/{id}/trace`` serves the stitched Perfetto
    #: document.  0 disables tracing (the default: traced runs bypass
    #: the cache, so this is a sampling tool, not an always-on path).
    trace_jobs: int = 0
    #: Declared SLO: minimum fraction of accepted jobs that must
    #: complete, and the cold-path p99 latency bound, both evaluated
    #: by ``repro slo`` over the soak report's SLO block.
    slo_availability: float = 0.99
    slo_p99_ms: float = 60000.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {self.queue_limit}")


@dataclass
class Job:
    """One accepted submission and its lifecycle."""

    id: str
    digest: str
    payload: dict
    state: str = "queued"
    accepted_at: float = 0.0
    deadline_s: float = 60.0
    attempts: int = 0
    error_type: str | None = None
    error_message: str | None = None
    diagnostics: dict | None = None
    #: Primary job id this one coalesced into (duplicate digest).
    coalesced_into: str | None = None
    #: How the result was produced: ``execution`` | ``artifact`` |
    #: ``coalesced`` | ``recovered``.
    served_from: str | None = None
    #: Admission wall time (seconds spent in ``submit()``) and the
    #: execution start/finish clocks -- the service-side phase
    #: boundaries the cross-process trace stitcher renders.
    admit_s: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def deadline_remaining(self, now: float) -> float:
        return (self.accepted_at + self.deadline_s) - now

    def as_dict(self) -> dict:
        entry: dict[str, Any] = {
            "id": self.id,
            "digest": self.digest,
            "state": self.state,
            "attempts": self.attempts,
            "deadline_s": self.deadline_s,
        }
        if self.error_type is not None:
            entry["error_type"] = self.error_type
            entry["error_message"] = self.error_message
        if self.coalesced_into is not None:
            entry["coalesced_into"] = self.coalesced_into
        if self.served_from is not None:
            entry["served_from"] = self.served_from
        return entry


# ----------------------------------------------------------------------
# Payload parsing.
# ----------------------------------------------------------------------
def _machine_from_dict(document: Mapping[str, Any]):
    from repro.core.config import DramConfig, MachineConfig
    from repro.kernelc.scheduling import ClusterResources

    fields = dict(document)
    if isinstance(fields.get("cluster"), Mapping):
        fields["cluster"] = ClusterResources(**fields["cluster"])
    if isinstance(fields.get("dram"), Mapping):
        fields["dram"] = DramConfig(**fields["dram"])
    return MachineConfig(**fields)


def _board_from_value(value: Any):
    from repro.core.config import BoardConfig

    if isinstance(value, str):
        key = value.lower()
        if key == "hardware":
            return BoardConfig.hardware()
        if key == "isim":
            return BoardConfig.isim()
        raise BadRequest(
            f"unknown board {value!r}; use 'hardware', 'isim' or a "
            f"config object")
    if isinstance(value, Mapping):
        return BoardConfig(**value)
    raise BadRequest(f"board must be a string or object, "
                     f"got {type(value).__name__}")


def _faults_from_value(value: Any):
    from repro.faults import BUILTIN_PLANS, FaultPlanError
    from repro.faults.models import FaultPlan

    if isinstance(value, str):
        if value in BUILTIN_PLANS:
            return BUILTIN_PLANS[value]
        raise BadRequest(
            f"unknown fault plan {value!r}; builtin plans: "
            f"{', '.join(sorted(BUILTIN_PLANS))}")
    if isinstance(value, Mapping):
        try:
            return FaultPlan.from_dict(dict(value))
        except FaultPlanError as error:
            raise BadRequest(f"bad fault plan: {error}") from error
    raise BadRequest(f"faults must be a plan name or object, "
                     f"got {type(value).__name__}")


def request_from_payload(payload: Any,
                         config: ServiceConfig | None = None):
    """Parse a submission body into ``(RunRequest, deadline_s)``.

    Raises :class:`BadRequest` on anything malformed; never guesses.
    """
    from repro.engine.catalog import APP_NAMES
    from repro.engine.request import RunRequest

    if not isinstance(payload, Mapping):
        raise BadRequest(
            f"submission must be a JSON object, "
            f"got {type(payload).__name__}")
    unknown = set(payload) - _PAYLOAD_FIELDS
    if unknown:
        raise BadRequest(
            f"unknown field(s) {sorted(unknown)}; allowed: "
            f"{sorted(_PAYLOAD_FIELDS)}")
    app = payload.get("app")
    if not isinstance(app, str):
        raise BadRequest("missing or non-string 'app'")
    if app.lower() not in APP_NAMES:
        raise BadRequest(
            f"unknown application {app!r}; choose from "
            f"{sorted(APP_NAMES)}")
    sizes = payload.get("sizes") or {}
    if not isinstance(sizes, Mapping):
        raise BadRequest("'sizes' must be an object")
    machine = None
    if payload.get("machine") is not None:
        if not isinstance(payload["machine"], Mapping):
            raise BadRequest("'machine' must be a config object")
        try:
            machine = _machine_from_dict(payload["machine"])
        except (TypeError, ValueError) as error:
            raise BadRequest(f"bad machine config: {error}") from error
    board = None
    if payload.get("board") is not None:
        try:
            board = _board_from_value(payload["board"])
        except (TypeError, ValueError) as error:
            raise BadRequest(f"bad board config: {error}") from error
    faults = None
    if payload.get("faults") is not None:
        faults = _faults_from_value(payload["faults"])
    seed = payload.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise BadRequest("'seed' must be an integer")
    strict = payload.get("strict", False)
    if not isinstance(strict, bool):
        raise BadRequest("'strict' must be a boolean")

    config = config if config is not None else ServiceConfig()
    deadline_s = payload.get("deadline_s")
    if deadline_s is None:
        deadline_s = config.default_deadline_s
    elif (not isinstance(deadline_s, (int, float))
            or isinstance(deadline_s, bool) or deadline_s <= 0):
        raise BadRequest("'deadline_s' must be a positive number")
    deadline_s = min(float(deadline_s), config.max_deadline_s)

    try:
        request = RunRequest.for_app(
            app, sizes=dict(sizes), machine=machine, board=board,
            faults=faults, seed=seed, strict=strict)
    except (TypeError, ValueError) as error:
        raise BadRequest(f"bad request: {error}") from error
    return request, deadline_s


def canonical_payload(payload: Mapping[str, Any]) -> dict:
    """The submission body, normalized for the journal (JSON-safe,
    stable ordering is applied at serialization time)."""
    return {key: payload[key] for key in sorted(payload)
            if key in _PAYLOAD_FIELDS}


__all__ = [
    "BadRequest",
    "JOB_STATES",
    "Job",
    "QueueFull",
    "ServeError",
    "ServiceConfig",
    "ServiceUnavailable",
    "TERMINAL_STATES",
    "canonical_payload",
    "request_from_payload",
]
