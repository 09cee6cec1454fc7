"""``repro.serve``: the resilient async experiment service.

Wraps :class:`repro.engine.Session` in a long-running HTTP/JSON
service (stdlib asyncio, no third-party dependencies): submit a
canonical :class:`~repro.engine.request.RunRequest` payload, get a
job id, poll status, fetch the finished profile/critpath artifact.
Hardened end to end -- bounded admission queue with explicit
backpressure, per-request deadlines, exponential-backoff retry of
infrastructure failures, a circuit breaker that sheds cold-cache work
when the worker pool is unhealthy, a crash-safe append-only job
journal, duplicate-digest coalescing, and health/readiness endpoints
fed from the engine's probes.  See ``docs/serving.md``.

The chaos harness (:mod:`repro.serve.chaos` +
``repro serve --soak N --chaos PLAN``) injects worker kills, cache
corruption, slow and disconnecting clients and clock-skewed deadlines
mid-load-test, and asserts the service never loses an accepted job
and never serves a wrong-digest artifact.

The telemetry plane (:mod:`repro.obs.metrics` wired through the
service, engine sessions and the HTTP front end) exposes labeled
counters/gauges/histograms at ``GET /metrics`` (Prometheus text
exposition), stitches service-side job phases and in-worker simulator
spans into one cross-process Perfetto trace
(``GET /v1/jobs/{id}/trace``), and feeds the SLO verdict
(:mod:`repro.serve.slo`, ``repro slo``).  See
``docs/observability.md``.
"""

from repro.serve.artifacts import ARTIFACT_SCHEMA, ArtifactStore
from repro.serve.chaos import (
    BUILTIN_CHAOS_PLANS,
    ChaosMonkey,
    ChaosPlan,
    get_chaos_plan,
)
from repro.serve.journal import JOURNAL_SCHEMA, JobJournal
from repro.serve.models import (
    BadRequest,
    Job,
    QueueFull,
    ServiceConfig,
    ServiceUnavailable,
    request_from_payload,
)
from repro.serve.retry import RetryPolicy, is_retryable
from repro.serve.service import ExperimentService, serve_counts
from repro.serve.http import ServiceServer, http_request, route_template
from repro.serve.slo import (
    SLO_SCHEMA,
    SloError,
    build_slo_block,
    evaluate_slo,
    latency_block,
    render_slo,
    stable_projection,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactStore",
    "BUILTIN_CHAOS_PLANS",
    "BadRequest",
    "ChaosMonkey",
    "ChaosPlan",
    "ExperimentService",
    "JOURNAL_SCHEMA",
    "Job",
    "JobJournal",
    "QueueFull",
    "RetryPolicy",
    "SLO_SCHEMA",
    "ServiceConfig",
    "ServiceServer",
    "ServiceUnavailable",
    "SloError",
    "build_slo_block",
    "evaluate_slo",
    "get_chaos_plan",
    "http_request",
    "is_retryable",
    "latency_block",
    "render_slo",
    "request_from_payload",
    "route_template",
    "serve_counts",
    "stable_projection",
]
