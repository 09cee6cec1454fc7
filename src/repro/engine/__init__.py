"""The parallel experiment engine (``docs/engine.md``).

One front door for every simulation the repo runs:

* :mod:`repro.engine.catalog` -- the single app/workload registry
  (previously duplicated across the CLI, evaluation driver and
  benchmarks);
* :mod:`repro.engine.request` -- :class:`RunRequest`, the declarative,
  hashable description of one run, and its content-digest rules;
* :mod:`repro.engine.cache` -- the content-addressed on-disk result
  cache (``~/.cache/repro`` by default);
* :mod:`repro.engine.session` -- :class:`Session` /
  :class:`RunHandle`, process-parallel execution with deterministic
  results, per-run timeout/retry and cache hit/miss counters.

Quickstart::

    from repro.engine import RunRequest, Session, SessionConfig

    with Session(config=SessionConfig(jobs=4)) as session:
        results = session.run_batch(
            [RunRequest(app=name) for name in ("depth", "mpeg")])
"""

from repro.engine.cache import ResultCache, default_cache_dir
from repro.engine.catalog import APP_NAMES, CatalogError, build_app
from repro.engine.request import BACKENDS, RunRequest, code_salt
from repro.engine.session import (
    EngineError,
    RunFailure,
    RunHandle,
    RunOutcome,
    Session,
    SessionConfig,
    engine_counts,
    get_default_session,
)

__all__ = [
    "APP_NAMES",
    "BACKENDS",
    "CatalogError",
    "EngineError",
    "ResultCache",
    "RunFailure",
    "RunHandle",
    "RunOutcome",
    "RunRequest",
    "Session",
    "SessionConfig",
    "build_app",
    "code_salt",
    "default_cache_dir",
    "engine_counts",
    "get_default_session",
]
