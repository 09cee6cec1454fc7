"""Shared fixtures and caches for the table/figure benchmarks.

Application bundles and simulation results are cached per session so
the many benchmarks that slice the same four application runs (Tables
3-6, Figures 11-13) only pay for each simulation once.  All runs flow
through one :mod:`repro.engine` session, so repeat benchmark
invocations are also served from the content-addressed on-disk cache;
set ``REPRO_JOBS=N`` to shard cold runs across worker processes and
``REPRO_NO_CACHE=1`` to force fresh simulations.

Each benchmark writes its regenerated table to
``benchmarks/results/<name>.txt`` (and the pytest-benchmark timing
covers the regeneration itself).
"""

from __future__ import annotations

import atexit
import functools
import os
import pathlib

from repro.core import BoardConfig, MachineConfig
from repro.engine import Session, SessionConfig, build_app
from repro.engine.catalog import APP_NAMES as _CATALOG_NAMES

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

MACHINE = MachineConfig()
HARDWARE = BoardConfig.hardware()
ISIM = BoardConfig.isim()

APP_NAMES = tuple(name.upper() for name in _CATALOG_NAMES)


#: The append-only perf-history store every benchmark run feeds
#: (``repro.perf-history/1``; disable with REPRO_NO_HISTORY=1).
HISTORY_PATH = RESULTS_DIR / "history.jsonl"


@functools.lru_cache(maxsize=None)
def get_session() -> Session:
    """The one engine session every benchmark shares."""
    session = Session(config=SessionConfig(
        jobs=int(os.environ.get("REPRO_JOBS", "1")),
        cache=not os.environ.get("REPRO_NO_CACHE"),
        history=(None if os.environ.get("REPRO_NO_HISTORY")
                 else HISTORY_PATH)))
    atexit.register(session.close)
    return session


@functools.lru_cache(maxsize=None)
def get_bundle(name: str):
    """Build an application at its default (paper-scaled) size."""
    return build_app(name.lower())


@functools.lru_cache(maxsize=None)
def get_result(name: str, mode: str = "hardware"):
    """Simulate an application on the chosen platform model."""
    board = HARDWARE if mode == "hardware" else ISIM
    return get_session().run_bundle(get_bundle(name), board=board,
                                    machine=MACHINE)


@functools.lru_cache(maxsize=None)
def get_profile(name: str, mode: str = "hardware") -> dict:
    """Cycle-accounting profile (``repro.profile-report/1``) of one
    cached application run; the single source the figure benchmarks
    render their breakdowns from."""
    from repro.obs.profile import build_profile

    return build_profile(get_result(name, mode))


def save_report(name: str, text: str) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
    return path
