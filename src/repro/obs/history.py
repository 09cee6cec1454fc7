"""Append-only perf-history store (``repro.perf-history/1``).

One JSONL line per *distinct* engine run -- keyed by the request's
content digest -- capturing the profile summary, throughput, host
simulate wall-clock (``null`` on cache hits, which simulated nothing)
and the session's cache counters at record time.  The store
is the repo's performance trajectory: ``repro perf`` appends to it on
every benchmark sweep and compares fresh numbers against a baseline
``BENCH_profile.json``, and ``benchmarks/`` records every simulation
it pays for.

Dedup is by ``request_digest``: appending an entry whose digest is
already present is a no-op, so re-running a warm-cache sweep leaves
the file byte-identical (asserted in CI).  Runs without a digest
(traced or hand-built bundles) are not recordable -- they have no
stable identity to key on.

Appends go through :func:`append_entries`, which holds an exclusive
``flock`` on the file for the whole dedup-scan-plus-write, so
concurrent writers (parallel benchmark jobs, the serve load harness)
cannot interleave partial lines or double-append the same digest.
The store is shared: serve-load lines (``repro.serve-load/1``) live
in the same file and :func:`read_history` skips them, exactly as it
skips any alien line.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.obs.profile import build_profile

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.processor import RunResult

#: Version tag for history entries.
HISTORY_SCHEMA = "repro.perf-history/1"

#: Where the benchmark suite keeps its trajectory.
DEFAULT_HISTORY_PATH = "benchmarks/results/history.jsonl"


def history_entry(result: "RunResult",
                  engine: dict[str, Any] | None = None
                  ) -> dict[str, Any] | None:
    """One history line for a finished engine run.

    Returns ``None`` for runs without a ``request_digest`` (nothing
    stable to key the append-only store on).
    """
    manifest = result.manifest
    digest = manifest.request_digest if manifest is not None else None
    if digest is None:
        return None
    profile = build_profile(result)
    clusters = profile["components"]["clusters"]
    critpath = profile.get("critpath") or {}
    return {
        "schema": HISTORY_SCHEMA,
        "digest": digest,
        "program": result.name,
        "board_mode": result.board.mode,
        "cycles": float(result.metrics.total_cycles),
        "gops": result.metrics.gops,
        "gflops": result.metrics.gflops,
        "watts": result.power.watts,
        "busy_fraction": profile["summary"]["busy_fraction"],
        "stall_fraction": profile["summary"]["stall_fraction"],
        "idle_fraction": profile["summary"]["idle_fraction"],
        "stall_cycles": dict(clusters["stall"]),
        "binding_resource": critpath.get("binding_resource"),
        "critpath_top": [entry["resource"] for entry
                         in critpath.get("top_resources", [])],
        "critpath_cycles": critpath.get("path_cycles"),
        # A hit's manifest carries the original run's simulate time;
        # replaying it would report work this delivery never did.
        "wall_time_s": (None if manifest.cache == "hit"
                        else manifest.wall_time_s),
        "cache": manifest.cache,
        "backend": getattr(manifest, "backend", "event"),
        "recorded_at": manifest.created_at,
        "engine": dict(engine) if engine is not None else None,
    }


def read_history(path: str | pathlib.Path) -> list[dict[str, Any]]:
    """All well-formed entries, in file order; corrupt or alien lines
    are skipped (an append-only log must tolerate torn writes)."""
    path = pathlib.Path(path)
    if not path.exists():
        return []
    entries = []
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if (isinstance(entry, dict)
                    and entry.get("schema") == HISTORY_SCHEMA
                    and isinstance(entry.get("digest"), str)):
                entries.append(entry)
    return entries


def append_entries(path: str | pathlib.Path,
                   entries: Iterable[dict[str, Any] | None],
                   dedup: Callable[[dict[str, Any]], str | None]
                   | None = None) -> int:
    """Append JSONL entries under an exclusive file lock.

    The lock is held across the dedup scan *and* the write, so two
    concurrent appenders serialize: each sees the other's completed
    lines, no line is ever torn, and (with ``dedup``) no key is
    written twice.  ``dedup`` maps an entry to its identity key (or
    ``None`` for skip-dedup); existing lines that fail to parse are
    ignored, exactly as :func:`read_history` ignores them.  Returns
    the number of entries written.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a+ so the file is created when absent; reads must rewind first.
    with path.open("a+", encoding="utf-8") as handle:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            seen: set[str] = set()
            if dedup is not None:
                handle.seek(0)
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        existing = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if isinstance(existing, dict):
                        key = dedup(existing)
                        if key is not None:
                            seen.add(key)
            handle.seek(0, os.SEEK_END)
            written = 0
            for entry in entries:
                if entry is None:
                    continue
                if dedup is not None:
                    key = dedup(entry)
                    if key is not None:
                        if key in seen:
                            continue
                        seen.add(key)
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
                written += 1
            handle.flush()
            os.fsync(handle.fileno())
        finally:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
    return written


def _perf_digest(entry: dict[str, Any]) -> str | None:
    """Dedup key for perf-history lines: the request digest, scoped
    to this schema so serve-load lines never collide."""
    if (entry.get("schema") == HISTORY_SCHEMA
            and isinstance(entry.get("digest"), str)):
        return entry["digest"]
    return None


def append_history(path: str | pathlib.Path,
                   entries: Iterable[dict[str, Any] | None]) -> int:
    """Append new perf entries, deduplicated by digest under the file
    lock; returns the number actually written.  ``None`` entries
    (digest-less runs) are skipped."""
    return append_entries(path, entries, dedup=_perf_digest)


__all__ = [
    "HISTORY_SCHEMA",
    "DEFAULT_HISTORY_PATH",
    "history_entry",
    "read_history",
    "append_entries",
    "append_history",
]
