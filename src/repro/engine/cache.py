"""Content-addressed on-disk result cache.

Layout (under ``~/.cache/repro`` by default, or ``REPRO_CACHE_DIR``,
or the ``SessionConfig(cache_dir=...)`` override)::

    <root>/objects/<d0d1>/<digest>.pkl    # header + pickled RunOutcome
    <root>/objects/<d0d1>/<digest>.json   # human-readable manifest

The digest is the :meth:`RunRequest.digest` content hash, so the
cache needs no eviction logic to stay *correct*: a changed request,
config, fault plan, seed or code salt simply addresses a different
object.  Eviction exists only to bound disk usage: set
``REPRO_CACHE_MAX_BYTES`` (or ``ResultCache(max_bytes=...)``) and the
cache evicts least-recently-*used* entries -- loads refresh an
entry's mtime, which is the LRU clock -- until it fits.  Writes are
atomic (temp file + ``os.replace``), as is the ``index.json``
summary the eviction pass maintains.  A completed run's result
carries the profile and critical-path walk the engine derived when it
ran (:class:`repro.obs.profile.Derived`), so a hit reads its reports
without deriving them again.  An entry's one-line header
names the cache format and the sha256 of the pickled outcome that
follows it; the checksum is verified before anything is unpickled,
and unreadable, corrupt or other-format entries are treated as
misses and removed.  ``repro cache --stats/--prune``
exposes the same machinery from the command line.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle
import tempfile
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.request import RunRequest
    from repro.engine.session import RunOutcome

#: Version tag stored with every cache object; bump on layout changes
#: (2: the event graph is stored as columns; 3: so is the instruction
#: trace, and entries carry a checksum; 4: results carry their derived
#: profile and critical-path walk).
CACHE_FORMAT = 4

#: Environment override for the size budget (bytes; unset/0 = unbounded).
MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"


def configured_max_bytes() -> int | None:
    """The ``REPRO_CACHE_MAX_BYTES`` budget, or ``None`` when unset,
    zero or unparseable (an unbounded cache, the historical default)."""
    raw = os.environ.get(MAX_BYTES_ENV, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def _header(payload: bytes) -> bytes:
    """An entry's first line: format and sha256 of the pickled outcome
    that follows it."""
    return (f"repro-cache/{CACHE_FORMAT} sha256="
            f"{hashlib.sha256(payload).hexdigest()}").encode()


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` > ``$XDG_CACHE_HOME/repro`` > ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return pathlib.Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro"


class ResultCache:
    """Digest -> RunOutcome store with atomic writes and optional
    size-capped LRU eviction."""

    def __init__(self, root: pathlib.Path | str | None = None,
                 max_bytes: int | None = None,
                 on_evict: "Callable[[int], None] | None" = None) -> None:
        self.root = pathlib.Path(root) if root else default_cache_dir()
        self.max_bytes = (max_bytes if max_bytes is not None
                          else configured_max_bytes())
        if self.max_bytes is not None and self.max_bytes <= 0:
            self.max_bytes = None
        #: Called with the eviction count after each pruning pass that
        #: removed entries; lets the owning session count evictions
        #: without polling ``index.json``.
        self.on_evict = on_evict

    def _object_path(self, digest: str) -> pathlib.Path:
        return self.root / "objects" / digest[:2] / f"{digest}.pkl"

    @property
    def index_path(self) -> pathlib.Path:
        return self.root / "index.json"

    # ------------------------------------------------------------------
    def load(self, digest: str) -> "RunOutcome | None":
        """The stored outcome for ``digest``, or None on miss/corruption."""
        path = self._object_path(digest)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            data = b""
        header, _, payload = data.partition(b"\n")
        outcome = None
        if header == _header(payload):
            try:
                outcome = pickle.loads(payload)
            except Exception:
                # The checksum held, so the bytes are what this cache
                # wrote; an incompatible build wrote them.
                outcome = None
        if outcome is None:
            self._discard(digest)
            return None
        self._touch(path)
        return outcome

    @staticmethod
    def _touch(path: pathlib.Path) -> None:
        """Refresh the LRU clock (entry mtime) on a hit."""
        try:
            os.utime(path)
        except OSError:
            pass

    def store(self, digest: str, outcome: "RunOutcome",
              request: "RunRequest") -> None:
        """Persist ``outcome`` under ``digest`` (best-effort, atomic)."""
        path = self._object_path(digest)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = pickle.dumps(outcome)
            self._atomic_write(path, _header(payload) + b"\n" + payload)
            summary = {
                "digest": digest,
                "format": CACHE_FORMAT,
                "status": outcome.status,
                "cycles": (outcome.result.metrics.total_cycles
                           if outcome.result is not None else None),
                "error": outcome.error_type,
                "request": request.payload(),
            }
            self._atomic_write(
                path.with_suffix(".json"),
                (json.dumps(summary, sort_keys=True, indent=2)
                 + "\n").encode())
            if self.max_bytes is not None:
                self.prune(self.max_bytes)
        except OSError:
            # A read-only or full cache dir must never fail the run.
            pass

    # ------------------------------------------------------------------
    # Size accounting, LRU eviction and the on-disk index.
    # ------------------------------------------------------------------
    def entries(self) -> list[dict[str, Any]]:
        """Every cached object, oldest-use first: digest, byte size
        (pickle + manifest) and last-use timestamp."""
        base = self.root / "objects"
        if not base.exists():
            return []
        rows = []
        for path in base.glob("*/*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            size = stat.st_size
            try:
                size += path.with_suffix(".json").stat().st_size
            except OSError:
                pass
            rows.append({"digest": path.stem, "bytes": size,
                         "last_used": stat.st_mtime})
        rows.sort(key=lambda row: (row["last_used"], row["digest"]))
        return rows

    def stats(self) -> dict[str, Any]:
        """Occupancy summary (also persisted as ``index.json``)."""
        rows = self.entries()
        total = sum(row["bytes"] for row in rows)
        return {
            "root": str(self.root),
            "entries": len(rows),
            "bytes": total,
            "max_bytes": self.max_bytes,
            "over_budget": (self.max_bytes is not None
                            and total > self.max_bytes),
        }

    def prune(self, max_bytes: int | None = None) -> dict[str, Any]:
        """Evict least-recently-used entries until the cache fits in
        ``max_bytes`` (defaults to the configured budget; 0 empties
        the cache).  Returns ``{"evicted": n, "freed": bytes, ...}``
        and atomically rewrites ``index.json``."""
        budget = self.max_bytes if max_bytes is None else max_bytes
        rows = self.entries()
        total = sum(row["bytes"] for row in rows)
        evicted = 0
        freed = 0
        if budget is not None:
            for row in rows:
                if total <= budget:
                    break
                self._discard(row["digest"])
                total -= row["bytes"]
                freed += row["bytes"]
                evicted += 1
        self._write_index(entries=len(rows) - evicted, total=total)
        if evicted and self.on_evict is not None:
            self.on_evict(evicted)
        return {"evicted": evicted, "freed": freed,
                "entries": len(rows) - evicted, "bytes": total,
                "max_bytes": budget}

    def _write_index(self, entries: int, total: int) -> None:
        """Atomic ``index.json`` refresh (temp file + rename), so a
        concurrent reader never sees a torn summary."""
        index = {"format": CACHE_FORMAT, "entries": entries,
                 "bytes": total, "max_bytes": self.max_bytes}
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self._atomic_write(
                self.index_path,
                (json.dumps(index, sort_keys=True, indent=2)
                 + "\n").encode())
        except OSError:
            pass

    def _discard(self, digest: str) -> None:
        for path in (self._object_path(digest),
                     self._object_path(digest).with_suffix(".json")):
            try:
                path.unlink()
            except OSError:
                pass

    @staticmethod
    def _atomic_write(path: pathlib.Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent,
                                   prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


__all__ = ["CACHE_FORMAT", "MAX_BYTES_ENV", "ResultCache",
           "configured_max_bytes", "default_cache_dir"]
