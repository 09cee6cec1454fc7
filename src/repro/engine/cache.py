"""Content-addressed on-disk result cache.

Layout (under ``~/.cache/repro`` by default, or ``REPRO_CACHE_DIR``,
or the ``SessionConfig(cache_dir=...)`` override)::

    <root>/objects/<d0d1>/<digest>.pkl    # header + pickled RunOutcome
    <root>/objects/<d0d1>/<digest>.json   # served artifact envelope

The two files are the two halves of one entry.  The engine writes the
``.pkl``; the experiment service writes the ``.json``, its
``repro.serve.artifact/1`` answer (:mod:`repro.serve.artifacts`), after
every completed job.  Either half may exist alone: a traced serve job
runs uncached and leaves only an envelope.

The digest is the :meth:`RunRequest.digest` content hash, so the
cache needs no eviction logic to stay *correct*: a changed request,
config, fault plan, seed or code salt simply addresses a different
object.  Eviction exists only to bound disk usage: set
``REPRO_CACHE_MAX_BYTES`` (or ``ResultCache(max_bytes=...)``) and
every write of either half evicts least-recently-*used* entries, both
halves at once, until the cache fits.  A half larger than the whole
budget is not written at all.  An entry's last use is the newer mtime
of its halves, and a verified load of either half refreshes it.
Writes are atomic (temp file + ``os.replace``), as is the
``index.json`` summary the eviction pass maintains.  A completed
run's result carries the profile and critical-path walk the engine
derived when it ran (:class:`repro.obs.profile.Derived`), so a hit
reads its reports without deriving them again.  A ``.pkl``'s
one-line header names the cache format and the sha256 of the pickled
outcome that follows it; the checksum is verified before anything is
unpickled, and unreadable, corrupt or other-format entries are
treated as misses and removed, both halves.  ``repro cache
--stats/--prune`` exposes the same machinery from the command line.
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


def entry_path(root: pathlib.Path | str, digest: str,
               suffix: str = ".pkl") -> pathlib.Path:
    """One half of the entry for ``digest`` under ``root``: ``.pkl``
    (the checksummed outcome) or ``.json`` (the served envelope)."""
    return pathlib.Path(root) / "objects" / digest[:2] / f"{digest}{suffix}"


def touch(path: pathlib.Path) -> None:
    """Refresh the LRU clock (an entry half's mtime) on a hit."""
    try:
        os.utime(path)
    except OSError:
        pass


def atomic_write(path: pathlib.Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file and ``os.replace``, so
    a concurrent reader sees the old bytes or the new, never a torn
    file; creates the parent directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
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
        return entry_path(self.root, digest)

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
        touch(path)
        return outcome

    def store(self, digest: str, outcome: "RunOutcome") -> None:
        """Persist ``outcome`` under ``digest`` (best-effort, atomic)."""
        payload = pickle.dumps(outcome)
        try:
            self.write(digest, ".pkl", _header(payload) + b"\n" + payload)
        except OSError:
            # A read-only or full cache dir must never fail the run.
            pass

    def write(self, digest: str, suffix: str,
              data: bytes) -> pathlib.Path | None:
        """Atomically write one half of the entry for ``digest``, then
        evict down to the budget.  A half larger than the whole budget
        is not written (it would only be evicted again): returns
        ``None`` then, else the path written."""
        if self.max_bytes is not None and len(data) > self.max_bytes:
            return None
        path = entry_path(self.root, digest, suffix)
        atomic_write(path, data)
        if self.max_bytes is not None:
            self.prune(self.max_bytes)
        return path

    # ------------------------------------------------------------------
    # Size accounting, LRU eviction and the on-disk index.
    # ------------------------------------------------------------------
    def entries(self) -> list[dict[str, Any]]:
        """Every entry, oldest-use first: digest, byte size (both
        halves) and last use (the newer mtime of the two)."""
        rows: dict[str, dict[str, Any]] = {}
        for path in (self.root / "objects").glob("*/*"):
            if path.suffix not in (".pkl", ".json"):
                continue                    # an in-flight temp file
            try:
                stat = path.stat()
            except OSError:
                continue
            row = rows.setdefault(path.stem, {
                "digest": path.stem, "bytes": 0, "last_used": 0.0})
            row["bytes"] += stat.st_size
            row["last_used"] = max(row["last_used"], stat.st_mtime)
        return sorted(rows.values(),
                      key=lambda row: (row["last_used"], row["digest"]))

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
            atomic_write(
                self.index_path,
                (json.dumps(index, sort_keys=True, indent=2)
                 + "\n").encode())
        except OSError:
            pass

    def _discard(self, digest: str) -> None:
        for suffix in (".pkl", ".json"):
            try:
                entry_path(self.root, digest, suffix).unlink()
            except OSError:
                pass


__all__ = ["CACHE_FORMAT", "MAX_BYTES_ENV", "ResultCache",
           "atomic_write", "configured_max_bytes", "default_cache_dir",
           "entry_path", "touch"]
