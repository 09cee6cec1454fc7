"""Crash-safe append-only job journal (``repro.serve.journal/1``).

Every job state transition is one JSONL line, flushed and fsync'd
before the transition is acknowledged, so a crashed or killed service
can always reconstruct what it had promised: which jobs were
accepted, which were running, which reached a terminal state.  An
admission that settles at once (an artifact hit, a coalesced
follower) writes its two lines in one append, with one fsync.  On
restart :meth:`JobJournal.fold` replays the log; accepted-but-
unfinished jobs are re-enqueued (their payloads travel in the
``accepted`` line) or cleanly failed when their payload no longer
parses.

Appends take an exclusive ``flock`` so multiple service processes
sharing a journal cannot interleave partial lines; reads tolerate a
torn final line (the one write a crash can corrupt) by skipping
anything that does not parse.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
from typing import Any, Iterator

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

#: Version tag on every journal line.
JOURNAL_SCHEMA = "repro.serve.journal/1"

#: Events a job can log, in lifecycle order.  ``accepted`` carries the
#: payload; ``completed``/``failed`` are terminal; ``recovered`` marks
#: a restart re-enqueue.
JOURNAL_EVENTS = ("accepted", "started", "retrying", "completed",
                  "failed", "coalesced", "recovered")

#: Events after which a job needs no further attention.
TERMINAL_EVENTS = ("completed", "failed")


class JobJournal:
    """Append-only, fsync'd, flock-guarded job event log."""

    def __init__(self, path: str | pathlib.Path,
                 fsync: bool = True) -> None:
        self.path = pathlib.Path(path)
        self.fsync = fsync
        self._lock = threading.Lock()
        self._seq = 0

    # ------------------------------------------------------------------
    # Writing.
    # ------------------------------------------------------------------
    def append(self, event: str, job_id: str, *,
               then: tuple[str, dict[str, Any]] | None = None,
               **fields: Any) -> dict[str, Any]:
        """Durably record one job event; returns its entry.

        ``then`` is a second event of the same job, ``(event,
        fields)``, written after the first in the same write and
        fsync: the lines and their ``seq`` values are those of two
        calls.
        """
        events = [(event, fields)] + ([then] if then is not None else [])
        for kind, _ in events:
            if kind not in JOURNAL_EVENTS:
                raise ValueError(f"unknown journal event {kind!r}")
        with self._lock:
            entries = []
            for kind, values in events:
                self._seq += 1
                entries.append({"schema": JOURNAL_SCHEMA,
                                "seq": self._seq, "event": kind,
                                "job_id": job_id, **values})
            lines = "".join(json.dumps(entry, sort_keys=True) + "\n"
                            for entry in entries)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                try:
                    handle.write(lines)
                    handle.flush()
                    if self.fsync:
                        os.fsync(handle.fileno())
                finally:
                    if fcntl is not None:
                        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        return entries[0]

    # ------------------------------------------------------------------
    # Reading.
    # ------------------------------------------------------------------
    def replay(self) -> list[dict[str, Any]]:
        """All well-formed events in file order; torn or alien lines
        are skipped (crash tolerance is the point of the journal)."""
        if not self.path.exists():
            return []
        events = []
        with self.path.open(encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if (isinstance(entry, dict)
                        and entry.get("schema") == JOURNAL_SCHEMA
                        and entry.get("event") in JOURNAL_EVENTS
                        and isinstance(entry.get("job_id"), str)):
                    events.append(entry)
        return events

    def fold(self) -> dict[str, dict[str, Any]]:
        """Latest state per job id after replaying the journal.

        Each value carries ``state`` (the last event), plus the
        ``payload``/``digest``/``deadline_s`` from the ``accepted``
        line, the attempt count, and terminal error details if any.
        """
        jobs: dict[str, dict[str, Any]] = {}
        max_seq = 0
        for event in self.replay():
            max_seq = max(max_seq, int(event.get("seq", 0)))
            job = jobs.setdefault(event["job_id"], {
                "job_id": event["job_id"],
                "state": None,
                "payload": None,
                "digest": None,
                "deadline_s": None,
                "attempts": 0,
                "coalesced_into": None,
                "error_type": None,
                "error_message": None,
            })
            kind = event["event"]
            job["state"] = kind
            if kind == "accepted":
                job["payload"] = event.get("payload")
                job["digest"] = event.get("digest")
                job["deadline_s"] = event.get("deadline_s")
            elif kind == "started":
                job["attempts"] = int(event.get("attempt",
                                                job["attempts"] + 1))
            elif kind == "coalesced":
                job["coalesced_into"] = event.get("into")
            elif kind == "failed":
                job["error_type"] = event.get("error_type")
                job["error_message"] = event.get("error_message")
        with self._lock:
            self._seq = max(self._seq, max_seq)
        return jobs

    def in_flight(self) -> Iterator[dict[str, Any]]:
        """Jobs the journal promised but never resolved, in id order."""
        folded = self.fold()
        for job_id in sorted(folded):
            record = folded[job_id]
            if record["state"] not in TERMINAL_EVENTS:
                yield record


__all__ = [
    "JOURNAL_EVENTS",
    "JOURNAL_SCHEMA",
    "JobJournal",
    "TERMINAL_EVENTS",
]
