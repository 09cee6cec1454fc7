"""Digest-keyed artifact envelopes (``repro.serve.artifact/1``).

A finished result is served as a self-checking JSON envelope, stored
as the ``.json`` half of the engine cache entry for the same digest
(:mod:`repro.engine.cache`)::

    <cache root>/objects/<d0d1>/<digest>.json

So there is one store: the engine cache counts, budgets and prunes
envelopes with the pickled outcomes beside them (every envelope write
holds the cache to its budget), and a verified load refreshes the
entry's recency.  Each envelope records the request
digest it answers and a sha256 checksum over its canonical body;
:meth:`ArtifactStore.load` verifies both before serving, so a
corrupted or truncated envelope -- including one mangled by the chaos
harness -- reads as a *miss*, never as a wrong-digest artifact, and is
discarded (the pickled half stays, so the rerun is a cache hit).
Loading is pure I/O over the standard library.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Callable

from repro.engine.cache import ResultCache, entry_path, touch

#: Version tag on every artifact envelope.
ARTIFACT_SCHEMA = "repro.serve.artifact/1"


def _canonical(body: Any) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _checksum(digest: str, body: Any) -> str:
    material = f"{digest}\n{_canonical(body)}".encode()
    return hashlib.sha256(material).hexdigest()


class ArtifactStore:
    """Verified JSON envelopes in the engine cache rooted at ``root``."""

    def __init__(self, root: str | pathlib.Path,
                 on_written: Callable[[pathlib.Path], None]
                 | None = None) -> None:
        self.root = pathlib.Path(root)
        self._cache = ResultCache(self.root)
        #: Post-write hook; the chaos harness uses it to corrupt or
        #: truncate freshly written entries.
        self.on_written = on_written

    def path(self, digest: str) -> pathlib.Path:
        return entry_path(self.root, digest, ".json")

    # ------------------------------------------------------------------
    def store(self, digest: str, body: Any) -> pathlib.Path | None:
        """Atomically persist ``body`` as the artifact for ``digest``;
        ``None`` when the envelope alone exceeds the cache budget and
        is not written."""
        envelope = {
            "schema": ARTIFACT_SCHEMA,
            "digest": digest,
            "checksum": _checksum(digest, body),
            "body": body,
        }
        path = self._cache.write(
            digest, ".json",
            (json.dumps(envelope, sort_keys=True, indent=2)
             + "\n").encode())
        if path is not None and self.on_written is not None:
            self.on_written(path)
        return path

    def load(self, digest: str) -> dict[str, Any] | None:
        """The verified envelope for ``digest``, or ``None``.

        A missing, unparseable, mis-addressed or checksum-mismatched
        envelope is a miss; a corrupt one is discarded so the next
        execution rewrites it.  A hit refreshes the entry's recency.
        """
        path = self.path(digest)
        try:
            with open(path, encoding="utf-8") as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.discard(digest)
            return None
        if (not isinstance(envelope, dict)
                or envelope.get("schema") != ARTIFACT_SCHEMA
                or envelope.get("digest") != digest
                or envelope.get("checksum")
                != _checksum(digest, envelope.get("body"))):
            self.discard(digest)
            return None
        touch(path)
        return envelope

    def has(self, digest: str) -> bool:
        """Cheap existence probe (no integrity verification)."""
        return self.path(digest).exists()

    def discard(self, digest: str) -> None:
        """Remove the envelope for ``digest`` (only the envelope: the
        pickled outcome beside it is the engine cache's to judge)."""
        try:
            self.path(digest).unlink()
        except OSError:
            pass


__all__ = ["ARTIFACT_SCHEMA", "ArtifactStore"]
