"""Declarative run requests and their content digests.

A :class:`RunRequest` describes one simulation completely: which
catalog application to build (and at what sizes), the machine and
board configurations, an optional fault plan (stored as canonical
JSON), a seed, and the strict/trace execution flags.  Because the
description is declarative -- names and dataclasses, no live objects
-- a request can cross a process boundary, be rebuilt by a worker,
and be hashed into a stable content digest that keys the on-disk
result cache.

Digest rules (see ``docs/engine.md``):

* every field that can change the simulated outcome is hashed:
  app + sizes, the *resolved* machine and board configuration (a
  ``None`` config hashes identically to the explicit default), the
  fault-plan document, the seed and the strict flag;
* the ``trace`` flag is NOT hashed -- attaching a tracer must not
  change simulated behaviour (PR 1's observer-effect guarantee), and
  traced runs bypass the cache anyway;
* the ``backend`` selector is NOT hashed either -- backends are
  bit-identical by contract (``repro gate`` enforces it),
  so an event-warmed cache serves vector requests and vice versa;
  which backend actually executed a run is provenance and lives in
  the manifest, not the digest;
* a *code salt* is mixed in: a hash over the package's own source
  tree (override with ``REPRO_CACHE_SALT``), so editing the simulator
  invalidates every cached result instead of silently replaying stale
  ones.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.config import BoardConfig, MachineConfig
from repro.faults.models import FaultPlan

#: Bump when the digest payload layout itself changes.
DIGEST_VERSION = 1

#: Valid values for the ``backend`` selector (``None`` = inherit the
#: session's configured backend).
BACKENDS = ("auto", "event", "vector")

_code_salt_cache: str | None = None


def code_salt() -> str:
    """Hash of the package's own source files (the code-version salt).

    ``REPRO_CACHE_SALT`` overrides it (useful for tests and for
    pinning a salt across machines).
    """
    override = os.environ.get("REPRO_CACHE_SALT")
    if override:
        return override
    global _code_salt_cache
    if _code_salt_cache is None:
        import repro

        root = pathlib.Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _code_salt_cache = f"{repro.__version__}:{digest.hexdigest()[:16]}"
    return _code_salt_cache


def _canonical_faults(faults) -> str | None:
    """Normalize a plan (FaultPlan | dict | JSON text) to canonical JSON."""
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        document = faults.as_dict()
    elif isinstance(faults, str):
        document = FaultPlan.from_json(faults).as_dict()
    elif isinstance(faults, Mapping):
        document = FaultPlan.from_dict(dict(faults)).as_dict()
    else:
        raise TypeError(
            f"faults must be a FaultPlan, mapping or JSON text, got "
            f"{type(faults).__name__}")
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class RunRequest:
    """One simulation, described declaratively.

    ``app`` is a catalog name (``depth``/``mpeg``/``qrd``/``rtsl``);
    ``sizes`` are the app build overrides as a sorted tuple of pairs.
    ``machine``/``board`` default to :class:`MachineConfig()` /
    :class:`BoardConfig.hardware()` when left ``None``.
    """

    app: str
    sizes: tuple[tuple[str, Any], ...] = ()
    machine: MachineConfig | None = None
    board: BoardConfig | None = None
    #: Canonical JSON of the fault-plan document, or None.
    faults: str | None = None
    seed: int | None = None
    strict: bool = False
    trace: bool = False
    #: Simulation backend override: ``"event"``, ``"vector"``,
    #: ``"auto"`` or ``None`` (inherit the session's backend).
    #: Excluded from :meth:`payload` -- see the module docstring.
    backend: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "app", self.app.lower())
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS} or None, "
                f"got {self.backend!r}")
        if isinstance(self.sizes, Mapping):
            object.__setattr__(
                self, "sizes", tuple(sorted(self.sizes.items())))
        else:
            object.__setattr__(
                self, "sizes", tuple(sorted(tuple(self.sizes))))
        if self.faults is not None and not isinstance(self.faults, str):
            object.__setattr__(
                self, "faults", _canonical_faults(self.faults))

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
    @classmethod
    def for_app(cls, name: str, *, sizes: Mapping[str, Any] | None = None,
                machine: MachineConfig | None = None,
                board: BoardConfig | None = None,
                faults=None, seed: int | None = None,
                strict: bool = False, trace: bool = False,
                backend: str | None = None) -> "RunRequest":
        """Build a request, accepting a FaultPlan/dict/JSON for faults."""
        return cls(app=name, sizes=tuple(sorted((sizes or {}).items())),
                   machine=machine, board=board,
                   faults=_canonical_faults(faults), seed=seed,
                   strict=strict, trace=trace, backend=backend)

    def resolved(self, machine: MachineConfig | None = None,
                 board: BoardConfig | None = None) -> "RunRequest":
        """Fill in session-level defaults for unset configs."""
        if (self.machine is not None or machine is None) and \
                (self.board is not None or board is None):
            return self
        return dataclasses.replace(
            self,
            machine=self.machine if self.machine is not None else machine,
            board=self.board if self.board is not None else board)

    # ------------------------------------------------------------------
    # Execution-side accessors.
    # ------------------------------------------------------------------
    def fault_plan(self) -> FaultPlan | None:
        """The fault plan to inject, with ``seed`` applied if set."""
        if self.faults is None:
            return None
        plan = FaultPlan.from_json(self.faults)
        if self.seed is not None:
            plan = plan.with_seed(self.seed)
        return plan

    def effective_machine(self) -> MachineConfig:
        return self.machine if self.machine is not None else MachineConfig()

    def effective_board(self) -> BoardConfig:
        return self.board if self.board is not None else BoardConfig.hardware()

    # ------------------------------------------------------------------
    # Digest.
    # ------------------------------------------------------------------
    def payload(self) -> dict:
        """The JSON-stable dict that the digest is computed over.

        ``trace`` and ``backend`` are deliberately absent: neither may
        change simulated results (observer-effect guarantee; backend
        bit-identity contract), so both backends share one digest and
        one cache entry per request.
        """
        return {
            "v": DIGEST_VERSION,
            "app": self.app,
            "sizes": {str(k): v for k, v in self.sizes},
            "machine": dataclasses.asdict(self.effective_machine()),
            "board": dataclasses.asdict(self.effective_board()),
            "faults": (json.loads(self.faults)
                       if self.faults is not None else None),
            "seed": self.seed,
            "strict": self.strict,
        }

    def digest(self, salt: str | None = None) -> str:
        """Stable content digest of this request (hex sha256)."""
        body = json.dumps(self.payload(), sort_keys=True,
                          separators=(",", ":"))
        material = f"{salt if salt is not None else code_salt()}\n{body}"
        return hashlib.sha256(material.encode()).hexdigest()


__all__ = ["BACKENDS", "DIGEST_VERSION", "RunRequest", "code_salt"]
