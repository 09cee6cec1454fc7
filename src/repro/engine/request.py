"""Declarative run requests and their content digests.

A :class:`RunRequest` describes one simulation completely: which
catalog application to build (and at what sizes), the machine and
board configurations, an optional fault plan (stored as canonical
JSON), a seed, and the strict flag.  Because the
description is declarative -- names and dataclasses, no live objects
-- a request can cross a process boundary, be rebuilt by a worker,
and be hashed into a stable content digest that keys the on-disk
result cache.

Digest rules (see ``docs/engine.md``):

* every field is hashed: app + sizes, the *resolved* machine and
  board configuration (a ``None`` config hashes identically to the
  explicit default), the fault-plan document, the seed and the strict
  flag;
* which backend executes a run is not part of the request: backends
  are bit-identical by contract (``repro gate`` enforces it), so an
  event-warmed cache serves vector runs and vice versa; the backend
  that actually executed is provenance and lives in the manifest;
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


#: Config ``repr`` -> JSON text of its ``dataclasses.asdict``.  The
#: configs are frozen, so each serialises the same every time; repr
#: keys it because, unlike ``==``, it tells ``1`` from ``1.0``, as the
#: JSON does.  A process uses a handful; the memo is emptied should
#: it ever reach :data:`_CONFIG_MEMO_SIZE`.
_config_text: dict[str, str] = {}
_CONFIG_MEMO_SIZE = 256


def _config_payload(config: MachineConfig | BoardConfig) -> dict:
    """``dataclasses.asdict(config)``, serialised once per process;
    every call returns a fresh copy, so no caller can change the
    memo."""
    key = repr(config)
    text = _config_text.get(key)
    if text is None:
        if len(_config_text) >= _CONFIG_MEMO_SIZE:
            _config_text.clear()
        text = _config_text[key] = json.dumps(dataclasses.asdict(config))
    return json.loads(text)


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "app", self.app.lower())
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
                strict: bool = False) -> "RunRequest":
        """Build a request, accepting a FaultPlan/dict/JSON for faults."""
        return cls(app=name, sizes=tuple(sorted((sizes or {}).items())),
                   machine=machine, board=board,
                   faults=_canonical_faults(faults), seed=seed,
                   strict=strict)

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
        """The JSON-stable dict that the digest is computed over: every
        field, with the configs resolved."""
        return {
            "v": DIGEST_VERSION,
            "app": self.app,
            "sizes": {str(k): v for k, v in self.sizes},
            "machine": _config_payload(self.effective_machine()),
            "board": _config_payload(self.effective_board()),
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


__all__ = ["DIGEST_VERSION", "RunRequest", "code_salt"]
