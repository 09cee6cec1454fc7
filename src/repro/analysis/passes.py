"""The static-analysis pass framework.

A *pass* is a named function that inspects one compiled artifact --
a :class:`~repro.isa.vliw.CompiledKernel` or a
:class:`~repro.streamc.compiler.StreamProgramImage` -- against the
machine's structural limits and yields
:class:`~repro.analysis.findings.Finding` records.  Passes register
themselves with :func:`analysis_pass` and declare a *scope*:

* ``"kernel"`` passes run once per compiled kernel;
* ``"image"`` passes run once per compiled stream program;
* ``"simulator"`` passes run once per compiled kernel and simulate
  it (the AnICA-style differential consistency pass that
  cross-checks static predictions against both backends);
* ``"repo"`` passes inspect the source tree itself (the entry-point
  discipline lint).

The rule modules in :mod:`repro.analysis.rules` populate the
registry; :mod:`repro.analysis.lint` orchestrates full runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.analysis.findings import Finding
from repro.core.config import MachineConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.isa.vliw import CompiledKernel
    from repro.streamc.compiler import StreamProgramImage

#: Valid pass scopes.
SCOPES = ("kernel", "image", "simulator", "repo")


@dataclass
class AnalysisContext:
    """Everything a pass may look at.

    ``machine`` is always set; ``kernel`` is set for kernel- and
    simulator-scope passes, ``image`` for image-scope passes.
    ``subject`` names the artifact for finding locations.
    """

    machine: MachineConfig
    subject: str
    kernel: "CompiledKernel | None" = None
    image: "StreamProgramImage | None" = None
    #: Per-run scratch shared between passes (e.g. memoized wrap runs).
    scratch: dict = field(default_factory=dict)


#: A pass body: context in, findings out.
PassFn = Callable[[AnalysisContext], Iterable[Finding]]


@dataclass(frozen=True)
class AnalysisPass:
    """A registered pass: stable name, scope, rule-id prefix, body."""

    name: str
    scope: str
    fn: PassFn
    doc: str = ""

    def run(self, context: AnalysisContext) -> list[Finding]:
        return list(self.fn(context))


_REGISTRY: dict[str, AnalysisPass] = {}


def analysis_pass(name: str, scope: str
                  ) -> Callable[[PassFn], PassFn]:
    """Decorator registering a pass under ``name`` with ``scope``."""
    if scope not in SCOPES:
        raise ValueError(f"unknown pass scope {scope!r}; "
                         f"choose from {SCOPES}")

    def register(fn: PassFn) -> PassFn:
        if name in _REGISTRY:
            raise ValueError(f"analysis pass {name!r} already registered")
        _REGISTRY[name] = AnalysisPass(
            name=name, scope=scope, fn=fn,
            doc=(fn.__doc__ or "").strip().splitlines()[0]
            if fn.__doc__ else "")
        return fn

    return register


def registered_passes(scope: str | None = None) -> list[AnalysisPass]:
    """All registered passes (optionally one scope), by name."""
    _load_rules()
    passes = sorted(_REGISTRY.values(), key=lambda p: p.name)
    if scope is not None:
        passes = [p for p in passes if p.scope == scope]
    return passes


def run_scope(scope: str, context: AnalysisContext,
              only: set[str] | None = None) -> Iterator[Finding]:
    """Run every registered pass of ``scope`` over ``context``."""
    for entry in registered_passes(scope):
        if only is not None and entry.name not in only:
            continue
        yield from entry.run(context)


def _load_rules() -> None:
    """Import the rule modules so their passes self-register."""
    from repro.analysis import rules  # noqa: F401  (import side effect)


__all__ = [
    "AnalysisContext",
    "AnalysisPass",
    "SCOPES",
    "analysis_pass",
    "registered_passes",
    "run_scope",
]
