"""API-discipline rules (EP001/EP002): one sanctioned entry point.

Every simulation is supposed to flow through
:class:`repro.engine.Session`, whose single processor construction
site lives in ``src/repro/engine/``.  Code that builds and runs a
processor directly -- either the event-driven
``ImagineProcessor`` or the vectorized ``VectorProcessor`` --
bypasses the engine: no result caching, no process sharding, no run
manifests, no backend selection.  EP001 reports a finding when a
*new* file grows a direct construction call site.

EP002 keeps the long-removed ``run_app()`` convenience shim from
coming back: it went through a full deprecation cycle and every
caller now goes through the Session API (``docs/api.md``), so any
fresh ``run_app(...)`` call is a finding, with no grandfather list.

Pre-engine EP001 call sites are grandfathered in :data:`ALLOWED`: the
core's own unit tests, the micro-workloads that sweep processor
parameters no ``RunRequest`` exposes, and the ablation benchmarks
that construct deliberately misconfigured machines.  Shrinking the
list is progress; growing it needs a reason in review.

CI and the tier-1 hook drive this family through
``repro lint --select EP`` (the former ``tools/check_entrypoints.py``
shim is gone).
"""

from __future__ import annotations

import pathlib
import re
from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.passes import AnalysisContext, analysis_pass

#: Directories scanned for Python call sites.
SCANNED = ("src", "tests", "benchmarks", "examples", "tools")

#: The one directory allowed to construct processors.
ENGINE = "src/repro/engine"

#: Grandfathered files (repo-relative, sorted).  Everything here
#: predates the engine; new simulation code must use Session.
ALLOWED = frozenset({
    # Core unit tests exercise the processor itself.
    "tests/test_failure_injection.py",
    "tests/test_faults.py",
    "tests/test_observability.py",
    "tests/test_processor.py",
    # Wedges a processor mid-run (hand-built instruction list with a
    # forward dependency) to assert watchdog diagnostics carry the
    # partial critical path; Session only runs well-formed images.
    "tests/test_serve.py",
    "tests/test_timeline_cli.py",
    # Ablation benchmarks simulate deliberately degraded machines.
    "benchmarks/bench_ablation_descriptors.py",
    "benchmarks/bench_ablation_dvfs.py",
    "benchmarks/bench_ablation_microcode.py",
    "benchmarks/bench_ablation_scoreboard.py",
    "benchmarks/bench_ablation_srf_policy.py",
    # Low-level tool-flow walkthrough, kept processor-explicit.
    "examples/molecular_dynamics.py",
})

#: A construction site: either processor class name followed by an
#: open paren.  (Both classes are defined without base-class parens,
#: so ``class`` statements and bare imports don't match.)
CALL = re.compile(r"\b(?:Imagine|Vector)Processor\s*\(")

#: EP002: a call to the removed ``run_app()`` shim.  Prose mentions
#: (docstrings, comments without the paren) stay legal.
RUN_APP = re.compile(r"\brun_app\s*\(")

#: Files that legitimately mention the patterns: this module only.
_EXEMPT = ("src/repro/analysis/rules/entrypoints.py",)


def default_root() -> pathlib.Path:
    """The repository root this module is installed under."""
    return pathlib.Path(__file__).resolve().parents[4]


def call_sites(path: pathlib.Path,
               pattern: re.Pattern = CALL) -> list[int]:
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError):
        return []
    return [lineno for lineno, line in enumerate(text.splitlines(), 1)
            if pattern.search(line)]


def _scanned_files(root: pathlib.Path) -> Iterator[tuple[str,
                                                         pathlib.Path]]:
    for top in SCANNED:
        if not (root / top).is_dir():
            continue
        for path in sorted((root / top).rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if rel in _EXEMPT:
                continue
            yield rel, path


def scan(root: pathlib.Path | None = None) -> list[Finding]:
    """All EP001/EP002 findings for the tree rooted at ``root``."""
    root = pathlib.Path(root) if root is not None else default_root()
    findings = []
    for rel, path in _scanned_files(root):
        if not (rel.startswith(ENGINE) or rel in ALLOWED):
            for lineno in call_sites(path, CALL):
                findings.append(Finding(
                    "EP001", Severity.ERROR, f"{rel}:{lineno}",
                    "direct processor construction outside "
                    "repro/engine/",
                    hint="run simulations through repro.engine."
                         "Session (docs/engine.md), or extend ALLOWED "
                         "in repro/analysis/rules/entrypoints.py with "
                         "a reviewed reason"))
        for lineno in call_sites(path, RUN_APP):
            findings.append(Finding(
                "EP002", Severity.ERROR, f"{rel}:{lineno}",
                "call to the removed run_app() shim",
                hint="build a repro.engine.RunRequest and run it "
                     "through repro.engine.Session (docs/api.md); "
                     "run_app() finished its deprecation cycle and "
                     "must not return"))
    return findings


@analysis_pass("repo.entrypoints", "repo")
def check_entrypoints(context: AnalysisContext) -> Iterator[Finding]:
    """New direct processor call sites outside the engine, plus any
    resurrection of the removed ``run_app()`` shim."""
    yield from scan(context.scratch.get("repo_root"))
