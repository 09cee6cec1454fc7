"""Orchestrators for the static verifier: one call, every pass.

``lint_kernel`` / ``lint_image`` / ``lint_bundle`` run the registered
passes over one artifact; ``lint_catalog`` sweeps every catalog
application and library kernel (the ``repro lint`` CLI and the CI
job); ``preflight_image`` is the engine's strict-mode hook, raising
:class:`~repro.analysis.findings.AnalysisError` instead of simulating
an artifact that is statically broken.

Reports are deterministic: artifacts are visited in sorted order,
findings are sorted, and the JSON serialization uses sorted keys, so
two runs over the same tree are byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.analysis.findings import AnalysisReport
from repro.analysis.passes import (
    AnalysisContext,
    registered_passes,
    run_scope,
)
from repro.core.config import MachineConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.common import AppBundle
    from repro.isa.vliw import CompiledKernel
    from repro.streamc.compiler import StreamProgramImage


def lint_kernel(kernel: "CompiledKernel",
                machine: MachineConfig | None = None) -> AnalysisReport:
    """Run every kernel-scope pass over one compiled kernel."""
    machine = machine or MachineConfig()
    report = AnalysisReport(subject=f"kernel:{kernel.name}")
    report.passes = [p.name for p in registered_passes("kernel")]
    report.coverage = {"kernels": [kernel.name]}
    context = AnalysisContext(machine=machine,
                              subject=f"kernel:{kernel.name}",
                              kernel=kernel)
    report.extend(run_scope("kernel", context))
    return report


def lint_image(image: "StreamProgramImage",
               machine: MachineConfig | None = None,
               subject: str | None = None) -> AnalysisReport:
    """Run image-scope passes plus kernel-scope passes over the
    image's kernels."""
    machine = machine or MachineConfig()
    subject = subject or f"app:{image.name}"
    report = AnalysisReport(subject=subject)
    report.passes = [p.name for p in registered_passes("kernel")]
    report.passes += [p.name for p in registered_passes("image")]
    report.coverage = {"apps": [image.name],
                       "kernels": sorted(image.kernels)}
    for name in sorted(image.kernels):
        context = AnalysisContext(machine=machine,
                                  subject=f"kernel:{name}",
                                  kernel=image.kernels[name])
        report.extend(run_scope("kernel", context))
    context = AnalysisContext(machine=machine, subject=subject,
                              image=image)
    report.extend(run_scope("image", context))
    return report


def lint_bundle(bundle: "AppBundle",
                machine: MachineConfig | None = None) -> AnalysisReport:
    """Lint a built application bundle (its image + kernels)."""
    return lint_image(bundle.image, machine=machine,
                      subject=f"app:{bundle.name}")


def preflight_image(image: "StreamProgramImage",
                    machine: MachineConfig | None = None) -> None:
    """Strict-mode gate: raise ``AnalysisError`` on error findings."""
    lint_image(image, machine=machine).raise_on_errors()


#: Which rule families each pass scope can produce; drives the
#: scope-skipping fast path of ``lint_catalog(select=...)``.
_SCOPE_FAMILIES = {
    "kernel": frozenset({"MC"}),
    "image": frozenset({"SP", "BD", "ADV"}),
    "repo": frozenset({"EP"}),
}

#: Every rule family a selection may name.
RULE_FAMILIES = tuple(sorted(frozenset().union(*_SCOPE_FAMILIES.values())))


def _rule_family(rule: str) -> str:
    """``"ADV001"`` -> ``"ADV"``: the alphabetic rule-id prefix."""
    return rule.rstrip("0123456789")


def lint_catalog(machine: MachineConfig | None = None,
                 apps: Iterable[str] | None = None,
                 kernels: Iterable[str] | None = None,
                 repo: bool = False,
                 select: Iterable[str] | None = None) -> AnalysisReport:
    """Sweep the whole corpus: catalog apps and library kernels.

    ``repo=True`` additionally runs the repository-scope passes
    (entry-point discipline).

    ``select`` restricts the run to rule families (``MC``, ``SP``,
    ``BD``/``ADV``, ``EP``): scopes that cannot produce a selected
    family are skipped entirely -- ``select={"EP"}`` runs only the
    repository rules, without compiling a single kernel -- and
    findings from shared scopes are filtered to the selection.
    """
    from repro.engine import catalog

    machine = machine or MachineConfig()
    families = ({family.upper() for family in select}
                if select is not None else None)

    def wants(scope: str) -> bool:
        if families is None:
            return repo or scope != "repo"
        return bool(families & _SCOPE_FAMILIES[scope])

    scopes = [scope for scope in _SCOPE_FAMILIES if wants(scope)]
    app_names = sorted(apps if apps is not None else catalog.APP_NAMES)

    report = AnalysisReport(subject="catalog")
    report.passes = [p.name for scope in scopes
                     for p in registered_passes(scope)]

    # Skipped entirely for selections (like ``EP``) that never look
    # at a compiled artifact.
    compiled: dict[str, "CompiledKernel"] = {}
    images: dict[str, "StreamProgramImage"] = {}
    if "kernel" in scopes or "image" in scopes:
        images = {app: catalog.build_app(app).image
                  for app in app_names}
        compiled = catalog.compiled_kernels(images.values(), kernels)
    report.coverage = {"apps": sorted(images), "kernels": sorted(compiled)}

    if "kernel" in scopes:
        for name in sorted(compiled):
            context = AnalysisContext(machine=machine,
                                      subject=f"kernel:{name}",
                                      kernel=compiled[name])
            report.extend(run_scope("kernel", context))

    if "image" in scopes:
        for app in app_names:
            context = AnalysisContext(machine=machine,
                                      subject=f"app:{app}",
                                      image=images[app])
            report.extend(run_scope("image", context))

    if "repo" in scopes:
        context = AnalysisContext(machine=machine, subject="repo")
        report.extend(run_scope("repo", context))

    if families is not None:
        report.findings = [f for f in report.findings
                           if _rule_family(f.rule) in families]
    return report


__all__ = [
    "RULE_FAMILIES",
    "lint_bundle",
    "lint_catalog",
    "lint_image",
    "lint_kernel",
    "preflight_image",
]
