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
    "simulator": frozenset({"CX"}),
    "repo": frozenset({"EP"}),
}


def _rule_family(rule: str) -> str:
    """``"ADV001"`` -> ``"ADV"``: the alphabetic rule-id prefix."""
    return rule.rstrip("0123456789")


def lint_catalog(machine: MachineConfig | None = None,
                 apps: Iterable[str] | None = None,
                 kernels: Iterable[str] | None = None,
                 consistency: bool = True,
                 repo: bool = False,
                 select: Iterable[str] | None = None) -> AnalysisReport:
    """Sweep the whole corpus: catalog apps, library kernels, and
    (optionally) the differential consistency pass per kernel.

    ``repo=True`` additionally runs the repository-scope passes
    (entry-point discipline).

    ``select`` restricts the run to rule families (``MC``, ``SP``,
    ``BD``/``ADV``, ``CX``, ``EP``): scopes that cannot produce a
    selected family are skipped entirely -- ``select={"EP"}`` runs
    only the repository rules, without compiling a single kernel --
    and findings from shared scopes are filtered to the selection.
    """
    from repro.engine import catalog
    from repro.kernels.library import KERNEL_LIBRARY

    machine = machine or MachineConfig()
    families = ({family.upper() for family in select}
                if select is not None else None)

    def wants(scope: str) -> bool:
        return (families is None
                or bool(families & _SCOPE_FAMILIES[scope]))

    needs_kernel = wants("kernel")
    needs_image = wants("image")
    needs_simulator = consistency and wants("simulator")
    needs_repo = (repo if families is None
                  else bool(families & _SCOPE_FAMILIES["repo"]))

    app_names = sorted(apps if apps is not None else catalog.APP_NAMES)
    kernel_names = sorted(kernels if kernels is not None
                          else KERNEL_LIBRARY)

    report = AnalysisReport(subject="catalog")
    scopes = []
    if needs_kernel:
        scopes.append("kernel")
    if needs_image:
        scopes.append("image")
    if needs_simulator:
        scopes.append("simulator")
    if needs_repo:
        scopes.append("repo")
    report.passes = [p.name for scope in scopes
                     for p in registered_passes(scope)]

    # Every unique compiled kernel: the library's, plus any an app
    # carries under a name the library does not know.  Skipped
    # entirely for selections (like ``EP``) that never look at one.
    compiled: dict[str, "CompiledKernel"] = {}
    images: dict[str, "StreamProgramImage"] = {}
    if needs_kernel or needs_image or needs_simulator:
        compiled = {name: KERNEL_LIBRARY[name].compiled()
                    for name in kernel_names}
        for app in app_names:
            bundle = catalog.build_app(app)
            images[app] = bundle.image
            for name in sorted(bundle.image.kernels):
                compiled.setdefault(name, bundle.image.kernels[name])
        report.coverage = {"apps": app_names,
                           "kernels": sorted(compiled)}
    else:
        report.coverage = {"apps": [], "kernels": []}

    if needs_kernel:
        for name in sorted(compiled):
            context = AnalysisContext(machine=machine,
                                      subject=f"kernel:{name}",
                                      kernel=compiled[name])
            report.extend(run_scope("kernel", context))

    if needs_image:
        for app in app_names:
            context = AnalysisContext(machine=machine,
                                      subject=f"app:{app}",
                                      image=images[app])
            report.extend(run_scope("image", context))

    if needs_simulator:
        for name in sorted(compiled):
            context = AnalysisContext(machine=machine,
                                      subject=f"kernel:{name}",
                                      kernel=compiled[name])
            report.extend(run_scope("simulator", context))

    if needs_repo:
        context = AnalysisContext(machine=machine, subject="repo")
        report.extend(run_scope("repo", context))

    if families is not None:
        report.findings = [f for f in report.findings
                           if _rule_family(f.rule) in families]
    return report


__all__ = [
    "lint_bundle",
    "lint_catalog",
    "lint_image",
    "lint_kernel",
    "preflight_image",
]
