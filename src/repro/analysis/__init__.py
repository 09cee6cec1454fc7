"""Analysis and reporting: breakdowns, renderers, static verifier.

Alongside the paper-table reporting helpers, this package hosts the
static verifier (``docs/analysis.md``): multi-pass checks over
compiled kernels and stream programs, surfaced as ``repro lint``, and
the static cycle-bound model (:mod:`repro.analysis.bounds`), surfaced
as the ``BD``/``ADV`` lint rules and checked against the simulator by
``repro gate``.
"""

from repro.analysis.bounds import (
    BOUNDS_SCHEMA,
    BoundsAnalysis,
    compute_bounds,
)
from repro.analysis.breakdown import (
    KernelRow,
    kernel_breakdown,
    measure_kernel,
)
from repro.analysis.findings import (
    AnalysisError,
    AnalysisReport,
    Finding,
    REPORT_SCHEMA,
    Severity,
)
from repro.analysis.lint import (
    lint_bundle,
    lint_catalog,
    lint_image,
    lint_kernel,
    preflight_image,
)
from repro.analysis.power_compare import power_efficiency_comparison
from repro.analysis.report import render_table
from repro.analysis.timeline import (
    kernel_profile,
    render_kernel_profile,
    render_timeline,
)

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "BOUNDS_SCHEMA",
    "BoundsAnalysis",
    "Finding",
    "KernelRow",
    "REPORT_SCHEMA",
    "Severity",
    "compute_bounds",
    "kernel_breakdown",
    "kernel_profile",
    "lint_bundle",
    "lint_catalog",
    "lint_image",
    "lint_kernel",
    "measure_kernel",
    "power_efficiency_comparison",
    "preflight_image",
    "render_kernel_profile",
    "render_table",
    "render_timeline",
]
