"""Structured findings for the static verifier.

Every static-analysis rule reports :class:`Finding` records -- a rule
id, a severity, a location, a human message and a fix hint -- instead
of raising on first failure, so one ``repro lint`` run surfaces every
problem in a compiled artifact at once.  Findings aggregate into an
:class:`AnalysisReport` whose JSON form (schema
``repro.analysis-report/1``) is deterministic: findings are sorted by
(rule, location, severity, message) and serialized with sorted keys,
so two runs over the same tree are byte-identical
(``docs/analysis.md``).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

#: Schema tag stamped on every machine-readable analysis report.
REPORT_SCHEMA = "repro.analysis-report/1"


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings describe artifacts the hardware could not
    execute correctly (structural-limit violations, broken
    dependences); they fail ``repro lint`` and strict-mode pre-flight.
    ``WARNING`` findings describe performance hazards the machine
    survives (e.g. aggregate microcode exceeding the store, which only
    costs reloads).  ``INFO`` findings are observations.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class Finding:
    """One rule violation (or observation) at one location.

    ``rule`` is a stable id (``MC004``, ``SP006``, ``BD001``, ...;
    catalogued in ``docs/analysis.md``); ``location`` names the
    artifact (``kernel:dct8x8``, ``app:mpeg#12`` for instruction 12).
    """

    rule: str
    severity: Severity
    location: str
    message: str
    hint: str = ""
    details: Mapping[str, Any] = field(default_factory=dict)

    def sort_key(self) -> tuple:
        """Rule id, then location: a stable order CI can byte-diff.

        Severity only breaks ties within a rule (rules have a fixed
        severity in practice, so the order reads grouped-by-rule).
        """
        return (self.rule, self.location, self.severity.rank,
                self.message)

    def as_dict(self) -> dict:
        document = {
            "rule": self.rule,
            "severity": self.severity.value,
            "location": self.location,
            "message": self.message,
        }
        if self.hint:
            document["hint"] = self.hint
        if self.details:
            document["details"] = {
                str(k): self.details[k] for k in sorted(self.details)}
        return document

    def __str__(self) -> str:
        text = (f"{self.severity.value}[{self.rule}] "
                f"{self.location}: {self.message}")
        if self.hint:
            text += f" ({self.hint})"
        return text


class AnalysisError(Exception):
    """Raised when error-severity findings block execution.

    Carries the blocking findings so callers (the engine's strict-mode
    pre-flight, tests) can inspect them.
    """

    def __init__(self, findings: list[Finding]) -> None:
        self.findings = list(findings)
        lines = "; ".join(str(f) for f in findings[:5])
        more = len(findings) - 5
        if more > 0:
            lines += f"; ... and {more} more"
        super().__init__(
            f"{len(findings)} error-severity finding(s): {lines}")


@dataclass
class AnalysisReport:
    """All findings from one analysis run, plus what was analyzed."""

    subject: str
    findings: list[Finding] = field(default_factory=list)
    #: Pass names that ran, in execution order.
    passes: list[str] = field(default_factory=list)
    #: Artifacts covered, e.g. ``{"kernels": [...], "apps": [...]}``.
    coverage: dict[str, list[str]] = field(default_factory=dict)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings
                if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings
                if f.severity is Severity.WARNING]

    @property
    def clean(self) -> bool:
        return not self.errors

    @property
    def exit_code(self) -> int:
        """Process exit status for ``repro lint``: 1 on any error."""
        return 0 if self.clean else 1

    def sorted_findings(self) -> list[Finding]:
        return sorted(self.findings, key=Finding.sort_key)

    def raise_on_errors(self) -> None:
        errors = self.errors
        if errors:
            raise AnalysisError(sorted(errors, key=Finding.sort_key))

    # ------------------------------------------------------------------
    # Serialization.
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        counts = {"error": 0, "warning": 0, "info": 0}
        for finding in self.findings:
            counts[finding.severity.value] += 1
        return {
            "schema": REPORT_SCHEMA,
            "subject": self.subject,
            "passes": list(self.passes),
            "coverage": {key: sorted(values)
                         for key, values in self.coverage.items()},
            "counts": counts,
            "findings": [f.as_dict() for f in self.sorted_findings()],
        }

    def to_json(self) -> str:
        """Deterministic JSON text (byte-identical across runs)."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        """Human-readable summary for the terminal."""
        lines = [f"analysis of {self.subject}: "
                 f"{len(self.errors)} error(s), "
                 f"{len(self.warnings)} warning(s), "
                 f"{len(self.findings)} finding(s) total "
                 f"from {len(self.passes)} pass(es)"]
        lines += [f"  {finding}" for finding in self.sorted_findings()]
        return "\n".join(lines)


__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "Finding",
    "REPORT_SCHEMA",
    "Severity",
]
