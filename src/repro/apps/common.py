"""Shared application plumbing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.config import MachineConfig
from repro.streamc.compiler import StreamProgramImage


@dataclass
class AppBundle:
    """A built application: compiled program + validation oracle.

    ``work_units`` and ``work_name`` let benchmarks report
    throughput in the paper's units (frames/s, QRD/s).
    """

    name: str
    image: StreamProgramImage
    oracle: dict = field(default_factory=dict)
    work_units: float = 1.0
    work_name: str = "runs"
    #: Catalog provenance ``(name, sorted sizes)`` stamped by
    #: :func:`repro.engine.catalog.build_app`; ``None`` for hand-built
    #: bundles, which the engine then runs in-process and uncached.
    source: tuple[str, tuple[tuple[str, Any], ...]] | None = None
    #: The machine ``build_app`` compiled the image for; the engine
    #: runs a catalog bundle as given only on that machine and
    #: rebuilds it for any other.
    machine: MachineConfig | None = None

    @property
    def kernels(self):
        return self.image.kernels

    def throughput(self, seconds: float) -> float:
        """Work units per second (e.g. frames/s)."""
        if seconds <= 0:
            return 0.0
        return self.work_units / seconds


# The old ``run_app`` helper is gone (removed after a deprecation
# cycle): build a :class:`repro.engine.RunRequest` and run it through
# :class:`repro.engine.Session` (see ``docs/api.md``).  The EP002
# repo rule (``repro lint --repo``) keeps it from coming back.
