"""Run manifest: the provenance record attached to every run.

Machine-readable reports are only comparable across machines and
commits if each one says exactly what produced it.  The manifest
captures the simulated machine configuration, the board model, the
package version, the Python/platform the simulation ran on, and the
host wall time the run took.
"""

from __future__ import annotations

import platform
import sys
import time
from dataclasses import dataclass, field

from repro.core.config import BoardConfig, MachineConfig

#: Version tag for the machine-readable report/manifest layout.
REPORT_SCHEMA = "repro.run-report/1"


@dataclass(frozen=True)
class RunManifest:
    """Provenance for one simulation run."""

    program: str
    board_mode: str
    host_mips: float
    machine: dict = field(default_factory=dict)
    seed: int | None = None
    package_version: str = ""
    python_version: str = ""
    platform: str = ""
    wall_time_s: float = 0.0
    created_at: str = ""
    #: Content digest of the engine RunRequest that produced this run
    #: (``None`` for runs made outside :class:`repro.engine.Session`).
    request_digest: str | None = None
    #: How the engine delivered the result: ``hit`` (from the
    #: content-addressed cache), ``miss`` (executed and stored) or
    #: ``uncached`` (executed outside the cache).
    cache: str = "uncached"
    #: Which simulation backend produced the result: ``event`` (the
    #: per-event reference model) or ``vector`` (the compiled backend).
    #: Provenance only -- backends are bit-identical by contract, so
    #: the backend is deliberately NOT part of the request digest
    #: (``docs/engine.md``); a cache hit reports the backend that
    #: originally executed the run.
    backend: str = "event"
    schema: str = REPORT_SCHEMA

    def as_dict(self) -> dict:
        return {
            "schema": self.schema,
            "program": self.program,
            "board_mode": self.board_mode,
            "host_mips": self.host_mips,
            "machine": dict(self.machine),
            "seed": self.seed,
            "package_version": self.package_version,
            "python_version": self.python_version,
            "platform": self.platform,
            "wall_time_s": self.wall_time_s,
            "created_at": self.created_at,
            "request_digest": self.request_digest,
            "cache": self.cache,
            "backend": self.backend,
        }


def machine_summary(machine: MachineConfig) -> dict:
    """The machine parameters that determine simulated behaviour."""
    return {
        "clock_hz": machine.clock_hz,
        "num_clusters": machine.num_clusters,
        "lrf_kbytes": machine.lrf_kbytes,
        "srf_kbytes": machine.srf_kbytes,
        "microcode_store_words": machine.microcode_store_words,
        "scoreboard_slots": machine.scoreboard_slots,
        "num_sdrs": machine.num_sdrs,
        "num_mars": machine.num_mars,
        "num_ags": machine.num_ags,
        "dram_channels": machine.dram.channels,
        "dram_banks_per_channel": machine.dram.banks_per_channel,
        "dram_page_policy": machine.dram.page_policy,
    }


def timestamp() -> str:
    """The current local time, as a manifest's ``created_at``."""
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


def build_manifest(program: str, machine: MachineConfig,
                   board: BoardConfig, wall_time_s: float,
                   seed: int | None = None,
                   backend: str = "event") -> RunManifest:
    """Assemble the manifest for one finished run."""
    from repro import __version__

    return RunManifest(
        program=program,
        board_mode=board.mode,
        host_mips=board.host_mips,
        machine=machine_summary(machine),
        seed=seed,
        package_version=__version__,
        python_version=sys.version.split()[0],
        platform=platform.platform(),
        wall_time_s=wall_time_s,
        created_at=timestamp(),
        backend=backend,
    )
