"""Section 5.5: power-efficiency comparison across processors.

The paper normalizes Imagine's measured 862 pJ per floating-point
operation (1.16 GFLOPS/W at 1.8 V, 0.18 um) to a 0.13 um / 1.2 V
process (277 pJ/FLOP) and compares against the TI C67x DSP
(889 pJ/FLOP) and the Pentium M (3.6 nJ/FLOP) in that technology.
This module reruns the comparison using the *simulated* peak-GFLOPS
power from our energy model instead of the paper's measured watts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import BoardConfig, MachineConfig
from repro.core.power import normalize_pj_per_flop
from repro.workloads.microbench import bench_cluster_flops

#: Published comparison points at 0.13 um / 1.2 V (paper Section 5.5).
PUBLISHED_PJ_PER_FLOP = {
    "TI C67x DSP (225 MHz)": 889.0,
    "Pentium M (1.2 GHz)": 3600.0,
}
#: The paper's own numbers for Imagine.
PAPER_IMAGINE_PJ = 862.0
PAPER_IMAGINE_PJ_NORMALIZED = 277.0


@dataclass(frozen=True)
class EfficiencyRow:
    processor: str
    pj_per_flop: float
    technology: str

    def advantage_over(self, other: "EfficiencyRow") -> float:
        return other.pj_per_flop / self.pj_per_flop


def imagine_pj_per_flop(machine: MachineConfig | None = None,
                        board: BoardConfig | None = None,
                        backend: str = "auto") -> float:
    """Measured pJ/FLOP on the peak-GFLOPS micro-benchmark."""
    machine = machine or MachineConfig()
    board = board or BoardConfig.hardware()
    result = bench_cluster_flops(machine, board, backend)
    gflops_per_watt = result.achieved / result.power_watts
    return 1e3 / gflops_per_watt  # W / GFLOPS -> pJ/FLOP


def power_efficiency_comparison(machine: MachineConfig | None = None,
                                board: BoardConfig | None = None,
                                backend: str = "auto"
                                ) -> list[EfficiencyRow]:
    """The Section-5.5 table: Imagine (raw + normalized) vs. others."""
    raw = imagine_pj_per_flop(machine, board, backend)
    normalized = normalize_pj_per_flop(raw)
    rows = [
        EfficiencyRow("Imagine (measured)", raw, "0.18um 1.8V"),
        EfficiencyRow("Imagine (normalized)", normalized,
                      "0.13um 1.2V"),
    ]
    rows += [EfficiencyRow(name, pj, "0.13um 1.2V")
             for name, pj in PUBLISHED_PJ_PER_FLOP.items()]
    return rows
