"""Tests for per-kernel FU-occupancy analysis."""

import pytest

from repro.analysis.occupancy import (
    fu_occupancy,
    render_occupancy,
)
from repro.isa.kernel_ir import FuClass
from repro.kernels import KERNEL_LIBRARY
from repro.kernels.library import TABLE2_KERNELS


class TestOccupancy:
    def test_fractions_bounded(self):
        for name in TABLE2_KERNELS:
            report = fu_occupancy(KERNEL_LIBRARY[name].compiled())
            for fraction in report.busy_fraction.values():
                assert 0.0 <= fraction <= 1.0 + 1e-9

    def test_update2_multiplier_bound(self):
        """The paper's canonical load-imbalance example."""
        report = fu_occupancy(KERNEL_LIBRARY["update2"].compiled())
        assert report.bottleneck is FuClass.MUL
        assert report.busy_fraction[FuClass.MUL] == pytest.approx(1.0)
        assert (report.busy_fraction[FuClass.ADD]
                < report.busy_fraction[FuClass.MUL])

    def test_rle_scratchpad_bound(self):
        report = fu_occupancy(KERNEL_LIBRARY["rle"].compiled())
        assert report.bottleneck is FuClass.SP
        assert report.busy_fraction[FuClass.SP] == pytest.approx(1.0)

    def test_gromacs_dsq_bound(self):
        report = fu_occupancy(KERNEL_LIBRARY["gromacs"].compiled())
        assert report.bottleneck is FuClass.DSQ
        assert report.busy_fraction[FuClass.DSQ] == pytest.approx(1.0)

    def test_sort32_comm_bound(self):
        report = fu_occupancy(KERNEL_LIBRARY["sort32"].compiled())
        assert report.busy_fraction[FuClass.COMM] == pytest.approx(1.0)

    def test_render(self):
        text = render_occupancy(
            [KERNEL_LIBRARY[n].compiled() for n in TABLE2_KERNELS])
        assert "bottleneck" in text
        assert "update2" in text
