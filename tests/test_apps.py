"""Integration tests: the four applications, functional + timing shape.

Each application is built once (module-scoped fixtures) and validated
both for functional correctness against its oracle and for the
qualitative timing properties the paper reports.
"""

import numpy as np
import pytest

from repro.apps import depth, mpeg, qrd, rtsl
from repro.apps.depth import disparity_accuracy
from repro.apps.mpeg import (
    from_macroblock_order,
    motion_vector_accuracy,
)
from repro.apps.qrd import factorization_error, final_matrix, r_factor
from repro.apps.rtsl import coverage, framebuffer_matches_reference
from repro.core import BoardConfig
from repro.core.metrics import CycleCategory
from repro.kernels.pixelmath import unpack16


def _run_bundle(bundle, **kwargs):
    """In-process, uncached engine run (the old ``run_app`` surface)."""
    from repro.engine.session import get_default_session

    return get_default_session().run_bundle(bundle, **kwargs)



@pytest.fixture(scope="module")
def depth_bundle():
    return depth.build(height=32, width=128, disparities=6)


@pytest.fixture(scope="module")
def mpeg_bundle():
    # One chunk per strip so every strip has interior blocks for the
    # known-motion check.
    return mpeg.build(height=48, width=192, frames=3,
                      chunks_per_strip=1)


@pytest.fixture(scope="module")
def qrd_bundle():
    return qrd.build(rows=64, cols=32, block_columns=8)


@pytest.fixture(scope="module")
def rtsl_bundle():
    return rtsl.build(triangles=120, width=96, height=64)


def run(bundle, board=None):
    return _run_bundle(bundle, board=board or BoardConfig.hardware())


class TestDepth:
    def test_disparity_recovered(self, depth_bundle):
        assert disparity_accuracy(depth_bundle) > 0.9

    def test_runs_and_conserves(self, depth_bundle):
        result = run(depth_bundle)
        result.metrics.check_conservation(1e-3)
        assert result.metrics.gops > 1.0

    def test_short_streams(self, depth_bundle):
        result = run(depth_bundle)
        # DEPTH streams are single image rows (Table 5).
        assert result.metrics.average_kernel_stream_length == 64

    def test_sdr_reuse_high(self, depth_bundle):
        # Section 5.3: DEPTH's descriptors fit the SDR file and are
        # reused heavily.
        assert depth_bundle.image.sdr_reuse > 20

    def test_low_app_overhead(self, depth_bundle):
        result = run(depth_bundle)
        fractions = result.metrics.cycle_fractions()
        assert fractions[CycleCategory.MEMORY_STALL] < 0.15


class TestMpeg:
    def test_motion_vectors_exact(self, mpeg_bundle):
        assert motion_vector_accuracy(mpeg_bundle) > 0.9

    def test_reconstruction_psnr(self, mpeg_bundle):
        video = mpeg_bundle.oracle["video"]
        height, width = video.shape[1:]
        for f in range(3):
            flat = unpack16(mpeg_bundle.image.outputs[f"luma{f}"])
            recon = from_macroblock_order(flat, height, width)
            mse = ((recon - video[f]) ** 2).mean()
            psnr = 10 * np.log10(255 ** 2 / max(mse, 1e-9))
            assert psnr > 28.0

    def test_coded_stream_compresses(self, mpeg_bundle):
        coded_words = mpeg_bundle.oracle["coded_words"]
        video = mpeg_bundle.oracle["video"]
        raw_words = video.size / 2
        assert 0 < coded_words < 2.1 * raw_words

    def test_runs_kernel_dominated(self, mpeg_bundle):
        result = run(mpeg_bundle)
        fractions = result.metrics.cycle_fractions()
        busy = sum(fractions[c] for c in (
            CycleCategory.OPERATIONS,
            CycleCategory.KERNEL_MAIN_LOOP_OVERHEAD,
            CycleCategory.KERNEL_NON_MAIN_LOOP,
            CycleCategory.CLUSTER_STALL))
        assert busy > 0.5

    def test_realtime_equivalent(self, mpeg_bundle):
        result = run(mpeg_bundle)
        assert mpeg_bundle.throughput(result.seconds) > 30


class TestQrd:
    def test_factorization_exact(self, qrd_bundle):
        residual, unitarity = factorization_error(qrd_bundle)
        assert residual < 1e-12
        assert unitarity < 1e-10

    def test_r_upper_triangular(self, qrd_bundle):
        r = r_factor(qrd_bundle)
        assert np.allclose(np.tril(r, -1), 0)

    def test_final_subdiagonal_annihilated(self, qrd_bundle):
        final = final_matrix(qrd_bundle)
        cols = final.shape[1]
        strict_lower = final[:cols, :][np.tril_indices(cols, -1)]
        below = final[cols:, :]
        assert np.abs(strict_lower).max() < 1e-10
        assert np.abs(below).max() < 1e-10

    def test_gflops_dominates_gops(self, qrd_bundle):
        result = run(qrd_bundle)
        assert result.metrics.gflops > 0.9 * result.metrics.gops

    def test_restarts_present(self):
        bundle = qrd.build(rows=96, cols=48, block_columns=12)
        histogram = bundle.image.histogram()
        from repro.isa.stream_ops import StreamOpType
        restarts = [i for i in bundle.image.instructions
                    if i.op is StreamOpType.RESTART]
        assert restarts, "QRD block updates should stripmine"


class TestRtsl:
    def test_framebuffer_exact(self, rtsl_bundle):
        assert framebuffer_matches_reference(rtsl_bundle)

    def test_scene_coverage(self, rtsl_bundle):
        assert 0.02 < coverage(rtsl_bundle) < 0.9

    def test_host_dependencies_serialize(self, rtsl_bundle):
        result = run(rtsl_bundle)
        fractions = result.metrics.cycle_fractions()
        overhead = (fractions[CycleCategory.MEMORY_STALL]
                    + fractions[CycleCategory.HOST_BANDWIDTH_STALL])
        # Paper Section 4.2: RTSL's application overhead exceeds 30%.
        assert overhead > 0.25

    def test_host_read_instructions_present(self, rtsl_bundle):
        from repro.isa.stream_ops import StreamOpType
        reads = [i for i in rtsl_bundle.image.instructions
                 if i.op is StreamOpType.HOST_READ]
        assert len(reads) >= 1
        assert all(r.host_dependency for r in reads)


class TestCrossApplication:
    """Paper-level claims that span all four applications."""

    @pytest.fixture(scope="class")
    def results(self, depth_bundle, mpeg_bundle, qrd_bundle,
                rtsl_bundle):
        return {b.name: run(b) for b in (depth_bundle, mpeg_bundle,
                                         qrd_bundle, rtsl_bundle)}

    def test_rtsl_is_least_efficient(self, results):
        gops = {name: r.metrics.gops for name, r in results.items()}
        assert min(gops, key=gops.get) == "RTSL"

    def test_lrf_to_dram_ratio(self, results):
        """Figure 13: LRF:DRAM bandwidth ratio over 350:1 on average."""
        ratios = []
        for result in results.values():
            dram = max(result.metrics.mem_gbytes, 1e-9)
            ratios.append(result.metrics.lrf_gbytes / dram)
        assert np.mean(ratios) > 100

    def test_hardware_slower_than_isim(self, depth_bundle):
        hw = run(depth_bundle, BoardConfig.hardware())
        isim = run(depth_bundle, BoardConfig.isim())
        ratio = hw.cycles / isim.cycles
        # Table 6: hardware within a few percent above ISIM.
        assert 1.0 <= ratio < 1.25

    def test_power_in_paper_band(self, results):
        for result in results.values():
            assert 4.8 < result.power.watts < 9.0

    def test_conservation_everywhere(self, results):
        for result in results.values():
            result.metrics.check_conservation(1e-3)
