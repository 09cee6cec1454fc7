"""Tests for the micro-benchmarks and stream-length sweeps."""

import pytest

from repro.core import BoardConfig, MachineConfig
from repro.workloads.microbench import (
    bench_cluster_flops,
    bench_cluster_ops,
    bench_host,
    bench_inter_cluster,
    bench_memory,
    bench_srf,
)
from repro.workloads.streamlen import (
    MEMORY_PATTERNS,
    host_interface_bandwidth_limit,
    ideal_kernel_gops,
    kernel_length_sweep,
    memory_length_sweep,
    synthetic_kernel,
)

MACHINE = MachineConfig()
BOARD = BoardConfig.hardware()


class TestTable1Components:
    """Achieved component peaks land near Table 1 (shape tolerance)."""

    def test_cluster_ops(self):
        result = bench_cluster_ops(MACHINE, BOARD)
        assert result.achieved == pytest.approx(25.4, rel=0.08)
        assert result.achieved <= result.theoretical

    def test_cluster_flops(self):
        result = bench_cluster_flops(MACHINE, BOARD)
        assert result.achieved == pytest.approx(7.96, rel=0.08)

    def test_inter_cluster_comm(self):
        result = bench_inter_cluster(MACHINE, BOARD)
        assert result.achieved == pytest.approx(7.84, rel=0.08)

    def test_srf_bandwidth(self):
        result = bench_srf(MACHINE, BOARD)
        assert result.achieved == pytest.approx(12.7, rel=0.15)

    def test_memory_bandwidth(self):
        result = bench_memory(MACHINE, BOARD)
        assert result.achieved == pytest.approx(1.58, rel=0.05)

    def test_host_interface_board_limited(self):
        result = bench_host(MACHINE, BOARD)
        assert result.achieved == pytest.approx(2.03, rel=0.05)
        # The board, not the chip, limits it: 10x below theoretical.
        assert result.achieved < 0.2 * result.theoretical

    def test_powers_match_paper(self):
        expectations = {
            bench_cluster_ops: 5.79,
            bench_cluster_flops: 6.88,
            bench_srf: 5.79,
            bench_memory: 5.42,
            bench_host: 4.72,
        }
        for bench, watts in expectations.items():
            result = bench(MACHINE, BOARD)
            assert result.power_watts == pytest.approx(watts, abs=0.5)


class TestKernelLengthSweep:
    def test_performance_grows_with_stream_length(self):
        points = kernel_length_sweep(32, 64, [32, 256, 2048])
        rates = [p.gops for p in points]
        assert rates[0] < rates[1] < rates[2]

    def test_long_streams_approach_ideal(self):
        points = kernel_length_sweep(32, 64, [16384])
        assert points[0].gops > 0.75 * ideal_kernel_gops(MACHINE)

    def test_short_main_loops_hurt_more_at_short_lengths(self):
        """Fig. 7: shorter main loops degrade more on short streams."""
        short = kernel_length_sweep(8, 64, [64])[0].gops
        long = kernel_length_sweep(128, 64, [64])[0].gops
        ideal = ideal_kernel_gops(MACHINE)
        assert short / ideal < 0.6
        assert long / ideal > short / ideal

    def test_long_prologue_hurts_short_streams(self):
        """Fig. 8: at long lengths, shorter prologues win."""
        short_pro = kernel_length_sweep(32, 8, [4096])[0].gops
        long_pro = kernel_length_sweep(32, 256, [4096])[0].gops
        assert short_pro >= long_pro

    def test_synthetic_kernel_shape(self):
        spec = synthetic_kernel("s", 16, 64)
        kernel = spec.compiled()
        assert kernel.ii == 16
        assert kernel.prologue_cycles == 64
        assert kernel.arith_ops_per_iteration == 48


class TestMemoryLengthSweep:
    def test_bandwidth_grows_with_length(self):
        points = memory_length_sweep([64, 1024, 8192], 1,
                                     loads_per_point=6)
        unit = [p.gbytes_per_sec for p in points
                if p.pattern == "record 1, stride 1"]
        assert unit[0] < unit[1] < unit[2]

    def test_two_ags_beat_one_where_unsaturated(self):
        single = memory_length_sweep([4096], 1, loads_per_point=8)
        double = memory_length_sweep([4096], 2, loads_per_point=8)
        one = {p.pattern: p.gbytes_per_sec for p in single}
        two = {p.pattern: p.gbytes_per_sec for p in double}
        # Fig. 10: patterns that leave DRAM bandwidth idle gain from
        # the second AG...
        assert two["record 1, stride 2"] > 1.3 * one["record 1, stride 2"]
        assert two["idx range 4M"] > 1.3 * one["idx range 4M"]
        # ...while a pattern already at the on-chip limit cannot.
        assert two["idx range 16"] == pytest.approx(
            one["idx range 16"], rel=0.1)

    def test_pattern_ordering_at_long_lengths(self):
        points = memory_length_sweep([8192], 1, loads_per_point=6)
        rates = {p.pattern: p.gbytes_per_sec for p in points}
        assert rates["record 1, stride 1"] > rates["record 1, stride 2"]
        assert rates["idx range 2K"] > rates["idx range 4M"]
        assert rates["idx range 16"] >= rates["idx range 2K"]

    def test_all_patterns_covered(self):
        assert len(MEMORY_PATTERNS) == 6

    def test_host_limit_line(self):
        assert host_interface_bandwidth_limit(64) < 0.25
        assert (host_interface_bandwidth_limit(128)
                == pytest.approx(2 * host_interface_bandwidth_limit(64)))


def test_sweeps_run_on_the_sessions_backend(monkeypatch):
    """A sweep takes a session's backend mode and the engine's rule
    picks the simulator: ``"auto"`` runs the vector backend, the
    reference mode the event model, with bit-identical figures."""
    import repro.workloads.streamlen as streamlen
    from repro.engine.session import processor

    picked = []

    def spy(backend, **options):
        picked.append(backend)
        return processor(backend, **options)

    monkeypatch.setattr(streamlen, "processor", spy)
    auto = kernel_length_sweep(32, 8, [64], invocations=4)
    event = kernel_length_sweep(32, 8, [64], invocations=4,
                                backend="event")
    assert picked == ["vector", "event"]
    assert auto == event
