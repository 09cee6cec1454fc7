"""Tests for FU-occupancy analysis and playback records."""

import numpy as np
import pytest

from repro.analysis.occupancy import (
    fu_occupancy,
    render_occupancy,
)
from repro.apps.common import AppBundle
from repro.core import BoardConfig
from repro.engine import Session, SessionConfig
from repro.isa.kernel_ir import FuClass, KernelBuilder
from repro.kernels import KERNEL_LIBRARY
from repro.kernels.library import TABLE2_KERNELS
from repro.streamc import StreamProgram
from repro.streamc.program import KernelSpec, same_words
from repro.streamc.record import RecordError, load_record, save_record


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


def build_image():
    b = KernelBuilder("double")
    x = b.stream_input("x")
    b.stream_output("o", b.op("fadd", x, x))
    spec = KernelSpec("double", b.build(),
                      lambda ins, p: [2 * ins[0]],
                      output_words=same_words)
    program = StreamProgram("recme")
    data = program.array("d", np.arange(512, dtype=float))
    out = program.alloc_array("o", 512)
    s = program.kernel1(spec, [program.load(data)])
    program.store(s, out)
    return program.build()


class TestPlaybackRecord:
    def test_round_trip_identical_instructions(self):
        image = build_image()
        text = save_record(image)
        restored = load_record(text, image.kernels)
        assert len(restored.instructions) == len(image.instructions)
        for a, b in zip(image.instructions, restored.instructions):
            assert a.op == b.op
            assert a.deps == b.deps
            assert a.kernel == b.kernel
            assert a.stream_elements == b.stream_elements
            if a.pattern is not None:
                assert b.pattern.signature() == a.pattern.signature()
                assert b.pattern.start == a.pattern.start

    def test_replayed_record_simulates_identically(self):
        image = build_image()
        restored = load_record(save_record(image), image.kernels)
        board = BoardConfig.hardware()
        with Session(config=SessionConfig(jobs=1, cache=False)) as session:
            original = session.run_bundle(
                AppBundle(name=image.name, image=image), board=board)
            replayed = session.run_bundle(
                AppBundle(name=restored.name, image=restored),
                board=board)
        assert replayed.cycles == pytest.approx(original.cycles)
        assert (replayed.instruction_histogram
                == original.instruction_histogram)

    def test_descriptor_stats_preserved(self):
        image = build_image()
        restored = load_record(save_record(image), image.kernels)
        assert restored.sdr_writes == image.sdr_writes
        assert restored.sdr_reuse == image.sdr_reuse

    def test_non_playback_rejected(self):
        image = build_image()
        image.playback = False
        with pytest.raises(RecordError, match="data-dependent"):
            save_record(image)

    def test_missing_kernel_rejected(self):
        image = build_image()
        text = save_record(image)
        with pytest.raises(RecordError, match="unknown kernels"):
            load_record(text, {})

    def test_garbage_rejected(self):
        with pytest.raises(RecordError):
            load_record("not json at all", {})
        with pytest.raises(RecordError):
            load_record('{"format": 99}', {})

    def test_indexed_pattern_round_trip(self):
        from repro.memsys.patterns import indexed
        from repro.streamc.record import (
            _decode_pattern,
            _encode_pattern,
        )

        pattern = indexed(16, 1024, start=4096, indices=range(16))
        decoded = _decode_pattern(_encode_pattern(pattern))
        assert decoded == pattern
