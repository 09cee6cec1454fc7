"""Tests for the stream-level programming model and stream compiler."""

import numpy as np
import pytest

from repro.isa.kernel_ir import KernelBuilder
from repro.isa.stream_ops import StreamOpType
from repro.memsys.patterns import indexed, strided
from repro.streamc import (
    DescriptorFile,
    StreamProgram,
)
from repro.streamc.program import (KernelSpec, StreamProgramError,
                                   same_words)


def scale_spec(name="scale"):
    b = KernelBuilder(name)
    x = b.stream_input("x")
    c = b.param("c")
    b.stream_output("out", b.op("fmul", x, c))
    return KernelSpec(name, b.build(),
                      lambda ins, p: [p.get("c", 1.0) * ins[0]],
                      output_words=same_words)


class TestDescriptorFile:
    def test_reuse_counting(self):
        sdrs = DescriptorFile("SDR", 4)
        sdrs.reference(("a", 1))
        sdrs.reference(("a", 1))
        sdrs.reference(("a", 1))
        assert sdrs.writes == 1
        assert sdrs.references == 3
        assert sdrs.reuse == 3.0

    def test_lru_eviction(self):
        sdrs = DescriptorFile("SDR", 2)
        slot_a, _ = sdrs.reference("a")
        sdrs.reference("b")
        sdrs.reference("c")          # evicts a
        _, new = sdrs.reference("a")
        assert new
        assert sdrs.writes == 4

    def test_reference_refreshes_lru(self):
        sdrs = DescriptorFile("SDR", 2)
        sdrs.reference("a")
        sdrs.reference("b")
        sdrs.reference("a")          # a is now MRU
        sdrs.reference("c")          # evicts b
        _, new = sdrs.reference("a")
        assert not new


class TestStreamProgram:
    def test_functional_pipeline(self):
        program = StreamProgram("p")
        data = program.array("in", np.arange(64, dtype=float))
        out = program.alloc_array("out", 64)
        stream = program.load(data)
        scaled = program.kernel1(scale_spec(), [stream],
                                 params={"c": 3.0})
        program.store(scaled, out)
        image = program.build()
        image.validate()
        assert np.allclose(image.outputs["out"], 3 * np.arange(64))

    def test_dependencies_point_backwards(self):
        program = StreamProgram("p")
        data = program.array("in", np.zeros(64))
        out = program.alloc_array("out", 64)
        s = program.load(data)
        k = program.kernel1(scale_spec(), [s], params={"c": 1.0})
        program.store(k, out)
        image = program.build()
        for position, instr in enumerate(image.instructions):
            assert all(d < position for d in instr.deps)

    def test_kernel_depends_on_its_load(self):
        program = StreamProgram("p")
        data = program.array("in", np.zeros(64))
        s = program.load(data)
        program.kernel1(scale_spec(), [s], params={"c": 1.0})
        image = program.build()
        kernel = next(i for i in image.instructions
                      if i.op is StreamOpType.KERNEL)
        load = next(i for i in image.instructions
                    if i.op is StreamOpType.MEM_LOAD)
        assert load.index in kernel.deps

    def test_microcode_load_emitted_once_per_kernel(self):
        program = StreamProgram("p")
        data = program.array("in", np.zeros(64))
        s = program.load(data)
        spec = scale_spec()
        for _ in range(5):
            s = program.kernel1(spec, [s], params={"c": 1.0})
        image = program.build()
        loads = [i for i in image.instructions
                 if i.op is StreamOpType.MICROCODE_LOAD]
        assert len(loads) == 1

    def test_ucr_writes_only_on_param_change(self):
        program = StreamProgram("p")
        data = program.array("in", np.zeros(64))
        s = program.load(data)
        spec = scale_spec()
        program.kernel1(spec, [s], params={"c": 1.0})
        program.kernel1(spec, [s], params={"c": 1.0})   # unchanged
        program.kernel1(spec, [s], params={"c": 2.0})   # changed
        image = program.build()
        assert image.ucr_writes == 2

    def test_stripmining_emits_restarts(self):
        program = StreamProgram("p", max_batch_elements=1000)
        data = program.array("in", np.zeros(4096))
        s = program.load(data)
        program.kernel1(scale_spec(), [s], params={"c": 1.0})
        image = program.build()
        histogram = image.histogram()
        restarts = [i for i in image.instructions
                    if i.op is StreamOpType.RESTART]
        assert len(restarts) == 4           # 1000*4 + chain of 96
        assert histogram["kernel"] == 5
        total = sum(i.stream_elements for i in image.instructions
                    if i.op.is_kernel)
        assert total == 4096

    def test_memory_raw_dependency_range_based(self):
        program = StreamProgram("p")
        arr = program.array("a", np.zeros(4096))
        s = program.load(arr, words=128)
        program.store(s, arr, start=0)
        # Load overlapping the stored range depends on the store...
        overlapping = program.load(arr, start=64, words=128)
        # ...but a disjoint load does not.
        disjoint = program.load(arr, start=2048, words=128)
        image = program.build()
        store = next(i for i in image.instructions
                     if i.op is StreamOpType.MEM_STORE)
        loads = [i for i in image.instructions
                 if i.op is StreamOpType.MEM_LOAD]
        assert store.index in loads[1].deps
        assert store.index not in loads[2].deps

    def test_out_of_bounds_load_rejected(self):
        program = StreamProgram("p")
        data = program.array("in", np.zeros(16))
        with pytest.raises(StreamProgramError):
            program.load(data, start=8, words=16)

    def test_store_length_mismatch_rejected(self):
        program = StreamProgram("p")
        data = program.array("in", np.zeros(16))
        out = program.alloc_array("out", 64)
        s = program.load(data)
        with pytest.raises(StreamProgramError):
            program.store(s, out, pattern=strided(8, 2))

    def test_indexed_store_scatter(self):
        program = StreamProgram("p")
        data = program.array("in", np.arange(4, dtype=float) + 1)
        out = program.alloc_array("out", 16)
        s = program.load(data)
        program.store(s, out, pattern=indexed(
            4, 16, start=out.base, indices=[3, 0, 9, 12]))
        image = program.build()
        result = image.outputs["out"]
        assert result[3] == 1 and result[0] == 2
        assert result[9] == 3 and result[12] == 4

    def test_host_read_emits_move_and_read(self):
        program = StreamProgram("p")
        data = program.array("in", np.zeros(16))
        s = program.load(data)
        program.kernel1(scale_spec(), [s], params={"c": 1.0})
        program.host_read("check")
        image = program.build()
        ops = [i.op for i in image.instructions]
        assert StreamOpType.MOVE in ops
        read = next(i for i in image.instructions
                    if i.op is StreamOpType.HOST_READ)
        assert read.host_dependency

    def test_sdr_reuse_with_stable_buffers(self):
        program = StreamProgram("p")
        data = program.array("in", np.zeros(8192))
        spec = scale_spec()
        for i in range(32):
            s = program.load(data, start=0, words=256)
            program.kernel1(spec, [s], params={"c": 1.0})
        image = program.build()
        assert image.sdr_reuse > 4.0

    def test_duplicate_array_name_rejected(self):
        program = StreamProgram("p")
        program.array("a", np.zeros(4))
        with pytest.raises(StreamProgramError):
            program.array("a", np.zeros(4))
