"""Tests for the event-driven processor simulator and host model."""

import numpy as np
import pytest

from repro.core import (
    BoardConfig,
    CycleCategory,
    ImagineProcessor,
    MachineConfig,
)
from repro.core.processor import SimulationError
from repro.host import HostInterface, HostModel
from repro.isa.kernel_ir import KernelBuilder
from repro.isa.stream_ops import StreamInstruction, StreamOpType
from repro.kernelc import compile_kernel
from repro.memsys.patterns import unit_stride
from repro.streamc.program import KernelSpec, StreamProgram


def scale_kernel():
    b = KernelBuilder("scale")
    x = b.stream_input("x")
    c = b.param("c")
    b.stream_output("out", b.op("fmul", x, c))
    return compile_kernel(b.build())


def simple_program(chunks=4, words=1024):
    instructions = []

    def add(op, **kw):
        instr = StreamInstruction(op, index=len(instructions), **kw)
        instructions.append(instr)
        return instr.index

    mc = add(StreamOpType.MICROCODE_LOAD, kernel="scale")
    for chunk in range(chunks):
        load = add(StreamOpType.MEM_LOAD,
                   pattern=unit_stride(words, start=chunk * words),
                   words=words)
        kernel = add(StreamOpType.KERNEL, kernel="scale",
                     stream_elements=words, deps=[mc, load])
        add(StreamOpType.MEM_STORE,
            pattern=unit_stride(words, start=100000 + chunk * words),
            words=words, deps=[kernel])
    return instructions


class TestHostModel:
    def make_host(self, program, mips=2.0):
        machine = MachineConfig()
        board = BoardConfig.hardware(host_mips=mips)
        return HostModel(HostInterface(machine, board), program)

    def test_issue_rate_limited(self):
        program = simple_program()
        host = self.make_host(program)
        index, _ = host.issue(0.0)
        assert index == 0
        assert not host.can_issue(50.0)     # 100-cycle interval
        assert host.can_issue(100.0)

    def test_host_dependency_blocks(self):
        read = StreamInstruction(StreamOpType.HOST_READ,
                                 host_dependency=True, index=0)
        after = StreamInstruction(StreamOpType.SYNC, index=1)
        host = self.make_host([read, after])
        host.issue(0.0)
        assert host.blocked_on == 0
        assert not host.can_issue(1e9)
        host.notify_completion(0, 500.0)
        assert host.blocked_on is None
        assert host.ready_at >= 500.0 + 600  # round trip

    def test_achieved_mips(self):
        machine = MachineConfig()
        interface = HostInterface(machine, BoardConfig.hardware())
        assert interface.achieved_mips == pytest.approx(2.03, abs=0.05)


class TestProcessorRun:
    def run_simple(self, board=None, **kw):
        processor = ImagineProcessor(
            board=board or BoardConfig.hardware(),
            kernels={"scale": scale_kernel()})
        return processor.run(simple_program(**kw), name="t")

    def test_cycle_conservation(self):
        result = self.run_simple()
        result.metrics.check_conservation(tolerance=1e-3)

    def test_all_categories_nonnegative(self):
        result = self.run_simple()
        for cycles in result.metrics.cycles.values():
            assert cycles >= 0

    def test_empty_program_rejected(self):
        processor = ImagineProcessor()
        with pytest.raises(SimulationError):
            processor.run([])

    def test_unknown_kernel_rejected(self):
        processor = ImagineProcessor()
        instr = StreamInstruction(StreamOpType.KERNEL, kernel="ghost",
                                  stream_elements=8, index=0)
        with pytest.raises(SimulationError):
            processor.run([instr])

    def test_loads_overlap_kernels(self):
        """With the scoreboard, memory ops hide under kernel time."""
        result = self.run_simple(chunks=8)
        fractions = result.metrics.cycle_fractions()
        busy = (fractions[CycleCategory.OPERATIONS]
                + fractions[CycleCategory.KERNEL_MAIN_LOOP_OVERHEAD]
                + fractions[CycleCategory.KERNEL_NON_MAIN_LOOP])
        assert busy > 0.10

    def test_isim_not_slower_than_hardware(self):
        hw = self.run_simple(board=BoardConfig.hardware())
        isim = ImagineProcessor(
            board=BoardConfig.isim(),
            kernels={"scale": scale_kernel()}).run(
                simple_program(), name="t")
        assert isim.cycles <= hw.cycles

    def test_host_bandwidth_sweep_monotone(self):
        cycles = []
        for mips in (0.5, 2.0, 8.0):
            board = BoardConfig.hardware(host_mips=mips)
            cycles.append(self.run_simple(board=board).cycles)
        assert cycles[0] >= cycles[1] >= cycles[2]

    def test_low_host_bandwidth_shows_host_stalls(self):
        board = BoardConfig.hardware(host_mips=0.25)
        result = self.run_simple(board=board)
        fractions = result.metrics.cycle_fractions()
        assert fractions[CycleCategory.HOST_BANDWIDTH_STALL] > 0.2

    def test_histogram_attached(self):
        result = self.run_simple()
        assert result.instruction_histogram["kernel"] == 4
        assert result.instruction_histogram["memory"] == 8

    def test_power_report_above_idle(self):
        result = self.run_simple()
        assert result.power.watts >= 4.72

    def test_summary_string(self):
        result = self.run_simple()
        assert "GOPS" in result.summary()


class TestMicrocodeDynamics:
    def test_explicit_microcode_loads_stall_first_kernel_only(self):
        processor = ImagineProcessor(
            board=BoardConfig.hardware(),
            kernels={"scale": scale_kernel()})
        result = processor.run(simple_program(chunks=6), name="t")
        fractions = result.metrics.cycle_fractions()
        assert fractions[CycleCategory.MICROCODE_LOAD_STALL] < 0.2

    def test_missing_microcode_auto_loads(self):
        # Program without explicit MICROCODE_LOAD still runs.
        instructions = simple_program()[1:]
        for i, instr in enumerate(instructions):
            instr.index = i
            instr.deps = [d - 1 for d in instr.deps if d > 0]
        processor = ImagineProcessor(
            board=BoardConfig.hardware(),
            kernels={"scale": scale_kernel()})
        result = processor.run(instructions, name="t")
        assert result.cycles > 0


class TestEndToEndStreamProgram:
    def test_program_image_runs_and_computes(self):
        b = KernelBuilder("double")
        x = b.stream_input("x")
        b.stream_output("out", b.op("fadd", x, x))
        spec = KernelSpec("double", b.build(),
                          lambda ins, p: [2.0 * ins[0]])
        program = StreamProgram("e2e")
        data = program.array("in", np.arange(512, dtype=float))
        out = program.alloc_array("out", 512)
        s = program.load(data)
        program.store(program.kernel1(spec, [s]), out)
        image = program.build()
        processor = ImagineProcessor(board=BoardConfig.hardware(),
                                     kernels=image.kernels)
        result = processor.run(image)
        assert np.allclose(image.outputs["out"], 2 * np.arange(512))
        assert result.metrics.sdr_writes == image.sdr_writes
        result.metrics.check_conservation(1e-3)


class TestVectorRefusal:
    def test_vector_processor_refuses_faults_and_tracers(self):
        """The vector backend cannot reproduce per-event runs exactly,
        so it refuses them itself; the engine never asks it to."""
        from repro.core.vector import BackendUnsupported, VectorProcessor
        from repro.faults import BUILTIN_PLANS
        from repro.obs.tracer import Tracer

        kernels = {"scale": scale_kernel()}
        with pytest.raises(BackendUnsupported):
            VectorProcessor(kernels=kernels, faults=BUILTIN_PLANS["board"])
        with pytest.raises(BackendUnsupported):
            VectorProcessor(kernels=kernels, tracer=Tracer())
