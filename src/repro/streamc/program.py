"""The StreamC stand-in: stream program builder and stream compiler.

A :class:`StreamProgram` is written the way a StreamC program reads:
``load`` brings data from Imagine memory into an SRF stream, ``kernel``
applies a compiled kernel to SRF streams producing new SRF streams,
``store`` writes a stream back to memory, and ``host_read`` models
scalar results flowing back to the host (serializing it).

``build()`` is the stream compiler.  It performs the jobs the paper
lists in Section 2.3: dependency analysis between kernels and stream
loads/stores, SRF allocation and management, stripmining over-length
streams into kernel+restart sequences, descriptor-register (SDR/MAR)
management with reuse, UCR parameter writes, and microcode-load
insertion.  Memory/kernel software pipelining needs no explicit pass:
dependencies are encoded per instruction, so the scoreboard lets loads
run ahead of and underneath kernel execution exactly as on the real
machine.

The builder records calls; stream *data* is computed only when
something reads it.  The instruction stream needs stream lengths
alone, and a kernel declares its output lengths from its input
lengths (``KernelSpec.output_words``).  Data is computed by each
kernel's numpy reference model when a stream's or array's ``data``, a
runtime scalar or the image's ``outputs`` is read, or when a kernel
without a length declaration is called (its output lengths depend on
its input data).  Every call not yet evaluated is then evaluated in
program order, so each read sees what eager execution would have
computed.  A program whose construction never needed data has
data-independent control flow: its image is a ``playback`` program,
one StreamC could record once and replay.
"""

from __future__ import annotations

import weakref
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.core.config import MachineConfig
from repro.core.microcontroller import Microcontroller
from repro.core.srf import StreamRegisterFile
from repro.isa.kernel_ir import KernelGraph
from repro.isa.stream_ops import StreamInstruction, StreamOpType
from repro.isa.vliw import CompiledKernel
from repro.kernelc import compile_kernel
from repro.memsys.address_gen import expand_pattern
from repro.memsys.patterns import AccessPattern, unit_stride
from repro.streamc.compiler import (ArrayExtent, SrfAllocationRecord,
                                    StreamProgramImage)
from repro.streamc.descriptors import DescriptorFile

#: Kernel calls over streams longer than this are stripmined into a
#: KERNEL followed by RESTART continuations (the paper's cluster
#: Restart operations).
DEFAULT_MAX_BATCH_ELEMENTS = 4096
_ARRAY_ALIGN_WORDS = 4096


class StreamProgramError(Exception):
    """Malformed stream program."""


@dataclass
class KernelSpec:
    """A kernel: its dataflow graph plus a numpy reference model.

    ``apply_fn(inputs, params) -> outputs`` receives one 1-D word
    array per input stream and returns one per output stream.
    ``output_words(input_words, params) -> list[int]`` declares the
    output streams' lengths from the input streams' lengths, so a call
    needs no data; it raises ``ValueError`` on a shape the model
    rejects, so a malformed call still fails at the call.  Kernels
    whose output lengths depend on data leave it ``None``.
    ``unroll`` is passed to the kernel compiler.
    """

    name: str
    graph: KernelGraph
    apply_fn: Callable[[list[np.ndarray], dict], list[np.ndarray]]
    unroll: int = 1
    output_record_words: tuple[int, ...] = (1,)
    description: str = ""
    output_words: Callable[[list[int], dict], list[int]] | None = None
    _compiled: CompiledKernel | None = field(default=None, repr=False)

    def compiled(self) -> CompiledKernel:
        if self._compiled is None:
            self._compiled = compile_kernel(self.graph,
                                            unroll_factor=self.unroll)
        return self._compiled


def same_words(words: list[int], params: dict) -> list[int]:
    """``output_words`` of a kernel whose one output stream is as
    long as its first input stream."""
    return [words[0]]


@dataclass
class _Call:
    kind: str
    payload: dict


class _Pending:
    """Recorded calls whose data is not computed yet, in program order.

    The program and its images hold it; streams and arrays reach it
    through a weak reference, so the calls never cycle back to it and
    an unread image is freed by reference counting, like any other.
    """

    def __init__(self) -> None:
        self.calls: deque[_Call] = deque()
        #: Whether anything has asked for data (see ``build``).
        self.forced = False
        self.ref = weakref.ref(self)

    def evaluate(self) -> None:
        self.forced = True
        while self.calls:
            _evaluate(self.calls[0])
            self.calls.popleft()


def _evaluate_pending(pending: weakref.ref[_Pending], name: str) -> None:
    live = pending()
    if live is None:
        raise StreamProgramError(
            f"{name!r}: its program and images are gone, so its data "
            f"can no longer be computed")
    live.evaluate()


@dataclass(eq=False)
class MemArray:
    """A named region of Imagine DRAM."""

    name: str
    _data: np.ndarray = field(repr=False)
    base: int
    _pending: weakref.ref[_Pending] = field(repr=False)

    @property
    def words(self) -> int:
        return len(self._data)

    @property
    def data(self) -> np.ndarray:
        """Contents after every call recorded so far."""
        _evaluate_pending(self._pending, self.name)
        return self._data


@dataclass(eq=False)
class StreamRef:
    """A stream living in the SRF; ``data`` is computed on first read."""

    ident: int
    name: str
    words: int
    record_words: int
    _pending: weakref.ref[_Pending] = field(repr=False)
    _data: np.ndarray | None = field(default=None, repr=False)

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            _evaluate_pending(self._pending, self.name)
        return self._data

    @property
    def elements(self) -> int:
        return self.words // self.record_words


@dataclass(frozen=True, eq=False)
class StreamScalar:
    """Word ``index`` of a stream, passed to kernels as a parameter.

    A runtime value: the stream compiler never sees it, so two scalars
    compare by identity (``eq=False``) and only reusing the same scalar
    elides a UCR write.  Kernel models receive its float value.
    """

    stream: StreamRef
    index: int

    def __float__(self) -> float:
        return float(self.stream.data[self.index])


class _Outputs(Mapping):
    """``image.outputs``: array name -> contents after the whole
    program, evaluating pending calls on the first read."""

    def __init__(self, arrays: dict[str, MemArray],
                 pending: _Pending) -> None:
        self._arrays = arrays
        self._pending = pending

    def __getitem__(self, name: str) -> np.ndarray:
        array = self._arrays[name]
        self._pending.evaluate()
        return array._data

    def __iter__(self) -> Iterator[str]:
        return iter(self._arrays)

    def __len__(self) -> int:
        return len(self._arrays)


class StreamProgram:
    """Builder + stream compiler for one application run."""

    def __init__(self, name: str, machine: MachineConfig | None = None,
                 max_batch_elements: int = DEFAULT_MAX_BATCH_ELEMENTS,
                 srf_rotation_depth: int = 4) -> None:
        self.name = name
        self.machine = machine or MachineConfig()
        self.max_batch_elements = max_batch_elements
        #: SRF buffer-rotation policy knob (see StreamRegisterFile);
        #: exposed for the double-buffering ablation study.
        self.srf_rotation_depth = srf_rotation_depth
        self._arrays: dict[str, MemArray] = {}
        self._next_base = 0
        self._calls: list[_Call] = []
        self._pending = _Pending()
        self._stream_count = 0

    # ------------------------------------------------------------------
    # Data declaration.
    # ------------------------------------------------------------------
    def array(self, name: str, data: np.ndarray) -> MemArray:
        """Place ``data`` (flattened to words) in Imagine memory."""
        if name in self._arrays:
            raise StreamProgramError(f"array {name!r} already declared")
        words = np.asarray(data, dtype=np.float64).reshape(-1).copy()
        array = MemArray(name, words, self._next_base, self._pending.ref)
        span = max(1, len(words))
        self._next_base += (
            (span + _ARRAY_ALIGN_WORDS - 1)
            // _ARRAY_ALIGN_WORDS * _ARRAY_ALIGN_WORDS)
        self._arrays[name] = array
        return array

    def alloc_array(self, name: str, words: int) -> MemArray:
        return self.array(name, np.zeros(words))

    # ------------------------------------------------------------------
    # Stream operations (StreamC statements).
    # ------------------------------------------------------------------
    def load(self, array: MemArray, start: int = 0,
             words: int | None = None, record_words: int = 1,
             pattern: AccessPattern | None = None,
             name: str | None = None) -> StreamRef:
        """Load a stream from memory into the SRF."""
        if pattern is None:
            if words is None:
                words = array.words - start
            pattern = unit_stride(words, start=array.base + start)
        _check_bounds(array, pattern, "load from")
        stream = self._new_stream(name or f"{array.name}@{start}",
                                  pattern.words, record_words)
        self._record(_Call("load", dict(
            array=array, pattern=pattern, stream=stream)))
        return stream

    def store(self, stream: StreamRef, array: MemArray, start: int = 0,
              pattern: AccessPattern | None = None) -> None:
        """Store a stream from the SRF back to memory."""
        if pattern is None:
            pattern = unit_stride(stream.words, start=array.base + start)
        if pattern.words != stream.words:
            raise StreamProgramError(
                f"store of {stream.name!r}: pattern covers "
                f"{pattern.words} words, stream has {stream.words}")
        _check_bounds(array, pattern, "store to")
        self._record(_Call("store", dict(
            array=array, pattern=pattern, stream=stream)))

    def kernel(self, spec: KernelSpec, inputs: list[StreamRef],
               params: dict | None = None,
               name: str | None = None) -> list[StreamRef]:
        """Run a kernel over SRF streams; returns its output streams."""
        params = dict(params or {})
        if spec.output_words is None:
            # The output lengths depend on the data: compute it now.
            self._pending.evaluate()
            data = _apply(spec, inputs, params)
            words = [len(out) for out in data]
        else:
            data = None
            words = spec.output_words([s.words for s in inputs], params)
        records = spec.output_record_words + (1,) * (
            len(words) - len(spec.output_record_words))
        outputs = [
            self._new_stream(name or f"{spec.name}.out{i}", count,
                             records[i])
            for i, count in enumerate(words)
        ]
        call = _Call("kernel", dict(
            spec=spec, inputs=list(inputs), outputs=outputs,
            params=params))
        if data is None:
            self._record(call)
        else:
            self._calls.append(call)
            for stream, out in zip(outputs, data):
                stream._data = out
        return outputs

    def kernel1(self, spec: KernelSpec, inputs: list[StreamRef],
                params: dict | None = None,
                name: str | None = None) -> StreamRef:
        """Convenience for single-output kernels."""
        outputs = self.kernel(spec, inputs, params, name)
        if len(outputs) != 1:
            raise StreamProgramError(
                f"{spec.name} produced {len(outputs)} outputs")
        return outputs[0]

    def scalar(self, stream: StreamRef, index: int = 0) -> StreamScalar:
        """Word ``index`` of ``stream`` as a runtime kernel parameter."""
        if not 0 <= index < stream.words:
            raise StreamProgramError(
                f"scalar {index} of {stream.name!r} out of range "
                f"(stream has {stream.words} words)")
        return StreamScalar(stream, index)

    def host_read(self, tag: str = "") -> None:
        """Host reads a scalar result; serializes the host."""
        self._record(_Call("host_read", dict(tag=tag)))

    # ------------------------------------------------------------------
    # The stream compiler.
    # ------------------------------------------------------------------
    def build(self) -> StreamProgramImage:
        last_use = self._analyze_lifetimes()
        emitter = _Emitter(self, last_use)
        for position, call in enumerate(self._calls):
            emitter.emit(position, call)
        return emitter.finish()

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _record(self, call: _Call) -> None:
        self._calls.append(call)
        self._pending.calls.append(call)

    def _new_stream(self, name: str, words: int,
                    record_words: int) -> StreamRef:
        stream = StreamRef(self._stream_count, name, int(words),
                           record_words, self._pending.ref)
        self._stream_count += 1
        return stream

    def _analyze_lifetimes(self) -> dict[int, int]:
        """Last call position that reads each stream."""
        last_use: dict[int, int] = {}
        for position, call in enumerate(self._calls):
            if call.kind == "kernel":
                for stream in call.payload["inputs"]:
                    last_use[stream.ident] = position
                for stream in call.payload["outputs"]:
                    last_use.setdefault(stream.ident, position)
            elif call.kind == "store":
                last_use[call.payload["stream"].ident] = position
            elif call.kind == "load":
                stream = call.payload["stream"]
                last_use.setdefault(stream.ident, position)
        return last_use


def _apply(spec: KernelSpec, inputs: list[StreamRef],
           params: dict) -> list[np.ndarray]:
    """Run ``spec``'s model; runtime scalars reach it as floats."""
    values = {key: float(value) if isinstance(value, StreamScalar)
              else value for key, value in params.items()}
    outputs = spec.apply_fn([s.data for s in inputs], values)
    if not isinstance(outputs, (list, tuple)):
        outputs = [outputs]
    return [np.asarray(out, dtype=np.float64).reshape(-1)
            for out in outputs]


def _evaluate(call: _Call) -> None:
    """Compute one recorded call's data (its inputs already exist)."""
    payload = call.payload
    if call.kind == "load":
        array = payload["array"]
        payload["stream"]._data = array._data[
            _positions(array, payload["pattern"])]
    elif call.kind == "store":
        array, words = payload["array"], payload["stream"].data
        positions = _positions(array, payload["pattern"])
        array._data[positions] = words[:len(positions)]
    elif call.kind == "kernel":
        spec, outputs = payload["spec"], payload["outputs"]
        data = _apply(spec, payload["inputs"], payload["params"])
        declared = [s.words for s in outputs]
        if [len(out) for out in data] != declared:
            raise StreamProgramError(
                f"{spec.name}: model produced "
                f"{[len(out) for out in data]} output words, "
                f"its declaration {declared}")
        for stream, out in zip(outputs, data):
            stream._data = out


class _Emitter:
    """Instruction emission state for one ``build()``."""

    def __init__(self, program: StreamProgram,
                 last_use: dict[int, int]) -> None:
        self.program = program
        #: Call position -> streams whose last reader it is, in
        #: ``last_use`` order (the order they are released in).
        self.dies_at: dict[int, list[int]] = {}
        for ident, last in last_use.items():
            self.dies_at.setdefault(last, []).append(ident)
        machine = program.machine
        self.instructions: list[StreamInstruction] = []
        self.srf = StreamRegisterFile(
            machine, rotation_depth=program.srf_rotation_depth)
        self.sdrs = DescriptorFile("SDR", machine.num_sdrs)
        self.mars = DescriptorFile("MAR", machine.num_mars)
        self.microcode = Microcontroller(machine)
        self.ucr_writes = 0
        self.last_params: dict[str, dict] = {}
        self.last_kernel_instr: int | None = None
        #: Per-array recent stores as (lo, hi, instr) word ranges; a
        #: load only depends on stores whose range it overlaps.
        self.stores_by_array: dict[str, list[tuple[int, int, int]]] = {}
        #: Freed SRF intervals -> instruction that released them.
        self.freed: list[tuple[int, int, int]] = []
        self.region_of: dict[int, tuple[int, int]] = {}
        #: SRF placement log for the static verifier, as mutable
        #: [stream, start, words, allocated_at, freed_at] rows; frozen
        #: into SrfAllocationRecords by finish().
        self.srf_log: list[list] = []
        self._open_srf_row: dict[int, list] = {}
        self.producer_of: dict[int, int] = {}
        self.microcode_load_of: dict[str, int] = {}
        self.kernels_used: dict[str, CompiledKernel] = {}

    # -- low-level helpers ------------------------------------------------
    def _emit(self, op: StreamOpType, deps: list[int] | None = None,
              **kw) -> int:
        index = len(self.instructions)
        instr = StreamInstruction(op=op, deps=sorted(set(deps or [])),
                                  index=index, **kw)
        self.instructions.append(instr)
        return index

    def _allocate_region(self, stream: StreamRef) -> tuple[list[int], int]:
        """Allocate SRF space; return (WAR deps, region start)."""
        region = self.srf.allocate(f"s{stream.ident}",
                                   max(1, stream.words))
        lo, hi = region.start, region.end
        deps = []
        still_free = []
        for freed in self.freed:
            if freed[0] < hi and lo < freed[1]:
                deps.append(freed[2])
            else:
                still_free.append(freed)
        self.freed = still_free
        self.region_of[stream.ident] = (lo, region.words)
        row = [f"s{stream.ident}:{stream.name}", lo, region.words,
               len(self.instructions), None]
        self.srf_log.append(row)
        self._open_srf_row[stream.ident] = row
        return deps, lo

    def _release_dead_streams(self, position: int,
                              releaser: int) -> None:
        for ident in self.dies_at.pop(position, ()):
            if ident in self.region_of:
                start, words = self.region_of.pop(ident)
                self.srf.free(f"s{ident}")
                self.freed.append((start, start + words, releaser))
                row = self._open_srf_row.pop(ident, None)
                if row is not None:
                    row[4] = releaser

    def _sdr_for(self, stream: StreamRef) -> list[int]:
        """Reference the stream's descriptor; emit a write if new."""
        start, words = self.region_of.get(stream.ident,
                                          (0, stream.words))
        slot, new = self.sdrs.reference((start, words))
        if new:
            return [self._emit(StreamOpType.SDR_WRITE, sdr=slot,
                               tag=stream.name)]
        return []

    def _mar_for(self, array: MemArray,
                 pattern: AccessPattern) -> list[int]:
        slot, new = self.mars.reference((array.name,) + pattern.signature())
        if new:
            return [self._emit(StreamOpType.MAR_WRITE, mar=slot,
                               tag=array.name)]
        return []

    def _ucr_for(self, spec: KernelSpec, params: dict) -> list[int]:
        previous = self.last_params.get(spec.name)
        self.last_params[spec.name] = params
        deps = []
        # A StreamScalar compares by identity: its value is unknown
        # here, so only the same scalar again elides the write.
        changed = (params.keys() if previous is None else
                   [k for k, v in params.items()
                    if previous.get(k) != v])
        for key in changed:
            deps.append(self._emit(StreamOpType.UCR_WRITE, ucr=0,
                                   tag=f"{spec.name}.{key}"))
            self.ucr_writes += 1
        return deps

    def _microcode_for(self, spec: KernelSpec) -> list[int]:
        compiled = spec.compiled()
        self.kernels_used[spec.name] = compiled
        if self.microcode.is_resident(spec.name):
            self.microcode.touch(spec.name)
            return [self.microcode_load_of[spec.name]]
        self.microcode.load(spec.name, compiled.microcode_words)
        index = self._emit(StreamOpType.MICROCODE_LOAD, kernel=spec.name,
                           words=compiled.microcode_words)
        self.microcode_load_of[spec.name] = index
        return [index]

    # -- per-call emission -------------------------------------------------
    def emit(self, position: int, call: _Call) -> None:
        handler = getattr(self, f"_emit_{call.kind}")
        handler(position, **call.payload)

    def _emit_load(self, position: int, array: MemArray,
                   pattern: AccessPattern, stream: StreamRef) -> None:
        war_deps, _ = self._allocate_region(stream)
        deps = war_deps + self._sdr_for(stream) + self._mar_for(
            array, pattern)
        lo, hi = _pattern_range(pattern)
        for store_lo, store_hi, instr in self.stores_by_array.get(
                array.name, ()):
            if store_lo < hi and lo < store_hi:
                deps.append(instr)
        index = self._emit(StreamOpType.MEM_LOAD, deps=deps,
                           pattern=pattern, words=pattern.words,
                           tag=stream.name)
        self.producer_of[stream.ident] = index
        self._release_dead_streams(position, index)

    def _emit_store(self, position: int, array: MemArray,
                    pattern: AccessPattern, stream: StreamRef) -> None:
        deps = self._sdr_for(stream) + self._mar_for(array, pattern)
        if stream.ident in self.producer_of:
            deps.append(self.producer_of[stream.ident])
        index = self._emit(StreamOpType.MEM_STORE, deps=deps,
                           pattern=pattern, words=pattern.words,
                           tag=stream.name)
        ranges = self.stores_by_array.setdefault(array.name, [])
        ranges.append(_pattern_range(pattern) + (index,))
        if len(ranges) > 128:
            # Compact: collapse the oldest half into one coarse range.
            old, recent = ranges[:64], ranges[64:]
            merged = (min(r[0] for r in old), max(r[1] for r in old),
                      max(r[2] for r in old))
            self.stores_by_array[array.name] = [merged] + recent
        self._release_dead_streams(position, index)

    def _emit_kernel(self, position: int, spec: KernelSpec,
                     inputs: list[StreamRef], outputs: list[StreamRef],
                     params: dict) -> None:
        deps: list[int] = []
        for stream in inputs:
            deps += self._sdr_for(stream)
            if stream.ident in self.producer_of:
                deps.append(self.producer_of[stream.ident])
        for stream in outputs:
            war, _ = self._allocate_region(stream)
            deps += war + self._sdr_for(stream)
        deps += self._ucr_for(spec, params)
        deps += self._microcode_for(spec)

        elements = max((s.elements for s in inputs), default=0)
        if elements == 0:
            elements = max((s.elements for s in outputs), default=1)
        limit = self.program.max_batch_elements
        first_chunk = min(elements, limit)
        index = self._emit(StreamOpType.KERNEL, deps=deps,
                           kernel=spec.name,
                           stream_elements=first_chunk,
                           tag=spec.name)
        remaining = elements - first_chunk
        while remaining > 0:
            chunk = min(remaining, limit)
            index = self._emit(StreamOpType.RESTART, deps=[index],
                               kernel=spec.name, stream_elements=chunk,
                               tag=f"{spec.name}.restart")
            remaining -= chunk
        for stream in outputs:
            self.producer_of[stream.ident] = index
        self.last_kernel_instr = index
        self._release_dead_streams(position, index)

    def _emit_host_read(self, position: int, tag: str) -> None:
        deps = ([] if self.last_kernel_instr is None
                else [self.last_kernel_instr])
        move = self._emit(StreamOpType.MOVE, deps=deps, tag=tag)
        self._emit(StreamOpType.HOST_READ, deps=[move],
                   host_dependency=True, tag=tag)

    # -- wrap-up -----------------------------------------------------------
    def finish(self) -> StreamProgramImage:
        program = self.program
        return StreamProgramImage(
            name=program.name,
            instructions=self.instructions,
            kernels=dict(self.kernels_used),
            outputs=_Outputs(dict(program._arrays), program._pending),
            sdr_writes=self.sdrs.writes,
            sdr_references=self.sdrs.references,
            mar_writes=self.mars.writes,
            mar_references=self.mars.references,
            ucr_writes=self.ucr_writes,
            playback=not program._pending.forced,
            arrays=[ArrayExtent(name, array.base, array.words)
                    for name, array in sorted(program._arrays.items())],
            srf_allocations=[SrfAllocationRecord(*row)
                             for row in self.srf_log],
        )


def _pattern_range(pattern: AccessPattern) -> tuple[int, int]:
    """Conservative [lo, hi) absolute word range a pattern touches."""
    if pattern.kind == "strided":
        span = ((pattern.records - 1) * pattern.stride
                + pattern.record_words)
        return pattern.start, pattern.start + max(span, pattern.words)
    return pattern.start, pattern.start + max(pattern.index_range_words,
                                              pattern.words)


def _check_bounds(array: MemArray, pattern: AccessPattern,
                  verb: str) -> None:
    """A strided pattern must fall inside ``array`` (an indexed one
    wraps around it).  Computed from the pattern's first and last
    records, without expanding its addresses."""
    if pattern.kind == "indexed":
        return
    records, stride = pattern.records, pattern.stride
    last = pattern.start + (records - 1) * stride
    lo = min(pattern.start, last)
    # The last record may be short; every earlier one is whole.
    hi = last + pattern.words - (records - 1) * pattern.record_words
    if records > 1:
        hi = max(hi, max(pattern.start, last - stride)
                 + pattern.record_words)
    if lo < array.base or hi > array.base + array.words:
        raise StreamProgramError(
            f"{verb} {array.name!r} out of bounds "
            f"(array has {array.words} words)")


def _positions(array: MemArray, pattern: AccessPattern) -> np.ndarray:
    """Word offsets ``pattern`` touches in ``array``; an indexed
    pattern wraps around the array."""
    positions = expand_pattern(pattern) - array.base
    if pattern.kind == "indexed":
        return positions % array.words
    return positions
