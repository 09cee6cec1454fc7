"""StreamC-like stream-level programming model and compiler.

Applications are written against :class:`repro.streamc.program.StreamProgram`,
which plays the role of StreamC: it organises data into streams, orders
kernel executions, and (at :meth:`~repro.streamc.program.StreamProgram.build`)
runs the stream compiler -- SRF allocation, dependency encoding,
descriptor-register reuse, microcode-load insertion, stripmining of
over-length streams into kernel+restart sequences, and load hoisting
(the software pipelining of memory operations against kernel
execution the paper credits for hiding memory latency).

Kernel calls are evaluated functionally with each kernel's numpy
reference model when their data is read, so programs compute real
outputs while the emitted instruction stream carries only
timing-relevant facts.
"""

from repro.streamc.compiler import StreamProgramImage
from repro.streamc.descriptors import DescriptorFile
from repro.streamc.dispatcher import PlaybackDispatcher, StreamDispatcher
from repro.streamc.program import KernelSpec, StreamProgram, StreamRef
from repro.streamc.record import load_record, save_record

__all__ = [
    "StreamProgramImage",
    "DescriptorFile",
    "PlaybackDispatcher",
    "StreamDispatcher",
    "KernelSpec",
    "StreamProgram",
    "StreamRef",
    "load_record",
    "save_record",
]
