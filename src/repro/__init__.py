"""repro: a reproduction of "Evaluating the Imagine Stream Architecture".

The package models the complete Imagine stream processing system from
the ISCA 2004 evaluation paper: the chip (8 SIMD VLIW clusters, a
two-level LRF/SRF register hierarchy, SDRAM memory system, stream
controller), its software system (a KernelC-like kernel compiler with
software pipelining and a StreamC-like stream compiler with
stripmining and SRF allocation), the development board's host
interface, and the paper's entire evaluation: micro-benchmarks,
kernels, and the DEPTH / MPEG / QRD / RTSL applications.

Quickstart (the :mod:`repro.engine` session is the front door for
running simulations -- parallel across processes, answered from a
content-addressed result cache)::

    from repro import RunRequest, Session, SessionConfig

    with Session(config=SessionConfig(jobs=4)) as session:
        result = session.run(RunRequest(app="depth"))
    print(result.summary())
"""

from repro.core import (
    BoardConfig,
    CycleCategory,
    EnergyModel,
    ImagineProcessor,
    MachineConfig,
    Metrics,
    PowerReport,
    RunResult,
)
from repro.isa import CompiledKernel, KernelBuilder
from repro.kernelc import compile_kernel

__version__ = "1.0.0"


def __getattr__(name):
    # Lazy so that ``import repro`` stays light and the engine (which
    # itself imports repro for the code salt) avoids a cycle.
    if name in ("Session", "SessionConfig", "RunRequest",
                "RunHandle"):
        import repro.engine as engine

        return getattr(engine, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BoardConfig",
    "CycleCategory",
    "EnergyModel",
    "ImagineProcessor",
    "MachineConfig",
    "Metrics",
    "PowerReport",
    "RunHandle",
    "RunRequest",
    "RunResult",
    "Session",
    "SessionConfig",
    "CompiledKernel",
    "KernelBuilder",
    "compile_kernel",
    "__version__",
]
