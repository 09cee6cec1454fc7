#!/usr/bin/env python3
"""Quickstart: write a kernel, build a stream program, simulate it.

This walks the full Imagine tool flow in ~50 lines:

1. define a kernel in the KernelC-like IR (a saxpy),
2. compile it to a software-pipelined VLIW schedule,
3. write the StreamC-like stream program around it,
4. run it through the experiment engine and read the timing
   breakdown.
"""

import numpy as np

from repro import BoardConfig, KernelBuilder
from repro.apps import AppBundle
from repro.engine import Session
from repro.streamc import KernelSpec, StreamProgram


def make_saxpy():
    """y <- a*x + y, one element per cluster per iteration."""
    b = KernelBuilder("saxpy", description="a*x + y")
    x = b.stream_input("x")
    y = b.stream_input("y")
    a = b.param("a")
    b.stream_output("out", b.op("fadd", b.op("fmul", a, x), y))
    return KernelSpec("saxpy", b.build(),
                      lambda ins, p: [p["a"] * ins[0] + ins[1]],
                      unroll=4)


def main():
    saxpy = make_saxpy()
    compiled = saxpy.compiled()
    print(f"saxpy compiled: II={compiled.ii} cycles, "
          f"{compiled.stages} pipeline stages, "
          f"{compiled.microcode_words} microcode words")

    # Stream program: stripmine a 16K-element saxpy through the SRF.
    n, chunk = 16384, 2048
    program = StreamProgram("saxpy_app")
    xs = program.array("x", np.arange(n, dtype=float))
    ys = program.array("y", np.ones(n))
    out = program.alloc_array("out", n)
    for start in range(0, n, chunk):
        x = program.load(xs, start=start, words=chunk)
        y = program.load(ys, start=start, words=chunk)
        result = program.kernel1(saxpy, [x, y], params={"a": 2.0})
        program.store(result, out, start=start)
    image = program.build()
    print(f"stream program: {len(image)} stream instructions, "
          f"SDR reuse {image.sdr_reuse:.1f}x")

    # Simulate on the development-board model.  Hand-built bundles
    # run in-process; catalog apps (repro.engine.RunRequest) can also
    # shard across processes and hit the result cache.  An untraced,
    # fault-free run like this one runs on the vectorized backend --
    # bit-identical to the event model, several times faster
    # (docs/engine.md).
    bundle = AppBundle(name="saxpy_app", image=image)
    with Session() as session:
        run = session.run_bundle(bundle,
                                 board=BoardConfig.hardware())
    print(run.summary())
    print("\nWhere the cycles went:")
    for category, fraction in run.metrics.cycle_fractions().items():
        if fraction > 0.005:
            print(f"  {category.value:30s} {fraction * 100:6.2f}%")

    expected = 2.0 * np.arange(n) + 1.0
    assert np.allclose(image.outputs["out"], expected)
    print("\nfunctional check: out == 2*x + y  OK")


if __name__ == "__main__":
    main()
