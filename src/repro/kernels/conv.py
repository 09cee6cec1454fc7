"""Image convolution kernels (conv7x7, conv3x3).

The DEPTH application's pre-processing stage: each kernel consumes N
input row streams of packed 16-bit pixel pairs and produces the
convolved centre row.  Horizontal context comes from loop-carried
previous words (the sliding window the real KernelC code keeps in
LRFs); vertical context comes from the N input row streams.

Cost structure matches the paper's conv7x7: ~49 multiplies per pixel
pair keep both multipliers saturated, packed adds ride the three
adders, and the kernel sustains well over half of peak 16-bit GOPS.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.isa.kernel_ir import KernelBuilder, KernelGraph
from repro.kernels.pixelmath import clamp_u16, pack16, pad_edge, unpack16
from repro.streamc.program import KernelSpec


def binomial_taps(n: int) -> np.ndarray:
    """Integer binomial filter taps of length ``n``."""
    taps = np.array([1.0])
    for _ in range(n - 1):
        taps = np.convolve(taps, [1.0, 1.0])
    return taps


def build_conv_graph(taps: int) -> KernelGraph:
    """N-row x N-tap separable-ish convolution over packed pairs."""
    builder = KernelBuilder(
        f"conv{taps}x{taps}", elements_per_iteration=1,
        description=f"{taps}x{taps} convolution of 16-bit pixel pairs")
    coeffs = [builder.param(f"c{i}") for i in range(taps)]
    norm = builder.param("norm_shift")
    row_sums = []
    for row in range(taps):
        word = builder.stream_input(f"row{row}")
        # Sliding window: align pixel groups out of the current and
        # previous words of this row.
        aligned = [word]
        history = [builder.prev(word, 1), builder.prev(word, 2)]
        for tap in range(taps - 1):
            source = history[tap % len(history)]
            aligned.append(builder.op("ishr", word, source,
                                      name=f"align{row}_{tap}"))
        products = [builder.op("pmul16", aligned[tap], coeffs[tap])
                    for tap in range(taps)]
        row_sums.append(builder.reduce("padd16", products))
    total = builder.reduce("padd16", row_sums)
    scaled = builder.op("ishr", total, norm, name="normalize")
    builder.stream_output("out", scaled)
    return builder.build()


def _make_apply(taps: int):
    kernel2d = np.outer(binomial_taps(taps), binomial_taps(taps))
    shift = kernel2d.sum()

    def apply(inputs: list[np.ndarray], params: dict) -> list[np.ndarray]:
        if len(inputs) != taps:
            raise ValueError(
                f"conv{taps}x{taps} needs {taps} row streams")
        rows = np.stack([unpack16(words) for words in inputs])
        width = rows.shape[1]
        padded = pad_edge(rows, taps // 2)
        # products[dy, dx, x] = kernel2d[dy, dx] * padded[dy, x + dx],
        # summed one (dy, dx) plane at a time from zero, in row-major
        # tap order.
        products = kernel2d[:, :, None] * sliding_window_view(
            padded, width, axis=1)
        out = np.add.reduce(products.reshape(taps * taps, width),
                            axis=0, initial=0.0)
        return [pack16(clamp_u16(out / shift))]

    return apply


CONV7X7 = KernelSpec(
    name="conv7x7",
    graph=build_conv_graph(7),
    apply_fn=_make_apply(7),
    description="convolve images with a 7x7 filter (16 bit)",
)

CONV3X3 = KernelSpec(
    name="conv3x3",
    graph=build_conv_graph(3),
    apply_fn=_make_apply(3),
    description="convolve images with a 3x3 filter (16 bit)",
)
