"""Stream copy kernels: SRF bandwidth stress and color conversion.

``srfcopy`` is Table 1's SRF micro-benchmark: "reads multiple input
stream elements per loop iteration and writes the data directly back
to the SRF" -- both SRF ports busy every cycle, no arithmetic worth
mentioning.

``colorconv`` is the MPEG front-end RGB->Y conversion (packed
16-bit): three packed multiplies and two adds per pixel pair.
"""

from __future__ import annotations

import numpy as np

from repro.isa.kernel_ir import KernelBuilder, KernelGraph
from repro.kernels.pixelmath import clamp_u16, pack16, unpack16
from repro.streamc.program import KernelSpec, same_words


def build_srfcopy_graph() -> KernelGraph:
    builder = KernelBuilder(
        "srfcopy", elements_per_iteration=1,
        description="SRF bandwidth stress: read and write back")
    a = builder.stream_input("a")
    b = builder.stream_input("b")
    builder.stream_output("out_a", builder.op("ior", a, a))
    builder.stream_output("out_b", builder.op("ior", b, b))
    return builder.build()


def _identity_apply(inputs: list[np.ndarray],
                    params: dict) -> list[np.ndarray]:
    return [inputs[0].copy(), inputs[1].copy()]


SRFCOPY = KernelSpec(
    name="srfcopy",
    graph=build_srfcopy_graph(),
    apply_fn=_identity_apply,
    output_words=lambda words, params: list(words[:2]),
    output_record_words=(1, 1),
    description="SRF bandwidth stress kernel",
)


def build_split_graph() -> KernelGraph:
    builder = KernelBuilder(
        "split", description="split a stream's head record off")
    x = builder.stream_input("x")
    builder.stream_output("head", builder.op("ior", x, x))
    builder.stream_output("tail", builder.op("iand", x, x))
    return builder.build()


def _split_apply(inputs: list[np.ndarray],
                 params: dict) -> list[np.ndarray]:
    head_words = int(params["head_words"])
    data = inputs[0]
    return [data[:head_words].copy(), data[head_words:].copy()]


def _split_words(words: list[int], params: dict) -> list[int]:
    head = len(range(words[0])[:int(params["head_words"])])
    return [head, words[0] - head]


SPLIT = KernelSpec(
    name="split",
    graph=build_split_graph(),
    apply_fn=_split_apply,
    output_words=_split_words,
    output_record_words=(1, 1),
    description="stream split (head record / remainder)",
)


def build_colorconv_graph() -> KernelGraph:
    builder = KernelBuilder(
        "colorconv", description="RGB to luma conversion (16 bit)")
    r = builder.stream_input("r")
    g = builder.stream_input("g")
    b = builder.stream_input("b")
    wr = builder.param("wr")
    wg = builder.param("wg")
    wb = builder.param("wb")
    yr = builder.op("pmul16", r, wr)
    yg = builder.op("pmul16", g, wg)
    yb = builder.op("pmul16", b, wb)
    luma = builder.op("padd16", builder.op("padd16", yr, yg), yb)
    builder.stream_output("y", builder.op("ishr", luma, wr))
    return builder.build()


def _colorconv_apply(inputs: list[np.ndarray],
                     params: dict) -> list[np.ndarray]:
    r = unpack16(inputs[0])
    g = unpack16(inputs[1])
    b = unpack16(inputs[2])
    luma = (params.get("wr", 0.299) * r + params.get("wg", 0.587) * g
            + params.get("wb", 0.114) * b)
    return [pack16(clamp_u16(luma))]


COLORCONV = KernelSpec(
    name="colorconv",
    graph=build_colorconv_graph(),
    apply_fn=_colorconv_apply,
    output_words=same_words,
    description="RGB to luma conversion",
)
