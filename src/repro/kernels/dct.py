"""2D DCT kernel: 8x8 16-bit macroblocks.

The Table-2 kernel ("two-dimensional direct cosine transform of
16-bit 8-by-8 pixel macroblocks").  Each main-loop iteration processes
one 8-pixel block row (four packed words) with a fixed-point
Loeffler-style butterfly network -- 29 adds and 13 multiplies plus
normalizing shifts -- transposing through the scratchpad between the
row and column passes.

Functionally the kernel computes an orthonormal type-II 2-D DCT per
8x8 block, rounded to integers (signed 16-bit, offset-coded +32768 in
the packed representation).
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from repro.isa.kernel_ir import KernelBuilder, KernelGraph
from repro.kernels.pixelmath import pack16, unpack16
from repro.streamc.program import KernelSpec

_OFFSET = 32768.0


def build_dct_graph(name: str = "dct8x8") -> KernelGraph:
    builder = KernelBuilder(
        name, elements_per_iteration=4,
        description="2D DCT of 16-bit 8x8 macroblocks")
    words = [builder.stream_input(f"w{i}") for i in range(4)]
    scale = builder.param("scale")
    # Butterfly stage 1: 8 adds/subs over the row.
    stage1 = []
    for i in range(4):
        stage1.append(builder.op("iadd", words[i], words[3 - i]))
        stage1.append(builder.op("isub", words[i], words[3 - i]))
    # Rotation stage: 13 multiplies by cosine constants.
    rotated = [builder.op("imul", stage1[i % len(stage1)], scale,
                          name=f"rot{i}") for i in range(13)]
    # Butterfly stages 2-3: combine rotations (21 more adds).
    stage2 = []
    for i in range(10):
        stage2.append(builder.op("iadd", rotated[i],
                                 rotated[(i + 3) % 13]))
    stage3 = []
    for i in range(8):
        stage3.append(builder.op("isub", stage2[i],
                                 stage2[(i + 5) % 10]))
    for i in range(3):
        stage3.append(builder.op("iadd", stage3[i], stage2[i]))
    # Transpose staging through the scratchpad (row pass -> col pass).
    builder.op("spwrite", stage3[0])
    recalled = builder.op("spread", stage3[1], name="transpose")
    outputs = [
        builder.op("ishr", builder.op("iadd", stage3[2 * i], recalled),
                   scale, name=f"norm{i}")
        for i in range(4)
    ]
    for i, out in enumerate(outputs):
        builder.stream_output(f"o{i}", out)
    return builder.build()


def _dct_apply(inputs: list[np.ndarray],
               params: dict) -> list[np.ndarray]:
    pixels = unpack16(inputs[0]) - _OFFSET
    if len(pixels) % 64:
        raise ValueError("dct8x8 input must be whole 8x8 blocks")
    blocks = pixels.reshape(-1, 8, 8)
    coefficients = scipy.fft.dctn(blocks, axes=(1, 2), norm="ortho")
    clipped = np.clip(np.round(coefficients), -_OFFSET, _OFFSET - 1)
    return [pack16(clipped.reshape(-1) + _OFFSET)]


def dct_blocks(words: np.ndarray) -> np.ndarray:
    """Decode a packed DCT output stream to (n, 8, 8) coefficients."""
    return (unpack16(words) - _OFFSET).reshape(-1, 8, 8)


DCT8X8 = KernelSpec(
    name="dct8x8",
    graph=build_dct_graph(),
    apply_fn=_dct_apply,
    description="2D DCT of 16-bit 8x8 pixel macroblocks",
)


def _idct_apply(inputs: list[np.ndarray],
                params: dict) -> list[np.ndarray]:
    """Dequantize (optional) + inverse 2-D DCT."""
    step = float(params.get("qstep", 1.0))
    coefficients = (unpack16(inputs[0]) - _OFFSET) * step
    if params.get("zigzagged"):
        zig = coefficients.reshape(-1, 64)
        coefficients = zig[:, _UNZIGZAG].reshape(-1)
    blocks = coefficients.reshape(-1, 8, 8)
    pixels = scipy.fft.idctn(blocks, axes=(1, 2), norm="ortho")
    clipped = np.clip(np.round(pixels), -_OFFSET, _OFFSET - 1)
    return [pack16(clipped.reshape(-1) + _OFFSET)]


IDCT8X8 = KernelSpec(
    name="idct8x8",
    graph=build_dct_graph("idct8x8"),
    apply_fn=_idct_apply,
    description="inverse 2D DCT (MPEG reconstruction)",
)


def build_quantzig_graph() -> KernelGraph:
    """Quantize + zig-zag reorder of DCT coefficients.

    Reciprocal-multiply quantization on the multipliers; the zig-zag
    permutation runs through the scratchpad.
    """
    builder = KernelBuilder(
        "quantzig", description="quantize and zig-zag DCT coefficients")
    coef = builder.stream_input("coef")
    recip = builder.param("recip")
    scaled = builder.op("pmul16", coef, recip)
    rounded = builder.op("ishr", scaled, recip)
    builder.op("spwrite", rounded)
    permuted = builder.op("spread", rounded, name="zigzag")
    builder.stream_output("q", builder.op("ior", permuted, rounded))
    return builder.build()


def _quantzig_apply(inputs: list[np.ndarray],
                    params: dict) -> list[np.ndarray]:
    step = float(params.get("qstep", 16.0))
    coefficients = unpack16(inputs[0]) - _OFFSET
    quantized = np.round(coefficients / step)
    blocks = quantized.reshape(-1, 64)
    zigzagged = blocks[:, _ZIGZAG].reshape(-1)
    return [pack16(np.clip(zigzagged, -_OFFSET, _OFFSET - 1) + _OFFSET)]


def _zigzag_order() -> np.ndarray:
    order = sorted(
        ((r, c) for r in range(8) for c in range(8)),
        key=lambda rc: (rc[0] + rc[1],
                        rc[1] if (rc[0] + rc[1]) % 2 else rc[0]))
    return np.array([r * 8 + c for r, c in order])


#: Zig-zag scan positions of an 8x8 block, and their inverse.
_ZIGZAG = _zigzag_order()
_UNZIGZAG = np.argsort(_ZIGZAG)


def dequantize_zigzag(words: np.ndarray, qstep: float) -> np.ndarray:
    """Invert :data:`QUANTZIG` for round-trip tests: (n, 8, 8) blocks."""
    zig = (unpack16(words) - _OFFSET).reshape(-1, 64)
    return (zig[:, _UNZIGZAG] * qstep).reshape(-1, 8, 8)


QUANTZIG = KernelSpec(
    name="quantzig",
    graph=build_quantzig_graph(),
    apply_fn=_quantzig_apply,
    description="quantization + zig-zag scan (MPEG)",
)
