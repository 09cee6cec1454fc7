"""SAD kernels: blocksad plus the DEPTH pipeline helpers.

``blocksad`` is the Table-2 kernel (packed 16-bit absolute
differences with accumulation; scratchpad-assisted block bookkeeping
holds it near 4 GOPS).  ``vsum7`` and ``sadmin`` are the stereo-depth
pipeline stages: vertical 7-row sums of absolute differences, then a
horizontal 7-sum with a running best-disparity select -- together they
implement the paper's "SAD kernel is called repeatedly to find the
disparity that minimizes the SAD of a 7x7 area" (Section 2.1).
"""

from __future__ import annotations

import numpy as np

from repro.isa.kernel_ir import KernelBuilder, KernelGraph
from repro.isa.vliw import CompiledKernel
from repro.kernels.pixelmath import clamp_u16, pack16, pad_edge, unpack16
from repro.streamc.program import KernelSpec


def build_blocksad_graph() -> KernelGraph:
    builder = KernelBuilder(
        "blocksad", description="compute SAD of two images (16 bit)")
    a = builder.stream_input("a")
    b = builder.stream_input("b")
    diff = builder.op("psub16", a, b)
    magnitude = builder.op("pabs16", diff)
    acc = builder.op("padd16", magnitude,
                     builder.prev(magnitude, 1), name="acc")
    # Block-boundary bookkeeping through the scratchpad; the second
    # indexed read (the block-offset table) makes the kernel
    # scratchpad-bound, matching its measured rate.
    builder.op("spwrite", acc)
    recalled = builder.op("spread", acc, name="block_base")
    merged = builder.op("padd16", acc, recalled)
    offset = builder.op("spread", merged, name="offset_table")
    builder.op("comm", offset, name="exchange")
    builder.stream_output("out", merged)
    return builder.build()


def _blocksad_apply(inputs: list[np.ndarray],
                    params: dict) -> list[np.ndarray]:
    """Packed pixel difference.

    ``shift_words`` rolls the second stream left by whole words
    (2-pixel steps), the disparity-candidate alignment DEPTH uses.
    ``mode="residual"`` emits the signed difference offset-coded by
    +32768 (MPEG's motion-compensated residual) instead of |a - b|.
    """
    shift = int(params.get("shift_words", 0))
    b_words = np.roll(inputs[1], -shift) if shift else inputs[1]
    a = unpack16(inputs[0])
    b = unpack16(b_words)
    if params.get("mode") == "residual":
        return [pack16(clamp_u16(a - b + 32768.0))]
    if params.get("mode") == "add":
        return [pack16(clamp_u16(a + b - 32768.0))]
    return [pack16(clamp_u16(np.abs(a - b)))]


BLOCKSAD = KernelSpec(
    name="blocksad",
    graph=build_blocksad_graph(),
    apply_fn=_blocksad_apply,
    description="compute SAD of two images (16 bit)",
)


def build_vsum_graph(rows: int = 7) -> KernelGraph:
    builder = KernelBuilder(
        f"vsum{rows}",
        description=f"vertical {rows}-row sum of packed differences")
    words = [builder.stream_input(f"row{i}") for i in range(rows)]
    builder.stream_output("out", builder.reduce("padd16", words))
    return builder.build()


def _vsum_apply(inputs: list[np.ndarray],
                params: dict) -> list[np.ndarray]:
    total = np.zeros(2 * len(inputs[0]))
    for words in inputs:
        total += unpack16(words)
    return [pack16(clamp_u16(total))]


VSUM7 = KernelSpec(
    name="vsum7",
    graph=build_vsum_graph(7),
    apply_fn=_vsum_apply,
    description="7-row vertical sum for the stereo SAD window",
)


def build_sadmin_graph(taps: int = 7) -> KernelGraph:
    builder = KernelBuilder(
        "sadmin",
        description="horizontal 7-sum and running best-disparity select")
    vsum = builder.stream_input("vsum")
    best_score = builder.stream_input("best_score")
    best_disp = builder.stream_input("best_disp")
    disparity = builder.param("disparity")
    aligned = [vsum]
    for tap in range(taps - 1):
        source = builder.prev(vsum, 1 + tap % 2)
        aligned.append(builder.op("ishr", vsum, source,
                                  name=f"align{tap}"))
    total = builder.reduce("padd16", aligned)
    better = builder.op("icmp", total, best_score)
    new_score = builder.op("pmin16", total, best_score)
    picked = builder.op("isel", better, disparity)
    new_disp = builder.op("ior", picked, best_disp)
    builder.stream_output("score", new_score)
    builder.stream_output("disp", new_disp)
    return builder.build()


def _sadmin_apply(inputs: list[np.ndarray],
                  params: dict) -> list[np.ndarray]:
    taps = 7
    vsum = unpack16(inputs[0])
    best_score = unpack16(inputs[1])
    best_disp = unpack16(inputs[2])
    disparity = float(params["disparity"])
    half = taps // 2
    padded = pad_edge(vsum, half)
    total = np.zeros_like(vsum)
    for tap in range(taps):
        total += padded[tap:tap + len(vsum)]
    total = clamp_u16(total)
    better = total < best_score
    new_score = np.where(better, total, best_score)
    new_disp = np.where(better, disparity, best_disp)
    return [pack16(new_score), pack16(new_disp)]


SADMIN = KernelSpec(
    name="sadmin",
    graph=build_sadmin_graph(),
    apply_fn=_sadmin_apply,
    output_record_words=(1, 1),
    description="horizontal SAD window + best-disparity update",
)


def build_sad7x7_graph(taps: int = 7) -> KernelGraph:
    """The DEPTH SAD kernel proper (Figure 1's third stage).

    One call handles one disparity candidate for one image row:
    packed absolute differences, a rolling 7-row vertical column sum
    kept in the scratchpad across calls, the 7-pixel horizontal sum,
    and the running best-score/disparity select.
    """
    builder = KernelBuilder(
        "sad7x7",
        description="7x7 SAD with rolling window and disparity select")
    left = builder.stream_input("left")
    right = builder.stream_input("right")
    best_score = builder.stream_input("best_score")
    best_disp = builder.stream_input("best_disp")
    disparity = builder.param("disparity")
    diff = builder.op("psub16", left, right)
    magnitude = builder.op("pabs16", diff)
    # Rolling vertical sum through the scratchpad: read the column
    # sum and the row leaving the window, update, write back.
    column = builder.op("spread", magnitude, name="column_sum")
    leaving = builder.op("spread", column, name="leaving_row")
    vsum = builder.op("psub16", builder.op("padd16", column, magnitude),
                      leaving)
    builder.op("spwrite", vsum)
    aligned = [vsum]
    for tap in range(taps - 1):
        source = builder.prev(vsum, 1 + tap % 2)
        aligned.append(builder.op("ishr", vsum, source,
                                  name=f"align{tap}"))
    total = builder.reduce("padd16", aligned)
    better = builder.op("icmp", total, best_score)
    new_score = builder.op("pmin16", total, best_score)
    picked = builder.op("isel", better, disparity)
    new_disp = builder.op("ior", picked, best_disp)
    builder.stream_output("score", new_score)
    builder.stream_output("disp", new_disp)
    return builder.build()


#: Window size -> (graph, compiled kernel) shared by every SAD7x7 spec:
#: the kernel compiles once per process, not once per DEPTH build.
_SAD7X7_KERNELS: dict[int, tuple[KernelGraph, CompiledKernel]] = {}


def make_sad7x7() -> KernelSpec:
    """Fresh SAD7x7 spec whose functional model carries the rolling
    vertical window (the scratchpad state) across calls.

    Inputs per call: filtered left row, filtered right row, running
    best score, running best disparity.  Params: ``disparity`` (pixels,
    even) selecting the candidate shift.  The window warms up over the
    first 7 rows per disparity.  Every spec shares one compiled kernel.
    """
    taps = 7
    windows: dict[float, list[np.ndarray]] = {}

    def apply(inputs: list[np.ndarray],
              params: dict) -> list[np.ndarray]:
        disparity = float(params["disparity"])
        shift_words = int(disparity) // 2
        left = unpack16(inputs[0])
        right = unpack16(np.roll(inputs[1], -shift_words)
                         if shift_words else inputs[1])
        best_score = unpack16(inputs[2])
        best_disp = unpack16(inputs[3])
        magnitude = np.abs(left - right)
        window = windows.setdefault(disparity, [])
        window.append(magnitude)
        if len(window) > taps:
            window.pop(0)
        vsum = clamp_u16(np.sum(window, axis=0))
        half = taps // 2
        padded = pad_edge(vsum, half)
        total = np.zeros_like(vsum)
        for tap in range(taps):
            total += padded[tap:tap + len(vsum)]
        total = clamp_u16(total)
        better = total < best_score
        new_score = np.where(better, total, best_score)
        new_disp = np.where(better, disparity, best_disp)
        return [pack16(new_score), pack16(new_disp)]

    # Only the graph and the kernel are shared; the spec (and with it
    # the window state above) is new on every call.
    shared = _SAD7X7_KERNELS.get(taps)
    spec = KernelSpec(
        name="sad7x7",
        graph=build_sad7x7_graph(taps) if shared is None else shared[0],
        apply_fn=apply,
        output_record_words=(1, 1),
        description="7x7 SAD with rolling window (DEPTH)",
        _compiled=None if shared is None else shared[1],
    )
    if shared is None:
        _SAD7X7_KERNELS[taps] = spec.graph, spec.compiled()
    return spec
