"""Block-matching motion estimation (MPEG blocksearch).

The highest-rate kernel of Table 2: packed 8-bit SAD instructions
(four absolute differences per issue) keep the adders saturated while
a scratchpad-resident candidate table and a running minimum track the
best motion vector.

Functional model: for each 16x16 macroblock of the current strip,
evaluate the SAD at each candidate horizontal offset into the
reference strip and emit the best offset plus the predicted block.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.isa.kernel_ir import KernelBuilder, KernelGraph
from repro.kernels.pixelmath import pack16, unpack16
from repro.streamc.program import KernelSpec


def build_blocksearch_graph() -> KernelGraph:
    builder = KernelBuilder(
        "blocksearch",
        description="search similar macroblocks for motion estimation")
    current = builder.stream_input("current")
    reference = builder.stream_input("reference")
    # Sixteen candidate alignments of the reference window against
    # the current block (a 2-D search window walked a word at a
    # time); row alignment of the current block costs shifts too.
    shifted = [reference]
    for i in range(15):
        source = builder.prev(reference, 1 + i % 3)
        shifted.append(builder.op("ishr", reference, source,
                                  name=f"cand{i}"))
    rows = [builder.op("ishr", current,
                       builder.prev(current, 1 + i % 2),
                       name=f"row{i}") for i in range(15)]
    sads = [builder.op("psad8", rows[i % 15], cand)
            for i, cand in enumerate(shifted)]
    partial = builder.reduce("padd16", sads)
    running = builder.op("padd16", partial, builder.prev(partial, 1),
                         name="block_acc")
    table = builder.op("spread", running, name="candidate_table")
    best = builder.op("pmin16", running, builder.prev(running, 2),
                      name="best")
    merged = builder.op("pmin16", best, table)
    builder.op("spwrite", merged)
    builder.stream_output("best", merged)
    return builder.build()


def _blocksearch_apply(inputs: list[np.ndarray],
                       params: dict) -> list[np.ndarray]:
    block = int(params.get("block", 16))
    offsets = params.get("offsets", tuple(range(-8, 9, 2)))
    current = unpack16(inputs[0])
    reference = unpack16(inputs[1])
    blocks = current.reshape(-1, block)
    bases = np.arange(len(blocks)) * block
    windows = sliding_window_view(reference, block)
    best_sad = np.full(len(blocks), np.inf)
    best_offset = np.zeros(len(blocks), dtype=np.int64)
    # Offsets in order, every block at once; a later offset wins only
    # on a strictly smaller SAD, so ties keep the earliest.
    for offset in offsets:
        starts = bases + offset
        valid = np.flatnonzero((starts >= 0)
                               & (starts + block <= len(reference)))
        sad = np.abs(blocks[valid] - windows[starts[valid]]).sum(axis=1)
        better = sad < best_sad[valid]
        best_sad[valid[better]] = sad[better]
        best_offset[valid[better]] = offset
    vectors = best_offset + 32768.0  # offset-coded for packing
    predicted = windows[bases + best_offset].reshape(-1)
    if len(vectors) % 2:
        vectors = np.append(vectors, 32768.0)
    return [pack16(vectors), pack16(predicted)]


BLOCKSEARCH = KernelSpec(
    name="blocksearch",
    graph=build_blocksearch_graph(),
    apply_fn=_blocksearch_apply,
    output_record_words=(1, 1),
    description="search similar macroblocks for motion estimation",
)
