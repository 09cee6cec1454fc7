"""Bitonic 32-sort kernel: the inter-cluster communication stress.

Table 1's inter-cluster micro-benchmark "sorts 32 elements of a
stream ... per loop iteration, which requires a large number of
inter-cluster data exchanges".  With 32 elements spread 4-per-cluster,
every merge stage of the bitonic network exchanges partners across
clusters, so the COMM unit issues every cycle -- the measured 7.84 of
8.00 peak comm ops/cycle.

Functional model: sorts each consecutive 32-element chunk ascending.
"""

from __future__ import annotations

import numpy as np

from repro.isa.kernel_ir import KernelBuilder, KernelGraph
from repro.streamc.program import KernelSpec


def build_sort_graph() -> KernelGraph:
    builder = KernelBuilder(
        "sort32", elements_per_iteration=4,
        description="bitonic sort of 32 stream elements per iteration")
    lanes = [builder.stream_input(f"lane{i}") for i in range(4)]
    values = list(lanes)
    # log2(32) = 5 merge stages; each stage: cross-cluster exchange of
    # both lane pairs, then compare-exchange.
    for stage in range(5):
        exchanged = [builder.op("comm", v, name=f"xchg{stage}_{i}")
                     for i, v in enumerate(values)]
        next_values = []
        for i in range(0, 4, 2):
            low = builder.op("imin", exchanged[i], exchanged[i + 1])
            high = builder.op("imax", exchanged[i], exchanged[i + 1])
            next_values += [low, high]
        values = next_values
    for i, v in enumerate(values):
        builder.stream_output(f"out{i}", v)
    return builder.build()


def _sort_words(words: list[int], params: dict) -> list[int]:
    if words[0] % 32:
        raise ValueError("sort32 input must be whole 32-element chunks")
    return [words[0]]


def _sort_apply(inputs: list[np.ndarray],
                params: dict) -> list[np.ndarray]:
    values = inputs[0]
    _sort_words([len(values)], params)
    return [np.sort(values.reshape(-1, 32), axis=1).reshape(-1)]


SORT32 = KernelSpec(
    name="sort32",
    graph=build_sort_graph(),
    apply_fn=_sort_apply,
    output_words=_sort_words,
    description="bitonic 32-sort (inter-cluster comm stress)",
)
