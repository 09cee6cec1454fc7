"""Trailing-matrix update kernel (QRD's update2).

Table 2's matrix-matrix multiply kernel.  The paper uses it as the
canonical load-imbalance example: "the inner loop executes inner
products requiring one multiplication and one addition per element.
Since the Imagine clusters have 3 adders and 2 multipliers,
performance in this case is limited by the multiplication units."
The graph below is multiplier-bound in exactly that way (five
multiplies vs. four adder-class ops per iteration).

Functional model: the rank-1 Householder update
``C <- C - v (beta v^H C)`` applied to a block of complex columns.
"""

from __future__ import annotations

import numpy as np

from repro.isa.kernel_ir import KernelBuilder, KernelGraph
from repro.kernels.house import deinterleave, interleave
from repro.streamc.program import KernelSpec


def build_update2_graph() -> KernelGraph:
    builder = KernelBuilder(
        "update2", description="matrix-matrix multiplication (float)")
    v_re = builder.stream_input("v_re")
    v_im = builder.stream_input("v_im")
    c_re = builder.stream_input("c_re")
    c_im = builder.stream_input("c_im")
    beta = builder.param("beta")
    # Full complex rank-1 update per element: the conjugated dot
    # contribution (4 muls, 2 adds), scaling by beta (2 muls), and
    # the axpy back into the column (4 muls, 4 adds).  Ten multiplies
    # against two multiplier units bound the II -- the paper's canonical
    # load-imbalance example.
    rr = builder.op("fmul", v_re, c_re)
    ii = builder.op("fmul", v_im, c_im)
    ri = builder.op("fmul", v_re, c_im)
    ir = builder.op("fmul", v_im, c_re)
    dot_re = builder.op("fadd", rr, ii)
    dot_im = builder.op("fsub", ri, ir)
    w_re = builder.op("fmul", dot_re, beta)
    w_im = builder.op("fmul", dot_im, beta)
    m1 = builder.op("fmul", v_re, w_re)
    m2 = builder.op("fmul", v_im, w_im)
    m3 = builder.op("fmul", v_re, w_im)
    m4 = builder.op("fmul", v_im, w_re)
    t_re = builder.op("fsub", m1, m2)
    t_im = builder.op("fadd", m3, m4)
    out_re = builder.op("fsub", c_re, t_re)
    out_im = builder.op("fsub", c_im, t_im)
    builder.stream_output("out_re", out_re)
    builder.stream_output("out_im", out_im)
    return builder.build()


def _columns(elements: int, params: dict) -> int:
    columns = int(params["columns"])
    if columns <= 0 or elements % columns:
        raise ValueError("update2: block does not divide into columns")
    return columns


def _update2_words(words: list[int], params: dict) -> list[int]:
    _columns((words[1] + 1) // 2, params)
    return [words[1]]


def _update2_apply(inputs: list[np.ndarray],
                   params: dict) -> list[np.ndarray]:
    v = deinterleave(inputs[0])
    block = deinterleave(inputs[1])
    beta = float(params["beta"])
    columns = _columns(len(block), params)
    matrix = block.reshape(columns, -1).T  # (n, columns)
    matrix = matrix - np.outer(v, beta * (v.conj() @ matrix))
    return [interleave(matrix.T.reshape(-1))]


UPDATE2 = KernelSpec(
    name="update2",
    graph=build_update2_graph(),
    apply_fn=_update2_apply,
    output_words=_update2_words,
    output_record_words=(2,),
    description="matrix-matrix multiplication (float)",
)
