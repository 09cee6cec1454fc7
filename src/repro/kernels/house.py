"""Householder reflector kernel (QRD).

"compute the Householder matrix (float)" from Table 2.  Each
iteration consumes one complex element (two words) of the active
column and accumulates the squared norm with a loop-carried
floating-point add -- the 4-cycle adder latency on that recurrence is
what holds the kernel near half of peak GFLOPS, exactly the
ILP-limited behaviour Figure 6 attributes to it.  A cross-cluster
``comm`` reduction finishes the norm.

Functional model: given a complex column x (interleaved re/im), emit
the Householder vector v (normalized so v[0] = 1 is *not* assumed;
beta accompanies it) and an auxiliary stream [beta_re, beta_im, r_re,
r_im] where r is the resulting diagonal of R.
"""

from __future__ import annotations

import numpy as np

from repro.isa.kernel_ir import KernelBuilder, KernelGraph
from repro.streamc.program import KernelSpec


def build_house_graph() -> KernelGraph:
    builder = KernelBuilder(
        "house", description="compute the Householder matrix (float)")
    re = builder.stream_input("re")
    im = builder.stream_input("im")
    re2 = builder.op("fmul", re, re)
    im2 = builder.op("fmul", im, im)
    mag = builder.op("fadd", re2, im2)
    # Loop-carried norm accumulation: the 4-cycle adder latency on
    # this recurrence pins II at 4.
    acc = builder.accumulate("fadd", mag, name="norm_acc")
    scale = builder.param("scale")
    out_re = builder.op("fmul", re, scale)
    out_im = builder.op("fmul", im, scale)
    correction = builder.op("fmul", re2, scale, name="pivot_term")
    builder.op("comm", acc, name="norm_exchange")
    builder.stream_output("v_re", builder.op("fadd", out_re, correction))
    builder.stream_output("v_im", builder.op("fadd", out_im, acc))
    return builder.build()


def interleave(z: np.ndarray) -> np.ndarray:
    """Complex vector -> interleaved re/im word stream."""
    out = np.empty(2 * len(z))
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def deinterleave(words: np.ndarray) -> np.ndarray:
    """Inverse of :func:`interleave`."""
    return words[0::2] + 1j * words[1::2]


def _house_apply(inputs: list[np.ndarray],
                 params: dict) -> list[np.ndarray]:
    """Householder reflector of the input column.

    ``skip`` (elements) restricts the reflector to the column's tail:
    the returned vector is zero-padded back to full length, so
    applying it with ``update2`` leaves the leading rows untouched --
    this is how the blocked QRD keeps whole panel columns resident in
    the SRF while reflectors act on shrinking subcolumns.
    """
    skip = int(params.get("skip", 0))
    full = deinterleave(inputs[0])
    x = full[skip:]
    norm = np.linalg.norm(x)
    if norm == 0:
        v = x.copy()
        if len(v):
            v[0] = 1.0
        beta = 0.0
        r = 0.0
    else:
        phase = (x[0] / abs(x[0])) if abs(x[0]) > 0 else 1.0
        r = -phase * norm
        v = x.copy()
        v[0] -= r
        vnorm2 = np.vdot(v, v).real
        beta = 2.0 / vnorm2 if vnorm2 > 0 else 0.0
    v_full = np.zeros_like(full)
    v_full[skip:] = v
    aux = np.array([beta, 0.0, np.real(r), np.imag(r)])
    return [interleave(v_full), aux]


HOUSE = KernelSpec(
    name="house",
    graph=build_house_graph(),
    apply_fn=_house_apply,
    # The reflector, and four aux words: beta, 0, Re r, Im r.
    output_words=lambda words, params: [words[0], 4],
    output_record_words=(2, 1),
    description="compute the Householder matrix (float)",
)
