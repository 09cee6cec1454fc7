"""QRD: blocked complex Householder QR decomposition (Table 3).

Converts a 192x96 complex matrix into an upper triangular and an
orthogonal factor -- the space-time adaptive processing core the paper
benchmarks at 4.81 GFLOPS, its best floating-point result.

Structure per column j: the ``house`` kernel computes the Householder
vector of the active column; ``update2`` applies the rank-1 reflector
to the trailing matrix in column blocks (strided record loads walk the
column-major matrix).  Each reflector's ``beta`` reaches ``update2``
as a runtime scalar read from the ``house`` kernel's aux stream, so
the program's control flow never depends on data and it is a playback
program.  Long streams keep the clusters busy -- QRD has
the longest kernel streams of Table 5 -- and block updates exceed the
stripmine limit, so kernel+restart sequences appear, as in Table 4.

The oracle helpers read the factors from the program's outputs:
:func:`reconstruct_q` accumulates Q from the stored reflectors, and
:func:`factorization_error` checks ``Q R = A`` and unitarity of ``Q``.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import AppBundle
from repro.kernels.copy import SPLIT
from repro.kernels.house import HOUSE, deinterleave, interleave
from repro.kernels.update2 import UPDATE2
from repro.memsys.patterns import strided
from repro.streamc.program import StreamProgram

DEFAULT_ROWS = 192
DEFAULT_COLS = 96
DEFAULT_BLOCK_COLUMNS = 12


def make_matrix(rows: int, cols: int, seed: int = 23) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols)))


def build(rows: int = DEFAULT_ROWS, cols: int = DEFAULT_COLS,
          block_columns: int = DEFAULT_BLOCK_COLUMNS,
          seed: int = 23, machine=None) -> AppBundle:
    matrix = make_matrix(rows, cols, seed)
    program = StreamProgram("QRD", machine=machine,
                            max_batch_elements=2048)
    column_words = 2 * rows
    # Column-major interleaved-complex storage.
    a_arr = program.array("A", interleave(matrix.T.reshape(-1)))
    v_arr = program.alloc_array("V", cols * column_words)
    beta_arr = program.alloc_array("betas", 4 * cols)

    steps = min(rows, cols)
    panel = block_columns
    for p in range(0, steps, panel):
        width = min(panel, steps - p)
        active_words = 2 * (rows - p)
        # Panel factorization: the panel lives in the SRF as one block
        # stream for the whole sweep; each step splits the pivot
        # column off, reflects, and updates the remainder in one go.
        panel_pattern = strided(
            words=width * active_words, stride=column_words,
            record_words=active_words,
            start=a_arr.base + p * column_words + 2 * p)
        block = program.load(a_arr, pattern=panel_pattern,
                             record_words=2, name=f"panel{p}")
        panel_reflectors = []
        for i in range(width):
            j = p + i
            if i < width - 1:
                pivot, block = program.kernel(
                    SPLIT, [block],
                    params={"head_words": active_words},
                    name=f"split{j}")
            else:
                pivot = block
            v, aux = program.kernel(
                HOUSE, [pivot],
                params={"scale": 1.0, "skip": i}, name=f"house{j}")
            beta = program.scalar(aux, 0)
            panel_reflectors.append((v, beta))
            program.store(v, v_arr, start=j * column_words)
            program.store(aux, beta_arr, start=4 * j)
            pivot = program.kernel1(
                UPDATE2, [v, pivot],
                params={"beta": beta, "columns": 1}, name=f"pv{j}")
            program.store(pivot, a_arr,
                          start=j * column_words + 2 * p)
            if i < width - 1:
                block = program.kernel1(
                    UPDATE2, [v, block],
                    params={"beta": beta, "columns": width - i - 1},
                    name=f"pu{j}")
        # Trailing update: each block of columns is loaded once and
        # updated by every reflector of the panel while SRF-resident.
        k = p + width
        while k < cols:
            block_width = min(block_columns, cols - k)
            pattern = strided(
                words=block_width * active_words, stride=column_words,
                record_words=active_words,
                start=a_arr.base + k * column_words + 2 * p)
            block = program.load(a_arr, pattern=pattern,
                                 record_words=2, name=f"blk{p}_{k}")
            for j, (v, beta) in enumerate(panel_reflectors):
                block = program.kernel1(
                    UPDATE2, [v, block],
                    params={"beta": beta, "columns": block_width},
                    name=f"upd{p + j}_{k}")
            program.store(block, a_arr, pattern=pattern)
            k += block_width

    image = program.build()
    image.validate()
    return AppBundle(
        name="QRD",
        image=image,
        oracle={"matrix": matrix, "block_columns": block_columns},
        work_units=1.0,
        work_name="QRD",
    )


def final_matrix(bundle: AppBundle) -> np.ndarray:
    """The matrix as the program left it: R above, zeros below."""
    rows, cols = bundle.oracle["matrix"].shape
    return deinterleave(bundle.image.outputs["A"]).reshape(cols, rows).T


def r_factor(bundle: AppBundle) -> np.ndarray:
    """The upper triangular factor R (cols x cols)."""
    cols = bundle.oracle["matrix"].shape[1]
    return np.triu(final_matrix(bundle)[:cols, :])


def reflectors(bundle: AppBundle) -> list[tuple[np.ndarray, float]]:
    """``(v, beta)`` of every Householder step, as stored: ``v``
    over the step's active rows, ``beta`` from its aux words."""
    rows, cols = bundle.oracle["matrix"].shape
    panel = bundle.oracle["block_columns"]
    column_words = 2 * rows
    outputs = bundle.image.outputs
    betas = outputs["betas"]
    pairs = []
    for j in range(min(rows, cols)):
        p = (j // panel) * panel
        stored = deinterleave(
            outputs["V"][j * column_words:
                         j * column_words + 2 * (rows - p)])
        pairs.append((stored[j - p:], float(betas[4 * j])))
    return pairs


def reconstruct_q(bundle: AppBundle) -> np.ndarray:
    """Accumulate Q = H_0 H_1 ... from the stored reflectors."""
    matrix = bundle.oracle["matrix"]
    rows = matrix.shape[0]
    q = np.eye(rows, dtype=complex)
    for j, (v, beta) in enumerate(reflectors(bundle)):
        h = np.eye(rows - j, dtype=complex) - beta * np.outer(v, v.conj())
        full = np.eye(rows, dtype=complex)
        full[j:, j:] = h
        q = q @ full
    return q


def factorization_error(bundle: AppBundle) -> tuple[float, float]:
    """(||QR - A|| / ||A||, ||Q^H Q - I||) -- both should be tiny."""
    matrix = bundle.oracle["matrix"]
    rows, cols = matrix.shape
    q = reconstruct_q(bundle)
    r = np.zeros_like(matrix)
    r[:cols, :] = r_factor(bundle)
    residual = (np.linalg.norm(q @ r - matrix)
                / np.linalg.norm(matrix))
    unitarity = np.linalg.norm(q.conj().T @ q - np.eye(rows))
    return float(residual), float(unitarity)
