"""GROMACS water-water force kernel.

Table 2's scientific outlier: "force computation between water
molecules (float)".  Each iteration handles one molecule pair's
interaction partials: squared distances and Lennard-Jones/Coulomb
terms are plain multiply/add work, but the three reciprocal
square-roots per pair serialize on the single unpipelined
divide/square-root unit -- the paper calls GROMACS out as
DSQ-limited, and the graph below has exactly that bottleneck
(II = 3 x 16 DSQ issue slots).

Functional model: TIP3P-style site-site forces (O-O Lennard-Jones
plus all-site Coulomb) between molecule pairs; each stream element is
one pair of rigid 3-site molecules (18 coordinate words), and the
output is the force on the first molecule's sites (9 words + pad).
"""

from __future__ import annotations

import numpy as np

from repro.isa.kernel_ir import KernelBuilder, KernelGraph
from repro.streamc.program import KernelSpec

#: TIP3P-ish parameters (reduced units).
_CHARGES = np.array([-0.834, 0.417, 0.417])
_LJ_C6 = 2.0
_LJ_C12 = 1.0
_COULOMB = 138.935


def build_gromacs_graph() -> KernelGraph:
    builder = KernelBuilder(
        "gromacs", elements_per_iteration=1,
        description="force computation between water molecules (float)")
    coords = [builder.stream_input(f"x{i}") for i in range(6)]
    cutoff = builder.param("cutoff")
    # Distance partials for three site pairs -> three rsqrt's.
    inverses = []
    for pair in range(3):
        dx = builder.op("fsub", coords[2 * pair], coords[2 * pair + 1])
        dx2 = builder.op("fmul", dx, dx)
        r2 = builder.op("fadd", dx2, builder.prev(dx2, 1),
                        name=f"r2_{pair}")
        inverses.append(builder.op("frsq", r2, name=f"rinv_{pair}"))
    # LJ + Coulomb force terms: mul/add heavy but DSQ-bound overall.
    force_terms = []
    for pair, rinv in enumerate(inverses):
        r2i = builder.op("fmul", rinv, rinv)
        r6i = builder.op("fmul", r2i, builder.op("fmul", r2i, r2i))
        lj = builder.op("fsub", builder.op("fmul", r6i, r6i), r6i)
        qq = builder.op("fmul", rinv, cutoff)
        term = builder.op("fadd", lj, qq)
        for axis in range(3):
            dx = builder.op("fmul", term, coords[(pair + axis) % 6],
                            name=f"f{pair}_{axis}")
            force_terms.append(dx)
    # Per-axis force accumulation plus virial and shift-force terms.
    axis_sums = [builder.op("fadd", force_terms[i], force_terms[i + 1])
                 for i in range(0, len(force_terms) - 1, 2)]
    virials = [builder.op("fmul", term, cutoff) for term in axis_sums[:6]]
    shifts = [builder.op("fmul", term, cutoff) for term in axis_sums[:4]]
    corrected = [builder.op("fadd", axis_sums[i], virials[i])
                 for i in range(len(virials))]
    corrected += [builder.op("fsub", corrected[i], shifts[i])
                  for i in range(len(shifts))]
    total = builder.reduce("fadd", corrected + axis_sums[6:])
    accumulated = builder.op("fadd", total, builder.prev(total, 1),
                             name="virial_acc")
    builder.stream_output("force", accumulated)
    builder.stream_output("virial", builder.op("fmul", total, cutoff))
    return builder.build()


def _gromacs_words(words: list[int], params: dict) -> list[int]:
    """Nine force words per 18-word molecule pair."""
    if words[0] % 18:
        raise ValueError("gromacs input must be 18-word molecule pairs")
    return [words[0] // 2]


def _gromacs_apply(inputs: list[np.ndarray],
                   params: dict) -> list[np.ndarray]:
    words = inputs[0]
    _gromacs_words([len(words)], params)
    pairs = words.reshape(-1, 18)
    mol_a = pairs[:, :9].reshape(-1, 3, 3)
    mol_b = pairs[:, 9:].reshape(-1, 3, 3)
    forces = np.zeros_like(mol_a)
    for i in range(3):
        for j in range(3):
            delta = mol_a[:, i, :] - mol_b[:, j, :]
            r2 = np.maximum((delta * delta).sum(axis=1), 1e-12)
            rinv = 1.0 / np.sqrt(r2)
            r2i = rinv * rinv
            coulomb = _COULOMB * _CHARGES[i] * _CHARGES[j] * rinv
            scalar = coulomb * r2i
            if i == 0 and j == 0:
                r6i = r2i ** 3
                scalar += (12 * _LJ_C12 * r6i * r6i
                           - 6 * _LJ_C6 * r6i) * r2i
            forces[:, i, :] += scalar[:, None] * delta
    return [forces.reshape(-1)]


GROMACS = KernelSpec(
    name="gromacs",
    graph=build_gromacs_graph(),
    apply_fn=_gromacs_apply,
    output_words=_gromacs_words,
    output_record_words=(9, 1),
    description="force computation between water molecules (float)",
)


def reference_forces(pairs_words: np.ndarray) -> np.ndarray:
    """Oracle wrapper used by tests."""
    return _gromacs_apply([pairs_words], {})[0]
