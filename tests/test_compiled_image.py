"""Pin each app's compiled image to what the stream compiler decided.

Each app is built at one reduced size with one data seed, and
everything the compiler decides is hashed: every instruction, the SRF
placement log, the descriptor counts and the output arrays' bytes.
Outputs computed through BLAS (norms, dot and matrix products) are
the exception: the host's BLAS kernels decide their last bits, so
they are pinned by checksums within a tolerance instead.
The pinned digests were computed with the scan-based compiler
(whole-dict stream release, sort-every-call SRF allocator, a SAD
kernel compiled per build).  A change that moves any decision or
output bit shows here; a deliberate one must update the digest and
say why.  The gate's seeded fuzz corpus is pinned the same way.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.engine.catalog import build_app
from repro.engine.gate import fuzz_corpus

SEED = 11

#: One reduced cold-sweep shape per app.
SIZES = {
    "depth": {"height": 24},
    "mpeg": {"frames": 2, "height": 64},
    "qrd": {"rows": 96, "cols": 48},
    "rtsl": {"triangles": 240},
}

#: Outputs whose values pass through BLAS: QRD's Householder norms
#: and dot products, RTSL's transform and lighting products.
BLAS_OUTPUTS = {
    "qrd": ("A", "V", "betas"),
    "rtsl": ("framebuffer", "vertices"),
}

#: image_digest() of each app built at SIZES with SEED.
DIGESTS = {
    "depth":
        "97c1556ade3c2379da9edc1bccb57db88f3aff1573d9531e1e7c7d67dda5ab25",
    "mpeg":
        "a263a8132ae94f46b23281d48fba14ad7c38f83b3981ce5ec8ac8daf4eb4f669",
    "qrd":
        "5d2e1ee426d0833375cd597c85c9cbc39be07de07625a658d9ebf7f68566969b",
    "rtsl":
        "0f83d0cb38bc8308b1591ca68cc56d46098acff87b1c68e733c259db92dbe2fd",
}

#: sha256 over the image_digest() of every program in the gate's
#: fuzz corpus at its defaults, fuzz_corpus(100, seed=0).
FUZZ_CORPUS_DIGEST = (
    "184f4b38a2bd208c5e8ef4df6d3b22351cb1ad5eb47d1cd477ffb3ae1f0b9344")

#: checksums() of each BLAS output, compared within 1e-9 of its
#: absolute sum.
CHECKSUMS = {
    "qrd": {
        "A": (2520.7388510359165, 22.19535346099992),
        "V": (6345.617099893392, 147.96435120457727),
        "betas": (726.1980485818789, -12.484863240770437),
    },
    "rtsl": {
        "framebuffer": (655.7431737447292, 977.3854651451331),
        "vertices": (99726.26811442226, 149060.8774250499),
    },
}


def _instruction(instr) -> list:
    pattern = instr.pattern
    return [instr.op.name, list(instr.deps), instr.kernel,
            instr.stream_elements, instr.words,
            None if pattern is None else [pattern.start,
                                          *pattern.signature()],
            instr.sdr, instr.mar, instr.ucr, instr.host_dependency,
            instr.tag]


def checksums(data) -> tuple[float, float]:
    """Absolute sum, and the signed sum under a ramp of weights (it
    moves when an element changes sign or place)."""
    data = np.asarray(data, dtype=np.float64).ravel()
    ramp = np.linspace(1.0, 2.0, data.size)
    return float(np.abs(data).sum()), float((ramp * data).sum())


def _output(app: str, name: str, data) -> list | str:
    data = np.ascontiguousarray(data, dtype=np.float64)
    if name in BLAS_OUTPUTS.get(app, ()):
        return list(data.shape)
    return hashlib.sha256(data.tobytes()).hexdigest()


def image_digest(app: str, image) -> str:
    canonical = {
        "instructions": [_instruction(i) for i in image.instructions],
        "srf": [[r.stream, r.start, r.words, r.allocated_at, r.freed_at]
                for r in image.srf_allocations],
        "descriptors": [image.sdr_writes, image.sdr_references,
                        image.mar_writes, image.mar_references,
                        image.ucr_writes],
        "outputs": {name: _output(app, name, data)
                    for name, data in sorted(image.outputs.items())},
    }
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("app", sorted(SIZES))
def test_compiled_image_is_pinned(app):
    image = build_app(app, **SIZES[app], seed=SEED).image
    assert image_digest(app, image) == DIGESTS[app]
    for name, want in CHECKSUMS.get(app, {}).items():
        scale = 1e-9 * want[0]
        assert checksums(image.outputs[name]) == pytest.approx(
            want, rel=0, abs=scale), name


def test_gate_fuzz_corpus_is_pinned():
    # The gate's verdict is only reproducible from its seed while the
    # corpus is; a rerun of one commit cannot see a corpus that moved.
    digests = "".join(image_digest(image.name, image)
                      for image in fuzz_corpus(100, seed=0))
    assert (hashlib.sha256(digests.encode()).hexdigest()
            == FUZZ_CORPUS_DIGEST)
