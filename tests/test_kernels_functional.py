"""Functional tests: every kernel's numpy model against an oracle."""

import numpy as np
import pytest
import scipy.fft
import scipy.signal
from hypothesis import given, settings, strategies as st

from repro.kernels.blocksearch import BLOCKSEARCH
from repro.kernels.conv import CONV3X3, CONV7X7, binomial_taps
from repro.kernels.copy import COLORCONV, SPLIT, SRFCOPY
from repro.kernels.dct import (
    DCT8X8,
    IDCT8X8,
    QUANTZIG,
    dct_blocks,
    dequantize_zigzag,
)
from repro.kernels.gromacs import GROMACS
from repro.kernels.house import HOUSE, deinterleave, interleave
from repro.kernels.pixelmath import clamp_u16, pack16, pad_edge, unpack16
from repro.kernels.rle import RLE, rle_decode, rle_encode, vlc_code_lengths
from repro.kernels.sad import BLOCKSAD, make_sad7x7
from repro.kernels.shading import FRAGMENT_WORDS, rasterize_triangles
from repro.kernels.sort import SORT32
from repro.kernels.update2 import UPDATE2


class TestPixelMath:
    def test_round_trip(self):
        pixels = np.arange(0, 1000, dtype=float) % 65536
        assert np.array_equal(unpack16(pack16(pixels)), pixels)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 65535), min_size=2, max_size=64)
           .filter(lambda v: len(v) % 2 == 0))
    def test_round_trip_property(self, values):
        pixels = np.asarray(values, dtype=float)
        assert np.array_equal(unpack16(pack16(pixels)), pixels)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pack16(np.array([0.0, 70000.0]))
        with pytest.raises(ValueError):
            pack16(np.array([0.0, -1.0]))
        with pytest.raises(ValueError):
            pack16(np.array([0.5, 1.0]))

    def test_rejects_non_integers_exactly(self):
        # A relative tolerance would pass 40000.3 (it allows ~0.4 there).
        with pytest.raises(ValueError, match="integers"):
            pack16(np.array([40000.3, 2.0]))
        with pytest.raises(ValueError, match="integers"):
            pack16(np.array([np.nan, 2.0]))

    def test_empty_packs_to_empty(self):
        packed = pack16(np.array([]))
        assert packed.shape == (0,)
        assert packed.dtype == np.float64

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            pack16(np.array([1.0]))

    def test_pad_edge_matches_np_pad(self):
        rng = np.random.default_rng(4)
        row = rng.uniform(0, 9, 11)
        rows = rng.uniform(0, 9, (3, 5))
        assert np.array_equal(pad_edge(row, 3),
                              np.pad(row, (3, 3), mode="edge"))
        assert np.array_equal(pad_edge(rows, 1),
                              np.pad(rows, ((0, 0), (1, 1)), mode="edge"))
        assert np.array_equal(pad_edge(row[:1], 2), np.full(5, row[0]))
        with pytest.raises(ValueError):
            pad_edge(np.array([]), 1)

    def test_clamp(self):
        assert list(clamp_u16(np.array([-5.0, 70000.0, 42.4]))) == [
            0.0, 65535.0, 42.0]


class TestConvolution:
    def test_conv7x7_matches_scipy_interior(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 256, size=(7, 64)).astype(float)
        out = unpack16(CONV7X7.apply_fn(
            [pack16(r) for r in rows], {})[0])
        kernel2d = np.outer(binomial_taps(7), binomial_taps(7))
        expected = scipy.signal.correlate2d(
            rows, kernel2d, mode="valid")[0] / kernel2d.sum()
        # Interior pixels (border handling differs).
        assert np.allclose(out[3:-3], clamp_u16(expected), atol=1.0)

    def test_conv3x3_shape_and_range(self):
        rows = [pack16(np.full(32, 100.0)) for _ in range(3)]
        out = CONV3X3.apply_fn(rows, {})[0]
        assert len(out) == 16
        assert np.array_equal(unpack16(out), np.full(32, 100.0))

    def test_constant_image_invariant(self):
        rows = [pack16(np.full(64, 77.0)) for _ in range(7)]
        out = unpack16(CONV7X7.apply_fn(rows, {})[0])
        assert np.array_equal(out, np.full(64, 77.0))


def _conv_per_tap(rows, taps):
    """The tap-by-tap reference: 2-D binomial filter, edge-padded."""
    kernel2d = np.outer(binomial_taps(taps), binomial_taps(taps))
    width = rows.shape[1]
    padded = np.pad(rows, ((0, 0), (taps // 2, taps // 2)), mode="edge")
    out = np.zeros(width)
    for dy in range(taps):
        for dx in range(taps):
            out += kernel2d[dy, dx] * padded[dy, dx:dx + width]
    return pack16(clamp_u16(out / kernel2d.sum()))


class TestConvolutionReference:
    @pytest.mark.parametrize("spec,taps", [(CONV7X7, 7), (CONV3X3, 3)])
    def test_matches_per_tap_loop(self, spec, taps):
        rng = np.random.default_rng(taps)
        for width in (2, 6, 64, 322):
            rows = np.round(rng.uniform(0, 65535, (taps, width)))
            got = spec.apply_fn([pack16(row) for row in rows], {})[0]
            assert got.tobytes() == _conv_per_tap(rows, taps).tobytes()


class TestDctPipeline:
    def blocks(self, n=4, seed=1):
        rng = np.random.default_rng(seed)
        return rng.integers(-500, 500, size=n * 64).astype(float)

    def test_dct_matches_scipy(self):
        values = self.blocks()
        packed = pack16(values + 32768)
        out = dct_blocks(DCT8X8.apply_fn([packed], {})[0])
        expected = scipy.fft.dctn(values.reshape(-1, 8, 8),
                                  axes=(1, 2), norm="ortho")
        assert np.allclose(out, np.round(expected), atol=0.51)

    def test_dct_idct_round_trip(self):
        values = self.blocks()
        packed = pack16(values + 32768)
        coef = DCT8X8.apply_fn([packed], {})[0]
        back = IDCT8X8.apply_fn([coef], {})[0]
        assert np.allclose(unpack16(back) - 32768, values, atol=2.0)

    def test_quantzig_round_trip(self):
        values = self.blocks()
        packed = pack16(values + 32768)
        coef = DCT8X8.apply_fn([packed], {})[0]
        quantized = QUANTZIG.apply_fn([coef], {"qstep": 8.0})[0]
        restored = dequantize_zigzag(quantized, 8.0)
        original = dct_blocks(coef)
        assert np.abs(restored - original).max() <= 4.0 + 1e-9

    def test_full_codec_chain(self):
        values = self.blocks(n=8, seed=3)
        packed = pack16(values + 32768)
        coef = DCT8X8.apply_fn([packed], {})[0]
        quantized = QUANTZIG.apply_fn([coef], {"qstep": 4.0})[0]
        decoded = IDCT8X8.apply_fn(
            [quantized], {"qstep": 4.0, "zigzagged": True})[0]
        error = np.abs((unpack16(decoded) - 32768) - values)
        assert error.max() < 16.0   # bounded by quantization


class TestRle:
    def test_round_trip(self):
        values = np.array([5, 5, 5, 2, 2, 9, 9, 9, 9, 0], dtype=float)
        assert np.array_equal(rle_decode(rle_encode(values)), values)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=200))
    def test_round_trip_property(self, values):
        array = np.asarray(values, dtype=float)
        assert np.array_equal(rle_decode(rle_encode(array)), array)

    def test_compresses_runs(self):
        constant = np.zeros(1000)
        assert len(rle_encode(constant)) == 2

    def test_empty(self):
        assert len(rle_encode(np.zeros(0))) == 0

    def test_kernel_spec_wraps_encode(self):
        values = np.array([1.0, 1.0, 2.0])
        assert np.array_equal(RLE.apply_fn([values], {})[0],
                              rle_encode(values))

    def test_vlc_lengths_positive_and_monotone(self):
        small = vlc_code_lengths(np.array([1.0, 1.0]))
        large = vlc_code_lengths(np.array([1000.0, 1.0]))
        assert (small > 0).all()
        assert large[0] > small[0]


class TestSort:
    def test_sorts_chunks(self):
        rng = np.random.default_rng(2)
        values = rng.permutation(64).astype(float)
        out = SORT32.apply_fn([values], {})[0]
        assert np.array_equal(out[:32], np.sort(values[:32]))
        assert np.array_equal(out[32:], np.sort(values[32:]))

    def test_rejects_partial_chunks(self):
        with pytest.raises(ValueError):
            SORT32.apply_fn([np.zeros(33)], {})


class TestHouseholder:
    def test_reflector_annihilates(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        v_words, aux = HOUSE.apply_fn([interleave(x)], {})
        v = deinterleave(v_words)
        beta = aux[0]
        reflected = x - beta * v * np.vdot(v, x)
        assert abs(abs(reflected[0]) - np.linalg.norm(x)) < 1e-10
        assert np.allclose(reflected[1:], 0, atol=1e-10)

    def test_skip_leaves_head_untouched(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        v_words, aux = HOUSE.apply_fn([interleave(x)], {"skip": 4})
        v = deinterleave(v_words)
        assert np.allclose(v[:4], 0)
        beta = aux[0]
        reflected = x - beta * v * np.vdot(v, x)
        assert np.allclose(reflected[:4], x[:4])
        assert np.allclose(reflected[5:], 0, atol=1e-10)

    def test_zero_vector(self):
        v_words, aux = HOUSE.apply_fn([np.zeros(8)], {})
        assert aux[0] == 0.0


class TestUpdate2:
    def test_rank_one_update(self):
        rng = np.random.default_rng(6)
        n, m = 12, 5
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        block = rng.standard_normal((n, m)) + 1j * rng.standard_normal(
            (n, m))
        beta = 0.37
        out = UPDATE2.apply_fn(
            [interleave(v), interleave(block.T.reshape(-1))],
            {"beta": beta, "columns": m})[0]
        result = deinterleave(out).reshape(m, n).T
        expected = block - beta * np.outer(v, v.conj() @ block)
        assert np.allclose(result, expected)

    def test_bad_column_count_rejected(self):
        with pytest.raises(ValueError):
            UPDATE2.apply_fn([np.zeros(4), np.zeros(10)],
                             {"beta": 1.0, "columns": 3})


class TestGromacs:
    def test_newtons_third_law(self):
        rng = np.random.default_rng(7)
        pair = rng.uniform(0, 3, size=18)
        swapped = np.concatenate([pair[9:], pair[:9]])
        f_ab = GROMACS.apply_fn([pair], {})[0].reshape(3, 3)
        f_ba = GROMACS.apply_fn([swapped], {})[0].reshape(3, 3)
        assert np.allclose(f_ab.sum(axis=0), -f_ba.sum(axis=0))

    def test_force_points_away_at_close_range(self):
        # Two molecules almost on top of each other repel (LJ r^-12).
        a = np.zeros((3, 3))
        a[1] = [0.1, 0, 0]
        a[2] = [0, 0.1, 0]
        b = a + np.array([0.5, 0, 0])
        pair = np.concatenate([a.reshape(-1), b.reshape(-1)])
        force = GROMACS.apply_fn([pair], {})[0].reshape(3, 3)
        assert force.sum(axis=0)[0] < 0   # pushed away from b (at +x)

    def test_rejects_partial_pairs(self):
        with pytest.raises(ValueError):
            GROMACS.apply_fn([np.zeros(17)], {})


class TestSadKernels:
    def test_blocksad_absolute_difference(self):
        a = pack16(np.array([10.0, 20.0]))
        b = pack16(np.array([13.0, 12.0]))
        out = unpack16(BLOCKSAD.apply_fn([a, b], {})[0])
        assert list(out) == [3.0, 8.0]

    def test_blocksad_residual_and_add_invert(self):
        rng = np.random.default_rng(8)
        a = pack16(rng.integers(0, 256, 64).astype(float))
        b = pack16(rng.integers(0, 256, 64).astype(float))
        residual = BLOCKSAD.apply_fn([a, b], {"mode": "residual"})[0]
        restored = BLOCKSAD.apply_fn([residual, b], {"mode": "add"})[0]
        assert np.array_equal(restored, a)

    def test_sad7x7_finds_known_shift(self):
        rng = np.random.default_rng(9)
        width = 64
        sad = make_sad7x7()
        best_score = pack16(np.full(width, 65535.0))
        best_disp = pack16(np.zeros(width))
        rows = [np.round(rng.uniform(0, 255, width)) for _ in range(9)]
        true_shift = 4
        for row in rows:
            left = pack16(row)
            right = pack16(np.roll(row, true_shift))
            for d in (0, 2, 4, 6):
                best_score, best_disp = sad.apply_fn(
                    [left, right, best_score, best_disp],
                    {"disparity": float(d)})
        disp = unpack16(best_disp)
        assert (disp[8:-8] == true_shift).mean() > 0.9


class TestSad7x7Sharing:
    @staticmethod
    def _calls(seed, width=32, rows=10):
        rng = np.random.default_rng(seed)
        best_score = pack16(np.full(width, 65535.0))
        best_disp = pack16(np.zeros(width))
        return [(pack16(np.round(rng.uniform(0, 255, width))),
                 pack16(np.round(rng.uniform(0, 255, width))),
                 best_score, best_disp, float(2 * (row % 3)))
                for row in range(rows)]

    @staticmethod
    def _apply(spec, call):
        left, right, score, disp, disparity = call
        return spec.apply_fn([left, right, score, disp],
                             {"disparity": disparity})

    def _run_alone(self, calls):
        spec = make_sad7x7()
        return [self._apply(spec, call) for call in calls]

    def test_specs_share_one_compiled_kernel(self):
        first, second = make_sad7x7(), make_sad7x7()
        assert first is not second
        assert first.compiled() is second.compiled()
        assert first.graph is second.graph

    def test_interleaved_windows_stay_independent(self):
        calls_a, calls_b = self._calls(1), self._calls(2)
        alone_a = self._run_alone(calls_a)
        alone_b = self._run_alone(calls_b)
        spec_a, spec_b = make_sad7x7(), make_sad7x7()
        mixed_a, mixed_b = [], []
        for call_a, call_b in zip(calls_a, calls_b):
            mixed_a.append(self._apply(spec_a, call_a))
            mixed_b.append(self._apply(spec_b, call_b))
        for alone, mixed in ((alone_a, mixed_a), (alone_b, mixed_b)):
            for want, got in zip(alone, mixed):
                assert all(np.array_equal(w, g)
                           for w, g in zip(want, got))


def _rasterize_per_fragment(verts, colors, width, height):
    """The per-fragment reference: one tuple appended per pixel."""
    fragments = []
    for tri, color in zip(verts, colors):
        xs = tri[:, 0]
        ys = tri[:, 1]
        x0 = max(int(np.floor(xs.min())), 0)
        x1 = min(int(np.ceil(xs.max())), width - 1)
        y0 = max(int(np.floor(ys.min())), 0)
        y1 = min(int(np.ceil(ys.max())), height - 1)
        if x1 < x0 or y1 < y0:
            continue
        area = ((xs[1] - xs[0]) * (ys[2] - ys[0])
                - (xs[2] - xs[0]) * (ys[1] - ys[0]))
        if abs(area) < 1e-12:
            continue
        gx, gy = np.meshgrid(np.arange(x0, x1 + 1),
                             np.arange(y0, y1 + 1))
        w0 = ((xs[1] - gx) * (ys[2] - gy) - (xs[2] - gx) * (ys[1] - gy))
        w1 = ((xs[2] - gx) * (ys[0] - gy) - (xs[0] - gx) * (ys[2] - gy))
        w2 = ((xs[0] - gx) * (ys[1] - gy) - (xs[1] - gx) * (ys[0] - gy))
        inside = ((w0 >= 0) & (w1 >= 0) & (w2 >= 0)) | (
            (w0 <= 0) & (w1 <= 0) & (w2 <= 0))
        depth = tri[:, 2].mean()
        for x, y in zip(gx[inside].ravel(), gy[inside].ravel()):
            fragments.append((x, y, depth, color))
    if not fragments:
        return np.zeros((0, FRAGMENT_WORDS))
    return np.asarray(fragments, dtype=np.float64)


_coord = st.floats(-12.0, 44.0, allow_nan=False, width=32)
_triangle = st.lists(st.tuples(_coord, _coord, st.floats(0.0, 1.0)),
                     min_size=3, max_size=3)


class TestRasterize:
    WIDTH, HEIGHT = 32, 24

    def _check(self, verts, colors):
        verts = np.asarray(verts, dtype=np.float64).reshape(-1, 3, 3)
        colors = np.asarray(colors, dtype=np.float64)
        got = rasterize_triangles(verts, colors, self.WIDTH, self.HEIGHT)
        want = _rasterize_per_fragment(verts, colors, self.WIDTH,
                                       self.HEIGHT)
        assert got.shape == want.shape
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        return got

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_triangle, st.floats(0.0, 1.0)),
                    max_size=12))
    def test_matches_per_fragment_reference(self, triangles):
        self._check([tri for tri, _ in triangles],
                    [color for _, color in triangles])

    def test_degenerate_offscreen_and_uncovered_triangles(self):
        triangles = [
            [(2, 2, 0.1), (20, 3, 0.2), (6, 18, 0.3)],    # covers pixels
            [(1, 1, 0.5), (5, 5, 0.5), (9, 9, 0.5)],      # collinear
            [(4, 4, 0.0), (4, 4, 0.0), (4, 4, 0.0)],      # a point
            [(-30, -5, 0.2), (-20, -9, 0.2), (-25, -1, 0.2)],  # off-screen
            [(40, 30, 0.9), (60, 31, 0.9), (50, 50, 0.9)],  # off-screen
            [(3.2, 3.2, 0.4), (3.8, 3.3, 0.4), (3.5, 3.7, 0.4)],  # no pixel
            [(31, 0, 0.7), (-10, 23, 0.7), (50, 40, 0.7)],  # clipped
        ]
        got = self._check(triangles, np.linspace(0.1, 0.7, 7))
        assert len(got) > 0

    def test_no_fragments_at_all(self):
        triangles = [
            [(1, 1, 0.5), (5, 5, 0.5), (9, 9, 0.5)],
            [(3.2, 3.2, 0.4), (3.8, 3.3, 0.4), (3.5, 3.7, 0.4)],
            [(-30, -5, 0.2), (-20, -9, 0.2), (-25, -1, 0.2)],
        ]
        got = self._check(triangles, [0.1, 0.2, 0.3])
        assert got.shape == (0, FRAGMENT_WORDS)
        assert self._check(np.zeros((0, 3, 3)), []).shape == (
            0, FRAGMENT_WORDS)


def _blocksearch_per_block(current, reference, block, offsets):
    """Reference: one block and one candidate offset at a time."""
    vectors, predicted = [], np.zeros_like(current)
    for i in range(len(current) // block):
        base, best_sad, best_offset = i * block, np.inf, 0
        for offset in offsets:
            start = base + offset
            if 0 <= start and start + block <= len(reference):
                sad = np.abs(current[base:base + block]
                             - reference[start:start + block]).sum()
                if sad < best_sad:
                    best_sad, best_offset = sad, offset
        vectors.append(best_offset + 32768.0)
        predicted[base:base + block] = reference[
            base + best_offset:base + best_offset + block]
    if len(vectors) % 2:
        vectors.append(32768.0)
    return [pack16(np.array(vectors)), pack16(predicted)]


class TestBlocksearch:
    @pytest.mark.parametrize("blocks,block", [(6, 16), (5, 8), (1, 32)])
    def test_matches_per_block_reference(self, blocks, block):
        rng = np.random.default_rng(blocks * block)
        ref = np.round(rng.uniform(0, 255, blocks * block))
        # Shifted copies, noise, and a flat stretch that ties offsets.
        cur = np.roll(ref, block) + np.round(rng.uniform(0, 3, ref.size))
        cur[:block] = 7.0
        ref[:2 * block] = 7.0
        offsets = (-2 * block, -block, 0, block, 2 * block, 3)
        got = BLOCKSEARCH.apply_fn([pack16(cur), pack16(ref)],
                                   {"block": block, "offsets": offsets})
        want = _blocksearch_per_block(cur, ref, block, offsets)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_finds_known_offset(self):
        rng = np.random.default_rng(10)
        ref = np.round(rng.uniform(0, 255, 1024))
        cur = np.roll(ref, -256)
        mv, predicted = BLOCKSEARCH.apply_fn(
            [pack16(cur), pack16(ref)],
            {"block": 256, "offsets": (-512, -256, 0, 256, 512)})
        vectors = unpack16(mv)[:4] - 32768
        assert (vectors[1:3] == 256).all()
        assert np.array_equal(unpack16(predicted)[256:768],
                              cur[256:768])


class TestUtilityKernels:
    def test_srfcopy_identity(self):
        a, b = np.arange(8.0), np.arange(8.0, 16.0)
        out = SRFCOPY.apply_fn([a, b], {})
        assert np.array_equal(out[0], a)
        assert np.array_equal(out[1], b)

    def test_split(self):
        data = np.arange(10.0)
        head, tail = SPLIT.apply_fn([data], {"head_words": 4})
        assert np.array_equal(head, data[:4])
        assert np.array_equal(tail, data[4:])

    def test_colorconv_weights(self):
        r = pack16(np.full(8, 100.0))
        g = pack16(np.full(8, 100.0))
        b = pack16(np.full(8, 100.0))
        out = unpack16(COLORCONV.apply_fn(
            [r, g, b], {"wr": 0.299, "wg": 0.587, "wb": 0.114})[0])
        assert np.allclose(out, 100.0)
