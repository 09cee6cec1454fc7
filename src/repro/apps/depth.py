"""DEPTH: the stereo depth extractor (Section 2.1, Table 3).

Pipeline per image row (Figure 1): 7x7 convolution and 3x3
convolution pre-filter both camera images, then for every candidate
disparity the SAD stage (absolute differences, a 7-row vertical sum,
and a 7-pixel horizontal sum with a running best-disparity select)
updates the depth map.  Streams are single image rows of packed 16-bit
pixel pairs -- short streams, which is why DEPTH needs the highest
host instruction bandwidth of the four applications (Table 4) and has
the shortest average kernel stream length (Table 5).

The synthetic stereo pair encodes a known two-plane disparity field;
the oracle checks the recovered disparities (:func:`depth_map`, read
from the program's outputs) in textured interior regions.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import AppBundle
from repro.kernels.conv import CONV3X3, CONV7X7
from repro.kernels.pixelmath import pack16, unpack16
from repro.kernels.sad import make_sad7x7
from repro.streamc.program import StreamProgram

DEFAULT_WIDTH = 320
DEFAULT_HEIGHT = 48
DEFAULT_DISPARITIES = 8


def make_stereo_pair(height: int, width: int,
                     seed: int = 7) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
    """Synthetic textured stereo pair with a two-plane disparity field.

    Returns (left, right, true_disparity) as (H, W) pixel arrays; the
    right image is the left shifted horizontally by the per-column
    disparity (4 px on the left half of the scene, 8 px on the right).
    """
    rng = np.random.default_rng(seed)
    texture = rng.integers(0, 256, size=(height, width)).astype(float)
    # Smooth slightly so SAD windows are discriminative but not noisy.
    for _ in range(2):
        texture = (texture + np.roll(texture, 1, axis=1)
                   + np.roll(texture, 1, axis=0)) / 3.0
    left = np.round(texture)
    disparity = np.full((height, width), 4.0)
    disparity[:, width // 2:] = 8.0
    right = np.empty_like(left)
    columns = np.arange(width)
    for y in range(height):
        source = (columns - disparity[y].astype(int)) % width
        right[y] = left[y, source]
    return left, right, disparity


def build(height: int = DEFAULT_HEIGHT, width: int = DEFAULT_WIDTH,
          disparities: int = DEFAULT_DISPARITIES,
          seed: int = 7, machine=None) -> AppBundle:
    """Build the DEPTH stream program for one frame."""
    if width % 2:
        raise ValueError("width must be even (pixels pack in pairs)")
    left, right, true_disparity = make_stereo_pair(height, width, seed)
    words_per_row = width // 2

    program = StreamProgram("DEPTH", machine=machine)
    left_arr = program.array(
        "left", np.concatenate([pack16(row) for row in left]))
    right_arr = program.array(
        "right", np.concatenate([pack16(row) for row in right]))
    init_score = program.array(
        "init_score", pack16(np.full(width, 65535.0)))
    init_disp = program.array("init_disp", pack16(np.zeros(width)))
    depth_out = program.alloc_array("depth", height * words_per_row)

    candidate_disparities = [2 * i for i in range(disparities)]

    def row_offset(y: int) -> int:
        return (y % height) * words_per_row

    raw = {"L": {}, "R": {}}

    def raw_row(side: str, array, y: int):
        key = y % height
        if key not in raw[side]:
            raw[side][key] = program.load(
                array, start=row_offset(y), words=words_per_row,
                name=f"{side}raw{key}")
        return raw[side][key]

    filtered = {"L": {}, "R": {}}

    def conv7_row(side: str, array, y: int):
        if y not in filtered[side]:
            rows = [raw_row(side, array, y + dy) for dy in range(-3, 4)]
            filtered[side][y] = program.kernel1(
                CONV7X7, rows, params={"norm_shift": 12},
                name=f"{side}f7_{y}")
        return filtered[side][y]

    sharpened = {"L": {}, "R": {}}

    def conv3_row(side: str, array, y: int):
        if y not in sharpened[side]:
            rows = [conv7_row(side, array, y + dy) for dy in (-1, 0, 1)]
            sharpened[side][y] = program.kernel1(
                CONV3X3, rows, params={"norm_shift": 4},
                name=f"{side}f3_{y}")
        return sharpened[side][y]

    sad = make_sad7x7()
    conv_margin = 4      # conv7x7 (+-3) then conv3x3 (+-1)
    window = 7           # SAD vertical support, warmed inside the kernel
    fed = 0
    for feed_row in range(conv_margin, height - conv_margin):
        lf = conv3_row("L", left_arr, feed_row)
        rf = conv3_row("R", right_arr, feed_row)
        score = program.load(init_score, words=words_per_row,
                             name=f"score0_{feed_row}")
        disp = program.load(init_disp, words=words_per_row,
                            name=f"disp0_{feed_row}")
        for d in candidate_disparities:
            score, disp = program.kernel(
                sad, [lf, rf, score, disp],
                params={"disparity": float(d)},
                name=f"sad{d}_{feed_row}")
        fed += 1
        if fed >= window:
            center = feed_row - window // 2
            program.store(disp, depth_out, start=row_offset(center))

    margin = conv_margin + window // 2 + 1
    image = program.build()
    image.validate()
    return AppBundle(
        name="DEPTH",
        image=image,
        oracle={
            "left": left,
            "right": right,
            "true_disparity": true_disparity,
            "margin": margin,
        },
        work_units=1.0,
        work_name="frames",
    )


def depth_map(bundle: AppBundle) -> np.ndarray:
    """The recovered (H, W) disparity map the program stored."""
    shape = bundle.oracle["true_disparity"].shape
    return unpack16(bundle.image.outputs["depth"]).reshape(shape)


def disparity_accuracy(bundle: AppBundle) -> float:
    """Fraction of interior pixels whose disparity was recovered."""
    oracle = bundle.oracle
    depth = depth_map(bundle)
    truth = oracle["true_disparity"]
    margin = oracle["margin"]
    height, width = truth.shape
    interior = np.zeros_like(truth, dtype=bool)
    interior[margin:height - margin, 16:width - 16] = True
    # Mask out the disparity-plane boundary where windows straddle.
    boundary = width // 2
    interior[:, boundary - 16:boundary + 16] = False
    matches = np.abs(depth - truth) <= 2.0
    return float(matches[interior].mean())
