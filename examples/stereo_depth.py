#!/usr/bin/env python3
"""Stereo depth extraction (the paper's flagship DEPTH application).

Builds the Figure-1 pipeline -- 7x7 convolve, 3x3 convolve, repeated
SAD with running best-disparity select -- on a synthetic stereo pair
with a known two-plane disparity field, simulates it on the
development-board model, prints the paper's Table-3-style summary,
and renders the recovered depth map as ASCII art.
"""

import numpy as np

from repro.apps.depth import depth_map, disparity_accuracy
from repro.core import BoardConfig
from repro.engine import Session, build_app


def ascii_depth_map(depth_map: np.ndarray, cols: int = 64) -> str:
    shades = " .:-=+*#%@"
    height, width = depth_map.shape
    step_y = max(1, height // 16)
    step_x = max(1, width // cols)
    lines = []
    peak = max(depth_map.max(), 1.0)
    for y in range(0, height, step_y):
        row = depth_map[y, ::step_x]
        lines.append("".join(
            shades[int(v / peak * (len(shades) - 1))] for v in row))
    return "\n".join(lines)


def main():
    bundle = build_app("depth", height=64, width=320, disparities=8)
    print(f"DEPTH: {len(bundle.image)} stream instructions, "
          f"SDR reuse {bundle.image.sdr_reuse:.0f}x")

    # Catalog-built bundles run through the engine session, so the
    # host-sensitivity sweep below shards across processes and repeat
    # invocations of this script are answered from the result cache.
    with Session() as session:
        result = session.run_bundle(bundle,
                                    board=BoardConfig.hardware())
        print(result.summary())
        print(f"frame rate: {bundle.throughput(result.seconds):.1f} "
              f"frames/s for a 64x320 frame, 8 disparities")
        accuracy = disparity_accuracy(bundle)
        print(f"disparity recovery (interior, textured): "
              f"{accuracy * 100:.1f}%")

        print("\nRecovered depth map (darker = nearer plane):")
        print(ascii_depth_map(depth_map(bundle)))

        print("\nHost-interface sensitivity (the paper's Figure 14):")
        for mips in (0.5, 2.0, 8.0):
            board = BoardConfig.hardware(host_mips=mips)
            run = session.run_bundle(bundle, board=board)
            print(f"  host {mips:4.1f} MIPS -> "
                  f"{run.seconds * 1e3:7.2f} ms/frame")


if __name__ == "__main__":
    main()
