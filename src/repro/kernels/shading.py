"""RTSL rendering kernels: transform, shade, rasterize, fragment shade.

The RTSL application renders with the Stanford Real-Time Shading
Language pipeline: vertex transform (dense 4x4 matrix work), vertex
shading (normalization needs the DSQ unit), triangle setup/rasterize
(a reciprocal per triangle), and fragment shading.  Rates are
moderate; RTSL's low application-level GOPS in Table 3 comes from
host dependencies and memory stalls, not kernel quality.

Functional models implement a minimal but real pipeline: model-view
projection of vertices, Lambertian vertex lighting, half-space
rasterization into fragments, and flat fragment shading, so the
application produces an actual framebuffer.
"""

from __future__ import annotations

import numpy as np

from repro.isa.kernel_ir import KernelBuilder, KernelGraph
from repro.streamc.program import KernelSpec

#: Words per vertex record: x y z w nx ny nz pad.
VERTEX_WORDS = 8
#: Words per fragment record: x y depth color.
FRAGMENT_WORDS = 4


def build_xform_graph() -> KernelGraph:
    builder = KernelBuilder(
        "xform", elements_per_iteration=1,
        description="4x4 matrix transform of vertex positions")
    coords = [builder.stream_input(f"v{i}") for i in range(4)]
    rows = [builder.param(f"m{i}") for i in range(4)]
    outs = []
    for r in range(4):
        products = [builder.op("fmul", coords[c], rows[r])
                    for c in range(4)]
        outs.append(builder.reduce("fadd", products))
    for i, out in enumerate(outs):
        builder.stream_output(f"p{i}", out)
    return builder.build()


def _xform_apply(inputs, params):
    verts = inputs[0].reshape(-1, VERTEX_WORDS)
    matrix = np.asarray(params["matrix"], dtype=np.float64)
    positions = verts[:, :4] @ matrix.T
    out = verts.copy()
    out[:, :4] = positions
    return [out.reshape(-1)]


XFORM = KernelSpec(
    name="xform",
    graph=build_xform_graph(),
    apply_fn=_xform_apply,
    output_record_words=(VERTEX_WORDS,),
    description="vertex transform (RTSL)",
)


def build_shade_graph() -> KernelGraph:
    builder = KernelBuilder(
        "shade", description="per-vertex lighting with normalization")
    n = [builder.stream_input(f"n{i}") for i in range(3)]
    light = builder.param("light")
    squares = [builder.op("fmul", c, c) for c in n]
    norm2 = builder.reduce("fadd", squares)
    inv = builder.op("frsq", norm2)
    unit = [builder.op("fmul", c, inv) for c in n]
    lambert = builder.reduce(
        "fadd", [builder.op("fmul", c, light) for c in unit])
    intensity = builder.op("fmax", lambert, light)
    builder.stream_output("color", intensity)
    return builder.build()


def _shade_apply(inputs, params):
    verts = inputs[0].reshape(-1, VERTEX_WORDS)
    light = np.asarray(params["light_dir"], dtype=np.float64)
    light = light / np.linalg.norm(light)
    normals = verts[:, 4:7]
    lengths = np.maximum(np.linalg.norm(normals, axis=1), 1e-12)
    lambert = np.clip((normals / lengths[:, None]) @ light, 0.0, 1.0)
    out = verts.copy()
    out[:, 7] = lambert
    return [out.reshape(-1)]


SHADE = KernelSpec(
    name="shade",
    graph=build_shade_graph(),
    apply_fn=_shade_apply,
    output_record_words=(VERTEX_WORDS,),
    description="vertex lighting (RTSL)",
)


def build_rasterize_graph() -> KernelGraph:
    builder = KernelBuilder(
        "rasterize", elements_per_iteration=1,
        description="triangle setup and half-space rasterization")
    v = [builder.stream_input(f"t{i}") for i in range(6)]
    # Edge equations: differences and cross products.
    e01 = builder.op("fsub", v[2], v[0])
    e02 = builder.op("fsub", v[4], v[0])
    e11 = builder.op("fsub", v[3], v[1])
    e12 = builder.op("fsub", v[5], v[1])
    cross = builder.op("fsub", builder.op("fmul", e01, e12),
                       builder.op("fmul", e02, e11))
    area_inv = builder.op("fdiv", cross, cross, name="inv_area")
    bary = [builder.op("fmul", e, area_inv) for e in (e01, e02, e11)]
    steps = [builder.op("fadd", b, builder.prev(b, 1)) for b in bary]
    builder.op("spwrite", steps[0])
    table = builder.op("spread", steps[1], name="span_table")
    builder.stream_output("frag", builder.op("fadd", steps[2], table))
    return builder.build()


def rasterize_triangles(verts: np.ndarray, colors: np.ndarray,
                        width: int, height: int) -> np.ndarray:
    """Half-space rasterizer oracle: (n, FRAGMENT_WORDS) fragments.

    Fragments are grouped by triangle, in input order; a triangle's
    run row-major over its screen-clipped bounding box.  Degenerate
    and off-screen triangles produce none.
    """
    xs = verts[:, :, 0]
    ys = verts[:, :, 1]
    x0 = np.maximum(np.floor(xs.min(axis=1)), 0)
    x1 = np.minimum(np.ceil(xs.max(axis=1)), width - 1)
    y0 = np.maximum(np.floor(ys.min(axis=1)), 0)
    y1 = np.minimum(np.ceil(ys.max(axis=1)), height - 1)
    area = ((xs[:, 1] - xs[:, 0]) * (ys[:, 2] - ys[:, 0])
            - (xs[:, 2] - xs[:, 0]) * (ys[:, 1] - ys[:, 0]))
    drawn = np.flatnonzero((x1 >= x0) & (y1 >= y0)
                           & ~(np.abs(area) < 1e-12))
    x0 = x0[drawn].astype(np.int64)
    y0 = y0[drawn].astype(np.int64)
    nx = x1[drawn].astype(np.int64) - x0 + 1
    ny = y1[drawn].astype(np.int64) - y0 + 1
    # One row per bounding-box pixel of every drawn triangle.
    counts = nx * ny
    tri = np.repeat(drawn, counts)
    offset = (np.arange(counts.sum())
              - np.repeat(np.cumsum(counts) - counts, counts))
    row = np.repeat(nx, counts)
    gx = np.repeat(x0, counts) + offset % row
    gy = np.repeat(y0, counts) + offset // row
    tx, ty = xs[tri], ys[tri]
    w0 = ((tx[:, 1] - gx) * (ty[:, 2] - gy)
          - (tx[:, 2] - gx) * (ty[:, 1] - gy))
    w1 = ((tx[:, 2] - gx) * (ty[:, 0] - gy)
          - (tx[:, 0] - gx) * (ty[:, 2] - gy))
    w2 = ((tx[:, 0] - gx) * (ty[:, 1] - gy)
          - (tx[:, 1] - gx) * (ty[:, 0] - gy))
    inside = ((w0 >= 0) & (w1 >= 0) & (w2 >= 0)) | (
        (w0 <= 0) & (w1 <= 0) & (w2 <= 0))
    fragments = np.empty((int(inside.sum()), FRAGMENT_WORDS))
    fragments[:, 0] = gx[inside]
    fragments[:, 1] = gy[inside]
    fragments[:, 2] = verts[:, :, 2].mean(axis=1)[tri[inside]]
    fragments[:, 3] = np.asarray(colors, dtype=np.float64)[tri[inside]]
    return fragments


def _rasterize_apply(inputs, params):
    verts = inputs[0].reshape(-1, VERTEX_WORDS)
    width = int(params["width"])
    height = int(params["height"])
    triangles = verts[:len(verts) // 3 * 3].reshape(-1, 3, VERTEX_WORDS)
    fragments = rasterize_triangles(
        triangles[:, :, :3], triangles[:, :, 7].mean(axis=1),
        width, height)
    return [fragments.reshape(-1)]


RASTERIZE = KernelSpec(
    name="rasterize",
    graph=build_rasterize_graph(),
    apply_fn=_rasterize_apply,
    output_record_words=(FRAGMENT_WORDS,),
    description="triangle rasterization (RTSL)",
)


def build_fragshade_graph() -> KernelGraph:
    builder = KernelBuilder(
        "fragshade", elements_per_iteration=1,
        description="fragment shading and framebuffer address compute")
    frag = [builder.stream_input(f"f{i}") for i in range(4)]
    width = builder.param("width")
    fog = builder.op("fmul", frag[2], width, name="fog")
    color = builder.op("fmax", builder.op("fadd", frag[3], fog),
                       frag[3])
    address = builder.op("iadd", builder.op("imul", frag[1], width),
                         frag[0], name="fb_address")
    builder.stream_output("addr", address)
    builder.stream_output("color", color)
    return builder.build()


def _fragshade_apply(inputs, params):
    fragments = inputs[0].reshape(-1, FRAGMENT_WORDS)
    width = int(params["width"])
    addresses = fragments[:, 1] * width + fragments[:, 0]
    colors = np.clip(fragments[:, 3] * (1.0 - 0.1 * fragments[:, 2]),
                     0.0, 1.0)
    return [addresses, colors]


FRAGSHADE = KernelSpec(
    name="fragshade",
    graph=build_fragshade_graph(),
    apply_fn=_fragshade_apply,
    output_record_words=(1, 1),
    description="fragment shading (RTSL)",
)
