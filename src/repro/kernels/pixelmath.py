"""Packed 16-bit pixel arithmetic helpers for functional models.

Imagine's media kernels operate on 16-bit pixel pairs packed two to a
32-bit word.  Functional models here represent a packed word as the
exact float64 value ``lo + hi * 65536``, so packing survives the
float-typed stream arrays without loss (both halves are integers in
[0, 65535]).
"""

from __future__ import annotations

import numpy as np

_RADIX = 65536.0
U16_MAX = 65535


def pack16(pixels: np.ndarray) -> np.ndarray:
    """Pack an even-length array of u16 values into pair words."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if len(pixels) % 2:
        raise ValueError("pack16 needs an even number of pixels")
    if ((pixels < 0) | (pixels > U16_MAX)).any():
        raise ValueError("pack16 values must be in [0, 65535]")
    if not (pixels == np.round(pixels)).all():
        raise ValueError("pack16 values must be integers")
    lo = pixels[0::2]
    hi = pixels[1::2]
    return lo + hi * _RADIX


def unpack16(words: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack16`."""
    words = np.asarray(words, dtype=np.float64)
    hi = np.floor(words / _RADIX)
    lo = words - hi * _RADIX
    out = np.empty(2 * len(words))
    out[0::2] = lo
    out[1::2] = hi
    return out


def clamp_u16(values: np.ndarray) -> np.ndarray:
    """Round and clamp to the u16 range (hardware saturation)."""
    return np.clip(np.round(np.asarray(values, dtype=np.float64)),
                   0, U16_MAX)


def pad_edge(values: np.ndarray, half: int) -> np.ndarray:
    """``values`` with ``half`` copies of its edge elements added at
    both ends of the last axis: ``np.pad(..., mode="edge")`` on that
    axis, without np.pad's general-purpose set-up."""
    width = values.shape[-1]
    if width == 0:
        raise ValueError("pad_edge needs at least one element")
    out = np.empty(values.shape[:-1] + (width + 2 * half,),
                   dtype=values.dtype)
    out[..., half:half + width] = values
    out[..., :half] = values[..., :1]
    out[..., half + width:] = values[..., -1:]
    return out
