"""3D criss-cross attention over (C, T, H, W) volumes.

Reuses the gather-table core from the 2D module; only the neighbor
enumeration differs: the criss-cross set of u = (t, x, y) is the set of
positions sharing at least two of u's three coordinates, size T+H+W-2.
"""

from __future__ import annotations

import numpy as np

from .cca2d import (
    CCAttentionParams,
    ForwardCache,
    _recurrent_backward,
    _recurrent_forward,
)
from .tensor_core import DimensionError


def crisscross_index_map_3d(u: tuple, i: int, t: int, h: int, w: int) -> tuple:
    """i-th element of the 3D criss-cross set of u = (t, x, y).

    Order: the temporal line (T entries, u itself at i = u.t), then the
    column skipping u's row (H-1 entries), then the row skipping u's
    column (W-1 entries).
    """
    ut, ux, uy = u
    if not (0 <= ut < t and 0 <= ux < h and 0 <= uy < w):
        raise IndexError(f"position {u} outside {t}x{h}x{w} volume")
    size = t + h + w - 2
    if not 0 <= i < size:
        raise IndexError(f"criss-cross index {i} out of range [0, {size})")
    if i < t:
        return (i, ux, uy)
    i -= t
    if i < h - 1:
        rows = [x for x in range(h) if x != ux]
        return (ut, rows[i], uy)
    i -= h - 1
    cols = [y for y in range(w) if y != uy]
    return (ut, ux, cols[i])


def build_gather_table_3d(t: int, h: int, w: int) -> np.ndarray:
    L = t + h + w - 2
    n = t * h * w
    nbr = np.empty((L, n), dtype=np.int64)
    for tt in range(t):
        for xx in range(h):
            for yy in range(w):
                pos = (tt * h + xx) * w + yy
                for i in range(L):
                    a, b, c = crisscross_index_map_3d((tt, xx, yy), i, t, h, w)
                    nbr[i, pos] = (a * h + b) * w + c
    return nbr


def cca3d_forward(h: np.ndarray, p: CCAttentionParams) -> tuple:
    """Single 3D criss-cross pass on a (C, T, H, W) volume."""
    if h.ndim != 4:
        raise DimensionError(f"expected (C, T, H, W) input, got rank {h.ndim}")
    nbr = build_gather_table_3d(*h.shape[1:])
    return _recurrent_forward(h, p, 1, nbr)


def rcca3d_forward(x: np.ndarray, p: CCAttentionParams, r: int) -> tuple:
    """r recurrent 3D passes with one shared parameter set."""
    if x.ndim != 4:
        raise DimensionError(f"expected (C, T, H, W) input, got rank {x.ndim}")
    nbr = build_gather_table_3d(*x.shape[1:])
    return _recurrent_forward(x, p, r, nbr)


def cca3d_backward(cache: ForwardCache, d_out: np.ndarray) -> tuple:
    return _recurrent_backward(cache, d_out)


def rcca3d_backward(cache: ForwardCache, d_out: np.ndarray) -> tuple:
    return _recurrent_backward(cache, d_out)
