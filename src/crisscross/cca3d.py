"""3D criss-cross attention over (C, T, H, W) volumes.

Runs the rank-generic axial engine of the 2D module. The criss-cross set of
u = (t, x, y), the positions sharing at least two of u's coordinates
(T+H+W-2), is the union of u's three axis lines; at T=1 the temporal line is
u alone, so the operator reduces to the 2D one by construction.
"""

from __future__ import annotations

from .cca2d import (
    CCAttentionParams,
    _check_rank,
    _gather_table,
    _recurrent_backward,
    _recurrent_forward,
)


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


def build_gather_table_3d(t: int, h: int, w: int):
    """nbr[i, n]: flat index of the i-th 3D criss-cross neighbor of flat position n."""
    return _gather_table((t, h, w))


def cca3d_forward(h, p: CCAttentionParams) -> tuple:
    """Single 3D criss-cross pass on a (C, T, H, W) volume."""
    _check_rank(h, "(C, T, H, W)")
    return _recurrent_forward(h, p, 1)


def rcca3d_forward(x, p: CCAttentionParams, r: int) -> tuple:
    """r recurrent 3D passes with one shared parameter set."""
    _check_rank(x, "(C, T, H, W)")
    return _recurrent_forward(x, p, r)


cca3d_backward = rcca3d_backward = _recurrent_backward
