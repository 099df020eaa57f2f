"""3D names for the rank-generic criss-cross attention of the 2D module.

The entry points and the index map of cca2d take volumes too; the names
below are aliases of them. The criss-cross set of u = (t, x, y), the
positions sharing at least two of u's coordinates (T+H+W-2), is the union of
u's three axis lines; at T=1 the temporal line is u alone, so the operator
reduces to the 2D one by construction.
"""

from __future__ import annotations

from .cca2d import (  # noqa: F401  (CCAttentionParams is re-exported)
    CCAttentionParams,
    _gather_table,
    cca_forward,
    crisscross_index_map,
    rcca_backward,
    rcca_forward,
)


def build_gather_table_3d(t: int, h: int, w: int):
    """nbr[i, n]: flat index of the i-th 3D criss-cross neighbor of flat position n."""
    return _gather_table((t, h, w))


crisscross_index_map_3d = crisscross_index_map
cca3d_forward = cca_forward
rcca3d_forward, rcca3d_backward = rcca_forward, rcca_backward
