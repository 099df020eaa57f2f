"""Criss-cross attention on (C, H, W) maps and (C, T, H, W) volumes: one
axial engine and one entry pair, rcca_forward and rcca_backward, for both.

The criss-cross set of a position is the union of the axis lines through it
(H+W-1 positions in 2D, T+H+W-2 in 3D). The engine scores each axis's lines
as one batched matrix product, sets the duplicate self entry of every axis
after the first to -inf, and runs one joint softmax. Attention arrays use
this *line layout*, (*S, sum(S)): block m holds the weights over the line
along spatial axis m, zero at the duplicates. Aggregation and backward are
batched products over the same lines, on channels-last (*S, C) maps whose
lines along every axis are BLAS-ready views; public arrays stay (C, *S). The
index maps and gather tables (the *index-map layout*) are the definitional
enumeration, for verification only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .tensor_core import DimensionError, ProjectionWeights, softmax_axis


class CacheMismatchError(RuntimeError):
    """Backward invoked with a gradient that does not match the cached forward."""


@dataclass(frozen=True)
class CCAttentionParams:
    """Query/key/value pointwise projections, shared across recurrence loops."""

    wq: ProjectionWeights  # (C', C)
    wk: ProjectionWeights  # (C', C)
    wv: ProjectionWeights  # (C, C)

    def __post_init__(self):
        c = self.wv.in_channels
        if self.wv.out_channels != c:
            raise DimensionError(
                f"value projection must be square, got {self.wv.weight.shape}"
            )
        if self.wq.in_channels != c or self.wk.in_channels != c:
            raise DimensionError("query/key projections must consume the value channel count")
        if self.wq.out_channels != self.wk.out_channels:
            raise DimensionError("query and key must project to the same reduced width")
        if self.wq.out_channels >= c:
            raise DimensionError(
                f"reduced channels {self.wq.out_channels} must be < channels {c}"
            )

    @property
    def channels(self) -> int:
        return self.wv.in_channels

    @property
    def reduced_channels(self) -> int:
        return self.wq.out_channels

    @staticmethod
    def random(channels: int, reduced: int, rng: np.random.Generator, scale: float = 0.5):
        return CCAttentionParams(
            wq=ProjectionWeights(rng.normal(0.0, scale, (reduced, channels))),
            wk=ProjectionWeights(rng.normal(0.0, scale, (reduced, channels))),
            wv=ProjectionWeights(rng.normal(0.0, scale, (channels, channels))),
        )


@dataclass(frozen=True)
class CCAttentionGrads:
    """Gradients with the same layout as CCAttentionParams.weight matrices."""

    d_wq: np.ndarray
    d_wk: np.ndarray
    d_wv: np.ndarray


@dataclass
class LoopRecord:
    """Intermediates of one attention application, kept for the backward pass."""

    x: np.ndarray        # input, channels-last (*S, C)
    q: np.ndarray        # (*S, C')
    k: np.ndarray        # (*S, C')
    v: np.ndarray        # (*S, C)
    attn: np.ndarray     # post-softmax, line layout (*S, sum(S))
    rank: int            # spatial axes; any before them are a batch


@dataclass
class ForwardCache:
    """Per-loop records, for analytic backward."""

    shape: tuple
    params: CCAttentionParams
    records: list = field(default_factory=list)

    @property
    def loops(self) -> int:
        return len(self.records)


def crisscross_index_map(u: tuple, i: int, h: int, w: int) -> tuple:
    """i-th element of the criss-cross set of position u = (row, col).

    Indices 0..H-1 walk u's column top to bottom (u itself at i = row);
    indices H..H+W-2 walk u's row left to right, skipping column u.col.
    """
    row, col = u
    if not (0 <= row < h and 0 <= col < w):
        raise IndexError(f"position {u} outside {h}x{w} grid")
    if not 0 <= i < h + w - 1:
        raise IndexError(f"criss-cross index {i} out of range [0, {h + w - 1})")
    if i < h:
        return (i, col)
    j = i - h
    cols = [c for c in range(w) if c != col]
    return (row, cols[j])


def _gather_table(spatial: tuple) -> np.ndarray:
    """nbr[i, n] in index-map order: the whole line along axis 0 through
    flat position n, then each later axis's line without n itself."""
    coords = np.indices(spatial).reshape(len(spatial), 1, -1)
    rows = []
    for m, s in enumerate(spatial):
        z = np.arange(s)[:, None]
        if m:
            z = z[:-1] + (z[:-1] >= coords[m])  # skip the own coordinate
        line = np.repeat(coords, len(z), axis=1)
        line[m] = z
        rows.append(np.ravel_multi_index(tuple(line), spatial))
    return np.concatenate(rows)


def build_gather_table_2d(h: int, w: int) -> np.ndarray:
    """nbr[i, n]: flat index of the i-th criss-cross neighbor of flat position n."""
    return _gather_table((h, w))


# ---------------------------------------------------------------------------
# axial engine (rank-generic, shared with the 3D module)

@lru_cache(maxsize=64)
def _axis_plan(spatial: tuple, lead: int) -> tuple:
    """(to_last, to_first, lines) for the grid ``spatial`` and ``lead`` batch
    axes B: to_last views (*B, C, *S) as (*B, *S, C), to_first undoes it, and
    per spatial axis m, ``lines`` holds the transpose that batches its lines,
    (*B, *S, z) to (*B, others..., S[m], z), for channels-last arrays and
    attention blocks alike, and the block's [lo, hi) range in the line layout."""
    rank, batch = len(spatial), tuple(range(lead))
    grid = tuple(range(lead, lead + rank))
    lines, lo = [], 0
    for m, s in enumerate(spatial):
        lines.append((batch + grid[:m] + grid[m + 1:] + (lead + m, lead + rank), lo, lo + s))
        lo += s
    return batch + grid[1:] + (lead + rank, lead), batch + (lead + rank,) + grid, tuple(lines)


@lru_cache(maxsize=16)
def _duplicate_mask(spatial: tuple, dtype=np.dtype(np.float64)) -> np.ndarray:
    """Additive (*S, sum(S)) score mask in ``dtype``, -inf on the duplicate self
    entries and 0 elsewhere; read-only, since every call on this grid shares it."""
    axis = np.repeat(np.arange(len(spatial)), spatial)
    z = np.concatenate([np.arange(s) for s in spatial])
    own = np.indices(spatial)[axis]  # (sum(S), *S): the coordinate each block walks
    mask = np.where((axis > 0) & (np.moveaxis(own, 0, -1) == z), -np.inf, 0.0).astype(dtype)
    mask.setflags(write=False)
    return mask


def _line_scores(a: np.ndarray, b: np.ndarray, rank: int) -> np.ndarray:
    """Line layout of <a[..., u, :], b[..., v, :]> over v on the axis lines
    through u, for channels-last (*B, *S, C) arrays with ``rank`` spatial axes."""
    spatial = a.shape[-rank - 1:-1]
    out = np.empty(a.shape[:-1] + (sum(spatial),), dtype=np.result_type(a, b))
    for to_line, lo, hi in _axis_plan(spatial, a.ndim - rank - 1)[2]:
        np.matmul(a.transpose(to_line), b.transpose(to_line).swapaxes(-1, -2),
                  out=out[..., lo:hi].transpose(to_line))
    return out


def _line_apply(weights: np.ndarray, a: np.ndarray, rank: int, transpose: bool = False,
                residual=None, out=None) -> np.ndarray:
    """out[..., u, :] = residual[..., u, :] + the sum of weights[..., u, v]
    a[..., v, :] over v on the lines through u, for channels-last arrays;
    with ``transpose``, weights[..., v, u] instead. ``out`` is written, not
    read, and is a new array when not given."""
    lead = weights.ndim - rank - 1
    out = np.empty(a.shape, dtype=np.result_type(weights, a)) if out is None else out
    for m, (to_line, lo, hi) in enumerate(_axis_plan(weights.shape[lead:-1], lead)[2]):
        block = weights[..., lo:hi].transpose(to_line)
        product = np.matmul(block.swapaxes(-1, -2) if transpose else block,
                            a.transpose(to_line), out=None if m else out.transpose(to_line))
        if m:
            acc = out.transpose(to_line)
            acc += product
        elif residual is not None:  # after the first product: no copy, sum order x + p0 + p1
            out += residual
    return out


def _attention_forward(x: np.ndarray, w_qkv: np.ndarray, reduced: int, rank: int):
    """One pass on a channels-last (*B, *S, C) array with ``rank`` spatial axes;
    w_qkv stacks wq, wk and wv in x.dtype, one (M, C) matrix or one per item."""
    batch = x.shape[:-rank - 1]
    qkv = x.reshape(batch + (-1, x.shape[-1])) @ w_qkv.swapaxes(-1, -2)  # (*B, N, M)
    qkv = qkv.reshape(x.shape[:-1] + (-1,))
    q, k, v = qkv[..., :reduced], qkv[..., reduced:2 * reduced], qkv[..., 2 * reduced:]
    scores = _line_scores(q, k, rank)
    scores += _duplicate_mask(x.shape[-rank - 1:-1], scores.real.dtype)
    attn = softmax_axis(scores, axis=-1)
    del scores  # freed before the aggregation allocates its output
    out = _line_apply(attn, v, rank, residual=x)
    return out, LoopRecord(x=x, q=q, k=k, v=v, attn=attn, rank=rank)


def _recurrence(x: np.ndarray, w_qkv: np.ndarray, reduced: int, loops: int,
                rank: int) -> tuple:
    """``loops`` passes with one weight stack on a (*B, C, *S) array: the
    C-contiguous output in that layout and the channels-last loop records."""
    to_last, to_first, _ = _axis_plan(x.shape[-rank:], x.ndim - rank - 1)
    x, records = x.transpose(to_last), []
    for _ in range(loops):
        x, rec = _attention_forward(x, w_qkv, reduced, rank)
        records.append(rec)
    return np.ascontiguousarray(x.transpose(to_first)), records


def _recurrence_backward(records: list, d_out: np.ndarray, w_qkv: np.ndarray,
                         rank: int) -> tuple:
    """Reverse mode through _recurrence's records with one (M, C) weight stack
    for a (*B, C, *S) gradient: the C-contiguous input gradient in that layout
    and the weight-stack gradient summed over loops and items."""
    to_last, to_first, _ = _axis_plan(d_out.shape[-rank:], d_out.ndim - rank - 1)
    d, total = np.ascontiguousarray(d_out.transpose(to_last), dtype=records[0].x.dtype), 0
    for rec in reversed(records):
        d, d_w = _attention_backward(rec, d, w_qkv)
        total = total + d_w
    return np.ascontiguousarray(d.transpose(to_first)), total


def _attention_backward(rec: LoopRecord, d_out: np.ndarray, w_qkv: np.ndarray):
    """(d_x, (M, C) weight-stack gradient summed over items) of one cached pass."""
    attn, reduced, rank, m = rec.attn, rec.q.shape[-1], rec.rank, w_qkv.shape[0]
    d_attn = _line_scores(d_out, rec.v, rank)
    # softmax over the criss-cross set, in place; the duplicates have attn = 0
    d_attn -= np.einsum("...z,...z->...", attn, d_attn)[..., None]
    d_attn *= attn
    d_qkv = np.empty(d_out.shape[:-1] + (m,), dtype=d_out.dtype)
    _line_apply(d_attn, rec.k, rank, out=d_qkv[..., :reduced])
    _line_apply(d_attn, rec.q, rank, transpose=True, out=d_qkv[..., reduced:2 * reduced])
    _line_apply(attn, d_out, rank, transpose=True, out=d_qkv[..., 2 * reduced:])
    d_qkv = d_qkv.reshape(-1, m)
    d_x = (d_qkv @ w_qkv).reshape(d_out.shape)
    d_x += d_out
    return d_x, d_qkv.T @ rec.x.reshape(-1, rec.x.shape[-1])


def _stacked_weights(p: CCAttentionParams, dtype) -> np.ndarray:
    return np.concatenate([p.wq.weight, p.wk.weight, p.wv.weight]).astype(dtype, copy=False)


def index_map_layout(a: np.ndarray) -> np.ndarray:
    """(L, *S) copy of a line-layout array (*S, sum(S)), without the
    duplicates and in crisscross_index_map / crisscross_index_map_3d order."""
    spatial = a.shape[:-1]
    size = sum(spatial) - len(spatial) + 1
    kept = a[np.isfinite(_duplicate_mask(spatial))]
    return kept.reshape(-1, size).T.reshape((size,) + spatial)


def attention_mass(cache: ForwardCache, u: tuple) -> list:
    """Per loop l, row u of the product of the position-to-position attention
    matrices of loops l..1 (residual paths excluded), carried back one loop
    at a time through the line-layout attention: no N x N matrix is formed."""
    maps = []
    for loop in range(1, cache.loops + 1):
        mass = np.zeros(cache.shape[1:] + (1,))
        mass[tuple(u) + (0,)] = 1.0
        for rec in reversed(cache.records[:loop]):
            mass = _line_apply(rec.attn, mass, mass.ndim - 1, transpose=True)
        maps.append(mass[..., 0])
    return maps


# ---------------------------------------------------------------------------
# entry points, for either rank

def rcca_forward(x: np.ndarray, p: CCAttentionParams, loops: int) -> tuple:
    """``loops`` criss-cross passes with one shared parameter set on a
    (C, H, W) map or a (C, T, H, W) volume; returns (output, cache) where
    the cache feeds rcca_backward."""
    if x.ndim not in (3, 4):
        raise DimensionError(
            f"expected a (C, H, W) map or a (C, T, H, W) volume, got rank {x.ndim}"
        )
    if loops < 1:
        raise ValueError(f"loops must be >= 1, got {loops}")
    if x.shape[0] != p.channels:
        raise DimensionError(
            f"input has {x.shape[0]} channels, parameters expect {p.channels}"
        )
    # float32 stays float32 end to end; complex input (a complex-step
    # perturbation) computes in complex128, anything else in float64
    if x.dtype != np.float32:
        x = x.astype(np.complex128 if x.dtype.kind == "c" else np.float64, copy=False)
    w_qkv = _stacked_weights(p, x.dtype)
    out, records = _recurrence(x, w_qkv, p.reduced_channels, loops, x.ndim - 1)
    return out, ForwardCache(shape=x.shape, params=p, records=records)


# cca_forward reaches rcca_forward through this private name, so that a
# rebound public name (the benchmark's traced run wraps it) does not nest a
# second forward inside a single-pass call. The selftest's complex-step
# influence scan calls it too, so that its complex calls are not priced as
# real forwards.
_rcca_forward = rcca_forward


def cca_forward(x: np.ndarray, p: CCAttentionParams) -> tuple:
    """One criss-cross pass: rcca_forward with loops = 1."""
    return _rcca_forward(x, p, 1)


def rcca_backward(cache: ForwardCache, d_out: np.ndarray) -> tuple:
    """Reverse mode through every cached loop: returns (d_input,
    CCAttentionGrads), the shared-parameter gradients summed across loops."""
    if d_out.shape != cache.shape:
        raise CacheMismatchError(
            f"gradient shape {d_out.shape} does not match cached forward {cache.shape}"
        )
    w_qkv = _stacked_weights(cache.params, cache.records[0].x.dtype)
    d_x, total = _recurrence_backward(cache.records, d_out, w_qkv, len(cache.shape) - 1)
    cr = cache.params.reduced_channels
    return (d_x, CCAttentionGrads(d_wq=total[:cr], d_wk=total[cr:2 * cr], d_wv=total[2 * cr:]))
