"""Criss-cross attention on (C, H, W) maps and (C, T, H, W) volumes: one
axial engine and one entry pair, rcca_forward and rcca_backward, for both.

The criss-cross set of a position is the union of the axis lines through it
(H+W-1 positions in 2D, T+H+W-2 in 3D). The engine scores each axis's lines
as one batched matrix product, sets the duplicate self entry of every axis
after the first to -inf, and runs one joint softmax. Attention arrays use
this *line layout*, (*S, sum(S)): block m holds the weights over the line
along spatial axis m, zero at the duplicates. Aggregation and backward are
batched products over the same lines; the index maps and gather tables (the
*index-map layout*) are the definitional enumeration, for verification only.
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

    x: np.ndarray        # input (C, *S)
    q: np.ndarray        # (C', *S)
    k: np.ndarray        # (C', *S)
    v: np.ndarray        # (C, *S)
    attn: np.ndarray     # post-softmax, line layout (*S, sum(S))


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

@lru_cache(maxsize=8)
def _axis_plan(rank: int) -> tuple:
    """Per spatial axis m, the transposes that batch its lines: (C, *S) to
    (others..., C, S[m]), and a (*S, z) attention block to (others..., S[m], z)."""
    plan = []
    for m in range(rank):
        others = tuple(a for a in range(rank) if a != m)
        plan.append((tuple(a + 1 for a in others) + (0, m + 1), others + (m, rank)))
    return tuple(plan)


@lru_cache(maxsize=16)
def _duplicate_mask(spatial: tuple) -> np.ndarray:
    """Additive (*S, sum(S)) score mask, -inf on the duplicate self entries and
    0 elsewhere; read-only, since every call on this grid shares it."""
    axis = np.repeat(np.arange(len(spatial)), spatial)
    z = np.concatenate([np.arange(s) for s in spatial])
    own = np.indices(spatial)[axis]  # (sum(S), *S): the coordinate each block walks
    mask = np.where((axis > 0) & (np.moveaxis(own, 0, -1) == z), -np.inf, 0.0)
    mask.setflags(write=False)
    return mask


def _line_scores(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Line layout of <a[:, u], b[:, v]> over v on the axis lines through u."""
    spatial = a.shape[1:]
    out = np.empty(spatial + (sum(spatial),), dtype=np.result_type(a, b))
    offset = 0
    for (to_line, att), s in zip(_axis_plan(len(spatial)), spatial):
        np.matmul(a.transpose(to_line).swapaxes(-1, -2), b.transpose(to_line),
                  out=out[..., offset:offset + s].transpose(att))
        offset += s
    return out


def _line_apply(weights: np.ndarray, a: np.ndarray, out: np.ndarray,
                transpose: bool = False) -> np.ndarray:
    """out[:, u] += sum of weights[u, v] a[:, v] over v on the lines through
    u; with ``transpose``, out[:, v] += sum of weights[u, v] a[:, u]."""
    spatial = weights.shape[:-1]
    offset = 0
    for (to_line, att), s in zip(_axis_plan(len(spatial)), spatial):
        block = weights[..., offset:offset + s].transpose(att)
        acc = out.transpose(to_line)
        acc += a.transpose(to_line) @ (block if transpose else block.swapaxes(-1, -2))
        offset += s
    return out


def _attention_forward(x: np.ndarray, w_qkv: np.ndarray, reduced: int):
    """One pass on a (C, *S) array; w_qkv stacks wq, wk and wv in x.dtype."""
    spatial = x.shape[1:]
    qkv = (w_qkv @ x.reshape(x.shape[0], -1)).reshape((-1,) + spatial)
    q, k, v = qkv[:reduced], qkv[reduced:2 * reduced], qkv[2 * reduced:]
    scores = _line_scores(q, k)
    scores += _duplicate_mask(spatial)
    attn = softmax_axis(scores, axis=-1)
    out = _line_apply(attn, v, x.copy())
    return out, LoopRecord(x=x, q=q, k=k, v=v, attn=attn)


def _attention_backward(rec: LoopRecord, d_out: np.ndarray, w_qkv: np.ndarray):
    """(d_x, gradient of the stacked weights) of one cached pass."""
    attn, reduced = rec.attn, len(rec.q)
    d_attn = _line_scores(d_out, rec.v)
    # softmax over the criss-cross set; the duplicates have attn = 0
    d_scores = attn * (d_attn - (attn * d_attn).sum(axis=-1, keepdims=True))
    d_qkv = np.zeros((len(w_qkv),) + rec.x.shape[1:], dtype=rec.x.dtype)
    _line_apply(d_scores, rec.k, d_qkv[:reduced])
    _line_apply(d_scores, rec.q, d_qkv[reduced:2 * reduced], transpose=True)
    _line_apply(attn, d_out, d_qkv[2 * reduced:], transpose=True)
    d_qkv = d_qkv.reshape(len(w_qkv), -1)
    d_x = d_out + (w_qkv.T @ d_qkv).reshape(d_out.shape)
    return d_x, d_qkv @ rec.x.reshape(len(rec.x), -1).T


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
        mass = np.zeros((1,) + cache.shape[1:])
        mass[(0,) + tuple(u)] = 1.0
        for rec in reversed(cache.records[:loop]):
            mass = _line_apply(rec.attn, mass, np.zeros_like(mass), transpose=True)
        maps.append(mass[0])
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
    # float32 stays float32 end to end; anything else computes in float64
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    w_qkv = _stacked_weights(p, x.dtype)
    cache = ForwardCache(shape=x.shape, params=p)
    for _ in range(loops):
        x, rec = _attention_forward(x, w_qkv, p.reduced_channels)
        cache.records.append(rec)
    return x, cache


# cca_forward reaches rcca_forward through this private name, so that a
# rebound public name (the benchmark's traced run wraps it) does not nest a
# second forward inside a single-pass call.
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
    dtype = cache.records[0].x.dtype
    w_qkv = _stacked_weights(cache.params, dtype)
    d, total = np.asarray(d_out, dtype=dtype), 0
    for rec in reversed(cache.records):
        d, d_w = _attention_backward(rec, d, w_qkv)
        total = total + d_w
    cr = cache.params.reduced_channels
    return d, CCAttentionGrads(d_wq=total[:cr], d_wk=total[cr:2 * cr], d_wv=total[2 * cr:])
