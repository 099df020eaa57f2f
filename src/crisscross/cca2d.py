"""Criss-cross attention on (C, H, W) maps and (C, T, H, W) volumes: one
axial engine and one entry pair, rcca_forward and rcca_backward, for both.

The criss-cross set of a position is the union of the axis lines through it
(H+W-1 positions in 2D, T+H+W-2 in 3D). The engine scores each axis's lines
as one batched matrix product, sets the duplicate self entry of every axis
after the first to -inf, and runs one joint softmax in the scores buffer.
Attention arrays use this *line layout*, (*S, sum(S)): block m holds the
weights over the line along spatial axis m, zero at the duplicates.
Aggregation and backward are batched products over the same lines, on
channels-last (*S, C) maps whose lines along every axis are BLAS-ready
views; public arrays stay (C, *S). crisscross_index_map and crisscross_set
(the *index-map layout*) state the set once for every rank: the definitional
enumeration that the oracles read, for verification only.
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


def _position(u, extents: tuple) -> tuple:
    """u as a tuple, or IndexError if it is not a position of the grid ``extents``."""
    u = tuple(u)
    if len(u) == len(extents):
        for a, s in zip(u, extents):
            if not 0 <= a < s:
                break
        else:
            return u
    raise IndexError(f"position {u} outside {'x'.join(map(str, extents))} grid")


def _member(u: tuple, i: int, extents: tuple) -> tuple:
    """crisscross_index_map for an in-grid tuple u: an O(rank) walk, no list."""
    if 0 <= i < extents[0]:
        return (i,) + u[1:]
    j = i - extents[0]
    for m in range(1, len(extents)):
        s = extents[m] - 1  # u itself is on axis 0's line
        if 0 <= j < s:
            if j >= u[m]:
                j += 1
            return u[:m] + (j,) + u[m + 1:]
        j -= s
    raise IndexError(f"criss-cross index {i} out of range [0, {sum(extents) - len(extents) + 1})")


def crisscross_index_map(u: tuple, i: int, *extents: int) -> tuple:
    """i-th member of the criss-cross set of u in a grid of any rank: u's line
    along the first axis (u itself at i = u[0]), then its line along each later
    axis without u, each in increasing coordinate order. In 2D that is u's
    column, then its row; in 3D the temporal line, the column, then the row."""
    return _member(_position(u, extents), i, extents)


def crisscross_set(u: tuple, extents: tuple) -> list:
    """The criss-cross set of u in crisscross_index_map order: sum(S)-rank+1
    positions, H+W-1 in 2D and T+H+W-2 in 3D."""
    u = _position(u, extents)
    return [_member(u, i, extents) for i in range(sum(extents) - len(extents) + 1)]


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


def _duplicates(a: np.ndarray, rank: int):
    """Writable views of the duplicate self entries of a line-layout array
    (*B, *S, sum(S)): the diagonal of each block after the first."""
    for to_line, lo, hi in _axis_plan(a.shape[-rank - 1:-1], a.ndim - rank - 1)[2][1:]:
        yield np.einsum("...ii->...i", a[..., lo:hi].transpose(to_line))


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
    for diagonal in _duplicates(scores, rank):
        diagonal[...] = -np.inf
    attn = softmax_axis(scores, axis=-1, out=scores)
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
    duplicates and in crisscross_index_map order."""
    spatial = a.shape[:-1]
    size = sum(spatial) - len(spatial) + 1
    keep = np.ones(a.shape, dtype=bool)
    for diagonal in _duplicates(keep, len(spatial)):
        diagonal[...] = False
    return a[keep].reshape(-1, size).T.reshape((size,) + spatial)


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
    w_qkv = _stacked_weights(cache.params, cache.records[0].x.dtype)
    d_x, total = _recurrence_backward(cache.records, d_out, w_qkv, len(cache.shape) - 1)
    cr = cache.params.reduced_channels
    return (d_x, CCAttentionGrads(d_wq=total[:cr], d_wk=total[cr:2 * cr], d_wv=total[2 * cr:]))
