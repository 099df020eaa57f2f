"""2D criss-cross attention: index mapping, affinity, aggregation, recurrent
forward, and analytic backward passes.

The attention structure is carried by an integer gather table ``nbr`` of shape
(L, N): nbr[i, n] is the flat spatial index of the i-th criss-cross neighbor
of flat position n, L = H+W-1. The same machinery serves the 3D module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        c, cr = channels, reduced
        return CCAttentionParams(
            wq=ProjectionWeights(rng.normal(0.0, scale, (cr, c))),
            wk=ProjectionWeights(rng.normal(0.0, scale, (cr, c))),
            wv=ProjectionWeights(rng.normal(0.0, scale, (c, c))),
        )


@dataclass(frozen=True)
class CCAttentionGrads:
    """Gradients with the same layout as CCAttentionParams.weight matrices."""

    d_wq: np.ndarray
    d_wk: np.ndarray
    d_wv: np.ndarray

    def __add__(self, other: "CCAttentionGrads") -> "CCAttentionGrads":
        return CCAttentionGrads(
            self.d_wq + other.d_wq, self.d_wk + other.d_wk, self.d_wv + other.d_wv
        )


@dataclass(frozen=True)
class RCCAConfig:
    loops: int
    channels: int
    reduced_channels: int

    def __post_init__(self):
        if self.loops < 1:
            raise ValueError(f"loops must be >= 1, got {self.loops}")
        if not 0 < self.reduced_channels < self.channels:
            raise ValueError(
                f"need 0 < reduced {self.reduced_channels} < channels {self.channels}"
            )


@dataclass
class LoopRecord:
    """Intermediates of one attention application, kept for the backward pass."""

    x: np.ndarray        # input, channel-flat (C, N)
    q: np.ndarray        # (C', N)
    k: np.ndarray        # (C', N)
    v: np.ndarray        # (C, N)
    scores: np.ndarray   # pre-softmax (L, N)
    attn: np.ndarray     # post-softmax (L, N)


@dataclass
class ForwardCache:
    """Per-loop records plus the gather table, for analytic backward."""

    shape: tuple
    nbr: np.ndarray
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


def build_gather_table_2d(h: int, w: int) -> np.ndarray:
    """nbr[i, n]: flat index of the i-th criss-cross neighbor of flat position n."""
    L = h + w - 1
    nbr = np.empty((L, h * w), dtype=np.int64)
    for r in range(h):
        for c in range(w):
            n = r * w + c
            for i in range(L):
                rr, cc = crisscross_index_map((r, c), i, h, w)
                nbr[i, n] = rr * w + cc
    return nbr


# ---------------------------------------------------------------------------
# structure-generic core (shared with the 3D module)

def _attention_core_forward(x_flat: np.ndarray, p: CCAttentionParams, nbr: np.ndarray):
    q = p.wq.weight @ x_flat
    k = p.wk.weight @ x_flat
    v = p.wv.weight @ x_flat
    scores = np.einsum("cn,cln->ln", q, k[:, nbr])
    attn = softmax_axis(scores, axis=0)
    out = np.einsum("ln,cln->cn", attn, v[:, nbr]) + x_flat
    return out, LoopRecord(x=x_flat, q=q, k=k, v=v, scores=scores, attn=attn)


def _attention_core_backward(rec: LoopRecord, d_out: np.ndarray,
                             p: CCAttentionParams, nbr: np.ndarray):
    c = rec.v.shape[0]
    cr = rec.q.shape[0]
    attn = rec.attn

    d_attn = np.einsum("cn,cln->ln", d_out, rec.v[:, nbr])
    d_v = np.zeros_like(rec.v)
    np.add.at(
        d_v,
        (np.arange(c)[:, None, None], nbr[None, :, :]),
        attn[None, :, :] * d_out[:, None, :],
    )

    # softmax over the criss-cross axis
    inner = np.sum(attn * d_attn, axis=0, keepdims=True)
    d_scores = attn * (d_attn - inner)

    d_q = np.einsum("ln,cln->cn", d_scores, rec.k[:, nbr])
    d_k = np.zeros_like(rec.k)
    np.add.at(
        d_k,
        (np.arange(cr)[:, None, None], nbr[None, :, :]),
        d_scores[None, :, :] * rec.q[:, None, :],
    )

    d_x = (
        d_out
        + p.wq.weight.T @ d_q
        + p.wk.weight.T @ d_k
        + p.wv.weight.T @ d_v
    )
    grads = CCAttentionGrads(
        d_wq=d_q @ rec.x.T, d_wk=d_k @ rec.x.T, d_wv=d_v @ rec.x.T
    )
    return d_x, grads


def _recurrent_forward(x: np.ndarray, p: CCAttentionParams, loops: int,
                       nbr: np.ndarray) -> tuple:
    if loops < 1:
        raise ValueError(f"loops must be >= 1, got {loops}")
    if x.shape[0] != p.channels:
        raise DimensionError(
            f"input has {x.shape[0]} channels, parameters expect {p.channels}"
        )
    cache = ForwardCache(shape=x.shape, nbr=nbr, params=p)
    cur = x.reshape(x.shape[0], -1)
    for _ in range(loops):
        cur, rec = _attention_core_forward(cur, p, nbr)
        cache.records.append(rec)
    return cur.reshape(x.shape), cache


def _recurrent_backward(cache: ForwardCache, d_out: np.ndarray) -> tuple:
    if d_out.shape != cache.shape:
        raise CacheMismatchError(
            f"gradient shape {d_out.shape} does not match cached forward {cache.shape}"
        )
    p = cache.params
    d = np.asarray(d_out, dtype=cache.records[0].x.dtype).reshape(d_out.shape[0], -1)
    total = CCAttentionGrads(
        d_wq=np.zeros_like(p.wq.weight),
        d_wk=np.zeros_like(p.wk.weight),
        d_wv=np.zeros_like(p.wv.weight),
    )
    for rec in reversed(cache.records):
        d, grads = _attention_core_backward(rec, d, p, cache.nbr)
        total = total + grads
    return d.reshape(cache.shape), total


# ---------------------------------------------------------------------------
# public 2D surface

def affinity2d(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Unscaled criss-cross dot-product scores, shape (H+W-1, H, W)."""
    if q.shape != k.shape:
        raise DimensionError(f"query shape {q.shape} != key shape {k.shape}")
    _, h, w = q.shape
    nbr = build_gather_table_2d(h, w)
    q2 = q.reshape(q.shape[0], -1)
    k2 = k.reshape(k.shape[0], -1)
    scores = np.einsum("cn,cln->ln", q2, k2[:, nbr])
    return scores.reshape(h + w - 1, h, w)


def aggregate2d(a: np.ndarray, v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Attention-weighted sum of value vectors over the criss-cross set, plus
    the residual input: out[:,u] = sum_i a[i,u] v[:, map(u,i)] + h[:,u]."""
    if v.shape != h.shape:
        raise DimensionError(f"value shape {v.shape} != input shape {h.shape}")
    _, hh, ww = v.shape
    if a.shape != (hh + ww - 1, hh, ww):
        raise DimensionError(
            f"attention shape {a.shape} incompatible with grid {hh}x{ww}"
        )
    nbr = build_gather_table_2d(hh, ww)
    a2 = a.reshape(a.shape[0], -1)
    v2 = v.reshape(v.shape[0], -1)
    out = np.einsum("ln,cln->cn", a2, v2[:, nbr]) + h.reshape(h.shape[0], -1)
    return out.reshape(h.shape)


def cca_forward(h: np.ndarray, p: CCAttentionParams) -> tuple:
    """Single criss-cross attention pass on a (C, H, W) map; returns
    (output, cache) where the cache feeds cca_backward."""
    if h.ndim != 3:
        raise DimensionError(f"expected (C, H, W) input, got rank {h.ndim}")
    nbr = build_gather_table_2d(h.shape[1], h.shape[2])
    return _recurrent_forward(h, p, 1, nbr)


def rcca_forward(x: np.ndarray, p: CCAttentionParams, r: int) -> tuple:
    """r recurrent passes with the single shared parameter set."""
    if x.ndim != 3:
        raise DimensionError(f"expected (C, H, W) input, got rank {x.ndim}")
    nbr = build_gather_table_2d(x.shape[1], x.shape[2])
    return _recurrent_forward(x, p, r, nbr)


def cca_backward(cache: ForwardCache, d_out: np.ndarray) -> tuple:
    """Exact reverse-mode gradients through a cached cca_forward:
    returns (d_input, CCAttentionGrads)."""
    if cache.loops != 1:
        raise CacheMismatchError(f"cache holds {cache.loops} loops, expected 1")
    return _recurrent_backward(cache, d_out)


def rcca_backward(cache: ForwardCache, d_out: np.ndarray) -> tuple:
    """Reverse-mode through all cached loops; shared-parameter gradients are
    summed across loops."""
    return _recurrent_backward(cache, d_out)
