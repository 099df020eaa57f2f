"""Deliberately slow, obviously correct references.

Everything here is scalar loops or brute-force complex-step derivatives from
one stacked call; these functions exist only to be trusted, never to be fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cca2d import CCAttentionParams, crisscross_set
from .tensor_core import DimensionError


@dataclass
class OpCounter:
    """Multiply-add tally per attention stage, for the cost-model cross-check.

    Counts 2 scalar ops per multiply-add and 3 per softmax element (exp,
    accumulate, divide); the stabilizing max-subtraction is not counted.
    """

    projections: int = 0
    affinity: int = 0
    softmax: int = 0
    aggregation: int = 0

    @property
    def total(self) -> int:
        return self.projections + self.affinity + self.softmax + self.aggregation


def _project_naive(x, weight, counter: OpCounter | None, stage: str):
    c_out, c_in = weight.shape
    spatial = x.shape[1:]
    out = np.zeros((c_out,) + spatial, dtype=x.dtype)
    for pos in np.ndindex(*spatial):
        for co in range(c_out):
            acc = 0.0
            for ci in range(c_in):
                acc += weight[co, ci] * x[(ci,) + pos]
                if counter is not None:
                    setattr(counter, stage, getattr(counter, stage) + 2)
            out[(co,) + pos] = acc
    return out


def _softmax_naive(col, counter: OpCounter | None):
    m = max(col)
    e = [math.exp(s - m) for s in col]
    z = sum(e)
    out = [v / z for v in e]
    if counter is not None:
        counter.softmax += 3 * len(col)
    return out


def cca_naive(h: np.ndarray, p: CCAttentionParams,
              counter: OpCounter | None = None) -> np.ndarray:
    """Scalar-loop criss-cross attention on a (C, H, W) map or a (C, T, H, W)
    volume, definitionally following the affinity/softmax/aggregation
    pipeline position by position over the set that crisscross_set lists."""
    c, extents = h.shape[0], h.shape[1:]
    q = _project_naive(h, p.wq.weight, counter, "projections")
    k = _project_naive(h, p.wk.weight, counter, "projections")
    v = _project_naive(h, p.wv.weight, counter, "projections")
    out = np.zeros_like(h)
    for u in np.ndindex(*extents):
        nbrs = crisscross_set(u, extents)
        scores = []
        for nb in nbrs:
            acc = 0.0
            for ch in range(q.shape[0]):
                acc += q[(ch,) + u] * k[(ch,) + nb]
            scores.append(acc)
        attn = _softmax_naive(scores, counter)
        for ch in range(c):
            acc = 0.0
            for a, nb in zip(attn, nbrs):
                acc += a * v[(ch,) + nb]
            out[(ch,) + u] = acc + h[(ch,) + u]
        if counter is not None:
            counter.affinity += 2 * q.shape[0] * len(nbrs)
            counter.aggregation += c * (2 * len(nbrs) + 1)  # residual add included
    return out


cca3d_naive = cca_naive


def nonlocal_forward(h: np.ndarray, p: CCAttentionParams) -> np.ndarray:
    """Dense non-local attention baseline: every position attends to all N
    positions; same unscaled scores and residual as the criss-cross module."""
    if h.ndim != 3:
        raise DimensionError(f"expected (C, H, W) input, got rank {h.ndim}")
    c = h.shape[0]
    if c != p.channels:
        raise DimensionError(f"input has {c} channels, parameters expect {p.channels}")
    flat = h.reshape(c, -1)
    q = p.wq.weight @ flat
    k = p.wk.weight @ flat
    v = p.wv.weight @ flat
    scores = q.T @ k  # (N, N)
    scores -= scores.max(axis=1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=1, keepdims=True)
    out = v @ attn.T + flat
    return out.reshape(h.shape)


_STEP = 1e-20  # any tiny step: the complex step has no truncation-rounding trade-off


def _complex_step(f, *arrays, step: float = _STEP) -> list:
    """Derivatives of ``f`` w.r.t. every entry of ``arrays`` from one call.

    ``f`` takes one (B, *a.shape) complex stack per array, B the total entry
    count, and returns (B, *out). Item j of the batch perturbs entry j by
    i*step, so d out / d entry j = Im f[j] / step: the complex step, with no
    subtraction and so no cancellation floor (Squire & Trapp, SIAM Review
    1998). Returns, per array, an (*a.shape, *out) array.
    """
    starts = np.cumsum([0] + [a.size for a in arrays])
    stacks = []
    for a, start in zip(arrays, starts):
        stack = np.empty((starts[-1], a.size), dtype=np.complex128)
        stack[:] = a.reshape(-1)
        stack[start + np.arange(a.size), np.arange(a.size)] += 1j * step
        stacks.append(stack.reshape((starts[-1],) + a.shape))
    d = np.asarray(f(*stacks))
    if d.shape[:1] != (starts[-1],):
        raise ValueError(f"f must return a (B, ...) stack, B = {starts[-1]}; got {d.shape}")
    return [part.reshape(a.shape + d.shape[1:])
            for part, a in zip(np.split(d.imag / step, starts[1:-1]), arrays)]


def jacobian_fd(f, x: np.ndarray, step: float = _STEP) -> np.ndarray:
    """Complex-step Jacobian of f, flat(out) by flat(in), from one call: f maps
    a (B, *x.shape) complex stack, entry j perturbed in item j, analytically to
    (B, *out). A per-input g fits as ``lambda ys: np.stack([g(y) for y in ys])``."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    x = np.asarray(x, dtype=np.float64)
    return _complex_step(f, x, step=step)[0].reshape(x.size, -1).T


@dataclass
class InfluencePattern:
    """Boolean reachability matrix over flat spatial positions: entry (u, theta)
    is True iff the output at u is sensitive to the input at theta."""

    mask: np.ndarray  # (N, N) bool

    @property
    def density(self) -> float:
        return float(self.mask.mean())


def influence_scan(f, x: np.ndarray, threshold: float = 1e-12,
                   step: float = _STEP) -> InfluencePattern:
    """Complex-step position-to-position sensitivity: (u, theta) is set iff
    any channel pair has |d f(x)[:, u] / d x[:, theta]| > threshold, for a
    stack function f as in jacobian_fd."""
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    c = x.shape[0]
    n = int(np.prod(x.shape[1:]))
    jac = jacobian_fd(f, x, step=step)  # (C*N, C*N)
    j4 = np.abs(jac).reshape(c, n, c, n)
    sens = j4.max(axis=(0, 2))  # (N_out, N_in)
    return InfluencePattern(mask=sens > threshold)


def crisscross_mask(*extents: int) -> np.ndarray:
    """Combinatorial (N, N) boolean mask over a grid's flat positions: True
    iff the second lies in the criss-cross set of the first."""
    mask = np.zeros((math.prod(extents),) + extents, dtype=bool)
    for row, u in zip(mask, np.ndindex(*extents)):
        for v in crisscross_set(u, extents):
            row[v] = True
    return mask.reshape(len(mask), -1)
