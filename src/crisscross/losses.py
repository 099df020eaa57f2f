"""Category consistent loss (variance / distance / regularization terms with
piecewise margins) and pixel-wise cross-entropy, with analytic gradients.

Distances are Euclidean. At the piecewise boundaries the derivative of the
lower branch is used; gradients through zero-length difference vectors are
set to zero (measure-zero events, kept deterministic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor_core import DimensionError

IGNORE_ID = 255


@dataclass(frozen=True)
class CCLConfig:
    delta_v: float = 0.5
    delta_d: float = 1.5
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 0.001
    reduced_channels: int = 16
    # "quadratic" drops the linear tail of phi_var; baseline for robustness runs
    phi_variant: str = "piecewise"

    def __post_init__(self):
        if not 0 < self.delta_v < self.delta_d:
            raise ValueError(f"need 0 < delta_v < delta_d, got {self.delta_v}, {self.delta_d}")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValueError("loss weights must be >= 0")
        if self.phi_variant not in ("piecewise", "quadratic"):
            raise ValueError(f"unknown phi variant {self.phi_variant!r}")


@dataclass
class CCLBreakdown:
    l_var: float
    l_dis: float
    l_reg: float
    stats: ClassStats | None = None  # the class statistics the terms came from

    @property
    def class_means(self) -> dict:
        return dict(zip(self.stats.classes.tolist(), self.stats.means.T)) if self.stats else {}

    def weighted(self, cfg: CCLConfig) -> float:
        return cfg.alpha * self.l_var + cfg.beta * self.l_dis + cfg.gamma * self.l_reg


def _distances(dist) -> np.ndarray:
    d = np.asarray(dist)
    negative = d[d < 0]
    if negative.size:
        raise ValueError(f"distance must be >= 0, got {negative[0]}")
    return d


def _like(out, dist):
    """A float for a scalar distance, the array otherwise."""
    return out if np.ndim(dist) else float(out)


# The penalties take a scalar or an array of distances. Each branch is fed a
# clipped distance, so no branch is evaluated outside its own interval, and
# squares use float_power, the same C pow as Python's ``**`` on a float.

def phi_var(dist, cfg: CCLConfig):
    """Distance-to-center penalty: dead zone up to delta_v, quadratic up to
    delta_d, linear beyond (or pure quadratic in the baseline variant)."""
    d = _distances(dist)
    dv, dd = cfg.delta_v, cfg.delta_d
    if cfg.phi_variant == "quadratic":
        return _like(np.float_power(np.maximum(d, dv) - dv, 2), dist)
    return _like(np.float_power(np.clip(d, dv, dd) - dv, 2)
                 + np.maximum(d - dd, 0.0), dist)


def phi_var_grad(dist, cfg: CCLConfig):
    d = _distances(dist)
    dv, dd = cfg.delta_v, cfg.delta_d
    quad = 2.0 * (np.maximum(d, dv) - dv)
    if cfg.phi_variant == "quadratic":
        return _like(quad, dist)
    return _like(np.where(d <= dd, quad, 1.0), dist)


def phi_dis(dist, cfg: CCLConfig):
    """Center-separation penalty: (2 delta_d - dist)^2 inside the margin,
    zero beyond."""
    return _like(np.float_power(np.fmax(2.0 * cfg.delta_d - _distances(dist), 0.0), 2),
                 dist)


def phi_dis_grad(dist, cfg: CCLConfig):
    return _like(2.0 * np.fmin(_distances(dist) - 2.0 * cfg.delta_d, 0.0), dist)


def _check_aligned(features: np.ndarray, labels: np.ndarray):
    """features are (..., C, *S) for labels of extents S: the labels set the
    spatial rank, and any axes before the channel axis are a batch."""
    if (labels.ndim < 1 or features.ndim <= labels.ndim
            or features.shape[-labels.ndim:] != labels.shape):
        raise DimensionError(
            f"features {features.shape} do not end in a channel axis and the "
            f"label extents {labels.shape}"
        )


def _norms(a: np.ndarray, axis: int) -> np.ndarray:
    """Euclidean lengths along ``axis``, as sqrt(sum(a*a)): no conjugate, so
    a complex-step perturbation passes through."""
    return np.sqrt((a * a).sum(axis=axis))


def _class_sums(values: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """(..., C, K) sums of the (..., C, M) columns of ``values`` by class row."""
    if values.dtype.kind == "c":  # bincount takes real weights only
        return _class_sums(values.real, rows, k) + 1j * _class_sums(values.imag, rows, k)
    lanes = values.shape[:-1]
    c = math.prod(lanes)
    bins = (rows + k * np.arange(c)[:, None]).reshape(-1)
    sums = np.bincount(bins, values.reshape(-1), minlength=c * k)
    return sums.reshape(lanes + (k,)).astype(np.float64, copy=False)  # int64 when empty


def _total(terms: np.ndarray):
    """Sum over the last axis: a float for one real map, else an array. A
    C-ordered stack sums each item in the order one map alone sums in."""
    total = np.add.reduce(np.ascontiguousarray(terms), axis=-1)
    return float(total) if total.ndim == 0 and total.dtype.kind != "c" else total


def _per_length(coef, length):
    """coef / length, and 0 where the length is 0: the gradient through a
    zero-length offset is set to zero."""
    return np.where(length > 0, coef, 0.0) / np.where(length > 0, length, 1.0)


@dataclass(frozen=True)
class ClassStats:
    """Per-class statistics of a (..., C', N) feature map under its labels;
    the M labelled positions are those without IGNORE_ID."""
    classes: np.ndarray         # (K,) labels present, ascending, without IGNORE_ID
    valid: np.ndarray           # (N,) True at the labelled positions
    rows: np.ndarray            # (M,) class row of each labelled position
    counts: np.ndarray          # (K,) positions per class
    means: np.ndarray           # (..., C', K) class centres
    offsets: np.ndarray         # (..., C', M) centre minus feature, per labelled position
    dist: np.ndarray            # (..., M) lengths of the offsets
    centre_offsets: np.ndarray  # (..., C', K, K) means[..., a] - means[..., b]
    centre_dist: np.ndarray     # (..., K, K) lengths of the centre offsets


def class_stats(features: np.ndarray, labels: np.ndarray) -> ClassStats:
    """One pass over the positions: class list, class rows, counts, means and
    the distances that the loss and the toy statistics need."""
    _check_aligned(features, labels)
    flat_f = features.reshape(features.shape[:-labels.ndim] + (-1,))
    classes, inverse = np.unique(labels.reshape(-1), return_inverse=True)
    keep = classes != IGNORE_ID
    rows = np.where(keep, np.cumsum(keep) - 1, -1)[inverse]  # -1 at IGNORE_ID
    valid = rows >= 0
    rows = rows[valid]
    k = int(keep.sum())
    counts = np.bincount(rows, minlength=k)
    means = _class_sums(flat_f[..., valid], rows, k) / counts
    offsets = means[..., rows] - flat_f[..., valid]
    centre_offsets = means[..., :, None] - means[..., None, :]
    return ClassStats(classes[keep], valid, rows, counts, means, offsets, _norms(offsets, -2),
                      centre_offsets, _norms(centre_offsets, -3))


def class_means(features: np.ndarray, labels: np.ndarray):
    """Per-class mean feature vectors and valid-element counts; positions with
    the ignore id are skipped, absent classes are absent from the result."""
    st = class_stats(features, labels)
    classes = st.classes.tolist()
    return dict(zip(classes, st.means.T)), dict(zip(classes, st.counts.tolist()))


def ccl_loss(features: np.ndarray, labels: np.ndarray, cfg: CCLConfig,
             want_grad: bool = False):
    """Three-term category consistent loss on an already-reduced (C', *S)
    feature map, or on a (..., C', *S) stack of them, one loss per item
    (the gradient takes a single map).

    Returns a CCLBreakdown, or (breakdown, grad) where grad is the gradient of
    the weighted combination alpha*l_var + beta*l_dis + gamma*l_reg with
    respect to ``features``; the class means are treated as functions of the
    features, so gradients flow through both the per-pixel and the mean path.
    Costs O(C'*N + C'*K^2) for N positions and K classes.
    """
    st = class_stats(features, labels)
    nc = st.classes.size
    per_pixel = 1.0 / (max(nc, 1) * st.counts[st.rows])  # 1 / (K * N_c) per position
    pairs = ~np.eye(nc, dtype=bool)  # ordered pairs a != b
    pair_norm = max(nc * (nc - 1), 1)
    norms = _norms(st.means, -2)

    l_var = _total(phi_var(st.dist, cfg) * per_pixel)
    l_dis = _total(phi_dis(st.centre_dist[..., pairs], cfg)) / pair_norm
    l_reg = _total(norms) / max(nc, 1)
    breakdown = CCLBreakdown(l_var=l_var, l_dis=l_dis, l_reg=l_reg, stats=st)
    if not want_grad:
        return breakdown

    if features.ndim != labels.ndim + 1:
        raise DimensionError(f"the gradient takes one (C', *S) map, got {features.shape}")
    # l_var: each position pulls its centre by g * unit and itself by -g * unit
    pull = st.offsets * _per_length(
        cfg.alpha * phi_var_grad(st.dist, cfg) * per_pixel, st.dist)
    d_mu = _class_sums(pull, st.rows, nc)
    # l_dis over ordered pairs: centre a moves along mu_a - mu_b for every b
    push = _per_length(
        cfg.beta * 2.0 * phi_dis_grad(st.centre_dist, cfg) / pair_norm, st.centre_dist)
    d_mu += (st.centre_offsets * push).sum(axis=2)
    d_mu += st.means * _per_length(cfg.gamma / max(nc, 1), norms)

    # chain d_mu back to features: d mu_c / d h_j = I / N_c for j labeled c
    grad = np.zeros((features.shape[0], st.valid.size))
    grad[:, st.valid] = (d_mu / st.counts)[:, st.rows] - pull
    return breakdown, grad.reshape(features.shape)


def total_loss(seg: float, ccl: CCLBreakdown, cfg: CCLConfig) -> float:
    """Weighted sum of the segmentation loss and the three consistency terms."""
    if not all(map(math.isfinite, (seg, ccl.l_var, ccl.l_dis, ccl.l_reg))):
        raise ValueError("total_loss requires finite inputs")
    return seg + ccl.weighted(cfg)


def cross_entropy_seg(logits: np.ndarray, labels: np.ndarray):
    """Mean pixel-wise cross-entropy over non-ignored positions of (K, *S)
    logits, or of a (..., K, *S) stack of them, one loss per item.

    Returns (loss, gradient w.r.t. logits); the gradient is
    (softmax - one_hot) / valid_count at non-ignored positions, zero elsewhere.
    """
    _check_aligned(logits, labels)
    if logits.shape[-labels.ndim - 1] < 2:
        raise DimensionError(f"need (K, spatial...) logits with K >= 2, got {logits.shape}")
    flat_logits = logits.reshape(logits.shape[:-labels.ndim] + (-1,))
    flat_l = labels.reshape(-1)
    valid = flat_l != IGNORE_ID
    count = int(valid.sum())
    if count == 0:
        raise ValueError("cross entropy undefined: every position carries the ignore id")
    shifted = flat_logits - flat_logits.max(axis=-2, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-2, keepdims=True))
    probs = np.exp(shifted - log_z)
    idx = np.flatnonzero(valid)
    lab = flat_l[idx].astype(np.int64)
    loss = -_total(shifted[..., lab, idx] - log_z[..., 0, idx]) / count
    grad = np.zeros(flat_logits.shape, dtype=np.promote_types(probs.dtype, np.float64))
    grad[..., idx] = probs[..., idx] / count
    grad[..., lab, idx] -= 1.0 / count
    return loss, grad.reshape(logits.shape)
