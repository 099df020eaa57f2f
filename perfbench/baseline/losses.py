"""Category consistent loss (variance / distance / regularization terms with
piecewise margins) and pixel-wise cross-entropy, with analytic gradients.

Distances are Euclidean. At the piecewise boundaries the derivative of the
lower branch is used; gradients through zero-length difference vectors are
set to zero (measure-zero events, kept deterministic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    class_means: dict = field(default_factory=dict)

    def weighted(self, cfg: CCLConfig) -> float:
        return cfg.alpha * self.l_var + cfg.beta * self.l_dis + cfg.gamma * self.l_reg


def phi_var(dist: float, cfg: CCLConfig) -> float:
    """Distance-to-center penalty: dead zone up to delta_v, quadratic up to
    delta_d, linear beyond (or pure quadratic in the baseline variant)."""
    if dist < 0:
        raise ValueError(f"distance must be >= 0, got {dist}")
    dv, dd = cfg.delta_v, cfg.delta_d
    if dist <= dv:
        return 0.0
    if cfg.phi_variant == "quadratic":
        return (dist - dv) ** 2
    if dist <= dd:
        return (dist - dv) ** 2
    return dist - dd + (dd - dv) ** 2


def phi_var_grad(dist: float, cfg: CCLConfig) -> float:
    if dist < 0:
        raise ValueError(f"distance must be >= 0, got {dist}")
    dv, dd = cfg.delta_v, cfg.delta_d
    if dist <= dv:
        return 0.0
    if cfg.phi_variant == "quadratic" or dist <= dd:
        return 2.0 * (dist - dv)
    return 1.0


def phi_dis(dist: float, cfg: CCLConfig) -> float:
    """Center-separation penalty: (2 delta_d - dist)^2 inside the margin,
    zero beyond."""
    if dist < 0:
        raise ValueError(f"distance must be >= 0, got {dist}")
    m = 2.0 * cfg.delta_d
    return (m - dist) ** 2 if dist <= m else 0.0


def phi_dis_grad(dist: float, cfg: CCLConfig) -> float:
    if dist < 0:
        raise ValueError(f"distance must be >= 0, got {dist}")
    m = 2.0 * cfg.delta_d
    return -2.0 * (m - dist) if dist <= m else 0.0


def _check_aligned(features: np.ndarray, labels: np.ndarray):
    if features.shape[1:] != labels.shape:
        raise DimensionError(
            f"feature spatial extents {features.shape[1:]} != label extents {labels.shape}"
        )


def class_means(features: np.ndarray, labels: np.ndarray):
    """Per-class mean feature vectors and valid-element counts; positions with
    the ignore id are skipped, absent classes are absent from the result."""
    _check_aligned(features, labels)
    flat_f = features.reshape(features.shape[0], -1)
    flat_l = labels.reshape(-1)
    means: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for cls in np.unique(flat_l):
        if cls == IGNORE_ID:
            continue
        sel = flat_l == cls
        means[int(cls)] = flat_f[:, sel].mean(axis=1)
        counts[int(cls)] = int(sel.sum())
    return means, counts


def ccl_loss(features: np.ndarray, labels: np.ndarray, cfg: CCLConfig,
             want_grad: bool = False):
    """Three-term category consistent loss on an already-reduced feature map.

    Returns a CCLBreakdown, or (breakdown, grad) where grad is the gradient of
    the weighted combination alpha*l_var + beta*l_dis + gamma*l_reg with
    respect to ``features``; the class means are treated as functions of the
    features, so gradients flow through both the per-pixel and the mean path.
    """
    _check_aligned(features, labels)
    means, counts = class_means(features, labels)
    classes = sorted(means)
    nc = len(classes)
    flat_f = features.reshape(features.shape[0], -1)
    flat_l = labels.reshape(-1)

    grad = np.zeros_like(flat_f, dtype=np.float64) if want_grad else None
    d_mu = {c: np.zeros(flat_f.shape[0]) for c in classes} if want_grad else None

    l_var = 0.0
    for c in classes:
        sel = np.flatnonzero(flat_l == c)
        mu = means[c]
        term = 0.0
        for j in sel:
            diff = mu - flat_f[:, j]
            dist = float(np.linalg.norm(diff))
            term += phi_var(dist, cfg)
            if want_grad and dist > 0:
                g = cfg.alpha * phi_var_grad(dist, cfg) / (nc * counts[c])
                unit = diff / dist
                grad[:, j] -= g * unit
                d_mu[c] += g * unit
        l_var += term / counts[c]
    if nc > 0:
        l_var /= nc

    l_dis = 0.0
    if nc >= 2:
        pair_norm = nc * (nc - 1)
        for ia, ca in enumerate(classes):
            for cb in classes[ia + 1:]:
                diff = means[ca] - means[cb]
                dist = float(np.linalg.norm(diff))
                l_dis += 2.0 * phi_dis(dist, cfg)  # ordered double count
                if want_grad and dist > 0:
                    g = cfg.beta * 2.0 * phi_dis_grad(dist, cfg) / pair_norm
                    unit = diff / dist
                    d_mu[ca] += g * unit
                    d_mu[cb] -= g * unit
        l_dis /= pair_norm

    l_reg = 0.0
    for c in classes:
        norm = float(np.linalg.norm(means[c]))
        l_reg += norm
        if want_grad and norm > 0:
            d_mu[c] += cfg.gamma * means[c] / (norm * nc)
    if nc > 0:
        l_reg /= nc

    breakdown = CCLBreakdown(l_var=l_var, l_dis=l_dis, l_reg=l_reg,
                             class_means=means)
    if not want_grad:
        return breakdown

    # chain d_mu back to features: d mu_c / d h_j = I / N_c for j labeled c
    for c in classes:
        sel = flat_l == c
        grad[:, sel] += (d_mu[c] / counts[c])[:, None]
    return breakdown, grad.reshape(features.shape)


def total_loss(seg: float, ccl: CCLBreakdown, cfg: CCLConfig) -> float:
    """Weighted sum of the segmentation loss and the three consistency terms."""
    if not all(map(math.isfinite, (seg, ccl.l_var, ccl.l_dis, ccl.l_reg))):
        raise ValueError("total_loss requires finite inputs")
    return seg + ccl.weighted(cfg)


def cross_entropy_seg(logits: np.ndarray, labels: np.ndarray):
    """Mean pixel-wise cross-entropy over non-ignored positions.

    Returns (loss, gradient w.r.t. logits); the gradient is
    (softmax - one_hot) / valid_count at non-ignored positions, zero elsewhere.
    """
    if logits.ndim < 2 or logits.shape[0] < 2:
        raise DimensionError(f"need (K, spatial...) logits with K >= 2, got {logits.shape}")
    _check_aligned(logits, labels)
    k = logits.shape[0]
    flat_logits = logits.reshape(k, -1)
    flat_l = labels.reshape(-1)
    valid = flat_l != IGNORE_ID
    count = int(valid.sum())
    if count == 0:
        raise ValueError("cross entropy undefined: every position carries the ignore id")
    shifted = flat_logits - flat_logits.max(axis=0, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=0))
    probs = np.exp(shifted - log_z)
    idx = np.flatnonzero(valid)
    lab = flat_l[idx].astype(np.int64)
    loss = float(-(shifted[lab, idx] - log_z[idx]).sum() / count)
    grad = np.zeros_like(flat_logits, dtype=np.float64)
    grad[:, idx] = probs[:, idx] / count
    grad[lab, idx] -= 1.0 / count
    return loss, grad.reshape(logits.shape)
