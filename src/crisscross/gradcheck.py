"""Complex-step verification of every analytic backward pass.

Each check differentiates the forward by the complex step over every input
and weight coordinate at once, one batched complex128 call, and reports the
worst relative error against the analytic gradient, with the denominator
floored at 1 so that near-zero gradients are compared absolutely. The
complex step has no subtraction, so agreement reaches rounding (~1e-16).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cca2d import CCAttentionParams, _recurrence, rcca_backward, rcca_forward
from .cca3d import rcca3d_backward, rcca3d_forward
from .losses import CCLConfig, ccl_loss, class_stats, cross_entropy_seg
from .oracles import _complex_step

DEFAULT_TOL = 1e-10


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    worst_coordinate: str

    def passed(self, tol: float = DEFAULT_TOL) -> bool:
        return self.max_rel_err < tol


def rel_err(analytic: float, fd: float) -> float:
    return abs(analytic - fd) / max(1.0, abs(analytic), abs(fd))


def _worst(pairs):
    """pairs: iterable of (label, analytic array, complex-step array)."""
    worst = (0.0, "none")
    for label, a, f in pairs:
        errs = np.abs(a - f) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
        idx = int(np.argmax(errs))
        if errs.reshape(-1)[idx] > worst[0]:
            worst = (float(errs.reshape(-1)[idx]),
                     f"{label}[{np.unravel_index(idx, a.shape)}]")
    return worst


def check_attention(seed: int, shape: tuple, channels: int, reduced: int,
                    loops: int) -> CheckResult:
    """Gradcheck of the recurrent criss-cross backward (2D for len(shape)==2,
    3D for len(shape)==3) with scalar loss sum(out^2)."""
    rng = np.random.default_rng(seed)
    p = CCAttentionParams.random(channels, reduced, rng)
    x = rng.normal(0.0, 1.0, (channels,) + shape)
    forward = rcca_forward if len(shape) == 2 else rcca3d_forward
    backward = rcca_backward if len(shape) == 2 else rcca3d_backward

    out, cache = forward(x, p, loops)
    d_x, gw = backward(cache, 2.0 * out)

    def loss(xs, wq, wk, wv):  # one item per perturbed coordinate
        out, _ = _recurrence(xs, np.concatenate([wq, wk, wv], axis=1),
                             reduced, loops, len(shape))
        return (out ** 2).sum(axis=tuple(range(1, out.ndim)))

    cs = _complex_step(loss, x, p.wq.weight, p.wk.weight, p.wv.weight)
    err, coord = _worst(zip(("input", "wq", "wk", "wv"),
                            (d_x, gw.d_wq, gw.d_wk, gw.d_wv), cs))
    dims = "x".join(map(str, shape))
    kind = "rcca2d" if len(shape) == 2 else "rcca3d"
    return CheckResult(f"{kind}[{dims},R={loops},seed={seed}]", err, coord)


def _safe_ccl_instance(seed: int, cr: int, h: int, w: int, cfg: CCLConfig,
                       band: float = 1e-4):
    """Random features/labels whose distances stay away from the piecewise
    boundaries; resamples until clear of the exclusion band."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        features = rng.normal(0.0, 1.0, (cr, h, w))
        labels = rng.integers(0, 3, (h, w))
        labels[0, 0] = 255  # keep the ignore path exercised
        st = class_stats(features, labels)
        near_var = np.abs(st.dist[:, None] - [cfg.delta_v, cfg.delta_d]) < band
        near_dis = np.abs(st.centre_dist - 2 * cfg.delta_d) < band
        if not (near_var.any() or near_dis.any()):
            return features, labels
        rng = np.random.default_rng(rng.integers(1 << 62))
    raise RuntimeError("could not sample a boundary-free CCL instance")


def check_ccl(seed: int, cr: int = 4, h: int = 5, w: int = 6,
              cfg: CCLConfig | None = None) -> CheckResult:
    cfg = cfg or CCLConfig()
    features, labels = _safe_ccl_instance(seed, cr, h, w, cfg)
    _bd, grad = ccl_loss(features, labels, cfg, want_grad=True)
    cs = _complex_step(lambda fs: ccl_loss(fs, labels, cfg).weighted(cfg), features)
    err, coord = _worst([("features", grad, cs[0])])
    return CheckResult(f"ccl[{cr}x{h}x{w},seed={seed}]", err, coord)


def check_cross_entropy(seed: int, k: int = 4, h: int = 5, w: int = 5) -> CheckResult:
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, 2.0, (k, h, w))
    labels = rng.integers(0, k, (h, w))
    labels[0, 0] = 255
    _loss, grad = cross_entropy_seg(logits, labels)
    cs = _complex_step(lambda ls: cross_entropy_seg(ls, labels)[0], logits)
    err, coord = _worst([("logits", grad, cs[0])])
    return CheckResult(f"cross_entropy[{k}x{h}x{w},seed={seed}]", err, coord)


def default_suite(seeds: int = 3) -> list:
    """The checks behind the gradcheck CLI subcommand and the selftest."""
    results = []
    for s in range(seeds):
        results.append(check_attention(s, (3, 4), channels=4, reduced=2, loops=1))
        results.append(check_attention(100 + s, (3, 3), channels=4, reduced=2, loops=2))
        results.append(check_attention(200 + s, (3, 3), channels=3, reduced=1, loops=3))
        results.append(check_attention(300 + s, (2, 2, 3), channels=3, reduced=1, loops=1))
        results.append(check_attention(400 + s, (2, 2, 3), channels=3, reduced=1, loops=2))
        results.append(check_ccl(500 + s))
        results.append(check_cross_entropy(600 + s))
    return results
