"""Aggregate verification suites behind the `selftest` CLI subcommand:
oracle equivalence, attention normalization, 3D-to-2D degeneration,
gradient correctness, information propagation, and loss-function fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gradcheck
from .cca2d import (
    CCAttentionParams,
    build_gather_table_2d,
    cca_forward,
    index_map_layout,
    rcca_forward,
    rcca_forward as _recurrent_forward,  # the oracle suite's own traced name
)
from .cca3d import cca3d_forward
from .losses import CCLConfig, phi_dis, phi_var
from .oracles import cca3d_naive, cca_naive, crisscross_mask, influence_scan


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(1e-30, float(np.abs(b).max()))
    return float(np.abs(a - b).max()) / denom


def suite_oracle_equivalence(seed: int = 0, cases_2d: int = 12, cases_3d: int = 4,
                             gather_builder_2d=None) -> SuiteResult:
    """Axial engine vs scalar-loop naive reference, 1e-9 relative.

    ``gather_builder_2d`` is a fault-injection hook: every 2D case also
    aggregates the engine's cached attention through the builder's table, so
    substituting a corrupted index-table builder must make this suite fail.
    """
    builder = gather_builder_2d or build_gather_table_2d
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases_2d):
        h = int(rng.integers(1, 6))
        w = int(rng.integers(1, 6))
        c = int(rng.integers(2, 5))
        cr = int(rng.integers(1, c))
        p = CCAttentionParams.random(c, cr, rng)
        x = rng.normal(0.0, 1.0, (c, h, w))
        fast, cache = _recurrent_forward(x, p, 1)
        rec, table = cache.records[0], builder(h, w)
        attn = index_map_layout(rec.attn).reshape(table.shape)
        via_table = np.einsum("ln,cln->cn", attn, rec.v.reshape(c, -1)[:, table])
        worst = max(worst, _rel_diff(fast, cca_naive(x, p)),
                    _rel_diff(via_table.reshape(x.shape) + x, fast))
    for _ in range(cases_3d):
        t, h, w = (int(rng.integers(1, 4)) for _ in range(3))
        c = int(rng.integers(2, 4))
        p = CCAttentionParams.random(c, c - 1, rng)
        x = rng.normal(0.0, 1.0, (c, t, h, w))
        fast, _ = cca3d_forward(x, p)
        worst = max(worst, _rel_diff(fast, cca3d_naive(x, p)))
    return SuiteResult("oracle-equivalence", worst < 1e-9,
                       f"max rel diff {worst:.3e} over {cases_2d + cases_3d} cases")


def suite_normalization(seed: int = 0, cases: int = 8) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        h, w, c = int(rng.integers(1, 7)), int(rng.integers(1, 7)), 4
        p = CCAttentionParams.random(c, 2, rng)
        x = rng.normal(0.0, 3.0, (c, h, w))
        _, cache = cca_forward(x, p)
        # over the H+W-1 set only: also fails if a duplicate keeps weight
        sums = index_map_layout(cache.records[0].attn).sum(axis=0)
        worst = max(worst, float(np.abs(sums - 1.0).max()))
    return SuiteResult("normalization", worst < 1e-9,
                       f"max |sum - 1| = {worst:.3e}")


def suite_degeneration(seed: int = 0, cases: int = 5) -> SuiteResult:
    """3D attention at T=1 must equal 2D attention within 1e-12."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        h, w, c = int(rng.integers(2, 5)), int(rng.integers(2, 5)), 4
        p = CCAttentionParams.random(c, 2, rng)
        x = rng.normal(0.0, 1.0, (c, h, w))
        out2d, _ = cca_forward(x, p)
        out3d, _ = cca3d_forward(x[:, None, :, :], p)
        worst = max(worst, float(np.abs(out3d[:, 0] - out2d).max()))
    return SuiteResult("degeneration-3d-to-2d", worst < 1e-12,
                       f"max abs diff {worst:.3e}")


def suite_gradients(seeds: int = 1, tol: float = 1e-5) -> SuiteResult:
    results = gradcheck.default_suite(seeds=seeds)
    worst = max(r.max_rel_err for r in results)
    bad = [r.name for r in results if not r.passed(tol)]
    detail = f"max rel err {worst:.3e} over {len(results)} checks"
    if bad:
        detail += f"; failing: {', '.join(bad)}"
    return SuiteResult("gradients", not bad, detail)


def suite_propagation(seed: int = 0, h: int = 3, w: int = 4) -> SuiteResult:
    """R=1 influence equals the criss-cross mask exactly; R=2 is all-dense."""
    rng = np.random.default_rng(seed)
    c = 3
    # Weights at scale 0.5 saturate the softmax at some seeds (100041, 100175,
    # 100375): a true two-hop sensitivity of ~3e-13 then reads as 0 under
    # finite differences, below the 1e-12 threshold. Scale 0.3 does not.
    p = CCAttentionParams.random(c, 2, rng, scale=0.3)
    x = rng.normal(0.0, 1.0, (c, h, w))
    pat1 = influence_scan(lambda y: rcca_forward(y, p, 1)[0], x)
    pat2 = influence_scan(lambda y: rcca_forward(y, p, 2)[0], x)
    mask = crisscross_mask(h, w)
    ok = bool(np.array_equal(pat1.mask, mask)) and bool(pat2.mask.all())
    return SuiteResult(
        "propagation", ok,
        f"R=1 density {pat1.density:.3f} (expect {mask.mean():.3f}), "
        f"R=2 density {pat2.density:.3f} (expect 1.000)")


def suite_loss_fidelity() -> SuiteResult:
    cfg = CCLConfig()
    dv, dd = cfg.delta_v, cfg.delta_d
    eps = 1e-12
    checks = [
        phi_var(dv, cfg) == 0.0,
        abs(phi_var(dd, cfg) - (dd - dv) ** 2) < eps,
        abs(phi_var(dd + 1e-15, cfg) - (dd - dv) ** 2) < 1e-12,
        phi_var(1.0, cfg) == 0.25,
        phi_var(2.0, cfg) == 1.5,
        phi_dis(0.0, cfg) == 9.0,
        phi_dis(2 * dd, cfg) == 0.0,
    ]
    ok = all(checks)
    return SuiteResult("loss-fidelity", ok,
                       "phi continuity and worked values" +
                       ("" if ok else f"; failed flags {checks}"))


def run_selftest(gather_builder_2d=None) -> list:
    return [
        suite_oracle_equivalence(gather_builder_2d=gather_builder_2d),
        suite_normalization(),
        suite_degeneration(),
        suite_gradients(),
        suite_propagation(),
        suite_loss_fidelity(),
    ]
