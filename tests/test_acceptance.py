"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import time

import numpy as np

from crisscross.cca2d import CCAttentionParams, cca_forward, rcca_forward
from crisscross.cca3d import cca3d_forward
from crisscross.costmodel import WorkloadSpec, flops_cc2d, flops_nonlocal
from crisscross.gradcheck import (
    check_attention,
    check_ccl,
    check_cross_entropy,
)
from crisscross.losses import CCLConfig, phi_dis, phi_var
from crisscross.oracles import (
    cca3d_naive,
    cca_naive,
    crisscross_mask,
    influence_scan,
)
from crisscross.selftest import run_selftest
from crisscross.toytrain import gen_toy, train_toy

PAPER = dict(h=97, w=97, c=512, c_reduced=64)


def per_input(g):
    """A per-input function as the (B, *x.shape) stack function that
    jacobian_fd and influence_scan call once."""
    return lambda ys: np.stack([g(y) for y in ys])


def report(num, name, ok, detail=""):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}"
          + (f": {detail}" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


class TestAcceptance:
    def test_criterion_1_flop_reproduction(self):
        start = time.monotonic()
        targets = {1: 8.3, 2: 16.5, 3: 24.7}
        got = {r: flops_cc2d(WorkloadSpec(loops=r, **PAPER)).gflops
               for r in targets}
        nl = flops_nonlocal(WorkloadSpec(**PAPER)).gflops
        ok = all(abs(got[r] - t) / t < 0.05 for r, t in targets.items())
        ok = ok and abs(nl - 108.0) / 108.0 < 0.05
        elapsed = time.monotonic() - start
        report(1, "FLOP reproduction", ok and elapsed < 1.0,
               f"RCCA {got[1]:.2f}/{got[2]:.2f}/{got[3]:.2f} vs 8.3/16.5/24.7, "
               f"NL {nl:.2f} vs 108, {elapsed:.3f}s")

    def test_criterion_2_reduction_claims(self):
        start = time.monotonic()
        cc2 = flops_cc2d(WorkloadSpec(loops=2, **PAPER))
        nl = flops_nonlocal(WorkloadSpec(**PAPER))
        flop_ratio = cc2.flops_total / nl.flops_total
        mem_ratio = nl.attention_bytes / cc2.attention_bytes
        elapsed = time.monotonic() - start
        ok = flop_ratio <= 0.16 and mem_ratio >= 11.0 and elapsed < 1.0
        report(2, "reduction claims", ok,
               f"FLOP ratio {flop_ratio:.4f} <= 0.16, "
               f"memory ratio {mem_ratio:.1f}x >= 11x, {elapsed:.3f}s")

    def test_criterion_3_oracle_equivalence(self):
        start = time.monotonic()
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(50):
            h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            c = int(rng.integers(2, 5))
            p = CCAttentionParams.random(c, int(rng.integers(1, c)), rng)
            x = rng.normal(size=(c, h, w))
            fast, _ = cca_forward(x, p)
            ref = cca_naive(x, p)
            worst = max(worst, np.abs(fast - ref).max() /
                        max(1e-30, np.abs(ref).max()))
        for _ in range(10):
            t = int(rng.integers(1, 4))
            h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            c = int(rng.integers(2, 4))
            p = CCAttentionParams.random(c, c - 1, rng)
            x = rng.normal(size=(c, t, h, w))
            fast, _ = cca3d_forward(x, p)
            ref = cca3d_naive(x, p)
            worst = max(worst, np.abs(fast - ref).max() /
                        max(1e-30, np.abs(ref).max()))
        elapsed = time.monotonic() - start
        report(3, "oracle equivalence", worst < 1e-9 and elapsed < 30.0,
               f"max rel diff {worst:.2e} over 60 instances, {elapsed:.1f}s")

    def test_criterion_4_gradient_correctness(self):
        start = time.monotonic()
        results = []
        for s in range(3):
            results.append(check_attention(s, (3, 4), 4, 2, 1))
            results.append(check_attention(10 + s, (3, 3), 4, 2, 2))
            results.append(check_attention(20 + s, (3, 3), 3, 1, 3))
            results.append(check_attention(30 + s, (2, 2, 3), 3, 1, 1))
            results.append(check_ccl(40 + s))
            results.append(check_cross_entropy(50 + s))
        worst = max(r.max_rel_err for r in results)
        elapsed = time.monotonic() - start
        report(4, "gradient correctness", worst < 1e-5 and elapsed < 120.0,
               f"max rel err {worst:.2e} over {len(results)} checks, "
               f"{elapsed:.1f}s")

    def test_criterion_5_propagation(self):
        start = time.monotonic()
        h, w = 4, 5
        mask = crisscross_mask(h, w)
        ok = True
        for seed in range(3):
            rng = np.random.default_rng(seed)
            p = CCAttentionParams.random(3, 2, rng)
            x = rng.normal(size=(3, h, w))
            pat1 = influence_scan(per_input(lambda y: rcca_forward(y, p, 1)[0]), x)
            pat2 = influence_scan(per_input(lambda y: rcca_forward(y, p, 2)[0]), x)
            ok = ok and np.array_equal(pat1.mask, mask) and pat2.mask.all()
        elapsed = time.monotonic() - start
        report(5, "propagation at desk scale", ok and elapsed < 60.0,
               f"R=1 density 8/20 exact, R=2 density 1.0, 3 seeds, "
               f"{elapsed:.1f}s")

    def test_criterion_6_degeneration(self):
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p = CCAttentionParams.random(4, 2, rng)
            x = rng.normal(size=(4, 3, 4))
            out2d, _ = cca_forward(x, p)
            out3d, _ = cca3d_forward(x[:, None, :, :], p)
            worst = max(worst, float(np.abs(out3d[:, 0] - out2d).max()))
        report(6, "3D-to-2D degeneration", worst < 1e-12,
               f"max abs diff {worst:.2e}")

    def test_criterion_7_loss_fidelity(self):
        cfg = CCLConfig()
        dv, dd = cfg.delta_v, cfg.delta_d
        continuity = (phi_var(dv, cfg) == 0.0
                      and phi_var(dd, cfg) == (dd - dv) ** 2
                      and phi_dis(2 * dd, cfg) == 0.0)
        worked = (phi_var(1.0, cfg) == 0.25
                  and phi_var(2.0, cfg) == 1.5
                  and phi_dis(0.0, cfg) == 9.0)
        report(7, "loss function fidelity", continuity and worked,
               "phi continuity at margins and worked values exact")

    def test_criterion_8_robustness_direction(self):
        start = time.monotonic()
        epochs, seeds = 60, 10
        successes = {"piecewise": 0, "quadratic": 0}
        for variant in successes:
            cfg = CCLConfig(phi_variant=variant)
            for s in range(seeds):
                task = gen_toy(s, n=2, h=12, w=12, k=3)
                res = train_toy(task, init_seed=s + 1000, epochs=epochs,
                                use_ccl=True, cfg=cfg)
                successes[variant] += not res.failed
        cfg = CCLConfig()
        ccl_wins = 0
        for s in range(seeds):
            task = gen_toy(s, n=2, h=12, w=12, k=3)
            on = train_toy(task, init_seed=s + 1000, epochs=epochs,
                           use_ccl=True, cfg=cfg)
            off = train_toy(task, init_seed=s + 1000, epochs=epochs,
                            use_ccl=False, cfg=cfg)
            if (not on.failed and not off.failed
                    and on.metrics[-1].intra_var <= off.metrics[-1].intra_var):
                ccl_wins += 1
        elapsed = time.monotonic() - start
        ok = (successes["piecewise"] >= successes["quadratic"]
              and ccl_wins >= 7 and elapsed < 600.0)
        report(8, "robustness direction", ok,
               f"success piecewise {successes['piecewise']}/10 >= "
               f"quadratic {successes['quadratic']}/10, "
               f"CCL intra-variance wins {ccl_wins}/10, {elapsed:.1f}s")

    def test_criterion_9_selftest(self):
        start = time.monotonic()
        results = run_selftest()
        elapsed = time.monotonic() - start
        ok = all(r.passed for r in results) and elapsed < 60.0
        report(9, "selftest aggregate", ok,
               f"{sum(r.passed for r in results)}/{len(results)} suites, "
               f"{elapsed:.1f}s")
