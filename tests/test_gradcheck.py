import warnings

import numpy as np
import pytest

from crisscross import cca2d
from crisscross.cca2d import CCAttentionParams, rcca_backward, rcca_forward
from crisscross.gradcheck import DEFAULT_TOL, check_attention, default_suite, rel_err
from crisscross.selftest import run_selftest
from crisscross.tensor_core import ProjectionWeights


class TestRelErr:
    def test_exact_match(self):
        assert rel_err(1.0, 1.0) == 0.0

    def test_small_values_compared_absolutely(self):
        assert rel_err(1e-9, 0.0) == pytest.approx(1e-9)


class TestAttentionChecks:
    @pytest.mark.parametrize("shape,loops", [((3, 4), 1), ((3, 3), 2),
                                             ((3, 3), 3)])
    def test_2d_within_tolerance(self, shape, loops):
        res = check_attention(0, shape, channels=4, reduced=2, loops=loops)
        assert res.max_rel_err < 1e-5, res.worst_coordinate

    @pytest.mark.parametrize("loops", [1, 2])
    def test_3d_within_tolerance(self, loops):
        res = check_attention(0, (2, 2, 3), channels=3, reduced=1, loops=loops)
        assert res.max_rel_err < 1e-5, res.worst_coordinate

    def test_zero_value_projection_reduces_to_identity(self):
        # with wv = 0 the aggregation vanishes and only the residual remains,
        # so the map is the identity; the analytic backward must agree with
        # finite differences and return d_out unchanged
        rng = np.random.default_rng(21)
        base = CCAttentionParams.random(4, 2, rng)
        p = CCAttentionParams(wq=base.wq, wk=base.wk,
                              wv=ProjectionWeights(np.zeros((4, 4))))
        x = rng.normal(size=(4, 3, 3))

        def loss():
            out, _ = rcca_forward(x, p, 2)
            return float((out ** 2).sum())

        out, cache = rcca_forward(x, p, 2)
        d_x, _ = rcca_backward(cache, 2.0 * out)
        step = 1e-6
        worst = 0.0
        flat = x.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up = loss()
            flat[j] = orig - step
            down = loss()
            flat[j] = orig
            fd = (up - down) / (2 * step)
            worst = max(worst, rel_err(float(d_x.ravel()[j]), fd))
        assert worst < 1e-5
        # zero values kill the gradient through the attention weights too,
        # leaving exactly the residual path
        assert np.abs(d_x - 2.0 * out).max() == 0.0


class TestDefaultSuite:
    def test_scales_with_seeds(self):
        assert len(default_suite(seeds=1)) * 2 == len(default_suite(seeds=2))

    def test_one_seed_suite_passes(self):
        for res in default_suite(seeds=1):
            assert res.passed(), f"{res.name}: {res.max_rel_err}"


class TestGate:
    def test_planted_backward_error_fails_the_gate(self, monkeypatch):
        # a 1e-7 relative error in d_wv: below the old central-difference
        # gate of 1e-5, far above the complex step's rounding
        exact = cca2d._attention_backward

        def planted(rec, d_out, w_qkv):
            d_x, d_w = exact(rec, d_out, w_qkv)
            d_w[2 * rec.q.shape[-1]:] *= 1.0 + 1e-7
            return d_x, d_w

        monkeypatch.setattr(cca2d, "_attention_backward", planted)
        res = check_attention(0, (3, 4), channels=4, reduced=2, loops=1)
        assert 1e-8 < res.max_rel_err < 1e-5
        assert not res.passed()
        assert res.worst_coordinate.startswith("wv")

    def test_three_seed_suite_reaches_rounding_with_warnings_as_errors(self):
        # a complex value cast to float warns (ComplexWarning); under "error"
        # a dropped imaginary part fails here instead of reading as zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise", under="ignore"):
                results = default_suite(seeds=3)
                assert all(r.passed for r in run_selftest())
        assert DEFAULT_TOL == 1e-10
        assert max(r.max_rel_err for r in results) <= 1e-12
