import numpy as np
import pytest

from crisscross.cca2d import (
    CCAttentionParams,
    _recurrence,
    _stacked_weights,
    cca_forward,
    rcca_forward,
)
from crisscross.oracles import (
    OpCounter,
    _complex_step,
    cca_naive,
    crisscross_mask,
    influence_scan,
    jacobian_fd,
    nonlocal_forward,
)
from crisscross.tensor_core import ProjectionWeights


def per_input(g):
    """A per-input function as the (B, *x.shape) stack function that
    jacobian_fd and influence_scan call once."""
    return lambda ys: np.stack([g(y) for y in ys])


def random_params(c, cr, seed=0):
    return CCAttentionParams.random(c, cr, np.random.default_rng(seed))


class TestNonlocal:
    def test_single_position_equals_crisscross(self):
        p = random_params(3, 1, seed=1)
        x = np.random.default_rng(1).normal(size=(3, 1, 1))
        cc, _ = cca_forward(x, p)
        assert np.abs(nonlocal_forward(x, p) - cc).max() < 1e-12

    def test_zero_value_projection_is_residual(self):
        base = random_params(4, 2, seed=2)
        p = CCAttentionParams(wq=base.wq, wk=base.wk,
                              wv=ProjectionWeights(np.zeros((4, 4))))
        x = np.random.default_rng(2).normal(size=(4, 3, 3))
        assert np.array_equal(nonlocal_forward(x, p), x)

    def test_differs_from_crisscross_generically(self):
        p = random_params(4, 2, seed=3)
        x = np.random.default_rng(3).normal(size=(4, 3, 3))
        cc, _ = cca_forward(x, p)
        assert np.abs(nonlocal_forward(x, p) - cc).max() > 1e-6

    def test_attention_rows_normalized(self):
        # recompute the dense attention explicitly and check row sums
        p = random_params(3, 2, seed=4)
        x = np.random.default_rng(4).normal(size=(3, 2, 3))
        flat = x.reshape(3, -1)
        q = p.wq.weight @ flat
        k = p.wk.weight @ flat
        scores = q.T @ k
        attn = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn /= attn.sum(axis=1, keepdims=True)
        assert np.abs(attn.sum(axis=1) - 1.0).max() < 1e-9


class TestNaive:
    def test_agrees_with_vectorized_many_cases(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            h = int(rng.integers(1, 7))
            w = int(rng.integers(1, 7))
            c = int(rng.integers(2, 5))
            cr = int(rng.integers(1, c))
            p = CCAttentionParams.random(c, cr, rng)
            x = rng.normal(size=(c, h, w))
            fast, _ = cca_forward(x, p)
            ref = cca_naive(x, p)
            assert np.abs(fast - ref).max() / max(1e-30, np.abs(ref).max()) < 1e-9

    def test_single_position_closed_form(self):
        p = random_params(3, 1, seed=6)
        x = np.random.default_rng(6).normal(size=(3, 1, 1))
        expect = x + (p.wv.weight @ x.reshape(3, 1)).reshape(3, 1, 1)
        assert np.abs(cca_naive(x, p) - expect).max() < 1e-12

    def test_constant_input_uniform_attention(self):
        p = random_params(3, 1, seed=7)
        x = np.broadcast_to(np.random.default_rng(7).normal(size=(3, 1, 1)),
                            (3, 3, 4)).copy()
        # constant input: every value vector equals wv @ x_u, weights sum to 1
        expect = x + (p.wv.weight @ x.reshape(3, -1)).reshape(x.shape)
        assert np.abs(cca_naive(x, p) - expect).max() < 1e-12


class TestJacobianFD:
    def test_identity(self):
        x = np.random.default_rng(8).normal(size=(2, 3))
        jac = jacobian_fd(lambda y: y, x)
        assert np.abs(jac - np.eye(6)).max() < 1e-9

    def test_linear_map_is_block_diagonal(self):
        rng = np.random.default_rng(9)
        w = ProjectionWeights(rng.normal(size=(2, 3)))
        x = rng.normal(size=(3, 2))
        jac = jacobian_fd(lambda y: w.weight @ y, x)
        expect = np.zeros((4, 6))
        for pos in range(2):
            for co in range(2):
                for ci in range(3):
                    expect[co * 2 + pos, ci * 2 + pos] = w.weight[co, ci]
        assert np.abs(jac - expect).max() < 1e-8

    def test_matches_analytic_attention_jacobian(self):
        from crisscross.cca2d import rcca_backward
        p = random_params(3, 1, seed=10)
        x = np.random.default_rng(10).normal(size=(3, 2, 3))
        fd = jacobian_fd(per_input(lambda y: cca_forward(y, p)[0]), x)
        analytic = np.zeros_like(fd)
        _, cache = cca_forward(x, p)
        for row in range(fd.shape[0]):
            d_out = np.zeros(x.size)
            d_out[row] = 1.0
            d_x, _ = rcca_backward(cache, d_out.reshape(x.shape))
            analytic[row] = d_x.ravel()
        denom = np.maximum(1.0, np.abs(fd))
        assert (np.abs(analytic - fd) / denom).max() < 1e-5

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            jacobian_fd(lambda y: y, np.ones(2), step=0.0)


class TestStackContract:
    """f takes one (B, *x.shape) stack and returns (B, *out)."""

    def test_each_scan_calls_f_once(self):
        x = np.random.default_rng(15).normal(size=(2, 2, 3))
        calls = []

        def f(ys):
            calls.append(ys.shape)
            return ys

        jacobian_fd(f, x)
        influence_scan(f, x)
        assert calls == [(12, 2, 2, 3)] * 2

    def test_f_without_the_batch_axis_is_rejected(self):
        a, b = np.ones((2, 3)), np.ones(4)
        for f in (lambda ys: ys.sum(), lambda ys: ys[0], lambda ys: ys.sum(axis=0)):
            with pytest.raises(ValueError, match=r"\(B, \.\.\.\) stack, B = 6"):
                jacobian_fd(f, a)
        with pytest.raises(ValueError, match=r"B = 10; got \(6,\)"):
            _complex_step(lambda xs, ys: xs.sum(axis=2)[:6, 0], a, b)
        d_a, d_b = _complex_step(lambda xs, ys: xs.sum(axis=(1, 2)) + 2 * ys.sum(axis=1), a, b)
        assert np.allclose(d_a, 1.0) and np.allclose(d_b, 2.0)

    @pytest.mark.parametrize("loops", [1, 2, 3])
    @pytest.mark.parametrize("spatial", [(3, 4), (1, 1), (1, 4), (3, 1), (2, 2, 3), (1, 2, 3)])
    def test_stack_path_masks_equal_per_input_masks(self, spatial, loops):
        p = random_params(3, 1, seed=16)
        x = np.random.default_rng(16).normal(size=(3,) + spatial)

        def stack(ys):
            return _recurrence(ys, _stacked_weights(p, ys.dtype), p.reduced_channels,
                               loops, ys.ndim - 2)[0]

        fast = influence_scan(stack, x)
        slow = influence_scan(per_input(lambda y: rcca_forward(y, p, loops)[0]), x)
        assert np.array_equal(fast.mask, slow.mask)


class TestInfluenceScan:
    def test_identity_is_diagonal(self):
        x = np.random.default_rng(11).normal(size=(2, 2, 3))
        pat = influence_scan(lambda y: y, x)
        assert np.array_equal(pat.mask, np.eye(6, dtype=bool))

    def test_r1_equals_crisscross_mask(self):
        p = random_params(3, 1, seed=12)
        x = np.random.default_rng(12).normal(size=(3, 4, 4))
        pat = influence_scan(per_input(lambda y: rcca_forward(y, p, 1)[0]), x)
        assert np.array_equal(pat.mask, crisscross_mask(4, 4))

    def test_r2_fully_dense_and_monotone(self):
        p = random_params(3, 1, seed=13)
        x = np.random.default_rng(13).normal(size=(3, 3, 3))
        pat1 = influence_scan(per_input(lambda y: rcca_forward(y, p, 1)[0]), x)
        pat2 = influence_scan(per_input(lambda y: rcca_forward(y, p, 2)[0]), x)
        assert pat2.mask.all()
        assert not (pat1.mask & ~pat2.mask).any()

    def test_diagonal_always_true(self):
        p = random_params(3, 1, seed=14)
        x = np.random.default_rng(14).normal(size=(3, 2, 4))
        pat = influence_scan(per_input(lambda y: rcca_forward(y, p, 1)[0]), x)
        assert pat.mask.diagonal().all()  # residual path


class TestOpCounter:
    def test_counts_match_cost_model(self):
        from crisscross.costmodel import WorkloadSpec, flops_cc2d, flops_cc3d
        for (t, h, w, c, cr) in [(1, 2, 2, 3, 1), (1, 3, 4, 4, 2), (1, 1, 5, 2, 1),
                                 (2, 3, 2, 3, 1)]:
            p = random_params(c, cr, seed=h * 10 + w)
            spatial = (h, w) if t == 1 else (t, h, w)
            x = np.random.default_rng(0).normal(size=(c,) + spatial)
            counter = OpCounter()
            cca_naive(x, p, counter)
            spec = WorkloadSpec(h=h, w=w, t=t, c=c, c_reduced=cr)
            model = flops_cc2d(spec) if t == 1 else flops_cc3d(spec)
            assert counter.projections == model.flops_breakdown["projections"]
            assert counter.affinity == model.flops_breakdown["affinity"]
            assert counter.softmax == model.flops_breakdown["softmax"]
            assert counter.aggregation == model.flops_breakdown["aggregation"]
            assert counter.total == model.flops_total
