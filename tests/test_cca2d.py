import numpy as np
import pytest

from crisscross.cca2d import (
    CCAttentionParams,
    CacheMismatchError,
    _duplicates,
    _line_apply,
    _line_scores,
    cca_forward,
    crisscross_index_map,
    crisscross_set,
    index_map_layout,
    rcca_backward,
    rcca_forward,
)
from crisscross.oracles import cca_naive
from crisscross.tensor_core import DimensionError, ProjectionWeights


def random_params(c, cr, seed=0, scale=0.5):
    return CCAttentionParams.random(c, cr, np.random.default_rng(seed), scale)


def zero_value_params(c, cr, seed=0):
    p = random_params(c, cr, seed)
    return CCAttentionParams(wq=p.wq, wk=p.wk,
                             wv=ProjectionWeights(np.zeros((c, c))))


class TestIndexMap:
    def test_self_position(self):
        assert crisscross_index_map((1, 1), 1, 3, 3) == (1, 1)

    def test_first_row_neighbor_skips_own_column(self):
        assert crisscross_index_map((1, 1), 3, 3, 3) == (1, 0)

    def test_bijection_onto_crisscross_set(self):
        for h in range(1, 7):
            for w in range(1, 7):
                for r in range(h):
                    for c in range(w):
                        members = {crisscross_index_map((r, c), i, h, w)
                                   for i in range(h + w - 1)}
                        assert len(members) == h + w - 1
                        assert all(rr == r or cc == c for rr, cc in members)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            crisscross_index_map((0, 0), 5, 3, 3)

    def test_set_lists_the_index_map_in_order(self):
        for grid in list(np.ndindex(4, 4)) + list(np.ndindex(3, 3, 3)):
            extents = tuple(e + 1 for e in grid)
            size = sum(extents) - len(extents) + 1
            for u in np.ndindex(*extents):
                assert crisscross_set(u, extents) == [
                    crisscross_index_map(u, i, *extents) for i in range(size)]

    def test_3d_order_of_one_position(self):
        """The temporal line, then the column without u, then the row without u."""
        assert crisscross_set((1, 1, 2), (2, 3, 4)) == [
            (0, 1, 2), (1, 1, 2), (1, 0, 2), (1, 2, 2), (1, 1, 0), (1, 1, 1), (1, 1, 3)]

    @pytest.mark.parametrize("u", [(3, 0), (0, -1), (0, 0, 0), (0,)])
    def test_position_outside_the_grid(self, u):
        with pytest.raises(IndexError, match="outside 3x3 grid"):
            crisscross_index_map(u, 0, 3, 3)
        with pytest.raises(IndexError, match="outside 3x3 grid"):
            crisscross_set(u, (3, 3))


def affinity(q, k):
    """Engine scores of channels-last (H, W, C') arrays in
    crisscross_index_map order, (H+W-1, H, W)."""
    return index_map_layout(_line_scores(q, k, 2))


def zero_duplicates(a):
    """Line-layout weights (H, W, H+W) with the duplicate self entry zeroed,
    as the engine caches them."""
    for diagonal in _duplicates(a, 2):
        diagonal[...] = 0.0
    return a


class TestAffinity:
    def test_single_position(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(1, 1, 2))
        k = rng.normal(size=(1, 1, 2))
        d = affinity(q, k)
        assert d.shape == (1, 1, 1)
        assert d[0, 0, 0] == pytest.approx(float(q.ravel() @ k.ravel()))

    def test_constant_key_gives_constant_scores(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(3, 2, 2))
        k = np.broadcast_to(rng.normal(size=(1, 1, 2)), (3, 2, 2)).copy()
        d = affinity(q, k)
        assert np.abs(d - d[0]).max() < 1e-12

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(2, 3, 2))
        k = rng.normal(size=(2, 3, 2))
        d = affinity(q, k)
        for r in range(2):
            for c in range(3):
                for i in range(4):
                    rr, cc = crisscross_index_map((r, c), i, 2, 3)
                    assert d[i, r, c] == pytest.approx(
                        float(q[r, c] @ k[rr, cc]), abs=1e-12)


class TestAggregate:
    """_line_apply on channels-last (H, W, C) values and residuals."""

    def test_normalized_weights_with_constant_values(self):
        rng = np.random.default_rng(6)
        h, w = 3, 4
        a = zero_duplicates(np.abs(rng.normal(size=(h, w, h + w))) + 0.1)
        a /= a.sum(axis=-1, keepdims=True)
        const = rng.normal(size=(1, 1, 2))
        v = np.broadcast_to(const, (h, w, 2)).copy()
        x = rng.normal(size=(h, w, 2))
        out = _line_apply(a, v, 2, residual=x)
        assert np.abs(out - (x + const)).max() < 1e-12

    def test_one_hot_self_selection(self):
        h, w = 2, 3
        a = np.zeros((h, w, h + w))
        for r in range(h):
            for c in range(w):
                a[r, c, r] = 1.0  # entry r of the column block is u itself
        rng = np.random.default_rng(7)
        v = rng.normal(size=(h, w, 2))
        x = rng.normal(size=(h, w, 2))
        assert np.abs(_line_apply(a, v, 2, residual=x) - (x + v)).max() < 1e-12

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(8)
        h, w = 3, 4
        a = zero_duplicates(rng.normal(size=(h, w, h + w)))
        v = rng.normal(size=(h, w, 2))
        x = rng.normal(size=(h, w, 2))
        out = _line_apply(a, v, 2, residual=x)
        a = index_map_layout(a)
        for r in range(h):
            for c in range(w):
                expect = x[r, c].copy()
                for i in range(h + w - 1):
                    rr, cc = crisscross_index_map((r, c), i, h, w)
                    expect += a[i, r, c] * v[rr, cc]
                assert np.abs(out[r, c] - expect).max() < 1e-12


class TestForward:
    def test_single_position_closed_form(self):
        p = random_params(3, 1, seed=1)
        x = np.random.default_rng(2).normal(size=(3, 1, 1))
        out, _ = cca_forward(x, p)
        expect = x + (p.wv.weight @ x.reshape(3, 1)).reshape(3, 1, 1)
        assert np.abs(out - expect).max() < 1e-12

    def test_zero_value_projection_is_residual(self):
        p = zero_value_params(4, 2)
        x = np.random.default_rng(3).normal(size=(4, 3, 3))
        out, _ = cca_forward(x, p)
        assert np.array_equal(out, x)

    def test_matches_naive(self):
        rng = np.random.default_rng(9)
        p = random_params(6, 3, seed=9)
        x = rng.normal(size=(6, 4, 5))
        out, _ = cca_forward(x, p)
        ref = cca_naive(x, p)
        assert np.abs(out - ref).max() / np.abs(ref).max() < 1e-9

    def test_attention_normalized(self):
        rng = np.random.default_rng(10)
        p = random_params(4, 2, seed=10)
        x = rng.normal(size=(4, 5, 3))
        _, cache = cca_forward(x, p)
        attn = cache.records[0].attn
        assert np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-9
        assert attn.min() >= 0.0 and attn.max() <= 1.0

    def test_output_shape_preserved(self):
        p = random_params(4, 2)
        x = np.zeros((4, 2, 6))
        out, _ = cca_forward(x, p)
        assert out.shape == x.shape


class TestRecurrent:
    def test_r1_equals_single_pass(self):
        p = random_params(4, 2, seed=11)
        x = np.random.default_rng(11).normal(size=(4, 3, 3))
        a, _ = cca_forward(x, p)
        b, _ = rcca_forward(x, p, 1)
        assert np.array_equal(a, b)

    def test_r2_zero_value_is_identity(self):
        p = zero_value_params(4, 2, seed=12)
        x = np.random.default_rng(12).normal(size=(4, 3, 4))
        out, _ = rcca_forward(x, p, 2)
        assert np.array_equal(out, x)

    def test_r2_is_manual_composition(self):
        p = random_params(4, 2, seed=13)
        x = np.random.default_rng(13).normal(size=(4, 3, 3))
        once, _ = cca_forward(x, p)
        twice, _ = cca_forward(once, p)
        out, _ = rcca_forward(x, p, 2)
        assert np.abs(out - twice).max() < 1e-12

    def test_invalid_loops(self):
        with pytest.raises(ValueError):
            rcca_forward(np.zeros((4, 2, 2)), random_params(4, 2), 0)


class TestBackward:
    def test_zero_upstream_gradient(self):
        p = random_params(4, 2, seed=14)
        x = np.random.default_rng(14).normal(size=(4, 3, 3))
        _, cache = cca_forward(x, p)
        d_x, gw = rcca_backward(cache, np.zeros_like(x))
        assert not d_x.any()
        assert not gw.d_wq.any() and not gw.d_wk.any() and not gw.d_wv.any()

    def test_single_position_sum_loss(self):
        # 1x1 grid: attention weight is constant 1, softmax gradient vanishes,
        # so d_h = 1 + column sums of wv
        p = random_params(3, 1, seed=15)
        x = np.random.default_rng(15).normal(size=(3, 1, 1))
        _, cache = cca_forward(x, p)
        d_x, _ = rcca_backward(cache, np.ones_like(x))
        expect = 1.0 + p.wv.weight.sum(axis=0)
        assert np.abs(d_x.ravel() - expect).max() < 1e-12

    def test_shape_mismatch_raises(self):
        p = random_params(4, 2)
        _, cache = cca_forward(np.zeros((4, 2, 2)), p)
        with pytest.raises(CacheMismatchError):
            rcca_backward(cache, np.zeros((4, 3, 2)))

    def test_shared_parameter_gradient_is_sum_of_per_loop_gradients(self):
        p = random_params(4, 2, seed=18)
        x = np.random.default_rng(18).normal(size=(4, 3, 4))
        out, cache = rcca_forward(x, p, 2)
        d_out = 2.0 * out  # loss = sum(out^2)
        _, shared = rcca_backward(cache, d_out)

        # unshared clone: backprop each loop separately and add
        mid, cache_a = cca_forward(x, p)
        _, cache_b = cca_forward(mid, p)
        d_mid, g_loop2 = rcca_backward(cache_b, d_out)
        _, g_loop1 = rcca_backward(cache_a, d_mid)
        for got, a, b in ((shared.d_wq, g_loop1.d_wq, g_loop2.d_wq),
                          (shared.d_wk, g_loop1.d_wk, g_loop2.d_wk),
                          (shared.d_wv, g_loop1.d_wv, g_loop2.d_wv)):
            assert np.abs(got - (a + b)).max() < 1e-10


class TestConfig:
    def test_params_reject_wide_reduction(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DimensionError):
            CCAttentionParams(
                wq=ProjectionWeights(rng.normal(size=(4, 4))),
                wk=ProjectionWeights(rng.normal(size=(4, 4))),
                wv=ProjectionWeights(rng.normal(size=(4, 4))),
            )
