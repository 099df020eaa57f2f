"""The axial engine: line-layout attention, degenerate grids, float32, and
the attention-mass propagation, each against an independent reference."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crisscross.cca2d import (
    CCAttentionParams,
    _duplicates,
    _recurrence,
    _recurrence_backward,
    _stacked_weights,
    attention_mass,
    build_gather_table_2d,
    crisscross_index_map,
    index_map_layout,
    rcca_backward,
    rcca_forward,
)
from crisscross.cca3d import build_gather_table_3d, crisscross_index_map_3d
from crisscross.gradcheck import check_attention
from crisscross.oracles import cca_naive
from crisscross.tensor_core import DimensionError

F32_RTOL = 1e-4  # float32 engine against the float64 oracle, relative to max |ref|


def rel_diff(a, b):
    return float(np.abs(a - b).max()) / max(1e-30, float(np.abs(b).max()))


def forward_and_oracle(shape, seed, reduced=None):
    rng = np.random.default_rng(seed)
    c = shape[0]
    p = CCAttentionParams.random(c, reduced or c - 1, rng)
    x = rng.normal(size=shape)
    out, cache = rcca_forward(x, p, 1)
    return out, cache, cca_naive(x, p)


def assert_rows_normalized(attn, tol=1e-9):
    assert np.abs(attn.sum(axis=-1) - 1.0).max() < tol
    assert np.abs(index_map_layout(attn).sum(axis=0) - 1.0).max() < tol
    assert attn.min() >= 0.0


def neighbour_indices(spatial):
    """Line-layout array (*S, sum(S)): at [u, block m, entry z], the flat
    index of u with its axis-m coordinate set to z."""
    coords = np.indices(spatial)
    blocks = []
    for m, s in enumerate(spatial):
        for z in range(s):
            line = coords.copy()
            line[m] = z
            blocks.append(np.ravel_multi_index(tuple(line), spatial))
    return np.stack(blocks, axis=-1)


def duplicate_entries(spatial):
    """Line-layout (*S, sum(S)) bool array, True where a block after the
    first walks back onto u itself."""
    nbr = neighbour_indices(spatial)
    own = np.arange(nbr[..., 0].size).reshape(spatial + (1,))
    return (nbr == own) & (np.repeat(np.arange(len(spatial)), spatial) > 0)


class TestGatherTables:
    def test_2d_table_matches_index_map(self):
        for h in range(1, 5):
            for w in range(1, 5):
                expect = [[np.ravel_multi_index(crisscross_index_map(u, i, h, w), (h, w))
                           for u in np.ndindex(h, w)] for i in range(h + w - 1)]
                assert np.array_equal(build_gather_table_2d(h, w), expect)

    def test_3d_table_matches_index_map(self):
        for dims in np.ndindex(3, 3, 3):
            t, h, w = (d + 1 for d in dims)
            expect = [[np.ravel_multi_index(crisscross_index_map_3d(u, i, t, h, w), (t, h, w))
                       for u in np.ndindex(t, h, w)] for i in range(t + h + w - 2)]
            assert np.array_equal(build_gather_table_3d(t, h, w), expect)


class TestLayouts:
    def test_round_trip_and_zero_duplicates(self):
        """index_map_layout puts line-layout entries in index-map order and
        drops exactly the duplicate self entries, which the engine sets to -inf."""
        for spatial in ((3, 4), (1, 5), (4, 1), (2, 3, 2), (1, 1, 3)):
            size = sum(spatial) - len(spatial) + 1
            nbr = neighbour_indices(spatial)
            expect = [[np.ravel_multi_index(crisscross_index_map(u, i, *spatial), spatial)
                       for u in np.ndindex(*spatial)] for i in range(size)]
            assert np.array_equal(index_map_layout(nbr).reshape(size, -1), expect)
            marked = np.zeros(nbr.shape, dtype=bool)
            for diagonal in _duplicates(marked, len(spatial)):
                diagonal[...] = True
            assert np.array_equal(marked, duplicate_entries(spatial))

    def test_mask_is_built_in_the_real_dtype_of_the_scores(self):
        """The -inf entries are written into the scores in place, so the
        cached attention keeps the input dtype and is exactly 0 there."""
        for dtype in (np.float32, np.float64, np.complex128):
            x = np.ones((3, 2, 4), dtype=dtype)
            p = CCAttentionParams.random(3, 1, np.random.default_rng(0))
            _, cache = rcca_forward(x, p, 1)
            attn = cache.records[0].attn
            assert attn.dtype == dtype
            assert all(d.dtype == dtype and not d.any() for d in _duplicates(attn, 2))

    def test_cached_attention_is_zero_on_duplicates(self):
        for shape in ((4, 3, 5), (3, 2, 3, 2)):
            _, cache, _ = forward_and_oracle(shape, seed=1)
            duplicates = duplicate_entries(shape[1:])
            assert np.count_nonzero(duplicates) == (len(shape) - 2) * np.prod(shape[1:])
            assert not cache.records[0].attn[duplicates].any()


class TestChannelsLast:
    """The engine runs channels-last internally; the public arrays stay
    (C, *S), C-contiguous, and nothing the caller holds is written."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 3, 5), (3, 2, 3, 4)])
    def test_inputs_and_cache_are_not_modified(self, shape, dtype):
        rng = np.random.default_rng(7)
        p = CCAttentionParams.random(shape[0], 2, rng)
        x = rng.normal(size=shape).astype(dtype)
        d_out = rng.normal(size=shape).astype(dtype)
        x0, d_out0 = x.copy(), d_out.copy()
        out, cache = rcca_forward(x, p, 2)
        held = [a.copy() for rec in cache.records
                for a in (rec.x, rec.q, rec.k, rec.v, rec.attn)]
        d_x, grads = rcca_backward(cache, d_out)
        again, grads_again = rcca_backward(cache, d_out)
        assert np.array_equal(x, x0) and np.array_equal(d_out, d_out0)
        assert all(np.array_equal(a, b) for a, b in zip(
            held, (a for rec in cache.records
                   for a in (rec.x, rec.q, rec.k, rec.v, rec.attn))))
        assert np.array_equal(again, d_x)
        for name in ("d_wq", "d_wk", "d_wv"):
            assert np.array_equal(getattr(grads_again, name), getattr(grads, name))
        for a in (out, d_x):
            assert a.flags.c_contiguous and a.shape == shape and a.dtype == dtype

    @pytest.mark.parametrize("shape,reduced", [((64, 48, 48), 8), ((32, 8, 24, 24), 4)])
    def test_peak_stays_near_the_buffer_ledger(self, shape, reduced):
        """Per loop the engine keeps q/k/v, (2C'+C)N, the line-layout
        attention, N sum(S), and the output, CN; R=2 forward plus backward
        stays within 1.9x of those buffers."""
        rng = np.random.default_rng(0)
        p = CCAttentionParams.random(shape[0], reduced, rng)
        x = rng.normal(size=shape)
        c, n = shape[0], int(np.prod(shape[1:]))
        ledger = 2 * ((2 * reduced + c) * n + n * sum(shape[1:]) + c * n) * x.itemsize
        out, cache = rcca_forward(x, p, 2)  # warm-up: fills the axis-plan cache
        rcca_backward(cache, out)
        del out, cache
        tracemalloc.start()
        try:
            out, cache = rcca_forward(x, p, 2)
            rcca_backward(cache, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.9 * ledger


class TestRank:
    @pytest.mark.parametrize("shape", [(4, 5), (4, 2, 2, 3, 3)])
    def test_other_ranks_raise_naming_both_layouts(self, shape):
        p = CCAttentionParams.random(4, 2, np.random.default_rng(0))
        with pytest.raises(DimensionError, match=r"\(C, H, W\).*\(C, T, H, W\)"):
            rcca_forward(np.ones(shape), p, 1)

    @pytest.mark.parametrize("shape", [(4, 3, 5), (3, 2, 3, 4)])
    def test_one_entry_point_serves_both_ranks(self, shape):
        rng = np.random.default_rng(len(shape))
        p = CCAttentionParams.random(shape[0], 2, rng)
        x = rng.normal(size=shape)
        out, cache = rcca_forward(x, p, 2)
        assert rel_diff(out, cca_naive(cca_naive(x, p), p)) < 1e-9
        d_x, grads = rcca_backward(cache, out)
        assert d_x.shape == shape and grads.d_wv.shape == (shape[0],) * 2


class TestDegenerateGrids:
    @pytest.mark.parametrize("shape", [(4, 1, 1), (4, 1, 6), (4, 5, 1)])
    def test_2d_matches_oracle_and_normalizes(self, shape):
        out, cache, ref = forward_and_oracle(shape, seed=sum(shape))
        assert rel_diff(out, ref) < 1e-9
        assert_rows_normalized(cache.records[0].attn)

    @pytest.mark.parametrize("shape", [(3, 1, 3, 4), (3, 2, 1, 4), (3, 2, 3, 1),
                                       (3, 1, 1, 1)])
    def test_3d_matches_oracle_and_normalizes(self, shape):
        out, cache, ref = forward_and_oracle(shape, seed=sum(shape))
        assert rel_diff(out, ref) < 1e-9
        assert_rows_normalized(cache.records[0].attn)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex128])
    @pytest.mark.parametrize("shape", [(4, 1, 1), (4, 1, 6), (4, 5, 1), (3, 1, 3, 4)])
    def test_duplicates_are_exactly_zero_in_every_dtype(self, shape, dtype):
        """1x1, 1xW, Hx1 and T=1: the cached attention is 0 at every
        duplicate and the forward matches the oracle, to 1e-9 in float64
        and complex128 and to F32_RTOL in float32."""
        rng = np.random.default_rng(sum(shape))
        p = CCAttentionParams.random(shape[0], shape[0] - 1, rng)
        x = rng.normal(size=shape)
        out, cache = rcca_forward(x.astype(dtype), p, 1)
        attn = cache.records[0].attn
        assert attn.dtype == out.dtype == dtype
        assert not attn[duplicate_entries(shape[1:])].any()
        tol = F32_RTOL if dtype == np.float32 else 1e-9
        assert rel_diff(out, cca_naive(x, p)) < tol

    @pytest.mark.parametrize("shape", [(1, 5), (4, 1)])
    def test_gradcheck_on_single_line(self, shape):
        res = check_attention(7, shape, channels=4, reduced=2, loops=2)
        assert res.max_rel_err < 1e-5, res.worst_coordinate


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_engine_matches_oracle_on_random_shapes(data):
    rank = data.draw(st.sampled_from([2, 3]))
    limit = 5 if rank == 2 else 3
    spatial = tuple(data.draw(st.integers(1, limit)) for _ in range(rank))
    c = data.draw(st.integers(2, 4))
    reduced = data.draw(st.integers(1, c - 1))
    out, cache, ref = forward_and_oracle((c,) + spatial,
                                         seed=data.draw(st.integers(0, 2**32 - 1)),
                                         reduced=reduced)
    assert rel_diff(out, ref) < 1e-9
    assert_rows_normalized(cache.records[0].attn)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rows_sum_to_one_at_large_scores(data):
    """Weights at scale 8, inputs at scale 4 and two loops put the largest
    |q.k| of most draws between 1e4 and 1e7; the max-shifted softmax still
    normalises every row, with no overflow or invalid operation (exp
    underflow to 0 is expected)."""
    rank = data.draw(st.sampled_from([2, 3]))
    spatial = tuple(data.draw(st.integers(1, 4)) for _ in range(rank))
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    c = data.draw(st.integers(2, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    p = CCAttentionParams.random(c, c - 1, rng, scale=8.0)
    x = rng.normal(0.0, 4.0, (c,) + spatial).astype(dtype)
    with np.errstate(all="raise", under="ignore"):
        _, cache = rcca_forward(x, p, 2)
    for rec in cache.records:
        assert rec.attn.dtype == dtype
        assert_rows_normalized(rec.attn, 1e-5 if dtype == np.float32 else 1e-12)


class TestFloat32:
    @pytest.mark.parametrize("shape", [(4, 3, 5), (3, 2, 3, 2)])
    def test_stays_float32_and_matches_float64(self, shape):
        rng = np.random.default_rng(3)
        p = CCAttentionParams.random(shape[0], 2, rng)
        x = rng.normal(size=shape)
        d_out = rng.normal(size=shape)
        out64, cache64 = rcca_forward(x, p, 2)
        out32, cache32 = rcca_forward(x.astype(np.float32), p, 2)
        assert out32.dtype == np.float32
        assert all(a.dtype == np.float32 for rec in cache32.records
                   for a in (rec.x, rec.q, rec.k, rec.v, rec.attn))
        twice = cca_naive(cca_naive(x, p), p)
        assert rel_diff(out32, twice) < F32_RTOL

        d64, g64 = rcca_backward(cache64, d_out)
        d32, g32 = rcca_backward(cache32, d_out.astype(np.float32))
        assert d32.dtype == g32.d_wq.dtype == g32.d_wk.dtype == g32.d_wv.dtype == np.float32
        assert rel_diff(d32, d64) < F32_RTOL
        for a, b in ((g32.d_wq, g64.d_wq), (g32.d_wk, g64.d_wk), (g32.d_wv, g64.d_wv)):
            assert rel_diff(a, b) < F32_RTOL

    def test_paper_shape_forward_backward(self):
        # 97x97, C=512, C'=64, R=2: the gathered-copy design needed ~7 GB here
        rng = np.random.default_rng(0)
        p = CCAttentionParams.random(512, 64, rng, scale=512 ** -0.5)
        x = rng.normal(size=(512, 97, 97)).astype(np.float32)
        out, cache = rcca_forward(x, p, 2)
        d_x, grads = rcca_backward(cache, out)
        for a in (out, d_x, grads.d_wq, grads.d_wk, grads.d_wv):
            assert a.dtype == np.float32
            assert np.isfinite(a).all()
        assert out.shape == d_x.shape == x.shape


class TestBatchAndComplex:
    """The leading batch axis and the complex128 path that the complex-step
    checks run on."""

    @pytest.mark.parametrize("shape", [(4, 3, 4), (3, 2, 2, 3)])
    def test_batched_stack_equals_per_item_forward(self, shape):
        rng = np.random.default_rng(4)
        params = [CCAttentionParams.random(shape[0], 2, rng) for _ in range(5)]
        xs = rng.normal(size=(5,) + shape)
        stacked = np.stack([_stacked_weights(p, np.float64) for p in params])
        out, records = _recurrence(xs, stacked, 2, 2, len(shape) - 1)
        assert out.shape == xs.shape and len(records) == 2
        for x, p, o in zip(xs, params, out):
            assert rel_diff(o, rcca_forward(x, p, 2)[0]) < 1e-12

    @pytest.mark.parametrize("shape", [(4, 3, 4), (3, 2, 2, 3)])
    def test_complex128_stays_complex_and_its_real_part_is_the_forward(self, shape):
        rng = np.random.default_rng(5)
        p = CCAttentionParams.random(shape[0], 2, rng)
        x = rng.normal(size=shape)
        out64, _ = rcca_forward(x, p, 2)
        out, cache = rcca_forward(x + 1e-20j * rng.normal(size=shape), p, 2)
        assert out.dtype == np.complex128
        assert all(rec.attn.dtype == np.complex128 for rec in cache.records)
        assert np.abs(out.imag).max() > 0
        assert rel_diff(out.real, out64) < 1e-12


class TestBatchedBackward:
    """_recurrence_backward on a (B, C, *S) stack with one weight stack is
    the per-item rcca_backward, with the weight gradient summed over items."""

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("shape", [(4, 3, 5), (3, 2, 3, 4)])
    def test_stack_equals_per_item_backward(self, shape, batch, dtype, tol):
        rng = np.random.default_rng(batch)
        p = CCAttentionParams.random(shape[0], 2, rng)
        xs = rng.normal(size=(batch,) + shape).astype(dtype)
        d_outs = rng.normal(size=(batch,) + shape).astype(dtype)
        w_qkv, rank = _stacked_weights(p, dtype), len(shape) - 1
        _, records = _recurrence(xs, w_qkv, 2, 2, rank)
        d_xs, d_w = _recurrence_backward(records, d_outs, w_qkv, rank)
        assert d_xs.shape == xs.shape and d_w.shape == w_qkv.shape
        assert d_xs.dtype == d_w.dtype == dtype and d_xs.flags.c_contiguous
        total = 0
        for x, d_out, d_x in zip(xs, d_outs, d_xs):
            ref, grads = rcca_backward(rcca_forward(x, p, 2)[1], d_out)
            assert rel_diff(d_x, ref) <= tol
            total = total + np.concatenate([grads.d_wq, grads.d_wk, grads.d_wv])
        assert rel_diff(d_w, total) <= tol


class TestAttentionMass:
    def dense_reference(self, cache, u):
        """Row u of the per-loop products of dense N x N attention matrices,
        scattered through the definitional gather table."""
        spatial = cache.shape[1:]
        n = int(np.prod(spatial))
        table = (build_gather_table_2d(*spatial) if len(spatial) == 2
                 else build_gather_table_3d(*spatial))
        transition = np.eye(n)
        maps = []
        for rec in cache.records:
            p_mat = np.zeros((n, n))
            weights = index_map_layout(rec.attn).reshape(table.shape)
            np.add.at(p_mat, (np.broadcast_to(np.arange(n), table.shape), table), weights)
            transition = p_mat @ transition
            maps.append(transition[np.ravel_multi_index(u, spatial)].reshape(spatial))
        return maps

    @pytest.mark.parametrize("shape,u", [((4, 5, 6), (2, 3)), ((3, 3, 4), (0, 0)),
                                         ((3, 2, 3, 4), (1, 2, 0))])
    def test_matches_dense_transition_product(self, shape, u):
        rng = np.random.default_rng(11)
        p = CCAttentionParams.random(shape[0], 1, rng)
        x = rng.normal(size=shape)
        _, cache = rcca_forward(x, p, 3)
        got = attention_mass(cache, u)
        want = self.dense_reference(cache, u)
        assert len(got) == 3
        for g, w in zip(got, want):
            assert np.abs(g - w).max() < 1e-12
            assert abs(g.sum() - 1.0) < 1e-12
