import numpy as np
import pytest

from crisscross.cca2d import CCAttentionParams, cca_forward, crisscross_index_map
from crisscross.cca3d import (
    cca3d_forward,
    crisscross_index_map_3d,
    rcca3d_forward,
)
from crisscross.oracles import cca3d_naive, crisscross_mask, influence_scan


def per_input(g):
    """A per-input function as the (B, *x.shape) stack function that
    jacobian_fd and influence_scan call once."""
    return lambda ys: np.stack([g(y) for y in ys])


def random_params(c, cr, seed=0):
    return CCAttentionParams.random(c, cr, np.random.default_rng(seed))


class TestIndexMap3D:
    def test_t1_degenerates_to_2d_set(self):
        t, h, w = 1, 3, 4
        for x in range(h):
            for y in range(w):
                set3d = {crisscross_index_map_3d((0, x, y), i, t, h, w)
                         for i in range(t + h + w - 2)}
                set2d = {(0,) + crisscross_index_map((x, y), i, h, w)
                         for i in range(h + w - 1)}
                assert set3d == set2d

    def test_two_coordinates_shared(self):
        got = {crisscross_index_map_3d((0, 0, 0), i, 2, 2, 2) for i in range(4)}
        assert got == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)}

    def test_exhaustive_size_and_distinctness(self):
        for t in range(1, 5):
            for h in range(1, 5):
                for w in range(1, 5):
                    size = t + h + w - 2
                    for u in np.ndindex(t, h, w):
                        members = {crisscross_index_map_3d(u, i, t, h, w)
                                   for i in range(size)}
                        assert len(members) == size
                        for m in members:
                            shared = sum(a == b for a, b in zip(m, u))
                            assert shared >= 2

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            crisscross_index_map_3d((0, 0, 0), 4, 2, 2, 2)


class TestForward3D:
    def test_t1_equals_2d(self):
        p = random_params(4, 2, seed=1)
        x = np.random.default_rng(1).normal(size=(4, 3, 4))
        out2d, _ = cca_forward(x, p)
        out3d, _ = cca3d_forward(x[:, None, :, :], p)
        assert np.abs(out3d[:, 0] - out2d).max() < 1e-12

    def test_zero_value_projection_is_residual(self):
        from crisscross.tensor_core import ProjectionWeights
        base = random_params(4, 2, seed=2)
        p = CCAttentionParams(wq=base.wq, wk=base.wk,
                              wv=ProjectionWeights(np.zeros((4, 4))))
        x = np.random.default_rng(2).normal(size=(4, 2, 3, 2))
        out, _ = cca3d_forward(x, p)
        assert np.array_equal(out, x)

    def test_matches_naive(self):
        p = random_params(4, 2, seed=3)
        x = np.random.default_rng(3).normal(size=(4, 2, 3, 3))
        out, _ = cca3d_forward(x, p)
        ref = cca3d_naive(x, p)
        assert np.abs(out - ref).max() / np.abs(ref).max() < 1e-9

    def test_attention_normalized(self):
        p = random_params(3, 1, seed=4)
        x = np.random.default_rng(4).normal(size=(3, 2, 2, 3))
        _, cache = cca3d_forward(x, p)
        attn = cache.records[0].attn
        assert np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-9


class TestRecurrent3D:
    def test_r1_equals_single_pass(self):
        p = random_params(3, 1, seed=5)
        x = np.random.default_rng(5).normal(size=(3, 2, 2, 2))
        a, _ = cca3d_forward(x, p)
        b, _ = rcca3d_forward(x, p, 1)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_r3_full_reachability(self, seed):
        p = random_params(2, 1, seed=seed)
        x = np.random.default_rng(seed).normal(size=(2, 3, 3, 3))
        pat = influence_scan(per_input(lambda y: rcca3d_forward(y, p, 3)[0]), x)
        assert pat.mask.all()

    def test_r1_equals_crisscross_mask(self):
        p = random_params(2, 1, seed=8)
        x = np.random.default_rng(8).normal(size=(2, 2, 3, 2))
        pat = influence_scan(per_input(lambda y: rcca3d_forward(y, p, 1)[0]), x)
        assert np.array_equal(pat.mask, crisscross_mask(2, 3, 2))

    def test_r2_reaches_two_coordinate_changes(self):
        # one hop fixes at least one coordinate: anything differing from u in
        # at most two coordinates is reachable with two loops
        p = random_params(2, 1, seed=9)
        x = np.random.default_rng(9).normal(size=(2, 2, 2, 2))
        pat = influence_scan(per_input(lambda y: rcca3d_forward(y, p, 2)[0]), x)
        dims = (2, 2, 2)
        for ui, u in enumerate(np.ndindex(*dims)):
            for ti, th in enumerate(np.ndindex(*dims)):
                if sum(a != b for a, b in zip(u, th)) <= 2:
                    assert pat.mask[ui, ti]
