import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crisscross.gradcheck import check_ccl, check_cross_entropy
from crisscross.losses import (
    IGNORE_ID,
    CCLConfig,
    ccl_loss,
    class_means,
    class_stats,
    cross_entropy_seg,
    label_plan,
    phi_dis,
    phi_dis_grad,
    phi_var,
    phi_var_grad,
    total_loss,
)
from crisscross.tensor_core import DimensionError

CFG = CCLConfig()
VARIANTS = [CCLConfig(phi_variant=v) for v in ("piecewise", "quadratic")]


# -- per-pixel reference ----------------------------------------------------
# The loop form of the loss, kept here as an independent check of the
# vectorised one in crisscross.losses: scalar penalties with explicit
# branches, per-class loops for the means and one norm per pixel.

def _ref_phi_var(dist, cfg):
    dv, dd = cfg.delta_v, cfg.delta_d
    if dist <= dv:
        return 0.0
    if cfg.phi_variant == "quadratic" or dist <= dd:
        return (dist - dv) ** 2
    return dist - dd + (dd - dv) ** 2


def _ref_phi_var_grad(dist, cfg):
    dv, dd = cfg.delta_v, cfg.delta_d
    if dist <= dv:
        return 0.0
    if cfg.phi_variant == "quadratic" or dist <= dd:
        return 2.0 * (dist - dv)
    return 1.0


def _ref_phi_dis(dist, cfg):
    m = 2.0 * cfg.delta_d
    return (m - dist) ** 2 if dist <= m else 0.0


def _ref_phi_dis_grad(dist, cfg):
    m = 2.0 * cfg.delta_d
    return -2.0 * (m - dist) if dist <= m else 0.0


def _ref_ccl_loss(features, labels, cfg):
    """(l_var, l_dis, l_reg, gradient of the weighted sum)."""
    flat_f = features.reshape(features.shape[0], -1)
    flat_l = labels.reshape(-1)
    means, counts = {}, {}
    for cls in np.unique(flat_l):
        if cls != IGNORE_ID:
            sel = flat_l == cls
            means[int(cls)] = flat_f[:, sel].mean(axis=1)
            counts[int(cls)] = int(sel.sum())
    classes = sorted(means)
    nc = len(classes)
    grad = np.zeros_like(flat_f, dtype=np.float64)
    d_mu = {c: np.zeros(flat_f.shape[0]) for c in classes}

    l_var = 0.0
    for c in classes:
        term = 0.0
        for j in np.flatnonzero(flat_l == c):
            diff = means[c] - flat_f[:, j]
            dist = float(np.linalg.norm(diff))
            term += _ref_phi_var(dist, cfg)
            if dist > 0:
                g = cfg.alpha * _ref_phi_var_grad(dist, cfg) / (nc * counts[c])
                grad[:, j] -= g * diff / dist
                d_mu[c] += g * diff / dist
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
                l_dis += 2.0 * _ref_phi_dis(dist, cfg)  # ordered double count
                if dist > 0:
                    g = cfg.beta * 2.0 * _ref_phi_dis_grad(dist, cfg) / pair_norm
                    d_mu[ca] += g * diff / dist
                    d_mu[cb] -= g * diff / dist
        l_dis /= pair_norm

    l_reg = 0.0
    for c in classes:
        norm = float(np.linalg.norm(means[c]))
        l_reg += norm
        if norm > 0:
            d_mu[c] += cfg.gamma * means[c] / (norm * nc)
    if nc > 0:
        l_reg /= nc

    for c in classes:
        grad[:, flat_l == c] += (d_mu[c] / counts[c])[:, None]
    return l_var, l_dis, l_reg, grad.reshape(features.shape)


def _assert_matches_reference(features, labels, cfg):
    """Loss terms and gradient agree with the loop form to 1e-12, relative to
    each term and to the largest gradient entry, with every floating-point
    warning raised."""
    with np.errstate(all="raise"):
        bd, grad = ccl_loss(features, labels, cfg, want_grad=True)
        l_var, l_dis, l_reg, ref_grad = _ref_ccl_loss(features, labels, cfg)
    assert bd.l_var == pytest.approx(l_var, rel=1e-12, abs=0.0)
    assert bd.l_dis == pytest.approx(l_dis, rel=1e-12, abs=0.0)
    assert bd.l_reg == pytest.approx(l_reg, rel=1e-12, abs=0.0)
    assert grad.shape == ref_grad.shape
    assert np.abs(grad - ref_grad).max(initial=0.0) <= 1e-12 * np.abs(ref_grad).max(initial=0.0)
    return bd, grad


@st.composite
def _ccl_cases(draw):
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cr = draw(st.integers(1, 5))
    # a small label alphabet with gaps, so absent classes and single-class,
    # one-pixel-class and all-ignored maps all occur
    labels = np.array(draw(st.lists(st.sampled_from([0, 1, 3, 4, IGNORE_ID]),
                                    min_size=h * w, max_size=h * w))).reshape(h, w)
    scale = draw(st.sampled_from([0.1, 0.5, 1.0, 3.0]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    features = np.random.default_rng(seed).normal(0.0, scale, (cr, h, w))
    return features, labels, draw(st.sampled_from(VARIANTS))


class TestPhiVar:
    def test_dead_zone(self):
        assert phi_var(0.4, CFG) == 0.0

    def test_quadratic_branch(self):
        assert phi_var(1.0, CFG) == 0.25

    def test_linear_branch(self):
        assert phi_var(2.0, CFG) == 1.5

    def test_continuity_at_margins(self):
        dv, dd = CFG.delta_v, CFG.delta_d
        assert phi_var(dv, CFG) == 0.0
        assert abs(phi_var(dv + 1e-12, CFG)) < 1e-20
        quad = (dd - dv) ** 2
        assert phi_var(dd, CFG) == quad
        assert abs(phi_var(dd + 1e-12, CFG) - quad) < 1e-11

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            phi_var(-0.1, CFG)

    @given(st.floats(0, 10), st.floats(0, 10))
    @settings(max_examples=100, deadline=None)
    def test_monotone_nondecreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert phi_var(lo, CFG) <= phi_var(hi, CFG)

    def test_quadratic_variant_has_no_linear_tail(self):
        cfg = CCLConfig(phi_variant="quadratic")
        assert phi_var(2.0, cfg) == (2.0 - 0.5) ** 2


class TestPhiDis:
    def test_beyond_margin(self):
        assert phi_dis(4.0, CFG) == 0.0

    def test_coincident_centers(self):
        assert phi_dis(0.0, CFG) == 9.0

    def test_boundary_continuity(self):
        assert phi_dis(3.0, CFG) == 0.0

    @given(st.floats(0, 10), st.floats(0, 10))
    @settings(max_examples=100, deadline=None)
    def test_monotone_nonincreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert phi_dis(lo, CFG) >= phi_dis(hi, CFG)


class TestClassMeans:
    def test_single_constant_class(self):
        v = np.array([1.0, -2.0, 3.0])
        features = np.tile(v[:, None, None], (1, 4, 5))
        labels = np.zeros((4, 5), dtype=int)
        means, counts = class_means(features, labels)
        assert counts == {0: 20}
        assert np.allclose(means[0], v)

    def test_arithmetic_mean(self):
        features = np.array([[0.0, 2.0], [2.0, 0.0]]).reshape(2, 1, 2)
        labels = np.array([[1, 1]])
        means, _ = class_means(features, labels)
        assert np.allclose(means[1], [1.0, 1.0])

    def test_ignore_id_skipped_and_all_ignore_empty(self):
        features = np.ones((2, 2, 2))
        labels = np.full((2, 2), 255)
        means, counts = class_means(features, labels)
        assert means == {} and counts == {}

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(3, 4, 5))
        labels = rng.integers(0, 3, (4, 5))
        means, counts = class_means(features, labels)
        for c in means:
            acc = np.zeros(3)
            n = 0
            for r in range(4):
                for col in range(5):
                    if labels[r, col] == c:
                        acc += features[:, r, col]
                        n += 1
            assert counts[c] == n
            assert np.allclose(means[c], acc / n, atol=1e-12)


class TestCCLLoss:
    def test_single_class_at_center(self):
        v = np.array([0.5, 1.0])
        features = np.tile(v[:, None, None], (1, 3, 3))
        labels = np.zeros((3, 3), dtype=int)
        bd = ccl_loss(features, labels, CFG)
        assert bd.l_var == 0.0
        assert bd.l_dis == 0.0
        assert bd.l_reg == pytest.approx(np.linalg.norm(v))

    def test_two_well_separated_classes(self):
        features = np.zeros((2, 1, 4))
        features[:, 0, :2] = np.array([[0.0], [0.0]])
        features[:, 0, 2:] = np.array([[4.0], [0.0]])
        labels = np.array([[0, 0, 1, 1]])
        bd = ccl_loss(features, labels, CFG)
        assert bd.l_var == 0.0
        assert bd.l_dis == 0.0  # centers 4.0 apart > 2*delta_d
        assert bd.l_reg == pytest.approx((0.0 + 4.0) / 2)

    def test_coincident_centers(self):
        features = np.zeros((2, 1, 4))
        labels = np.array([[0, 0, 1, 1]])
        bd = ccl_loss(features, labels, CFG)
        assert bd.l_var == 0.0
        assert bd.l_dis == pytest.approx(9.0)
        assert bd.l_reg == 0.0

    def test_terms_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            features = rng.normal(size=(4, 3, 5))
            labels = rng.integers(0, 4, (3, 5))
            bd = ccl_loss(features, labels, CFG)
            assert bd.l_var >= 0 and bd.l_dis >= 0 and bd.l_reg >= 0

    def test_single_class_has_zero_distance_term(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(3, 2, 2))
        labels = np.zeros((2, 2), dtype=int)
        assert ccl_loss(features, labels, CFG).l_dis == 0.0

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(3, 4, 4))
        labels = rng.integers(0, 3, (4, 4))
        perm = {0: 2, 1: 0, 2: 1}
        relabeled = np.vectorize(perm.get)(labels)
        a = ccl_loss(features, labels, CFG)
        b = ccl_loss(features, relabeled, CFG)
        assert a.l_var == pytest.approx(b.l_var, abs=1e-12)
        assert a.l_dis == pytest.approx(b.l_dis, abs=1e-12)
        assert a.l_reg == pytest.approx(b.l_reg, abs=1e-12)

    def test_translation_moves_only_regularizer(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(3, 4, 4))
        labels = rng.integers(0, 3, (4, 4))
        shift = np.array([5.0, -2.0, 1.0])[:, None, None]
        a = ccl_loss(features, labels, CFG)
        b = ccl_loss(features + shift, labels, CFG)
        assert a.l_var == pytest.approx(b.l_var, abs=1e-9)
        assert a.l_dis == pytest.approx(b.l_dis, abs=1e-9)
        assert a.l_reg != pytest.approx(b.l_reg, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ccl_loss(np.zeros((2, 3, 3)), np.zeros((2, 2), dtype=int), CFG)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_matches_finite_differences(self, seed):
        assert check_ccl(seed).max_rel_err < 1e-5


class TestCCLMatchesReference:
    @given(_ccl_cases())
    @settings(max_examples=300, deadline=None)
    def test_random_maps(self, case):
        _assert_matches_reference(*case)

    @pytest.mark.parametrize("cfg", VARIANTS, ids=lambda c: c.phi_variant)
    def test_single_class_has_no_distance_term(self, cfg):
        features = np.random.default_rng(7).normal(size=(3, 4, 4))
        bd, _ = _assert_matches_reference(features, np.full((4, 4), 3), cfg)
        assert bd.l_dis == 0.0

    @pytest.mark.parametrize("cfg", VARIANTS, ids=lambda c: c.phi_variant)
    def test_one_pixel_class_gets_no_variance_gradient(self, cfg):
        features = np.random.default_rng(8).normal(size=(4, 3, 3))
        labels = np.zeros((3, 3), dtype=int)
        labels[1, 2] = 4
        labels[0, 0] = IGNORE_ID
        _bd, grad = _assert_matches_reference(features, labels, cfg)
        # at zero distance only the mean path (distance and regularizer) acts
        alone = CCLConfig(alpha=1.0, beta=0.0, gamma=0.0, phi_variant=cfg.phi_variant)
        _, var_only = ccl_loss(features, labels, alone, want_grad=True)
        assert np.all(var_only[:, 1, 2] == 0.0)
        assert np.all(grad[:, 0, 0] == 0.0)

    @pytest.mark.parametrize("cfg", VARIANTS, ids=lambda c: c.phi_variant)
    def test_absent_classes_and_ignore_ids(self, cfg):
        rng = np.random.default_rng(9)
        features = rng.normal(0.0, 2.0, (5, 6, 6))
        labels = rng.choice([2, 7, 40, IGNORE_ID], (6, 6))
        bd, _ = _assert_matches_reference(features, labels, cfg)
        assert sorted(bd.class_means) == sorted(set(labels.ravel()) - {IGNORE_ID})

    def test_all_ignored_is_zero(self):
        bd, grad = _assert_matches_reference(np.ones((2, 3, 3)),
                                             np.full((3, 3), IGNORE_ID), CFG)
        assert (bd.l_var, bd.l_dis, bd.l_reg) == (0.0, 0.0, 0.0)
        assert not grad.any()

    def test_nan_features_give_nonfinite_terms_without_raising(self):
        features = np.random.default_rng(10).normal(size=(3, 4, 4))
        features[1, 2, 3] = np.nan
        labels = np.random.default_rng(11).integers(0, 3, (4, 4))
        bd, grad = ccl_loss(features, labels, CFG, want_grad=True)
        assert not all(np.isfinite([bd.l_var, bd.l_dis, bd.l_reg]))
        assert not np.isfinite(grad).all()


class TestPenaltyArrays:
    """The penalties take arrays and give, element by element, exactly what
    the branch-by-branch scalar definitions give."""

    @given(st.lists(st.floats(0, 10), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_arrays_match_scalar_definitions(self, dists):
        d = np.array(dists)
        for cfg in VARIANTS:
            for fn, ref in ((phi_var, _ref_phi_var), (phi_var_grad, _ref_phi_var_grad),
                            (phi_dis, _ref_phi_dis), (phi_dis_grad, _ref_phi_dis_grad)):
                want = [ref(v, cfg) for v in dists]
                assert fn(d, cfg).tolist() == want
                assert [fn(v, cfg) for v in dists] == want

    def test_scalar_in_float_out(self):
        assert type(phi_var(1.0, CFG)) is float
        assert type(phi_dis_grad(np.float64(0.5), CFG)) is float

    @pytest.mark.parametrize("fn", [phi_var, phi_var_grad, phi_dis, phi_dis_grad])
    def test_negative_distance_in_array_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(np.array([0.5, -1e-9, 2.0]), CFG)


class TestBatchedLosses:
    """A (B, C, *S) stack gives, item by item, exactly the per-item values."""

    @pytest.mark.parametrize("cfg", VARIANTS, ids=lambda c: c.phi_variant)
    def test_ccl_stack_equals_per_item_calls(self, cfg):
        rng = np.random.default_rng(12)
        features = rng.normal(0.0, 1.5, (4, 3, 5, 6))
        labels = rng.integers(0, 3, (5, 6))
        labels[0, 0] = IGNORE_ID
        bd = ccl_loss(features, labels, cfg)
        for i, f in enumerate(features):
            one = ccl_loss(f, labels, cfg)
            assert (bd.l_var[i], bd.l_dis[i], bd.l_reg[i]) == (one.l_var, one.l_dis, one.l_reg)
        assert bd.weighted(cfg).shape == (4,)
        with pytest.raises(DimensionError):
            ccl_loss(features, labels, cfg, want_grad=True)

    def test_cross_entropy_stack_equals_per_item_calls(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(0.0, 2.0, (2, 3, 4, 4, 5))
        labels = rng.integers(0, 4, (4, 5))
        labels[1, 1] = IGNORE_ID
        loss, grad = cross_entropy_seg(logits, labels)
        assert loss.shape == (2, 3) and grad.shape == logits.shape
        for idx in np.ndindex(2, 3):
            one_loss, one_grad = cross_entropy_seg(logits[idx], labels)
            assert loss[idx] == one_loss
            assert np.array_equal(grad[idx], one_grad)

    def test_complex_values_are_not_cast_to_real(self):
        rng = np.random.default_rng(14)
        features = rng.normal(size=(3, 4, 4)) + 1e-20j
        labels = rng.integers(0, 3, (4, 4))
        bd = ccl_loss(features, labels, CFG)
        assert all(np.iscomplexobj(t) for t in (bd.l_var, bd.l_dis, bd.l_reg))
        real = ccl_loss(features.real, labels, CFG)
        assert bd.weighted(CFG).real == pytest.approx(real.weighted(CFG), rel=1e-15)
        assert np.iscomplexobj(cross_entropy_seg(features, labels)[0])


def _assert_identical(a, b):
    """Bit-for-bit equality of two results, field by field and item by item."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            _assert_identical(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_identical(x, y)
    else:
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


class TestLabelPlan:
    """A LabelPlan stands in for its labels: every loss gives, bit for bit,
    what it gives on the label array, and malformed labels are refused."""

    # classes {0, 2, 5} with ignored positions: absent ids 1, 3 and 4
    LABELS = np.random.default_rng(20).choice([0, 2, 5, IGNORE_ID], (5, 6))

    @staticmethod
    def _features(kind):
        rng = np.random.default_rng(21)
        one = rng.normal(0.0, 1.5, (6, 5, 6))  # 6 channels: also logits for 6 classes
        return {"one map": one,
                "stack": rng.normal(0.0, 1.5, (3, 6, 5, 6)),
                "complex": one + 1e-20j * rng.normal(size=one.shape)}[kind]

    def test_plan_fields(self):
        plan = label_plan(self.LABELS)
        flat = self.LABELS.reshape(-1)
        assert plan.shape == (5, 6) and plan.classes.tolist() == [0, 2, 5]
        assert np.array_equal(plan.valid, flat != IGNORE_ID)
        assert np.array_equal(plan.classes[plan.rows], flat[plan.valid])
        assert plan.counts.tolist() == [int((flat == c).sum()) for c in (0, 2, 5)]
        assert plan.one_hot.dtype == np.float64
        assert np.array_equal(plan.one_hot, plan.rows[:, None] == np.arange(3))
        assert np.array_equal(plan.picks, flat[plan.valid] * 30 + np.flatnonzero(plan.valid))
        assert label_plan(plan) is plan

    @pytest.mark.parametrize("kind", ["one map", "stack", "complex"])
    def test_losses_match_label_array(self, kind):
        features, plan = self._features(kind), label_plan(self.LABELS)
        _assert_identical(class_stats(features, plan), class_stats(features, self.LABELS))
        _assert_identical(ccl_loss(features, plan, CFG), ccl_loss(features, self.LABELS, CFG))
        _assert_identical(cross_entropy_seg(features, plan),
                          cross_entropy_seg(features, self.LABELS))
        if kind == "one map":
            _assert_identical(ccl_loss(features, plan, CFG, want_grad=True),
                              ccl_loss(features, self.LABELS, CFG, want_grad=True))
        elif kind == "stack":
            with pytest.raises(DimensionError):
                ccl_loss(features, plan, CFG, want_grad=True)

    @pytest.mark.parametrize("shape", [(6, 6, 5), (6, 5, 6, 1), (6, 30)])
    def test_plan_of_other_extents_rejected(self, shape):
        features, plan = np.ones(shape), label_plan(self.LABELS)
        for call in (lambda: class_stats(features, plan),
                     lambda: ccl_loss(features, plan, CFG),
                     lambda: ccl_loss(features, plan, CFG, want_grad=True),
                     lambda: cross_entropy_seg(features, plan)):
            with pytest.raises(DimensionError):
                call()

    def test_negative_label_rejected(self):
        # numpy's take read -1 as the last class, for a finite loss
        labels = np.array([[0, 1], [2, -1]])
        with pytest.raises(ValueError, match="negative label -1"):
            cross_entropy_seg(np.zeros((3, 2, 2)), labels)
        with pytest.raises(ValueError, match="negative label -1"):
            ccl_loss(np.zeros((3, 2, 2)), labels, CFG)

    def test_label_beyond_classes_rejected(self):
        # raised numpy's bare IndexError; the ignore id stays exempt
        labels = np.array([[0, 1], [3, IGNORE_ID]])
        with pytest.raises(ValueError, match="label 3 is out of range for 3 classes"):
            cross_entropy_seg(np.zeros((3, 2, 2)), labels)
        labels[1, 0] = 2
        assert cross_entropy_seg(np.zeros((3, 2, 2)), labels)[0] == pytest.approx(np.log(3.0))

    def test_float_labels_rejected(self):
        # 1.5 was read as class 1 by the loss but not by its gradient
        labels = np.array([[0.0, 1.0], [2.0, 1.5]])
        with pytest.raises(ValueError, match="integer class ids, got float64"):
            cross_entropy_seg(np.zeros((3, 2, 2)), labels)
        with pytest.raises(ValueError, match="integer class ids, got float64"):
            ccl_loss(np.zeros((3, 2, 2)), labels, CFG, want_grad=True)


class TestTotalLoss:
    def test_all_zero(self):
        bd = ccl_loss(np.zeros((2, 1, 1)), np.zeros((1, 1), dtype=int), CFG)
        assert total_loss(0.0, bd, CFG) == 0.0

    def test_weighted_sum(self):
        from crisscross.losses import CCLBreakdown
        bd = CCLBreakdown(l_var=2.0, l_dis=3.0, l_reg=10.0)
        assert total_loss(1.0, bd, CFG) == pytest.approx(6.01)

    def test_gamma_zero_drops_regularizer(self):
        from crisscross.losses import CCLBreakdown
        cfg = CCLConfig(gamma=0.0)
        a = CCLBreakdown(l_var=1.0, l_dis=1.0, l_reg=5.0)
        b = CCLBreakdown(l_var=1.0, l_dis=1.0, l_reg=500.0)
        assert total_loss(0.5, a, cfg) == total_loss(0.5, b, cfg)

    def test_rejects_nonfinite(self):
        from crisscross.losses import CCLBreakdown
        with pytest.raises(ValueError):
            total_loss(float("nan"), CCLBreakdown(0, 0, 0), CFG)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((4, 3, 3))
        labels = np.random.default_rng(5).integers(0, 4, (3, 3))
        loss, _ = cross_entropy_seg(logits, labels)
        assert loss == pytest.approx(np.log(4.0))

    def test_confident_correct_saturates_to_zero(self):
        labels = np.array([[0, 1], [2, 0]])
        logits = np.full((3, 2, 2), -50.0)
        for r in range(2):
            for c in range(2):
                logits[labels[r, c], r, c] = 50.0
        loss, _ = cross_entropy_seg(logits, labels)
        assert loss < 1e-12

    def test_all_ignored_raises(self):
        with pytest.raises(ValueError):
            cross_entropy_seg(np.zeros((2, 2, 2)), np.full((2, 2), 255))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_matches_finite_differences(self, seed):
        assert check_cross_entropy(seed).max_rel_err < 1e-6


class TestConfig:
    def test_margin_ordering_enforced(self):
        with pytest.raises(ValueError):
            CCLConfig(delta_v=1.5, delta_d=0.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            CCLConfig(alpha=-1.0)

    def test_defaults_match_reported_values(self):
        cfg = CCLConfig()
        assert (cfg.delta_v, cfg.delta_d, cfg.alpha, cfg.beta, cfg.gamma,
                cfg.reduced_channels) == (0.5, 1.5, 1.0, 1.0, 0.001, 16)
