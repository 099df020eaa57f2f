import numpy as np
import pytest

from crisscross.losses import IGNORE_ID, CCLConfig, class_stats
from crisscross.toytrain import CLASS_MARGIN, _feature_stats, gen_toy, train_toy

CFG = CCLConfig()


class TestGenToy:
    def test_deterministic_given_seed(self):
        a = gen_toy(3, n=2, h=10, w=10, k=3)
        b = gen_toy(3, n=2, h=10, w=10, k=3)
        assert a.images.tobytes() == b.images.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_both_classes_present(self):
        task = gen_toy(0, n=1, h=10, w=10, k=2)
        assert set(np.unique(task.labels)) == {0, 1}

    def test_class_color_means_separated(self):
        task = gen_toy(1, n=4, h=16, w=16, k=3)
        feats = task.images.transpose(1, 0, 2, 3).reshape(3, -1)
        labels = task.labels.reshape(-1)
        centers = [feats[:, labels == c].mean(axis=1) for c in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                gap = np.linalg.norm(centers[i] - centers[j])
                assert gap > 0.8 * CLASS_MARGIN

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            gen_toy(0, n=1, h=4, w=4, k=2)
        with pytest.raises(ValueError):
            gen_toy(0, n=1, h=10, w=10, k=1)


class TestFeatureStats:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_class_loop(self, seed):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(4, 5, 6))
        labels = rng.choice([0, 2, 5, IGNORE_ID], (5, 6))
        flat_f, flat_l = feats.reshape(4, -1), labels.reshape(-1)
        centers, intra = [], []
        for c in sorted(set(flat_l.tolist()) - {IGNORE_ID}):
            members = flat_f[:, flat_l == c]
            centers.append(members.mean(axis=1))
            intra.append(((members - centers[-1][:, None]) ** 2).sum(axis=0).mean())
        inter = [np.linalg.norm(a - b) for i, a in enumerate(centers) for b in centers[i + 1:]]
        got = _feature_stats(class_stats(feats, labels))
        assert got == pytest.approx((np.mean(intra), np.mean(inter) if inter else 0.0),
                                    rel=1e-12)


class TestTrainToy:
    def test_zero_epochs_reports_untrained_model(self):
        task = gen_toy(0, n=1, h=8, w=8, k=2)
        res = train_toy(task, init_seed=1, epochs=0, use_ccl=False, cfg=CFG)
        assert len(res.metrics) == 1
        assert res.metrics[0].epoch == 0

    def test_deterministic_metrics(self):
        task = gen_toy(2, n=1, h=8, w=8, k=2)
        a = train_toy(task, init_seed=5, epochs=10, use_ccl=True, cfg=CFG)
        b = train_toy(task, init_seed=5, epochs=10, use_ccl=True, cfg=CFG)
        assert [m.csv_row() for m in a.metrics] == [m.csv_row() for m in b.metrics]

    def test_loss_decreases_on_stripes(self):
        task = gen_toy(4, n=2, h=12, w=12, k=2)
        res = train_toy(task, init_seed=4, epochs=60, use_ccl=False, cfg=CFG)
        assert not res.failed
        assert res.metrics[-1].total < res.metrics[0].total

    def test_ccl_reduces_intra_class_variance(self):
        task = gen_toy(5, n=2, h=12, w=12, k=3)
        on = train_toy(task, init_seed=5, epochs=60, use_ccl=True, cfg=CFG)
        off = train_toy(task, init_seed=5, epochs=60, use_ccl=False, cfg=CFG)
        assert not on.failed and not off.failed
        assert on.metrics[-1].intra_var <= off.metrics[-1].intra_var

    def test_negative_epochs_rejected(self):
        task = gen_toy(0, n=1, h=8, w=8, k=2)
        with pytest.raises(ValueError):
            train_toy(task, init_seed=0, epochs=-1, use_ccl=False, cfg=CFG)

    @pytest.mark.parametrize("seed", [102, 141])
    def test_piecewise_divergence_is_recorded(self, seed):
        # these two seeds diverge under the piecewise penalty; the epoch is
        # left free, since summation order can move it by one
        task = gen_toy(seed, 2, 12, 12, 3)
        res = train_toy(task, init_seed=seed + 1000, epochs=60, use_ccl=True,
                        cfg=CCLConfig(phi_variant="piecewise"))
        assert res.failed
        assert 0 < res.fail_epoch <= 60
        assert len(res.metrics) == res.fail_epoch
