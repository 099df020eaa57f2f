import runpy
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crisscross.losses import IGNORE_ID, CCLConfig, class_stats
from crisscross.tensor_core import DimensionError
from crisscross.toytrain import (
    CLASS_MARGIN,
    ToyModel,
    TrainResult,
    _evaluate_and_grad,
    _feature_stats,
    gen_toy,
    train_toy,
)

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

    @pytest.mark.parametrize("reduced_attn", [0, 8])
    def test_rejects_reduced_width_outside_channels(self, reduced_attn):
        task = gen_toy(0, n=1, h=8, w=8, k=2)
        with pytest.raises(DimensionError):
            train_toy(task, init_seed=0, epochs=0, use_ccl=False, cfg=CFG,
                      channels=8, reduced_attn=reduced_attn)

    @pytest.mark.parametrize("use_ccl", [False, True])
    def test_non_finite_input_fails_at_epoch_zero(self, use_ccl):
        task = gen_toy(0, 2, 12, 12, 3)
        task.images[1, 0, 5, 7] = np.nan
        res = train_toy(task, init_seed=1000, epochs=5, use_ccl=use_ccl, cfg=CFG)
        assert res.failed and res.fail_epoch == 0 and res.metrics == []

    @pytest.mark.parametrize("use_ccl", [False, True])
    def test_failing_epoch_is_not_recorded(self, use_ccl):
        # a step this large diverges in both arms; the epoch is left free
        res = train_toy(gen_toy(0, 2, 12, 12, 3), 1000, 60, use_ccl, CCLConfig(), lr=5.0)
        assert res.failed
        assert len(res.metrics) == res.fail_epoch
        assert all(np.isfinite(m.total) for m in res.metrics)

    def test_label_work_is_done_once_per_run(self, monkeypatch):
        # labels never change in a run, so the classes are found once, not
        # once per evaluation (3 here)
        task, unique, calls = gen_toy(0, 2, 12, 12, 3), np.unique, []

        def counted(*args, **kwargs):
            calls.append(1)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counted)
        res = train_toy(task, init_seed=1000, epochs=2, use_ccl=True, cfg=CFG)
        assert len(res.metrics) == 3 and len(calls) == 1


class TestBatchedStep:
    """One training step runs the whole image batch through one attention
    forward and one backward; nothing in it assumes two images."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("use_ccl,phi", [(False, "piecewise"), (True, "quadratic")])
    def test_any_batch_size_trains(self, n, use_ccl, phi):
        task = gen_toy(6, n=n, h=8, w=10, k=3)
        res = train_toy(task, init_seed=6, epochs=15, use_ccl=use_ccl,
                        cfg=CCLConfig(phi_variant=phi))
        assert not res.failed and len(res.metrics) == 16
        assert all(np.isfinite(m.total) for m in res.metrics)
        assert res.metrics[-1].total < res.metrics[0].total

    @pytest.mark.parametrize("use_ccl", [False, True])
    def test_gradients_match_central_differences(self, use_ccl):
        """Each weight's gradient, read along a random direction, against a
        central difference of the loss, on three non-square images."""
        task = gen_toy(7, n=3, h=8, w=10, k=3)
        cfg = CCLConfig(phi_variant="quadratic")
        labels = task.labels.transpose(1, 0, 2).reshape(8, -1)
        model = ToyModel.init(7, 3, 8, 4, cfg.reduced_channels, 3, 2)
        _, grads = _evaluate_and_grad(model, task, labels, use_ccl, cfg)
        rng, step = np.random.default_rng(0), 1e-6
        for name, g in grads.items():
            direction = rng.normal(size=g.shape)
            w = getattr(model, name)
            up, down = (_evaluate_and_grad(replace(model, **{name: w + s * direction}),
                                           task, labels, use_ccl, cfg)[0][0]
                        for s in (step, -step))
            fd = (up - down) / (2 * step)
            assert abs(float((g * direction).sum()) - fd) <= 1e-8 * max(1.0, abs(fd)), name


def test_experiment_script_runs_in_process(monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_toy_experiments.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--seeds", "1", "--epochs", "2"])
    runpy.run_path(str(script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed,variant,ccl,ok,pixel_acc,intra_var,inter_dist"
    # one seed: piecewise with and without the loss, quadratic with it
    assert len(lines) == 5 and lines[-1].startswith("# success piecewise 1/1")

    # a run that fails at epoch 0 records no row: it prints nan metrics and
    # counts as neither a success nor a win
    monkeypatch.setattr("crisscross.toytrain.train_toy",
                        lambda *a, **k: TrainResult(failed=True, fail_epoch=0))
    runpy.run_path(str(script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:4] == [f"0,{v},{c},False,nan,nan,nan"
                          for v, c in (("piecewise", "on"), ("piecewise", "off"),
                                       ("quadratic", "on"))]
    assert lines[-1] == ("# success piecewise 0/1, quadratic 0/1; "
                         "CCL lowers intra-class variance on 0/1 seeds")
