"""Desk-scale end-to-end demonstration: synthetic striped segmentation data
and a tiny head (input projection -> recurrent criss-cross attention ->
16-channel reduction -> classifier) trained by momentum gradient descent,
with or without the category consistent loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cca2d import CCAttentionParams, rcca_backward, rcca_forward
from .losses import CCLConfig, ClassStats, ccl_loss, cross_entropy_seg, total_loss
from .tensor_core import ProjectionWeights

CLASS_MARGIN = 1.5
NOISE_SIGMA = 0.3


@dataclass
class ToyTask:
    images: np.ndarray  # (n, Cin, H, W)
    labels: np.ndarray  # (n, H, W) int
    num_classes: int
    seed: int


@dataclass
class ToyModel:
    w_in: np.ndarray        # (C, Cin)
    attention: CCAttentionParams
    w_reduce: np.ndarray    # (Cr, C)
    w_classify: np.ndarray  # (K, Cr)
    loops: int

    @staticmethod
    def init(seed: int, cin: int, channels: int, reduced_attn: int,
             reduced_loss: int, num_classes: int, loops: int) -> "ToyModel":
        rng = np.random.default_rng(seed)
        scale = 0.2
        return ToyModel(
            w_in=rng.normal(0.0, scale, (channels, cin)),
            attention=CCAttentionParams.random(channels, reduced_attn, rng, scale),
            w_reduce=rng.normal(0.0, scale, (reduced_loss, channels)),
            w_classify=rng.normal(0.0, scale, (num_classes, reduced_loss)),
            loops=loops,
        )


@dataclass
class EpochMetrics:
    epoch: int
    total: float
    seg: float
    var: float
    dis: float
    reg: float
    pixel_acc: float
    intra_var: float
    inter_dist: float

    CSV_HEADER = "epoch,total,seg,var,dis,reg,pixel_acc,intra_var,inter_dist"

    def csv_row(self) -> str:
        return (f"{self.epoch},{self.total:.6g},{self.seg:.6g},{self.var:.6g},"
                f"{self.dis:.6g},{self.reg:.6g},{self.pixel_acc:.6g},"
                f"{self.intra_var:.6g},{self.inter_dist:.6g}")


@dataclass
class TrainResult:
    metrics: list = field(default_factory=list)
    failed: bool = False
    fail_epoch: int | None = None


def gen_toy(seed: int, n: int, h: int, w: int, k: int) -> ToyTask:
    """Synthetic segmentation batch: background rectangles plus long 1-pixel
    stripes so that long-range context genuinely helps; pixel features are
    class-dependent colors with additive gaussian noise."""
    if k < 2:
        raise ValueError(f"need at least 2 classes, got {k}")
    if h < 8 or w < 8:
        raise ValueError(f"grid must be at least 8x8, got {h}x{w}")
    rng = np.random.default_rng(seed)
    cin = k
    images = np.empty((n, cin, h, w))
    labels = np.empty((n, h, w), dtype=np.int64)
    colors = CLASS_MARGIN * np.eye(k)  # class c -> margin * one_hot(c)
    for img in range(n):
        lab = np.zeros((h, w), dtype=np.int64)
        # one horizontal and one vertical single-pixel stripe per extra class
        for cls in range(1, k):
            row = int(rng.integers(1, h - 1))
            lab[row, :] = cls
            col = int(rng.integers(1, w - 1))
            lab[:, col] = cls
        # a small rectangle of a random non-background class
        cls = int(rng.integers(1, k))
        r0 = int(rng.integers(0, h - 4))
        c0 = int(rng.integers(0, w - 4))
        lab[r0:r0 + 3, c0:c0 + 3] = cls
        noise = rng.normal(0.0, NOISE_SIGMA, (cin, h, w))
        images[img] = colors[lab].transpose(2, 0, 1) + noise
        labels[img] = lab
    return ToyTask(images=images, labels=labels, num_classes=k, seed=seed)


def _feature_stats(st: ClassStats) -> tuple:
    """(mean within-class squared distance to center, mean pairwise center
    distance) over the classes present."""
    k = st.classes.size
    sq = np.bincount(st.rows, (st.offsets * st.offsets).sum(axis=0), minlength=k)
    pairs = st.centre_dist[np.triu_indices(k, 1)]
    return float((sq / st.counts).sum() / max(k, 1)), float(pairs.sum() / max(pairs.size, 1))


def _forward_batch(model: ToyModel, task: ToyTask):
    """Run the head on every image; features/logits concatenated along width
    so the loss sees joint per-batch class means."""
    outs, feats, logits, caches = [], [], [], []
    for x in task.images:
        h = model.w_in @ x.reshape(x.shape[0], -1)
        h = h.reshape(model.w_in.shape[0], x.shape[1], x.shape[2])
        out, cache = rcca_forward(h, model.attention, model.loops)
        f = (model.w_reduce @ out.reshape(out.shape[0], -1)).reshape(
            model.w_reduce.shape[0], x.shape[1], x.shape[2])
        z = (model.w_classify @ f.reshape(f.shape[0], -1)).reshape(
            model.w_classify.shape[0], x.shape[1], x.shape[2])
        outs.append(out)
        caches.append(cache)
        feats.append(f)
        logits.append(z)
    return outs, caches, feats, logits


def train_toy(task: ToyTask, init_seed: int, epochs: int, use_ccl: bool,
              cfg: CCLConfig, channels: int = 8, reduced_attn: int = 4,
              loops: int = 2, lr: float = 0.05, momentum: float = 0.9) -> TrainResult:
    """Full-batch momentum gradient descent on the composite objective.

    Divergence (non-finite loss) is recorded, not raised: the result carries
    the failing epoch and the metrics collected so far.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    cin = task.images.shape[1]
    model = ToyModel.init(init_seed, cin, channels, reduced_attn,
                          cfg.reduced_channels, task.num_classes, loops)
    result = TrainResult()

    velocity = {name: 0.0 for name in
                ("w_in", "wq", "wk", "wv", "w_reduce", "w_classify")}

    def evaluate_and_grad():
        # divergence shows up as inf/nan and is recorded, not raised
        with np.errstate(all="ignore"):
            return _evaluate_and_grad()

    def _evaluate_and_grad():
        outs, caches, feats, logits = _forward_batch(model, task)
        n = len(feats)
        cat_f = np.concatenate(feats, axis=2)
        cat_z = np.concatenate(logits, axis=2)
        cat_l = np.concatenate(list(task.labels), axis=1)
        seg, d_logits_cat = cross_entropy_seg(cat_z, cat_l)
        if use_ccl:
            ccl, d_feat_ccl_cat = ccl_loss(cat_f, cat_l, cfg, want_grad=True)
        else:
            ccl = ccl_loss(cat_f, cat_l, cfg)
            d_feat_ccl_cat = np.zeros_like(cat_f)
        total = total_loss(seg, ccl, cfg) if use_ccl else seg

        acc = float((cat_z.argmax(axis=0) == cat_l).mean())
        intra, inter = _feature_stats(ccl.stats)

        grads = {name: np.zeros_like(arr) for name, arr in (
            ("w_in", model.w_in), ("wq", model.attention.wq.weight),
            ("wk", model.attention.wk.weight), ("wv", model.attention.wv.weight),
            ("w_reduce", model.w_reduce), ("w_classify", model.w_classify))}
        w = task.images.shape[3]
        for i in range(n):
            sl = slice(i * w, (i + 1) * w)
            d_z = d_logits_cat[:, :, sl]
            f = feats[i]
            z2 = d_z.reshape(d_z.shape[0], -1)
            f2 = f.reshape(f.shape[0], -1)
            grads["w_classify"] += z2 @ f2.T
            d_f2 = model.w_classify.T @ z2 + d_feat_ccl_cat[:, :, sl].reshape(f2.shape)
            out2 = outs[i].reshape(outs[i].shape[0], -1)
            grads["w_reduce"] += d_f2 @ out2.T
            d_out = (model.w_reduce.T @ d_f2).reshape(caches[i].shape)
            d_h, att_g = rcca_backward(caches[i], d_out)
            grads["wq"] += att_g.d_wq
            grads["wk"] += att_g.d_wk
            grads["wv"] += att_g.d_wv
            x2 = task.images[i].reshape(cin, -1)
            grads["w_in"] += d_h.reshape(d_h.shape[0], -1) @ x2.T
        metrics_vals = (total, seg, ccl.l_var, ccl.l_dis, ccl.l_reg, acc,
                        intra, inter)
        return metrics_vals, grads

    def record(epoch, vals):
        result.metrics.append(EpochMetrics(epoch, *vals))

    vals, grads = evaluate_and_grad()
    record(0, vals)
    if not math.isfinite(vals[0]):
        result.failed = True
        result.fail_epoch = 0
        return result

    for epoch in range(1, epochs + 1):
        for name in velocity:
            velocity[name] = momentum * velocity[name] - lr * grads[name]
        model.w_in = model.w_in + velocity["w_in"]
        model.w_reduce = model.w_reduce + velocity["w_reduce"]
        model.w_classify = model.w_classify + velocity["w_classify"]
        model.attention = CCAttentionParams(
            wq=ProjectionWeights(model.attention.wq.weight + velocity["wq"]),
            wk=ProjectionWeights(model.attention.wk.weight + velocity["wk"]),
            wv=ProjectionWeights(model.attention.wv.weight + velocity["wv"]),
        )
        try:
            vals, grads = evaluate_and_grad()
        except (FloatingPointError, ValueError):
            result.failed = True
            result.fail_epoch = epoch
            return result
        record(epoch, vals)
        if not math.isfinite(vals[0]) or not all(
                np.isfinite(g).all() for g in grads.values()):
            result.failed = True
            result.fail_epoch = epoch
            return result
    return result
