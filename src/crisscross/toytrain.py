"""Desk-scale end-to-end demonstration: synthetic striped segmentation data
and a tiny head (input projection -> recurrent criss-cross attention ->
16-channel reduction -> classifier) trained by momentum gradient descent,
with or without the category consistent loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cca2d import _recurrence, _recurrence_backward
# unused here, but the benchmark's tracer (perfbench/tracing.py) binds these names
from .cca2d import rcca_backward, rcca_forward  # noqa: F401
from .losses import CCLConfig, ClassStats, ccl_loss, cross_entropy_seg, label_plan
from .tensor_core import DimensionError

CLASS_MARGIN = 1.5
NOISE_SIGMA = 0.3


@dataclass
class ToyTask:
    images: np.ndarray  # (n, Cin, H, W)
    labels: np.ndarray  # (n, H, W) int
    num_classes: int


@dataclass
class ToyModel:
    w_in: np.ndarray        # (C, Cin)
    w_qkv: np.ndarray       # (2C'+C, C): attention query, key and value rows
    reduced_attn: int       # C'
    w_reduce: np.ndarray    # (Cr, C)
    w_classify: np.ndarray  # (K, Cr)
    loops: int

    @staticmethod
    def init(seed: int, cin: int, channels: int, reduced_attn: int,
             reduced_loss: int, num_classes: int, loops: int) -> "ToyModel":
        if not 0 < reduced_attn < channels:
            raise DimensionError(
                f"need 0 < reduced_attn < channels, got {reduced_attn}, {channels}")
        rng = np.random.default_rng(seed)
        scale = 0.2
        return ToyModel(
            w_in=rng.normal(0.0, scale, (channels, cin)),
            w_qkv=rng.normal(0.0, scale, (2 * reduced_attn + channels, channels)),
            reduced_attn=reduced_attn,
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
    return ToyTask(images=images, labels=labels, num_classes=k)


def _feature_stats(st: ClassStats) -> tuple:
    """(mean within-class squared distance to center, mean pairwise center
    distance) over the classes present."""
    k = st.plan.classes.size
    sq = (st.offsets * st.offsets).sum(axis=0) @ st.plan.one_hot
    pairs = st.centre_dist[np.arange(k)[:, None] < np.arange(k)]  # as np.triu_indices(k, 1)
    return float((sq / st.plan.counts).sum() / max(k, 1)), float(pairs.sum() / max(pairs.size, 1))


def _forward_batch(model: ToyModel, images: np.ndarray):
    """Run the head on a whole (n, Cin, H, W) batch: one input projection and
    one recurrent attention call, then one reduction and one classifier
    product on the (C, H*n*W) map of the outputs side by side. Returns that
    map, the loop records and the (Cr, H, n*W) features and (K, H, n*W) logits."""
    n, cin, h, w = images.shape
    x = (model.w_in @ images.reshape(n, cin, -1)).reshape(n, -1, h, w)
    out, records = _recurrence(x, model.w_qkv, model.reduced_attn, model.loops, 2)
    out = out.transpose(1, 2, 0, 3).reshape(out.shape[1], -1)
    feats, side = model.w_reduce @ out, (-1, h, n * w)
    return out, records, feats.reshape(side), (model.w_classify @ feats).reshape(side)


def _evaluate_and_grad(model: ToyModel, task: ToyTask, labels, use_ccl: bool,
                       cfg: CCLConfig) -> tuple:
    """(metrics, gradients by weight name) of the composite loss on the whole
    batch. The losses see the images side by side, with the (H, n*W) labels
    or their LabelPlan, so the class means are joint across images."""
    n, cin, h, w = task.images.shape
    out, records, f, z = _forward_batch(model, task.images)
    seg, d_z = cross_entropy_seg(z, labels)
    if use_ccl:
        ccl, d_f = ccl_loss(f, labels, cfg, want_grad=True)
        total = seg + ccl.weighted(cfg)
    else:
        ccl, d_f, total = ccl_loss(f, labels, cfg), np.zeros_like(f), seg
    acc = float((z.argmax(axis=0).reshape(h, n, w).transpose(1, 0, 2) == task.labels).mean())
    intra, inter = _feature_stats(ccl.stats)

    d_z, f = d_z.reshape(len(z), -1), f.reshape(len(f), -1)
    d_f = model.w_classify.T @ d_z + d_f.reshape(f.shape)
    d_out = (model.w_reduce.T @ d_f).reshape(-1, h, n, w).transpose(2, 0, 1, 3)
    d_x, d_qkv = _recurrence_backward(records, d_out, model.w_qkv, 2)
    x = task.images.reshape(n, cin, -1)
    grads = {"w_in": (d_x.reshape(n, -1, h * w) @ x.swapaxes(1, 2)).sum(axis=0),
             "w_qkv": d_qkv, "w_reduce": d_f @ out.T, "w_classify": d_z @ f.T}
    return (total, seg, ccl.l_var, ccl.l_dis, ccl.l_reg, acc, intra, inter), grads


def train_toy(task: ToyTask, init_seed: int, epochs: int, use_ccl: bool,
              cfg: CCLConfig, channels: int = 8, reduced_attn: int = 4,
              loops: int = 2, lr: float = 0.05, momentum: float = 0.9) -> TrainResult:
    """Full-batch momentum gradient descent on the composite objective; each
    epoch runs the whole image batch through one attention forward and one
    backward. The losses of every epoch share one LabelPlan of the labels.

    Divergence is recorded, not raised: an epoch whose total loss or any
    gradient is non-finite (epoch 0 included) ends the run with ``failed``
    set and ``fail_epoch`` naming it, and ``metrics`` holds the rows of the
    epochs before it, all finite.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    cin = task.images.shape[1]
    model = ToyModel.init(init_seed, cin, channels, reduced_attn,
                          cfg.reduced_channels, task.num_classes, loops)
    labels = label_plan(task.labels.transpose(1, 0, 2).reshape(task.labels.shape[1], -1))
    result = TrainResult()
    velocity, grads = {}, {}  # no step before the first evaluation
    for epoch in range(epochs + 1):
        for name, grad in grads.items():
            velocity[name] = momentum * velocity.get(name, 0.0) - lr * grad
            setattr(model, name, getattr(model, name) + velocity[name])
        # divergence shows up as inf/nan and is caught by the check below
        with np.errstate(all="ignore"):
            vals, grads = _evaluate_and_grad(model, task, labels, use_ccl, cfg)
        if not (math.isfinite(vals[0]) and all(np.isfinite(g).all() for g in grads.values())):
            result.failed, result.fail_epoch = True, epoch
            return result
        result.metrics.append(EpochMetrics(epoch, *vals))
    return result
