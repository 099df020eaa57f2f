"""The four benchmark workloads: generated inputs, one closed-loop operation
each, output checks run outside the timed interval, and fault injection.

Every workload calls the library through module attributes looked up at call
time (``cca2d.rcca_forward``, ``selftest.suite_gradients``, ...), so that the
traced run can rebind those names to span-recording wrappers. The same
workloads can be built over the library under test (``crisscross``) or over
the frozen copy in ``baseline/``, which times the same operation on the same
inputs as a reference.
"""

from __future__ import annotations

import hashlib
import importlib
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from crisscross import costmodel

LIBRARY = "crisscross"   # the library under test, imported from src/
BASELINE = "baseline"    # its frozen copy, imported from this directory

# Random streams derived from the run seed; each purpose gets its own key so
# that, say, drawing check positions never shifts the operation inputs.
_PARAMS, _INPUT, _CHECK = 1, 2, 3

SPOT_POSITIONS = 8     # forward positions checked against the definition per op
SPOT_RTOL = 1e-9       # oracle-equivalence tolerance, relative to max |expected|
BWD_CHECK_EVERY = 8    # directional finite-difference check on timed ops 0, 8, 16, ...
FD_STEP = 1e-6
FD_RTOL = 1e-5         # gradcheck's default tolerance
TOY_SEED_RANGE = 20    # data seeds 0-19: the range the toy-train check was sized on


def rng_for(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, purpose, index])


def library(package: str) -> SimpleNamespace:
    """The modules the workloads call, from ``package``."""
    return SimpleNamespace(**{
        name: importlib.import_module(f"{package}.{name}")
        for name in ("cca2d", "cca3d", "losses", "selftest", "toytrain")})


def checksum(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


class Workload:
    """One closed-loop operation type. Subclasses define the hooks below."""

    name = ""
    why = ""

    def setup(self, seed: int):
        """Parameters shared by every operation of a run."""
        return None

    def make_input(self, seed: int, i: int):
        """The generated input of operation ``i``; deterministic in (seed, i)."""
        raise NotImplementedError

    def run(self, state, inp):
        """One operation: the only code inside the timed interval."""
        raise NotImplementedError

    def check(self, state, inp, out, seed: int, i: int, k: int) -> bool:
        """True when the output of operation ``i``, the ``k``-th timed one,
        is correct."""
        raise NotImplementedError

    def fault_run(self, state, inp):
        """The operation with an injected fault: its output must fail
        ``check``."""
        raise NotImplementedError

    def input_arrays(self, state, inp) -> list:
        """Arrays that identify the inputs, for the input checksum."""
        raise NotImplementedError

    def cost_rows(self) -> list:
        """Cost-model predictions for the attention shapes this workload runs."""
        return []

    def op_counts(self, out) -> dict:
        """Counts read off one operation's result for the traced run."""
        return {}


# ---------------------------------------------------------------------------
# attention forward+backward on one large map or volume

@dataclass
class AttentionInput:
    x: np.ndarray
    d_out: np.ndarray


@dataclass
class AttentionOutput:
    out: np.ndarray
    d_x: np.ndarray
    grads: object   # cca2d.CCAttentionGrads of the library that ran


def attention_cost(shape: tuple, reduced: int, loops: int, itemsize: int = 8) -> dict:
    """Cost-model figures of one recurrent attention forward on ``shape`` =
    (C, H, W) or (C, T, H, W), with training-mode attention bytes.

    ``bytes_moved_computed`` is computed from array sizes, not measured: per
    loop the input is read once, and q, k, v, the gathered k and v copies,
    the scores, the attention weights and the output are each written once
    and read once. Cache reuse and temporaries are ignored.
    """
    c, *spatial = shape
    t, h, w = ([1] + list(spatial))[-3:]
    spec = costmodel.WorkloadSpec(h=h, w=w, t=t, c=c, c_reduced=reduced,
                                  loops=loops, bytes_per_scalar=itemsize,
                                  memory_mode="training")
    if len(spatial) == 3:
        rep, context = costmodel.flops_cc3d(spec), t + h + w - 2
    else:
        rep, context = costmodel.flops_cc2d(spec), h + w - 1
    n = spec.positions
    arrays = n * (2 * reduced + 2 * c + context * (reduced + c + 2))
    return {
        "flops_by_stage": dict(rep.flops_breakdown),
        "flops_total": rep.flops_total,
        "attention_bytes_training": rep.attention_bytes,
        "gathered_v_bytes": c * context * n * itemsize,  # one loop's copy
        "bytes_moved_computed": loops * itemsize * (c * n + 2 * arrays),
    }


def cost_row(label: str, shape: tuple, reduced: int, loops: int,
             runnable: bool) -> dict:
    return {
        "row": label,
        "layer": "cca3d" if len(shape) == 4 else "cca2d",
        "shape": list(shape),
        "reduced_channels": reduced,
        "loops": loops,
        **attention_cost(shape, reduced, loops),
        "runnable_at_this_commit": runnable,
    }


class AttentionWorkload(Workload):
    """``loops`` recurrent criss-cross passes plus the backward pass on a fresh
    float64 input each operation, with fixed parameters per run."""

    def __init__(self, name, why, shape, reduced, loops, module, fwd, bwd,
                 index_map):
        self.name, self.why = name, why
        self.shape, self.reduced, self.loops = shape, reduced, loops
        self.module, self.fwd, self.bwd = module, fwd, bwd
        self.index_map = index_map
        self.layer = module.__name__.rsplit(".", 1)[1]
        self.params_type = module.CCAttentionParams
        self._neighbours = {}

    def setup(self, seed):
        c = self.shape[0]
        # 1/sqrt(C) keeps the scores O(1), so the softmax is not saturated
        return self.params_type.random(c, self.reduced,
                                       rng_for(seed, _PARAMS),
                                       scale=c ** -0.5)

    def make_input(self, seed, i):
        rng = rng_for(seed, _INPUT, i)
        return AttentionInput(x=rng.normal(0.0, 1.0, self.shape),
                              d_out=rng.normal(0.0, 1.0, self.shape))

    def forward(self, x, p):
        return getattr(self.module, self.fwd)(x, p, self.loops)

    def run(self, p, inp):
        out, cache = self.forward(inp.x, p)
        d_x, grads = getattr(self.module, self.bwd)(cache, inp.d_out)
        return AttentionOutput(out, d_x, grads)

    def input_arrays(self, p, inp):
        return [p.wq.weight, p.wk.weight, p.wv.weight, inp.x, inp.d_out]

    def fault_run(self, p, inp):
        res = self.run(p, inp)
        return AttentionOutput(res.out * (1.0 + 1e-6), res.d_x, res.grads)

    def cost_rows(self):
        return [cost_row(self.name, self.shape, self.reduced, self.loops, True)]

    def check(self, p, inp, res, seed, i, k):
        rng = rng_for(seed, _CHECK, i)
        if not self._forward_matches_definition(p, inp.x, res.out, rng):
            return False
        if k % BWD_CHECK_EVERY == 0:
            return self._backward_matches_fd(p, inp, res, rng)
        return True

    # -- forward spot check -------------------------------------------------

    def _neighbour_list(self, pos: int) -> np.ndarray:
        """Flat indices of the criss-cross set of flat position ``pos``, from
        the definitional index map (never from the library's gather table)."""
        nb = self._neighbours.get(pos)
        if nb is None:
            spatial = self.shape[1:]
            u = tuple(int(a) for a in np.unravel_index(pos, spatial))
            context = sum(spatial) - (len(spatial) - 1)
            nb = np.array([np.ravel_multi_index(self.index_map(u, j, *spatial), spatial)
                           for j in range(context)])
            self._neighbours[pos] = nb
        return nb

    def _reference(self, p, x_flat, positions, loops):
        """Output columns of ``loops`` passes at ``positions``, computed one
        position at a time from the attention definition; returns a dict
        position -> (C,) column."""
        if loops == 0:
            return {pos: x_flat[:, pos] for pos in positions}
        needed = sorted({int(n) for pos in positions for n in self._neighbour_list(pos)})
        prev = self._reference(p, x_flat, needed, loops - 1)
        out = {}
        for pos in positions:
            nb = self._neighbour_list(pos)
            xs = np.stack([prev[int(n)] for n in nb], axis=1)  # (C, context)
            scores = (p.wq.weight @ prev[pos]) @ (p.wk.weight @ xs)
            a = np.exp(scores - scores.max())
            a /= a.sum()
            out[pos] = (p.wv.weight @ xs) @ a + prev[pos]
        return out

    def _forward_matches_definition(self, p, x, out, rng):
        n = int(np.prod(self.shape[1:]))
        positions = [int(v) for v in rng.choice(n, SPOT_POSITIONS, replace=False)]
        c = self.shape[0]
        ref = self._reference(p, x.reshape(c, -1), positions, self.loops)
        got = out.reshape(c, -1)
        for pos in positions:
            want = ref[pos]
            err = float(np.abs(got[:, pos] - want).max())
            if not err <= SPOT_RTOL * max(1e-30, float(np.abs(want).max())):
                return False
        return True

    # -- backward directional finite difference -----------------------------

    def _backward_matches_fd(self, p, inp, res, rng):
        """d/dt <d_out, f(x + t dx; W + t dW)> at t=0, central difference
        against the analytic gradients contracted with the same direction."""
        dx = rng.normal(0.0, 1.0, inp.x.shape)
        dws = [rng.normal(0.0, 1.0, w.weight.shape) for w in (p.wq, p.wk, p.wv)]

        def f(t):
            pt = self.params_type(*(
                type(w)(w.weight + t * d) for w, d in zip((p.wq, p.wk, p.wv), dws)))
            out, _ = self.forward(inp.x + t * dx, pt)
            return float(np.sum(inp.d_out * out))

        fd = (f(FD_STEP) - f(-FD_STEP)) / (2.0 * FD_STEP)
        g = res.grads
        analytic = float(np.sum(res.d_x * dx) + np.sum(g.d_wq * dws[0])
                         + np.sum(g.d_wk * dws[1]) + np.sum(g.d_wv * dws[2]))
        return abs(analytic - fd) <= FD_RTOL * max(1.0, abs(analytic), abs(fd))


# ---------------------------------------------------------------------------
# toy training run

TOY_EPOCHS = 60


class ToyTrainWorkload(Workload):
    name = "toy-train"
    why = ("the train-toy CLI run: 12x12 grids, so per-call costs dominate "
           "(gather rebuilds, the ccl_loss pixel loop, np.add.at on small arrays)")

    def __init__(self, lib):
        self.lib = lib

    def setup(self, seed):
        return self.lib.losses.CCLConfig(phi_variant="piecewise")

    def make_input(self, seed, i):
        # the CLI's consecutive-seed scheme, kept inside the range 0-19
        return (seed + i) % TOY_SEED_RANGE

    def run(self, cfg, data_seed):
        toytrain = self.lib.toytrain
        task = toytrain.gen_toy(data_seed, n=2, h=12, w=12, k=3)
        return toytrain.train_toy(task, init_seed=data_seed + 1000,
                                  epochs=TOY_EPOCHS, use_ccl=True, cfg=cfg)

    def check(self, cfg, data_seed, result, seed, i, k):
        m = result.metrics
        return (not result.failed and len(m) == TOY_EPOCHS + 1
                and math.isfinite(m[-1].total) and m[-1].total < m[0].total)

    def fault_run(self, cfg, data_seed):
        result = self.run(cfg, data_seed)
        result.metrics[-1].total = float("nan")
        return result

    def input_arrays(self, cfg, data_seed):
        task = self.lib.toytrain.gen_toy(data_seed, n=2, h=12, w=12, k=3)
        return [task.images, task.labels]

    def op_counts(self, result):
        return {"toytrain.epochs_done": len(result.metrics) - 1}

    def cost_rows(self):
        # one attention forward per image per loss evaluation
        row = cost_row("toy-train, one rcca_forward", (8, 12, 12), 4, 2, True)
        row["forwards_per_op"] = 2 * (TOY_EPOCHS + 1)
        return [row]


# ---------------------------------------------------------------------------
# the six selftest suites

def corrupt_gather_table_2d(h: int, w: int) -> np.ndarray:
    """A gather table whose every entry points at the next flat position."""
    cca2d = importlib.import_module(f"{LIBRARY}.cca2d")
    return (cca2d.build_gather_table_2d(h, w) + 1) % (h * w)


SUITES = ("oracle_equivalence", "normalization", "degeneration", "gradients",
          "propagation", "loss_fidelity")


class VerifyWorkload(Workload):
    """``crisscross selftest``: the six suites at their default seeds.

    The suites are not reseeded from the run seed: at seeds 100041 and
    100175, ``suite_propagation`` reports an R=2 influence density of 0.986
    instead of 1 (a finite-difference sensitivity below its 1e-12
    threshold), so a reseeded run would count failures of the suite itself.
    """

    name = "verify"
    why = ("the selftest CLI: thousands of finite-difference forwards on 2x2x3 "
           "to 3x4 inputs plus scalar-loop oracles, so per-call set-up shows")

    def __init__(self, lib):
        self.lib = lib

    def make_input(self, seed, i):
        return None

    def run(self, state, inp):
        return self.lib.selftest.run_selftest()

    def fault_run(self, state, inp):
        return self.lib.selftest.run_selftest(
            gather_builder_2d=corrupt_gather_table_2d)

    def check(self, state, inp, results, seed, i, k):
        return len(results) == len(SUITES) and all(r.passed for r in results)

    def input_arrays(self, state, inp):
        return []


def make_workloads(package: str = LIBRARY) -> dict:
    """Fresh workload objects by name over the library ``package`` (the
    attention workloads cache neighbour lists per instance)."""
    lib = library(package)
    cca2d, cca3d = lib.cca2d, lib.cca3d
    return {w.name: w for w in (
        ToyTrainWorkload(lib),
        AttentionWorkload(
            "rcca2d-large",
            "R=2 forward+backward on a (64,48,48) map: bound by the ~112 MB "
            "gathered V copy and the np.add.at scatter; no losses or training",
            (64, 48, 48), 8, 2, cca2d, "rcca_forward", "rcca_backward",
            cca2d.crisscross_index_map),
        AttentionWorkload(
            "rcca3d-volume",
            "R=2 3D forward+backward on a (32,8,24,24) volume: the only "
            "workload that runs cca3d at size, with its 3D table build",
            (32, 8, 24, 24), 4, 2, cca3d, "rcca3d_forward", "rcca3d_backward",
            cca3d.crisscross_index_map_3d),
        VerifyWorkload(lib),
    )}


PAPER_ROW = cost_row("paper shape 97x97 (cost only, not allocated)",
                     (512, 97, 97), 64, 2, runnable=False)
