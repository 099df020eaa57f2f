"""The names and the fault hook that the benchmark in perfbench/ relies on.

The traced run rebinds library attributes by name and the fault-injected
``verify`` run passes a corrupted gather-table builder to the selftest, so a
refactor that renames one of them, or stops the hook from reaching the
oracle-equivalence suite, breaks ``--trace 1`` or ``--inject-fault``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

from crisscross import cca2d, selftest, toytrain  # noqa: E402
from crisscross.losses import CCLConfig  # noqa: E402
from crisscross.selftest import run_selftest  # noqa: E402


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, *_ in tracing.BINDINGS],
                         ids=[f"{m.__name__}.{a}" for m, a, *_ in tracing.BINDINGS])
def test_traced_binding_resolves(module, attr):
    assert callable(getattr(module, attr, None))


def test_corrupted_gather_table_fails_oracle_equivalence():
    results = {r.name: r for r in run_selftest(
        gather_builder_2d=workloads.corrupt_gather_table_2d)}
    assert not results["oracle-equivalence"].passed


def test_traced_toy_run_records_each_loss_call():
    """A 2-epoch run evaluates the loss 3 times; the traced ``losses.ccl_s``
    and ``losses.ccl_calls`` read zero if the trainer stops calling
    ``toytrain.ccl_loss`` by that name."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        task = toytrain.gen_toy(0, n=2, h=12, w=12, k=3)
        toytrain.train_toy(task, init_seed=1000, epochs=2, use_ccl=True,
                           cfg=CCLConfig())
    finally:
        tracer.uninstall()
    assert [rec[0] for rec in tracer.spans].count("losses.ccl") == 3


def test_attention_workloads_resolve_their_lookups():
    """The attention workloads look up their parameter type, entry points,
    index map and cost functions by name; tracing binds none of these."""
    attention = [wl for wl in workloads.make_workloads().values()
                 if isinstance(wl, workloads.AttentionWorkload)]
    assert [wl.name for wl in attention] == ["rcca2d-large", "rcca3d-volume"]
    for wl in attention:
        assert wl.params_type is wl.module.CCAttentionParams
        assert callable(getattr(wl.module, wl.fwd))
        assert callable(getattr(wl.module, wl.bwd))
        assert callable(wl.index_map)
        assert isinstance(wl.setup(0), wl.module.CCAttentionParams)
        assert wl.cost_rows()[0]["flops_total"] > 0
    assert callable(workloads.costmodel.flops_cc2d)
    assert callable(workloads.costmodel.flops_cc3d)


def test_traced_single_pass_forwards_stay_on_their_layer():
    """A traced single-pass call records one forward span of its own layer:
    ``cca_forward`` must not reach the rebound public ``rcca_forward``, which
    would nest a second span and count its FLOPs twice."""
    rng = np.random.default_rng(0)
    p = cca2d.CCAttentionParams.random(3, 1, rng)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        selftest.cca_forward(rng.normal(size=(3, 2, 3)), p)
        selftest.cca3d_forward(rng.normal(size=(3, 2, 2, 3)), p)
    finally:
        tracer.uninstall()
    forwards = [rec[0] for rec in tracer.spans if rec[0].endswith(".forward")]
    assert forwards == [tracing.FWD2, tracing.FWD3]
