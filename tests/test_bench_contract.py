"""The names and the fault hook that the benchmark in perfbench/ relies on.

The traced run rebinds library attributes by name and the fault-injected
``verify`` run passes a corrupted gather-table builder to the selftest, so a
refactor that renames one of them, or stops the hook from reaching the
oracle-equivalence suite, breaks ``--trace 1`` or ``--inject-fault``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

from crisscross import toytrain  # noqa: E402
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
