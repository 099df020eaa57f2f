"""Span recording for the traced run.

Nothing in ``src/`` knows about tracing. Instead, ``Tracer.install`` rebinds
the public names each caller module imports (``toytrain.rcca_forward``,
``cca2d.build_gather_table_2d``, ``selftest.cca_naive``, ...) to wrappers that
record a span around the call, and ``Tracer.uninstall`` puts the originals
back. Spans stay in memory as ``[name, start, end, parent, op]`` and are
written once, at the end of the run.

A span's self time is its duration minus the durations of its direct child
spans; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

from crisscross import cca2d, cca3d, gradcheck, selftest, toytrain

from workloads import SUITES, attention_cost

# Span names. The per-layer metrics are aggregated from these.
FWD2, BWD2, GATHER2 = "cca2d.forward", "cca2d.backward", "cca2d.gather_build"
FWD3, BWD3, GATHER3 = "cca3d.forward", "cca3d.backward", "cca3d.gather_build"
SOFTMAX = "tensor_core.softmax"
OP = "op"
SPAN_FIELDS = ["name", "start", "end", "parent", "op"]


def _loops_at(index):
    """Reads the loop count of a forward call from positional ``index``, or
    1 for the single-pass entry points (``index`` None)."""
    return lambda args: 1 if index is None else args[index]


# (module, attribute, span name, loop-count reader for forward spans,
#  extra per-call counter). Losses are traced at the toytrain boundary only:
# gradcheck's finite-difference calls into the losses count as its own
# self time.
BINDINGS = [
    (toytrain, "gen_toy", "toytrain.gen", None, None),
    (toytrain, "train_toy", "toytrain.train", None, None),
    (toytrain, "rcca_forward", FWD2, _loops_at(2), None),
    (toytrain, "rcca_backward", BWD2, None, None),
    (toytrain, "ccl_loss", "losses.ccl", None, None),
    (toytrain, "cross_entropy_seg", "losses.ce", None, None),
    (cca2d, "rcca_forward", FWD2, _loops_at(2), None),
    (cca2d, "rcca_backward", BWD2, None, None),
    (cca2d, "build_gather_table_2d", GATHER2, None, None),
    (cca2d, "softmax_axis", SOFTMAX, None, None),
    (cca3d, "rcca3d_forward", FWD3, _loops_at(2), None),
    (cca3d, "rcca3d_backward", BWD3, None, None),
    (cca3d, "build_gather_table_3d", GATHER3, None, None),
    (selftest, "cca_forward", FWD2, _loops_at(None), None),
    (selftest, "rcca_forward", FWD2, _loops_at(2), None),
    (selftest, "_recurrent_forward", FWD2, _loops_at(2), None),
    (selftest, "cca3d_forward", FWD3, _loops_at(None), None),
    (selftest, "build_gather_table_2d", GATHER2, None, None),
    (selftest, "cca_naive", "oracles.naive", None, None),
    (selftest, "cca3d_naive", "oracles.naive", None, None),
    (selftest, "influence_scan", "oracles.influence_scan", None, None),
    (gradcheck, "default_suite", "gradcheck.suite", None, None),
    (gradcheck, "rcca_forward", FWD2, _loops_at(2), "gradcheck.forward_calls"),
    (gradcheck, "rcca_backward", BWD2, None, None),
    (gradcheck, "rcca3d_forward", FWD3, _loops_at(2), "gradcheck.forward_calls"),
    (gradcheck, "rcca3d_backward", BWD3, None, None),
] + [(selftest, f"suite_{suite}", f"selftest.{suite}", None, None)
     for suite in SUITES]


class Tracer:
    """In-memory span recorder plus per-call counters."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, op id]
        self._stack = []
        self.op = None
        self.ops = 0
        self.counts = defaultdict(float)
        self.max_attention_bytes = 0
        self._saved = []
        self._cost_cache = {}

    def wrap(self, fn, name, loops_of=None, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if loops_of is not None:
                self._count_forward(name, args, loops_of(args))
            if counter is not None:
                self.counts[counter] += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def _count_forward(self, name, args, loops):
        x, p = args[0], args[1]
        key = (x.shape, x.itemsize, p.reduced_channels, loops)
        cost = self._cost_cache.get(key)
        if cost is None:
            cost = self._cost_cache[key] = attention_cost(
                x.shape, p.reduced_channels, loops, x.itemsize)
        layer = name.split(".")[0]
        self.counts[f"{layer}.flops"] += cost["flops_total"]
        self.counts[f"{layer}.bytes"] += cost["bytes_moved_computed"]
        self.max_attention_bytes = max(self.max_attention_bytes,
                                       cost["attention_bytes_training"])

    def install(self):
        for module, attr, name, loops_of, counter in BINDINGS:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self.wrap(orig, name, loops_of, counter))

    def uninstall(self):
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def run_op(self, op_id, fn, *args):
        """Run ``fn(*args)`` as one traced operation under a root span."""
        self.op = op_id
        self.ops += 1
        self.install()
        try:
            return self.wrap(fn, OP)(*args)
        finally:
            self.uninstall()
            self.op = None

    # -- aggregation --------------------------------------------------------

    def totals(self) -> tuple:
        """(self time by name, inclusive time by name, calls by name,
        softmax time by parent name)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, incl_s = defaultdict(float), defaultdict(float)
        calls = defaultdict(int)
        softmax_under = defaultdict(float)
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            self_s[name] += dur - child[idx]
            incl_s[name] += dur
            calls[name] += 1
            if name == SOFTMAX and parent >= 0:
                softmax_under[self.spans[parent][0]] += dur
        return self_s, incl_s, calls, softmax_under

    def write(self, path, header: dict):
        """One JSON header line, then one JSON list per span."""
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def per_layer_metrics(tracer: Tracer, peak_over_model: dict,
                      trace_overhead: float) -> dict:
    """Per-operation layer metrics as {name: (value, unit)}.

    Every ``_s`` metric is self time per traced operation, except
    ``selftest.<suite>_s``, which is each suite's inclusive time, so that the
    six add up to a verify operation. ``peak_over_model``
    maps "cca2d"/"cca3d" to the tracemalloc peak of one forward+backward over
    its training-mode attention bytes, 0 where the workload did not measure it.
    """
    self_s, incl_s, calls, softmax_under = tracer.totals()
    n = max(1, tracer.ops)
    counts = tracer.counts
    m = {}
    for layer, fwd, bwd, gather in (("cca2d", FWD2, BWD2, GATHER2),
                                    ("cca3d", FWD3, BWD3, GATHER3)):
        compute_s = self_s[fwd] + softmax_under[fwd]
        m[f"{layer}.gather_build_calls"] = (calls[gather] / n, "calls/op")
        m[f"{layer}.gather_build_s"] = (self_s[gather] / n, "s/op")
        m[f"{layer}.forward_s"] = (self_s[fwd] / n, "s/op")
        m[f"{layer}.backward_s"] = (self_s[bwd] / n, "s/op")
        m[f"{layer}.bwd_over_fwd"] = (_ratio(incl_s[bwd], incl_s[fwd]), "x")
        m[f"{layer}.forward_gflops"] = (
            _ratio(counts[f"{layer}.flops"], compute_s) / 1e9, "GFLOP/s")
        m[f"{layer}.flops_per_byte"] = (
            _ratio(counts[f"{layer}.flops"], counts[f"{layer}.bytes"]), "flop/B")
        m[f"{layer}.peak_over_model"] = (peak_over_model.get(layer, 0.0), "x")
    m["tensor_core.softmax_calls"] = (calls[SOFTMAX] / n, "calls/op")
    m["tensor_core.softmax_s"] = (self_s[SOFTMAX] / n, "s/op")
    m["losses.ccl_calls"] = (calls["losses.ccl"] / n, "calls/op")
    m["losses.ccl_s"] = (self_s["losses.ccl"] / n, "s/op")
    m["losses.ce_s"] = (self_s["losses.ce"] / n, "s/op")
    m["toytrain.gen_s"] = (self_s["toytrain.gen"] / n, "s/op")
    m["toytrain.train_self_s"] = (self_s["toytrain.train"] / n, "s/op")
    m["toytrain.epochs_done"] = (counts["toytrain.epochs_done"] / n, "epochs/op")
    m["oracles.naive_s"] = (self_s["oracles.naive"] / n, "s/op")
    m["oracles.influence_scan_s"] = (self_s["oracles.influence_scan"] / n, "s/op")
    m["gradcheck.suite_s"] = (self_s["gradcheck.suite"] / n, "s/op")
    m["gradcheck.forward_calls"] = (counts["gradcheck.forward_calls"] / n, "calls/op")
    for suite in SUITES:
        m[f"selftest.{suite}_s"] = (incl_s[f"selftest.{suite}"] / n, "s/op")
    m["costmodel.flops_per_op"] = (
        (counts["cca2d.flops"] + counts["cca3d.flops"]) / n, "flop/op")
    m["costmodel.attention_bytes"] = (float(tracer.max_attention_bytes), "B")
    m["trace_overhead"] = (trace_overhead, "x")
    return m


def self_time_shares(tracer: Tracer) -> dict:
    """Each span name's share of all self time, largest first."""
    self_s = tracer.totals()[0]
    total = sum(self_s.values()) or 1.0
    return dict(sorted(((k, v / total) for k, v in self_s.items()),
                       key=lambda kv: -kv[1]))
