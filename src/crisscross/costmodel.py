"""Closed-form FLOP and attention-buffer memory model for dense non-local
attention and 2D/3D recurrent criss-cross attention.

Conventions: one multiply-add = 2 FLOPs; softmax = 3 FLOPs per element (exp,
accumulate, divide), the stabilizing max-subtraction is not counted. The
memory model covers the score/weight tensors only: the attention map A per
loop ("inference" mode) or both D and A ("training" mode). Default channel
widths C=512, C'=64 are back-derived: they are the unique pair reproducing
the reported 8.3/16.5/24.7 GFLOPs recurrent totals and the 108 GFLOPs dense
total simultaneously.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class WorkloadSpec:
    h: int
    w: int
    t: int = 1
    c: int = 512
    c_reduced: int = 64
    loops: int = 1
    bytes_per_scalar: int = 4
    memory_mode: str = "inference"  # "inference": A only; "training": D and A

    def __post_init__(self):
        if min(self.h, self.w, self.t, self.c, self.c_reduced, self.loops) < 1:
            raise ValueError("all workload extents must be positive")
        if self.c_reduced >= self.c:
            raise ValueError(f"reduced channels {self.c_reduced} must be < {self.c}")
        if self.bytes_per_scalar not in (4, 8):
            raise ValueError(f"bytes_per_scalar must be 4 or 8, got {self.bytes_per_scalar}")
        if self.memory_mode not in ("inference", "training"):
            raise ValueError(f"unknown memory mode {self.memory_mode!r}")

    @property
    def positions(self) -> int:
        return self.t * self.h * self.w


@dataclass
class CostReport:
    method: str
    spec: WorkloadSpec
    flops_breakdown: dict = field(default_factory=dict)
    attention_bytes: int = 0
    ratio_vs_nonlocal: float | None = None

    @property
    def flops_total(self) -> int:
        return sum(self.flops_breakdown.values())

    @property
    def gflops(self) -> float:
        return self.flops_total / 1e9

    @property
    def attn_mb(self) -> float:
        return self.attention_bytes / 2**20


def _stage_flops(n: int, context: int, c: int, cr: int) -> dict:
    """Per-loop stage counts for an attention pass with `context` keys per
    position over `n` positions."""
    return {
        "projections": 2 * n * c * cr * 2 + n * c * c * 2,
        "affinity": n * context * cr * 2,
        "softmax": 3 * n * context,
        "aggregation": n * context * c * 2 + n * c,
    }


def _attention_buffer_bytes(spec: WorkloadSpec, n: int, context: int, loops: int) -> int:
    tensors = 2 if spec.memory_mode == "training" else 1
    return tensors * loops * n * context * spec.bytes_per_scalar


def _recurrent_cost(spec: WorkloadSpec, method: str, axes: tuple) -> CostReport:
    """Recurrent criss-cross cost over the grid ``axes``: Q/K/V recomputed
    every loop, N = prod(axes) positions with sum(axes) - rank + 1 keys each."""
    n, context = math.prod(axes), sum(axes) - len(axes) + 1
    per_loop = _stage_flops(n, context, spec.c, spec.c_reduced)
    return CostReport(
        method=f"{method}(R={spec.loops})",
        spec=spec,
        flops_breakdown={k: spec.loops * v for k, v in per_loop.items()},
        attention_bytes=_attention_buffer_bytes(spec, n, context, spec.loops),
    )


def flops_cc2d(spec: WorkloadSpec) -> CostReport:
    """Recurrent 2D criss-cross attention cost: context size H+W-1 over
    N = H*W positions. A spec with t != 1 is a volume: use flops_cc3d."""
    if spec.t != 1:
        raise ValueError(f"flops_cc2d models a (H, W) map, got t={spec.t}; "
                         "use flops_cc3d for a volume")
    return _recurrent_cost(spec, "RCCA", (spec.h, spec.w))


def flops_nonlocal(spec: WorkloadSpec) -> CostReport:
    """Dense non-local attention cost: context size N = H*W, single pass."""
    n = spec.h * spec.w
    return CostReport(
        method="NL",
        spec=spec,
        flops_breakdown=_stage_flops(n, n, spec.c, spec.c_reduced),
        attention_bytes=_attention_buffer_bytes(spec, n, n, 1),
        ratio_vs_nonlocal=1.0,
    )


def flops_cc3d(spec: WorkloadSpec) -> CostReport:
    """Recurrent 3D criss-cross attention cost: context size T+H+W-2 over
    N = T*H*W positions; degenerates to the 2D model at T=1."""
    return _recurrent_cost(spec, "RCCA3D", (spec.t, spec.h, spec.w))


_COLUMNS = ("method", "loops", "h", "w", "t", "c", "c_reduced",
            "gflops", "attn_mb", "ratio_vs_nl")


def _rows(reports) -> list:
    rows = []
    for rep in reports:
        s = rep.spec
        ratio = "" if rep.ratio_vs_nonlocal is None else f"{rep.ratio_vs_nonlocal:.4f}"
        rows.append((rep.method, str(s.loops), str(s.h), str(s.w), str(s.t),
                     str(s.c), str(s.c_reduced), f"{rep.gflops:.3f}",
                     f"{rep.attn_mb:.3f}", ratio))
    return rows


def render_report(reports, format: str = "md") -> str:
    """Render CostReports as CSV or an aligned Markdown table."""
    rows = _rows(reports)
    if format == "csv":
        out = io.StringIO()
        out.write(",".join(_COLUMNS) + "\r\n")
        for row in rows:
            out.write(",".join(row) + "\r\n")
        return out.getvalue()
    if format == "md":
        widths = [max(len(c), *(len(r[i]) for r in rows)) if rows else len(c)
                  for i, c in enumerate(_COLUMNS)]
        def line(cells):
            return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
        parts = [line(_COLUMNS),
                 "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
        parts += [line(r) for r in rows]
        return "\n".join(parts) + "\n"
    raise ValueError(f"unknown report format {format!r}")
