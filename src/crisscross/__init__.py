"""Criss-cross attention library: 2D/3D sparse axial attention, recurrent
aggregation, category consistent loss, brute-force oracles, and an analytic
FLOP/memory cost model."""

from .tensor_core import (
    DimensionError,
    ProjectionWeights,
    TensorFormatError,
    TensorLengthError,
    load_tensor,
    save_tensor,
    softmax_axis,
)
from .cca2d import (
    CCAttentionGrads,
    CCAttentionParams,
    ForwardCache,
    crisscross_index_map,
    rcca_backward,
    rcca_forward,
)
from .cca3d import crisscross_index_map_3d
from .losses import (
    CCLBreakdown,
    CCLConfig,
    ccl_loss,
    class_means,
    cross_entropy_seg,
    phi_var,
    phi_dis,
    total_loss,
)
from .costmodel import (
    CostReport,
    WorkloadSpec,
    flops_cc2d,
    flops_cc3d,
    flops_nonlocal,
    render_report,
)

__all__ = [
    "DimensionError",
    "ProjectionWeights",
    "TensorFormatError",
    "TensorLengthError",
    "load_tensor",
    "save_tensor",
    "softmax_axis",
    "CCAttentionGrads",
    "CCAttentionParams",
    "ForwardCache",
    "crisscross_index_map",
    "rcca_backward",
    "rcca_forward",
    "crisscross_index_map_3d",
    "CCLBreakdown",
    "CCLConfig",
    "ccl_loss",
    "class_means",
    "cross_entropy_seg",
    "phi_var",
    "phi_dis",
    "total_loss",
    "CostReport",
    "WorkloadSpec",
    "flops_cc2d",
    "flops_cc3d",
    "flops_nonlocal",
    "render_report",
]
