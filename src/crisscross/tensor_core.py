"""Dense tensor primitives: projection weights, axis softmax, CCT1 file I/O.

Tensors are plain numpy ndarrays, row-major, channel-first. Default scalar
precision is float64; float32 is a per-run mode selected by constructing or
loading tensors at that width. All operations are pure.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Incompatible tensor extents."""


class TensorFormatError(ValueError):
    """Malformed CCT1 header or payload; carries the failing byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class TensorLengthError(ValueError):
    """CCT1 payload length does not match the declared extents."""


@dataclass(frozen=True)
class ProjectionWeights:
    """Weight matrix of a 1x1 (pointwise) channel projection, no bias."""

    weight: np.ndarray  # (out_channels, in_channels)

    def __post_init__(self):
        w = np.asarray(self.weight)
        if w.ndim != 2:
            raise DimensionError(f"projection weight must be 2-D, got rank {w.ndim}")
        if w.shape[0] < 1 or w.shape[1] < 1:
            raise DimensionError(f"projection weight extents must be positive, got {w.shape}")
        object.__setattr__(self, "weight", w)

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]


def softmax_axis(x: np.ndarray, axis: int) -> np.ndarray:
    """Exp-normalize along ``axis`` with max-subtraction stabilization."""
    x = np.asarray(x)
    if not -x.ndim <= axis < x.ndim:
        raise IndexError(f"softmax axis {axis} out of range for rank-{x.ndim} tensor")
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    e /= e.sum(axis=axis, keepdims=True)
    return e


_MAGIC = b"CCT1"
_WIDTH_TO_DTYPE = {4: np.dtype("<f4"), 8: np.dtype("<f8")}


def save_tensor(x: np.ndarray, path) -> None:
    """Write ``x`` in the CCT1 format (bit-exact round trip with load_tensor)."""
    x = np.asarray(x)
    if x.ndim < 1:
        raise DimensionError("CCT1 tensors must have rank >= 1")
    if x.ndim > 255:
        raise DimensionError(f"rank {x.ndim} exceeds CCT1 limit of 255")
    width = x.dtype.itemsize
    if width not in _WIDTH_TO_DTYPE:
        raise DimensionError(f"unsupported scalar width {width}; CCT1 stores 4 or 8 bytes")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(bytes([width, x.ndim]))
        for extent in x.shape:
            f.write(struct.pack("<I", extent))
        f.write(np.ascontiguousarray(x, dtype=_WIDTH_TO_DTYPE[width]).tobytes())


def load_tensor(path) -> np.ndarray:
    """Read a CCT1 tensor file written by save_tensor."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 6:
        raise TensorFormatError("file shorter than CCT1 header", offset=len(raw))
    if raw[:4] != _MAGIC:
        raise TensorFormatError(f"bad magic {raw[:4]!r}, expected {_MAGIC!r}", offset=0)
    width = raw[4]
    if width not in _WIDTH_TO_DTYPE:
        raise TensorFormatError(f"bad scalar-width code {width}", offset=4)
    rank = raw[5]
    if rank < 1:
        raise TensorFormatError("rank must be >= 1", offset=5)
    header_end = 6 + 4 * rank
    if len(raw) < header_end:
        raise TensorFormatError("truncated extent list", offset=len(raw))
    shape = struct.unpack(f"<{rank}I", raw[6:header_end])
    if any(e < 1 for e in shape):
        raise TensorFormatError(f"zero extent in shape {shape}", offset=6)
    count = int(np.prod(shape))
    payload = raw[header_end:]
    if len(payload) != count * width:
        raise TensorLengthError(
            f"payload holds {len(payload) // width} scalars, header declares {count}"
        )
    data = np.frombuffer(payload, dtype=_WIDTH_TO_DTYPE[width]).copy()
    return data.reshape(shape)
