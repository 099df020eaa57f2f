import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crisscross.tensor_core import (
    TensorFormatError,
    TensorLengthError,
    load_tensor,
    save_tensor,
    softmax_axis,
)


class TestSoftmaxAxis:
    def test_uniform(self):
        out = softmax_axis(np.full(5, 3.7), axis=0)
        assert np.allclose(out, 0.2, atol=1e-15)

    def test_direct_evaluation(self):
        out = softmax_axis(np.array([0.0, np.log(3.0)]), axis=0)
        assert out == pytest.approx([0.25, 0.75], abs=1e-15)

    def test_axis_out_of_range(self):
        with pytest.raises(IndexError):
            softmax_axis(np.ones((2, 2)), axis=2)

    @given(x=arrays(np.float64, (4, 3),
                    elements=st.floats(-50, 50)),
           c=st.floats(-100, 100))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, x, c):
        assert np.abs(softmax_axis(x + c, 0) - softmax_axis(x, 0)).max() <= 1e-12

    @given(arrays(np.float64, (5, 2), elements=st.floats(-1e6, 1e6)))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one_and_finite(self, x):
        out = softmax_axis(x, axis=0)
        assert np.isfinite(out).all()
        assert np.abs(out.sum(axis=0) - 1.0).max() <= 1e-12


class TestTensorFile:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        for dtype in (np.float64, np.float32):
            x = rng.normal(size=(3, 4)).astype(dtype)
            path = tmp_path / f"t_{dtype.__name__}.cct"
            save_tensor(x, path)
            y = load_tensor(path)
            assert y.shape == x.shape
            assert y.dtype.itemsize == x.dtype.itemsize
            assert y.tobytes() == x.tobytes()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.cct"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(TensorFormatError) as exc:
            load_tensor(path)
        assert exc.value.offset == 0

    def test_declared_shape_payload_mismatch(self, tmp_path):
        path = tmp_path / "short.cct"
        header = b"CCT1" + bytes([8, 2]) + (2).to_bytes(4, "little") + \
            (3).to_bytes(4, "little")
        path.write_bytes(header + np.zeros(5).tobytes())
        with pytest.raises(TensorLengthError, match="5.*6|6.*5"):
            load_tensor(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.cct"
        path.write_bytes(b"CCT1" + bytes([8, 3]) + bytes(4))
        with pytest.raises(TensorFormatError):
            load_tensor(path)

    def test_bad_width_code(self, tmp_path):
        path = tmp_path / "width.cct"
        path.write_bytes(b"CCT1" + bytes([5, 1]) + (1).to_bytes(4, "little") + bytes(8))
        with pytest.raises(TensorFormatError) as exc:
            load_tensor(path)
        assert exc.value.offset == 4
