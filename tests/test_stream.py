import numpy as np
import pytest

from test_simulate import single_path_scene
from wivision import PathHypothesis, simulate
from wivision.stream import CsiStream, block_len, degrade_stream


class TestCsiStreamValidation:
    @pytest.fixture
    def arrays(self, small_geom):
        shape = (5, small_geom.n_rx, small_geom.n_tx, small_geom.n_subcarriers)
        return np.arange(5, dtype=np.int64) * 1000, np.ones(shape, dtype=complex)

    def test_valid_stream(self, cfg, small_geom, arrays):
        stream = CsiStream(cfg, small_geom, *arrays)
        assert len(stream) == 5
        assert stream.timestamps_ns.dtype == np.int64
        assert stream.tensors.dtype == complex

    def test_wrong_tensor_shape(self, cfg, small_geom, arrays):
        ts, tensors = arrays
        with pytest.raises(ValueError, match=r"packet 0: tensor shape .* geometry"):
            CsiStream(cfg, small_geom, ts, tensors[:, :, :1])
        with pytest.raises(ValueError, match="packet 4: 5 timestamps but 4 tensors"):
            CsiStream(cfg, small_geom, ts, tensors[:4])

    # -2**63 + 5 - 2000 wraps to a positive int64
    @pytest.mark.parametrize("value", [2000, 1500, -2**63 + 5])
    def test_non_increasing_timestamps(self, cfg, small_geom, arrays, value):
        ts, tensors = arrays
        ts[3:] = value  # packets 3 and 4 are both at fault
        with pytest.raises(ValueError, match="packet 3: timestamp"):
            CsiStream(cfg, small_geom, ts, tensors)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_values(self, cfg, small_geom, arrays, value):
        ts, tensors = arrays
        tensors[2, 1, 0, 3] = value
        tensors[4, 0, 0, 0] = value
        with pytest.raises(ValueError, match="packet 2: tensor contains non-finite"):
            CsiStream(cfg, small_geom, ts, tensors)

    def test_non_finite_value_in_a_later_block(self, cfg, small_geom):
        n = 2 * block_len(small_geom.dim) + 7
        shape = (n, small_geom.n_rx, small_geom.n_tx, small_geom.n_subcarriers)
        tensors = np.ones(shape, dtype=np.complex64)
        tensors[n - 3, 1, 1, 7] = np.nan
        with pytest.raises(ValueError, match=f"packet {n - 3}: tensor contains non-finite"):
            CsiStream(cfg, small_geom, np.arange(n) * 1000, tensors)

    @pytest.mark.parametrize("dtype, kept", [(np.complex64, np.complex64),
                                             (np.complex128, np.complex128),
                                             (np.float32, np.complex128),
                                             (np.int64, np.complex128)])
    def test_complex_precision_is_kept(self, cfg, small_geom, arrays, dtype, kept):
        ts, tensors = arrays
        given = np.ones(tensors.shape, dtype=dtype)
        stream = CsiStream(cfg, small_geom, ts, given)
        assert stream.tensors.dtype == kept
        assert np.shares_memory(stream.tensors, given) == (dtype == kept)

    def test_arrays_read_only(self, cfg, small_geom, arrays):
        stream = CsiStream(cfg, small_geom, *arrays)
        with pytest.raises(ValueError, match="read-only"):
            stream.tensors[0, 0, 0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            stream.timestamps_ns[0] = 7


class TestDegradeStream:
    def test_collapses_tx_and_subcarriers(self, cfg, full_geom):
        stream = simulate(single_path_scene(PathHypothesis(60, 45), duration=0.01),
                          cfg, full_geom)
        degraded = degrade_stream(stream)
        assert degraded.geometry.n_tx == 1
        assert degraded.geometry.n_subcarriers == 1
        assert degraded.tensors.shape == (10, full_geom.n_rx, 1, 1)
        np.testing.assert_array_equal(degraded.tensors[:, :, 0, 0],
                                      stream.tensors[:, :, 0, 0])
