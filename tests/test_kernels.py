import numpy as np
import pytest

from reset_sde import SpecError, _kernels
from reset_sde._kernels import _walk_py


def naive_walk(x0, x_reset, increments, flags):
    x = x0
    out = [x0]
    for dw, reset in zip(increments, flags):
        x = x_reset if reset else x + dw
        out.append(x)
    return np.array(out)


def random_case(rng, m, reset_prob):
    dw = rng.standard_normal(m)
    flags = (rng.random(m) < reset_prob).astype(np.uint8)
    return dw, flags


class TestSemantics:
    @pytest.mark.parametrize("reset_prob", [0.0, 0.05, 0.5, 1.0])
    def test_matches_naive_reference(self, reset_prob):
        rng = np.random.default_rng(9)
        dw, flags = random_case(rng, 4000, reset_prob)
        got = _kernels.walk(0.3, -1.5, dw, flags)
        assert np.allclose(got, naive_walk(0.3, -1.5, dw, flags),
                           rtol=1e-10, atol=1e-9)

    def test_empty_increments(self):
        out = _kernels.walk(1.2, 0.0, np.empty(0), np.empty(0, dtype=np.uint8))
        assert np.array_equal(out, [1.2])

    def test_reset_points_exact(self):
        rng = np.random.default_rng(2)
        dw, flags = random_case(rng, 1000, 0.1)
        out = _kernels.walk(0.0, 7.25, dw, flags)
        assert np.all(out[1:][flags.astype(bool)] == 7.25)

    def test_batch_rows_equal_single_calls(self):
        rng = np.random.default_rng(5)
        dw = rng.standard_normal((40, 300))
        flags = (rng.random((40, 300)) < 0.07).astype(np.uint8)
        batch = _kernels.walk_batch(-0.5, 2.0, dw, flags)
        for i in (0, 13, 39):
            assert np.array_equal(batch[i], _kernels.walk(-0.5, 2.0, dw[i], flags[i]))

    def test_shape_mismatch_is_a_spec_error(self):
        with pytest.raises(SpecError, match="shape mismatch"):
            _walk_py.resetting_walk(0.0, 0.0, np.zeros(5), np.zeros(4, dtype=np.uint8),
                                    np.empty(6))
        with pytest.raises(SpecError, match="shape mismatch"):
            _walk_py.resetting_walk_batch(0.0, 0.0, np.zeros((2, 5)),
                                          np.zeros((2, 4), dtype=np.uint8),
                                          np.empty((2, 6)))
