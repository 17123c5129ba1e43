import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgnn.landscape import FEATURE_KIND, sample_directions
from capgnn.linalg import CsrMatrix, lp_norm, make_rng, spmm

from oracles import csr_from_dense, csr_identity, csr_to_dense


def spmm_oracle(a: CsrMatrix, b: np.ndarray) -> np.ndarray:
    """Naive dense triple loop; the independent reference for spmm."""
    dense = csr_to_dense(a)
    out = np.zeros((a.rows, b.shape[1]))
    for i in range(a.rows):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.cols):
                acc += dense[i, k] * b[k, j]
            out[i, j] = acc
    return out


def random_csr(rng, rows, cols, density=0.4) -> CsrMatrix:
    mask = rng.random((rows, cols)) < density
    vals = rng.standard_normal((rows, cols)) * mask
    return csr_from_dense(vals)


class TestSpmm:
    def test_identity_leaves_dense_unchanged(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = spmm(csr_identity(3), b)
        assert np.array_equal(out, b)

    def test_permutation_swap(self):
        a = csr_from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = spmm(a, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(out, np.array([[3.0, 4.0], [1.0, 2.0]]))

    def test_zero_row_gives_zero_output_row(self):
        a = csr_from_dense(np.array([[1.0, 2.0], [0.0, 0.0]]))
        out = spmm(a, np.arange(6.0).reshape(2, 3))
        assert np.array_equal(out[1], np.zeros(3))
        assert out[0, 0] != 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_triple_loop_oracle(self, seed):
        rng = make_rng(seed)
        a = random_csr(rng, 8, 8)
        b = rng.standard_normal((8, 8))
        got = spmm(a, b)
        want = spmm_oracle(a, b)
        denom = np.maximum(np.abs(want), 1.0)
        assert np.max(np.abs(got - want) / denom) <= 1e-12

    def test_dimension_mismatch_names_both_shapes(self):
        a = csr_identity(3)
        with pytest.raises(ValueError, match=r"3x3 @ 2x2"):
            spmm(a, np.zeros((2, 2)))


class TestLpNorm:
    def test_three_four_five(self):
        assert lp_norm(np.array([[3.0, 4.0]]), 2) == pytest.approx(5.0, abs=1e-15)

    def test_max_abs_entry(self):
        assert lp_norm(np.array([[-7.0, 2.0]]), math.inf) == 7.0

    @pytest.mark.parametrize("p", [2, math.inf])
    def test_nan_entry_gives_nan(self, p):
        assert math.isnan(lp_norm(np.array([[1.0, -np.inf], [np.nan, 2.0]]), p))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_max_abs_of_zeros_is_positive_zero(self, zero):
        # np.maximum(m.max(), -m.min()) would give -0.0 here, which prints
        # differently in a PGD trace.
        got = lp_norm(np.full((2, 3), zero), math.inf)
        assert math.copysign(1.0, got) == 1.0

    @pytest.mark.parametrize("p", [2, math.inf])
    def test_zero_matrix(self, p):
        assert lp_norm(np.zeros((3, 2)), p) == 0.0

    def test_unsupported_order(self):
        with pytest.raises(ValueError, match="norm order"):
            lp_norm(np.ones((2, 2)), 1)

    def test_empty_matrix(self):
        with pytest.raises(ValueError):
            lp_norm(np.zeros((0, 3)), 2)

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(-1e3, 1e3, allow_nan=False).filter(lambda c: abs(c) > 1e-6),
    )
    @settings(max_examples=50, deadline=None)
    def test_l2_homogeneity(self, seed, c):
        m = make_rng(seed).standard_normal((4, 5))
        assert lp_norm(c * m, 2) == pytest.approx(abs(c) * lp_norm(m, 2), rel=1e-12)


def feature_direction(rows: int, cols: int, seed: int) -> np.ndarray:
    """One Gaussian direction with the norm of an all-ones rows x cols matrix."""
    dirs = sample_directions(np.ones((rows, cols)), FEATURE_KIND, 1, make_rng(seed))
    return dirs.directions[0]


class TestGaussianSampling:
    def test_same_seed_bit_identical(self):
        a = feature_direction(7, 5, 42)
        b = feature_direction(7, 5, 42)
        assert a.tobytes() == b.tobytes()
        # The draw is the generator's own stream, scaled to the source norm.
        g = make_rng(42).standard_normal((7, 5))
        want = g * (lp_norm(np.ones((7, 5)), 2) / lp_norm(g, 2))
        assert a.tobytes() == want.tobytes()

    def test_different_seeds_differ(self):
        a = feature_direction(4, 4, 1)
        b = feature_direction(4, 4, 2)
        assert (a != b).any()

    def test_sample_statistics(self):
        # The norm of ones((100, 100)) is 100, so entries have unit RMS.
        m = feature_direction(100, 100, 123)
        assert abs(m.mean()) < 0.05
        assert abs(m.std() - 1.0) < 0.05
        assert abs(np.mean(np.abs(m) < 1.0) - 0.6827) < 0.02  # Gaussian mass


class TestCsrValidation:
    def test_canonical_round_trip(self):
        rng = make_rng(9)
        dense = rng.standard_normal((6, 4)) * (rng.random((6, 4)) < 0.5)
        m = csr_from_dense(dense)
        assert np.array_equal(csr_to_dense(m), dense)
        assert m.nnz == int((dense != 0).sum())

    def test_rejects_unsorted_columns(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CsrMatrix(2, 3, [0, 2, 2], [1, 0], [1.0, 2.0])

    def test_rejects_duplicate_column(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CsrMatrix(1, 3, [0, 2], [1, 1], [1.0, 2.0])

    def test_rejects_bad_row_ptr(self):
        with pytest.raises(ValueError, match="row_ptr"):
            CsrMatrix(2, 2, [0, 2], [0, 1], [1.0, 1.0])
        with pytest.raises(ValueError, match="non-decreasing"):
            CsrMatrix(3, 2, [0, 2, 1, 2], [0, 1], [1.0, 1.0])

    def test_rejects_column_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            CsrMatrix(1, 2, [0, 1], [2], [1.0])

    def test_from_coo_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            CsrMatrix.from_coo(2, 2, [0, 0], [1, 1], [1.0, 2.0])

    def test_from_coo_handles_empty_rows(self):
        m = CsrMatrix.from_coo(4, 3, [0, 3], [2, 0], [5.0, 7.0])
        dense = np.zeros((4, 3))
        dense[0, 2] = 5.0
        dense[3, 0] = 7.0
        assert np.array_equal(csr_to_dense(m), dense)

    def test_arrays_are_frozen(self):
        m = csr_identity(3)
        with pytest.raises(ValueError):
            m.values[0] = 2.0
