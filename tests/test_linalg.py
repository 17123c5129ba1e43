import math
import multiprocessing
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from capgnn import linalg
from capgnn.landscape import FEATURE_KIND, sample_directions
from capgnn.linalg import CsrMatrix, lp_norm, make_rng, spmm

from conftest import row_blocks
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


def scipy_product(a: CsrMatrix, b: np.ndarray) -> np.ndarray:
    """The public scipy product on a fresh handle to ``a``'s arrays."""
    return sp.csr_matrix((a.values, a.col_idx, a.row_ptr), shape=a.shape) @ b


def with_empty_rows(rng, rows, cols) -> CsrMatrix:
    dense = rng.standard_normal((rows, cols)) * (rng.random((rows, cols)) < 0.3)
    dense[::3] = 0.0
    return csr_from_dense(dense)


# name -> matrix; each is multiplied in 1-4 row blocks.
BLOCK_CASES = {
    "empty_rows": lambda rng: with_empty_rows(rng, 50, 40),
    "fewer_rows_than_blocks": lambda rng: with_empty_rows(rng, 2, 40),
    "no_stored_entries": lambda rng: csr_from_dense(np.zeros((6, 40))),
    "one_dense_row": lambda rng: csr_from_dense(
        np.vstack([rng.standard_normal(40), np.zeros((9, 40))])
    ),
}


FLOORS = {"sparse": linalg._MIN_BLOCK, "dense": linalg._MIN_MATMUL}


def matmul_cuts(rows: int, inner: int, cols: int) -> list[int]:
    """The row cuts ``_matmul_rows`` uses for a rows x inner @ inner x cols product."""
    return linalg._row_cuts(rows, inner * cols, linalg._MIN_MATMUL)


def assert_cut_invariants(bounds, rows, row_work, min_work, width) -> None:
    """Cuts strictly increase on multiples of 192 rows; <= width ranges, each >= min_work."""
    assert bounds[0] == 0 and bounds[-1] == rows
    assert len(bounds) - 1 <= max(width, 1)
    assert bounds == [0, 0] or all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
    if len(bounds) > 2:
        assert all(cut % 192 == 0 for cut in bounds[1:-1])
        assert all((hi - lo) * row_work >= min_work for lo, hi in zip(bounds, bounds[1:]))


class TestRowCuts:
    """``_row_cuts`` places the cuts of every row-blocked kernel.

    Its block-count and invariant tests sit with the kernels below
    (``TestSpmmRowBlocks``, ``TestMatmulRows``); both use either floor.
    """

    # (rows, work per row, floor) -> blocks at width 2, for every row-blocked
    # kernel of the shipped workloads: the Pubmed-shaped graph (n=19,717,
    # d=500, 64 hidden, K=3) and the 400-node SBM (d=8, 64 hidden, K=2).
    # A rule change that moves which of them split fails here.
    SHIPPED = {
        "pubmed_sweep_x": (19717, 500, "sparse", 2),
        "pubmed_spmm_hidden": (19717, 64, "sparse", 2),
        "pubmed_spmm_classes": (19717, 3, "sparse", 1),
        "sbm_spmm_hidden": (400, 64, "sparse", 1),
        "pubmed_x_at_w0": (19717, 500 * 64, "dense", 2),
        "pubmed_g_at_w0t": (19717, 64 * 500, "dense", 2),
        "pubmed_h_at_w1": (19717, 64 * 3, "dense", 1),
        "pubmed_g_at_w1t": (19717, 3 * 64, "dense", 1),
        "sbm_x_at_w0": (400, 8 * 64, "dense", 1),
        "sbm_g_at_w0t": (400, 64 * 8, "dense", 1),
        "sbm_h_at_w1": (400, 64 * 2, "dense", 1),
        "sbm_g_at_w1t": (400, 2 * 64, "dense", 1),
        "pubmed_xt_at_g": (500, 19717 * 64, "dense", 2),
        "pubmed_h1t_at_g": (64, 19717 * 3, "dense", 1),
        "sbm_xt_at_g": (8, 400 * 64, "dense", 1),
        "sbm_h1t_at_g": (64, 400 * 2, "dense", 1),
    }

    @pytest.mark.parametrize("case", SHIPPED)
    def test_shipped_kernel_block_counts(self, monkeypatch, case):
        rows, row_work, floor, blocks = self.SHIPPED[case]
        monkeypatch.setattr(linalg, "_width", lambda: 2)
        assert len(linalg._row_cuts(rows, row_work, FLOORS[floor])) - 1 == blocks

    @pytest.mark.parametrize("floor", FLOORS)
    def test_width_is_not_asked_below_two_floors(self, monkeypatch, floor):
        def no_width():
            raise AssertionError("_width called for a one-block output")

        monkeypatch.setattr(linalg, "_width", no_width)
        assert linalg._row_cuts(400, 64, FLOORS[floor]) == [0, 400]  # the SBM
        assert linalg._row_cuts(0, 64, FLOORS[floor]) == [0, 0]


def _spmm_equals(a, b, want, blocks) -> None:
    # Runs in a forked child: exit code 0 means the bytes match.
    with row_blocks(blocks):
        sys.exit(0 if spmm(a, b).tobytes() == want.tobytes() else 1)


class TestSpmmRowBlocks:
    """``spmm`` calls scipy's private ``csr_matvecs`` on row ranges.

    Every block count must give the bytes of the public ``@``; a scipy
    release that moves or changes the kernel fails here.
    """

    @pytest.mark.parametrize("k", [1, 64])
    @pytest.mark.parametrize("blocks", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", BLOCK_CASES)
    def test_bitwise_equal_to_scipy(self, case, blocks, k):
        rng = make_rng(len(case) + k)
        a = BLOCK_CASES[case](rng)
        b = rng.standard_normal((a.cols, k))
        with row_blocks(blocks):
            got = spmm(a, b)
        assert got.tobytes() == scipy_product(a, b).tobytes()

    def test_non_contiguous_operand(self):
        rng = make_rng(8)
        a = with_empty_rows(rng, 50, 40)
        b = rng.standard_normal((40, 128))[:, ::2]
        with row_blocks(3):
            got = spmm(a, b)
        assert got.tobytes() == scipy_product(a, b).tobytes()

    def test_more_blocks_than_cores_under_fast_switching(self):
        rng = make_rng(6)
        a = with_empty_rows(rng, 64, 64)
        b = rng.standard_normal((64, 16))
        want = scipy_product(a, b).tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with row_blocks(8):
                assert all(spmm(a, b).tobytes() == want for _ in range(200))
        finally:
            sys.setswitchinterval(interval)

    def test_forked_child_runs_blocked_spmm_after_the_parent_built_the_pool(self):
        rng = make_rng(7)
        a = with_empty_rows(rng, 30, 20)
        b = rng.standard_normal((20, 8))
        with row_blocks(2):
            want = spmm(a, b)
        assert linalg._pool is not None
        child = multiprocessing.get_context("fork").Process(
            target=_spmm_equals, args=(a, b, want, 2)
        )
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0

    def test_block_count_follows_width_and_floor(self, monkeypatch):
        for min_work in FLOORS.values():
            for row_work in (1, 3, 64, 192, 32_000):
                # The fewest rows with room for two ranges of whole 192-row units.
                two = 2 * 192 * -(-min_work // (192 * row_work))
                monkeypatch.setattr(linalg, "_width", lambda: 2)
                assert linalg._row_cuts(two - 1, row_work, min_work) == [0, two - 1]
                assert linalg._row_cuts(two, row_work, min_work) == [0, two // 2, two]
                assert len(linalg._row_cuts(8 * two, row_work, min_work)) == 3
                monkeypatch.setattr(linalg, "_width", lambda: 1)
                assert linalg._row_cuts(8 * two, row_work, min_work) == [0, 8 * two]


class TestMatmulRows:
    """``_matmul_rows`` splits dense products at aligned cuts above a work floor.

    Only ``_width`` is patched: the floor stays, since small blocks can
    take OpenBLAS's small-matrix path, whose bytes differ.
    """

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize("rows, d", [(4099, 64), (4099, 500), (19717, 64), (19717, 500)])
    def test_h_at_w_bitwise_equal(self, monkeypatch, rows, d, width):
        rng = make_rng(rows + d)
        h = rng.standard_normal((rows, d))
        w = rng.standard_normal((d, 64))
        monkeypatch.setattr(linalg, "_width", lambda: width)
        bounds = matmul_cuts(rows, d, 64)
        assert_cut_invariants(bounds, rows, d * 64, linalg._MIN_MATMUL, width)
        # 4,099 x 64 @ 64 x 64 has 21 aligned 192-row units, 6 per floor.
        assert len(bounds) - 1 == (min(width, 3) if (rows, d) == (4099, 64) else width)
        assert linalg._matmul_rows(h, w).tobytes() == (h @ w).tobytes()

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_transposed_weight_view(self, monkeypatch, width):
        rng = make_rng(9)
        g = rng.standard_normal((19717, 64))
        w = rng.standard_normal((500, 64))
        monkeypatch.setattr(linalg, "_width", lambda: width)
        assert len(matmul_cuts(19717, 64, 500)) == width + 1
        assert linalg._matmul_rows(g, w.T).tobytes() == (g @ w.T).tobytes()

    @pytest.mark.parametrize("width", [2, 4])
    def test_fortran_ordered_left_operand(self, monkeypatch, width):
        rng = make_rng(10)
        h = np.asfortranarray(rng.standard_normal((4099, 500)))
        w = rng.standard_normal((500, 64))
        monkeypatch.setattr(linalg, "_width", lambda: width)
        got = linalg._matmul_rows(h, w)
        assert got.flags.c_contiguous
        assert got.tobytes() == (h @ w).tobytes()

    @pytest.mark.parametrize("width", [2, 3, 4])
    @pytest.mark.parametrize(
        "n, d, h", [(19717, 500, 64), (2708, 1433, 16), (400, 384, 64)],
        ids=["pubmed", "cora", "small"],
    )
    def test_weight_gradient_bitwise_equal(self, monkeypatch, n, d, h, width):
        # X.T @ g splits over its d output rows: each block reads X[:, lo:hi].
        rng = make_rng(n + d + h)
        x = rng.standard_normal((n, d))
        g = rng.standard_normal((n, h))
        monkeypatch.setattr(linalg, "_width", lambda: width)
        bounds = matmul_cuts(d, n, h)
        assert_cut_invariants(bounds, d, n * h, linalg._MIN_MATMUL, width)
        # Every aligned 192-row unit clears the floor: 500 and 384 rows hold two.
        assert len(bounds) - 1 == min(width, d // 192)
        assert linalg._matmul_rows(x.T, g).tobytes() == (x.T @ g).tobytes()

    def test_second_layer_weight_gradient_stays_one_block(self, monkeypatch):
        rng = make_rng(13)
        h1 = rng.standard_normal((19717, 64))
        g = rng.standard_normal((19717, 3))
        monkeypatch.setattr(linalg, "_width", lambda: 4)
        assert matmul_cuts(64, 19717, 3) == [0, 64]
        assert linalg._matmul_rows(h1.T, g).tobytes() == (h1.T @ g).tobytes()

    def test_small_output_layer_stays_one_block(self, monkeypatch):
        # 4,100 x 64 @ 64 x 5 is ~1.3M multiply-adds: under two floors.
        rng = make_rng(11)
        h = rng.standard_normal((4100, 64))
        w = rng.standard_normal((64, 5))
        monkeypatch.setattr(linalg, "_width", lambda: 4)
        assert matmul_cuts(4100, 64, 5) == [0, 4100]
        assert linalg._matmul_rows(h, w).tobytes() == (h @ w).tobytes()

    def test_more_blocks_than_cores_under_fast_switching(self, monkeypatch):
        rng = make_rng(12)
        h = rng.standard_normal((4099, 500))
        w = rng.standard_normal((500, 64))
        want = (h @ w).tobytes()
        monkeypatch.setattr(linalg, "_width", lambda: 8)
        assert len(matmul_cuts(4099, 500, 64)) == 9
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert all(linalg._matmul_rows(h, w).tobytes() == want for _ in range(20))
        finally:
            sys.setswitchinterval(interval)

    @given(
        st.integers(0, 30_000), st.integers(0, 2_000), st.integers(1, 600),
        st.sampled_from(sorted(FLOORS.values())), st.integers(1, 8),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounds_are_aligned_and_above_the_floor(self, rows, inner, cols, min_work, width):
        # Either floor: ``inner * cols`` stands for any kernel's work per row.
        row_work = inner * cols
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_width", lambda: width)
            bounds = linalg._row_cuts(rows, row_work, min_work)
        assert_cut_invariants(bounds, rows, row_work, min_work, width)
        unit = 192 * row_work  # work per aligned unit of rows
        if width > 1 and unit and rows // 192 * unit >= 2 * (min_work + unit):
            assert len(bounds) > 2  # room for two ranges above the floor: it splits


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

    def test_later_changes_to_subclass_views_leave_it_alone(self):
        class Sub(np.ndarray):
            pass

        ptr, cols, values = np.arange(4), np.arange(3), np.array([1.0, 2.0, 3.0])
        m = CsrMatrix(3, 3, ptr.view(Sub), cols.view(Sub), values.view(Sub))
        ptr[1:], cols[:], values[:] = 3, 0, -1.0
        assert m.row_ptr.tolist() == [0, 1, 2, 3]
        assert m.col_idx.tolist() == [0, 1, 2]
        assert m.values.tolist() == [1.0, 2.0, 3.0]
        assert values.flags.writeable  # the caller's array is not frozen

    @pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")
    def test_frozen_copies_a_matrix(self):
        src = np.matrix([[1.0, 2.0]])
        out = linalg._frozen(src, np.float64)
        src[0, 0] = -1.0
        assert out.tolist() == [[1.0, 2.0]] and not out.flags.writeable
