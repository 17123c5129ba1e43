import concurrent.futures
import math
import multiprocessing
import sys
import threading
import time
import weakref

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


# rule -> (floor, alignment) of every row-blocked kernel's cuts
RULES = {
    "sparse": (linalg._CHUNK, 1),
    "dense": (linalg._MIN_MATMUL, linalg._ROW_ALIGN),
    "transposed": (linalg._MIN_TRANSPOSED, 1),
}


def matmul_cuts(rows: int, inner: int, cols: int) -> list[int]:
    """The row cuts ``_matmul_rows`` uses for a C-ordered rows x inner @ inner x cols."""
    return linalg._row_cuts(rows, inner * cols, linalg._MIN_MATMUL, linalg._ROW_ALIGN)


def transposed_cuts(rows: int, inner: int, cols: int) -> list[int]:
    """The row cuts ``_matmul_rows`` uses for ``H.T @ g`` with H inner x rows."""
    return linalg._row_cuts(rows, inner * cols, linalg._MIN_TRANSPOSED, 1)


def assert_cut_invariants(bounds, rows, row_work, min_work, align) -> None:
    """Cuts rise on multiples of ``align``, each range clears ``min_work``, no more fit."""
    assert bounds[0] == 0 and bounds[-1] == rows
    assert bounds == [0, 0] or all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
    ranges = len(bounds) - 1
    if ranges > 1:
        assert all(cut % align == 0 for cut in bounds[1:-1])
        assert all((hi - lo) * row_work >= min_work for lo, hi in zip(bounds, bounds[1:]))
    if row_work:
        # The fewest aligned units of rows that clear the floor: one more
        # range of them would not fit in the aligned rows.
        per_range = -(-min_work // (align * row_work))
        assert (ranges + 1) * per_range > rows // align


def drained_product(a, b, width, min_transposed=None):
    """``_matmul_rows(a, b)`` drained by ``width`` threads, at the given transposed floor."""
    with row_blocks(width), pytest.MonkeyPatch.context() as mp:
        if min_transposed is not None:
            mp.setattr(linalg, "_MIN_TRANSPOSED", min_transposed)
        return linalg._matmul_rows(a, b)


class TestRowCuts:
    """``_row_cuts`` places the cuts of every row-blocked kernel.

    Its range-count and invariant tests sit with the kernels below
    (``TestSpmmRowBlocks``, ``TestMatmulRows``); all use every rule.
    """

    # (rows, work per row, rule) -> ranges, for every row-blocked kernel of
    # the shipped workloads: the Pubmed-shaped graph (n=19,717, d=500, 64
    # hidden, K=3) and the 400-node SBM (d=8, 64 hidden, K=2). A rule
    # change that moves how any of them splits fails here.
    SHIPPED = {
        "pubmed_sweep_x": (19717, 500, "sparse", 149),
        "pubmed_spmm_hidden": (19717, 64, "sparse", 19),
        "pubmed_spmm_classes": (19717, 3, "sparse", 1),
        "sbm_spmm_hidden": (400, 64, "sparse", 1),
        "pubmed_x_at_w0": (19717, 500 * 64, "dense", 102),
        "pubmed_g_at_w0t": (19717, 64 * 500, "dense", 102),
        "pubmed_h_at_w1": (19717, 64 * 3, "dense", 1),
        "pubmed_g_at_w1t": (19717, 3 * 64, "dense", 1),
        "sbm_x_at_w0": (400, 8 * 64, "dense", 1),
        "sbm_g_at_w0t": (400, 64 * 8, "dense", 1),
        "sbm_h_at_w1": (400, 64 * 2, "dense", 1),
        "sbm_g_at_w1t": (400, 2 * 64, "dense", 1),
        "pubmed_xt_at_g": (500, 19717 * 64, "transposed", 4),
        "pubmed_h1t_at_g": (64, 19717 * 3, "transposed", 1),
        "sbm_xt_at_g": (8, 400 * 64, "transposed", 1),
        "sbm_h1t_at_g": (64, 400 * 2, "transposed", 1),
    }

    @pytest.mark.parametrize("case", SHIPPED)
    def test_shipped_kernel_block_counts(self, monkeypatch, case):
        rows, row_work, rule, ranges = self.SHIPPED[case]
        for width in (1, 2, 8):  # the cuts do not depend on the CPU count
            monkeypatch.setattr(linalg, "_WIDTH", width)
            assert len(linalg._row_cuts(rows, row_work, *RULES[rule])) - 1 == ranges

    @pytest.mark.parametrize("floor", ["sparse", "dense"])
    def test_width_is_not_asked_below_two_floors(self, monkeypatch, floor):
        monkeypatch.setattr(linalg, "_WIDTH", 8)
        assert linalg._row_cuts(400, 64, *RULES[floor]) == [0, 400]  # the SBM
        assert linalg._row_cuts(0, 64, *RULES[floor]) == [0, 0]

    def test_transposed_operands_take_the_second_rule(self):
        x = np.empty((19717, 500))
        assert linalg._dense_cuts(x.T, 64) == [0, 125, 250, 375, 500]
        assert linalg._dense_cuts(np.asfortranarray(x), 64) == transposed_cuts(19717, 500, 64)
        assert linalg._dense_cuts(x, 64) == matmul_cuts(19717, 500, 64)


def _spmm_equals(a, b, want, blocks) -> None:
    # Runs in a forked child: exit code 0 means the bytes match and a pool
    # worker took a range while the caller held the first (without a pool
    # of the child's own, the caller would drain every range alone).
    worker = threading.Event()

    def fn(lo, hi):
        if threading.current_thread() is not threading.main_thread():
            worker.set()
        elif lo == 0:
            worker.wait(5)

    with row_blocks(blocks):
        same = spmm(a, b).tobytes() == want.tobytes()
        linalg._run_row_blocks([0, 1, 2], fn)
    sys.exit(0 if same and worker.is_set() else 1)


class TestSpmmRowBlocks:
    """``spmm`` calls scipy's private ``csr_matvecs`` on row ranges.

    Every drain width must give the bytes of the public ``@``; a scipy
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

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_writes_into_a_given_buffer(self, blocks):
        rng = make_rng(15)
        a = with_empty_rows(rng, 50, 40)
        b = rng.standard_normal((40, 16))
        buf = np.full((50, 16), np.nan)
        with row_blocks(blocks):
            assert spmm(a, b, buf) is buf
        assert buf.tobytes() == scipy_product(a, b).tobytes()

    @pytest.mark.parametrize("bad", [(49, 16), (50, 8)], ids=["rows", "cols"])
    def test_rejects_a_buffer_of_another_shape(self, bad):
        rng = make_rng(15)
        a = with_empty_rows(rng, 50, 40)
        with pytest.raises(ValueError, match="spmm out"):
            spmm(a, rng.standard_normal((40, 16)), np.empty(bad))
        with pytest.raises(ValueError, match="spmm out"):
            spmm(a, rng.standard_normal((40, 16)), np.empty((16, 50)).T)

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
        # Every thread the pool may have is started, so an inherited pool
        # could start none in the child.
        threads = linalg._pool._max_workers
        barrier = threading.Barrier(threads)
        for f in [linalg._submit(barrier.wait, 5) for _ in range(threads)]:
            f.result()
        child = multiprocessing.get_context("fork").Process(
            target=_spmm_equals, args=(a, b, want, 2)
        )
        child.start()
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0

    def test_range_count_follows_the_floor_alone(self, monkeypatch):
        for min_work, align in RULES.values():
            for row_work in (1, 3, 64, 192, 32_000):
                # The fewest rows with room for two ranges of whole aligned units.
                two = 2 * align * -(-min_work // (align * row_work))
                for width in (1, 2, 8):
                    monkeypatch.setattr(linalg, "_WIDTH", width)
                    cuts = lambda rows: linalg._row_cuts(rows, row_work, min_work, align)
                    assert cuts(two - 1) == [0, two - 1]
                    assert cuts(two) == [0, two // 2, two]
                    assert len(cuts(8 * two)) == 17


class TestSharedQueue:
    """``_run_row_blocks``: the caller and the pool drain one queue of ranges."""

    CUTS = [0, 3, 7, 8, 20, 21, 40]

    @pytest.mark.parametrize("width", [1, 2, 3, 8])
    def test_every_range_runs_once(self, monkeypatch, width):
        monkeypatch.setattr(linalg, "_WIDTH", width)
        seen = []
        linalg._run_row_blocks(self.CUTS, lambda lo, hi: seen.append((lo, hi)))
        assert sorted(seen) == list(zip(self.CUTS, self.CUTS[1:]))

    @pytest.mark.parametrize("late", ["sleeps", "never_starts"])
    def test_a_late_worker_leaves_the_caller_to_drain_the_rest(self, monkeypatch, late):
        # A pool worker whose CPU is stolen before its first range: one that
        # starts 0.3 s late, and one still queued (cancelled, not waited for).
        real_submit = linalg._submit
        monkeypatch.setattr(linalg, "_WIDTH", 2)
        monkeypatch.setattr(linalg, "_submit", {
            "sleeps": lambda fn: real_submit(lambda: (time.sleep(0.3), fn())[1]),
            "never_starts": lambda fn: concurrent.futures.Future(),
        }[late])
        ranges = []
        call = threading.Thread(target=linalg._run_row_blocks, args=(
            self.CUTS, lambda lo, hi: ranges.append((lo, threading.current_thread() is call))))
        call.start()
        call.join(timeout=10)
        assert not call.is_alive()
        assert sorted(ranges) == [(lo, True) for lo in self.CUTS[:-1]]

    def test_a_cancelled_drain_keeps_no_array_alive(self, monkeypatch):
        # The pool's queue holds a cancelled drain until a worker takes it.
        queued = []
        monkeypatch.setattr(linalg, "_WIDTH", 2)
        monkeypatch.setattr(linalg, "_submit",
                            lambda fn: queued.append(fn) or concurrent.futures.Future())
        rows = np.zeros(2)
        held = weakref.ref(rows)
        linalg._run_row_blocks([0, 1, 2], rows.__setitem__)
        assert rows.tolist() == [1.0, 2.0] and len(queued) == 1
        del rows
        assert held() is None

    @pytest.mark.parametrize("kernel", ["spmm", "x_at_w", "xt_at_g"])
    def test_a_late_worker_keeps_the_bytes(self, monkeypatch, kernel):
        rng = make_rng(16)
        x = rng.standard_normal((4099, 500))
        g = rng.standard_normal((4099, 64))
        a = with_empty_rows(rng, 300, 40)
        b = rng.standard_normal((40, 64))
        run = {
            "spmm": lambda: spmm(a, b),
            "x_at_w": lambda: linalg._matmul_rows(x, g[:500]),
            "xt_at_g": lambda: linalg._matmul_rows(x.T, g),
        }[kernel]
        want = {"spmm": lambda: scipy_product(a, b), "x_at_w": lambda: x @ g[:500],
                "xt_at_g": lambda: x.T @ g}[kernel]().tobytes()
        real_submit = linalg._submit
        monkeypatch.setattr(
            linalg, "_submit",
            lambda fn, *args: real_submit(lambda: (time.sleep(0.2), fn(*args))[1]),
        )
        with row_blocks(2), pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_MIN_TRANSPOSED", linalg._MIN_MATMUL)
            assert run().tobytes() == want

    @pytest.mark.parametrize("bad", [0, 20])
    def test_an_error_is_raised_once_no_range_is_running(self, monkeypatch, bad):
        monkeypatch.setattr(linalg, "_WIDTH", 2)
        running = []

        def fn(lo, hi):
            running.append(lo)
            time.sleep(0.01)
            running.remove(lo)
            if lo == bad:
                raise RuntimeError(f"range {lo}")

        for _ in range(20):
            with pytest.raises(RuntimeError, match=f"range {bad}"):
                linalg._run_row_blocks(self.CUTS, fn)
            assert running == []


# (n, d, h) of the byte sweep behind the transposed rule: Pubmed, Cora and
# Citeseer shapes, and a wide hidden layer.
SWEEP_SHAPES = [(19717, 500, 64), (19717, 500, 16), (2708, 1433, 64), (2708, 1433, 16),
                (3327, 3703, 16), (5000, 300, 128)]


class TestMatmulRows:
    """``_matmul_rows`` splits dense products at aligned cuts above a work floor.

    The floors stay: small blocks can take OpenBLAS's small-matrix path,
    whose bytes differ. ``_WIDTH`` only sets how many threads drain them.
    """

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize("rows, d", [(4099, 64), (4099, 500), (19717, 64), (19717, 500)])
    def test_h_at_w_bitwise_equal(self, monkeypatch, rows, d, width):
        rng = make_rng(rows + d)
        h = rng.standard_normal((rows, d))
        w = rng.standard_normal((d, 64))
        monkeypatch.setattr(linalg, "_WIDTH", width)
        bounds = matmul_cuts(rows, d, 64)
        assert_cut_invariants(bounds, rows, d * 64, linalg._MIN_MATMUL, 192)
        # 4,099 rows hold 21 aligned 192-row units, 19,717 hold 102; at
        # d=64 a range needs 6 units to clear the floor, at d=500 one.
        ranges = {(4099, 64): 3, (4099, 500): 21, (19717, 64): 17, (19717, 500): 102}
        assert len(bounds) - 1 == ranges[rows, d]
        assert linalg._matmul_rows(h, w).tobytes() == (h @ w).tobytes()

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_transposed_weight_view(self, monkeypatch, width):
        rng = make_rng(9)
        g = rng.standard_normal((19717, 64))
        w = rng.standard_normal((500, 64))
        monkeypatch.setattr(linalg, "_WIDTH", width)
        assert len(matmul_cuts(19717, 64, 500)) == 103
        assert linalg._matmul_rows(g, w.T).tobytes() == (g @ w.T).tobytes()

    @pytest.mark.parametrize("width", [2, 4])
    def test_fortran_ordered_left_operand(self, monkeypatch, width):
        rng = make_rng(10)
        h = np.asfortranarray(rng.standard_normal((4099, 500)))
        w = rng.standard_normal((500, 64))
        monkeypatch.setattr(linalg, "_WIDTH", width)
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
        monkeypatch.setattr(linalg, "_WIDTH", width)
        bounds = transposed_cuts(d, n, h)
        assert_cut_invariants(bounds, d, n * h, linalg._MIN_TRANSPOSED, 1)
        # Only Pubmed's 631M multiply-adds hold two 2^27 floors.
        assert len(bounds) - 1 == (4 if n == 19717 else 1)
        assert linalg._matmul_rows(x.T, g).tobytes() == (x.T @ g).tobytes()

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("n, d, h", SWEEP_SHAPES, ids=lambda v: str(v))
    def test_drained_ranges_at_the_sweep_shapes(self, n, d, h, width):
        # Down at the C-order floor, the transposed rule cuts ranges of 4 to
        # 103 rows; both products must keep the bytes of one call.
        rng = make_rng(n + d + h)
        x = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.1)
        g = rng.standard_normal((n, h))
        cuts = linalg._row_cuts(d, n * h, linalg._MIN_MATMUL, 1)
        assert len(cuts) > 10
        got = drained_product(x.T, g, width, min_transposed=linalg._MIN_MATMUL)
        assert got.tobytes() == (x.T @ g).tobytes()
        w = rng.standard_normal((d, h))
        assert drained_product(x, w, width).tobytes() == (x @ w).tobytes()

    @pytest.mark.parametrize("width", [1, 2])
    def test_four_transposed_ranges_of_128_rows(self, monkeypatch, width):
        rng = make_rng(17)
        x = rng.standard_normal((19717, 500)) * (rng.random((19717, 500)) < 0.1)
        g = rng.standard_normal((19717, 64))
        out = np.empty((500, 64))
        monkeypatch.setattr(linalg, "_WIDTH", width)
        linalg._run_row_blocks(
            [0, 128, 256, 384, 500],
            lambda lo, hi: np.matmul(x[:, lo:hi].T, g, out=out[lo:hi]),
        )
        assert out.tobytes() == (x.T @ g).tobytes()

    @pytest.mark.parametrize("width", [1, 2])
    def test_writes_into_a_given_buffer(self, monkeypatch, width):
        # The feature gradient g @ W0.T, in 21 ranges whatever the width.
        rng = make_rng(14)
        g = rng.standard_normal((4099, 64))
        w = rng.standard_normal((500, 64))
        monkeypatch.setattr(linalg, "_WIDTH", width)
        assert len(matmul_cuts(4099, 64, 500)) == 22
        buf = np.full((4099, 500), np.nan)
        assert linalg._matmul_rows(g, w.T, out=buf) is buf
        assert buf.tobytes() == (g @ w.T).tobytes()

    def test_second_layer_weight_gradient_stays_one_block(self, monkeypatch):
        rng = make_rng(13)
        h1 = rng.standard_normal((19717, 64))
        g = rng.standard_normal((19717, 3))
        monkeypatch.setattr(linalg, "_WIDTH", 4)
        assert transposed_cuts(64, 19717, 3) == [0, 64]
        assert linalg._matmul_rows(h1.T, g).tobytes() == (h1.T @ g).tobytes()

    def test_small_output_layer_stays_one_block(self, monkeypatch):
        # 4,100 x 64 @ 64 x 5 is ~1.3M multiply-adds: under two floors.
        rng = make_rng(11)
        h = rng.standard_normal((4100, 64))
        w = rng.standard_normal((64, 5))
        monkeypatch.setattr(linalg, "_WIDTH", 4)
        assert matmul_cuts(4100, 64, 5) == [0, 4100]
        assert linalg._matmul_rows(h, w).tobytes() == (h @ w).tobytes()

    def test_more_blocks_than_cores_under_fast_switching(self, monkeypatch):
        rng = make_rng(12)
        h = rng.standard_normal((4099, 500))
        w = rng.standard_normal((500, 64))
        want = (h @ w).tobytes()
        monkeypatch.setattr(linalg, "_WIDTH", 8)
        assert len(matmul_cuts(4099, 500, 64)) == 22
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert all(linalg._matmul_rows(h, w).tobytes() == want for _ in range(20))
        finally:
            sys.setswitchinterval(interval)

    @given(
        st.integers(0, 30_000), st.integers(0, 2_000), st.integers(1, 600),
        st.sampled_from(sorted(RULES)),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounds_are_aligned_and_above_the_floor(self, rows, inner, cols, rule):
        # Any rule: ``inner * cols`` stands for any kernel's work per row.
        row_work = inner * cols
        min_work, align = RULES[rule]
        bounds = linalg._row_cuts(rows, row_work, min_work, align)
        assert_cut_invariants(bounds, rows, row_work, min_work, align)
        unit = align * row_work  # work per aligned unit of rows
        if unit and rows // align * unit >= 2 * (min_work + unit):
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

    # One leaf up to 2^16 entries; above it, numpy's pairwise split at
    # n//2 - (n//2) % 8 moves off n//2 for 2^17 + 3 and 19,717 x 500.
    @pytest.mark.parametrize("shape", [
        (1,), (7,), (8,), (1 << 16,), ((1 << 16) + 1,), ((1 << 17) + 3,), (19717, 500),
    ])
    def test_l2_has_the_bits_of_one_square_and_sum(self, shape):
        m = make_rng(sum(shape)).standard_normal(shape) * 3.7
        want = np.sqrt(np.sum(np.square(m)))
        assert np.float64(lp_norm(m, 2)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", [(1 << 16) + 1, (1 << 17) + 3, 19717 * 500])
    def test_leaf_sums_add_up_to_the_bits_of_np_sum(self, size):
        # Pins the tree itself: a sum of squares can round to the same root.
        for seed in range(4):
            v = make_rng(seed).standard_normal(size)
            got = linalg._pairwise_sum(0, size, lambda lo, hi: np.sum(v[lo:hi]))
            assert np.float64(got).tobytes() == np.sum(v).tobytes()

    @pytest.mark.parametrize("view", ["transposed", "strided", "float32"])
    def test_l2_of_other_layouts_has_the_bits_of_one_square_and_sum(self, view):
        m = make_rng(5).standard_normal((701, 400))
        m = {"transposed": m.T, "strided": m[:, ::3],
             "float32": m.astype(np.float32)}[view]
        want = np.sqrt(np.sum(np.square(m, dtype=np.float64)))
        assert np.float64(lp_norm(m, 2)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_l2_with_a_non_finite_entry_far_from_the_first_leaf(self, bad):
        m = make_rng(6).standard_normal((1000, 300))
        m[-1, -1] = bad
        want = np.sqrt(np.sum(np.square(m)))
        assert np.float64(lp_norm(m, 2)).tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("width", [1, 2])
    def test_streamed_direction_matches_one_draw(self, width):
        # 1,000 x 300 is eight leaves of the norm's summation tree.
        with row_blocks(width):
            a = feature_direction(1000, 300, 8)
        g = make_rng(8).standard_normal((1000, 300))
        want = g * (float(np.sqrt(1000 * 300)) / float(np.sqrt(np.sum(np.square(g)))))
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

    def test_keeps_int32_indices_below_2_to_the_31(self):
        m = CsrMatrix(1, (1 << 31) - 1, [0, 1], [(1 << 31) - 2], [1.0])
        assert m.row_ptr.dtype == m.col_idx.dtype == np.int32
        assert m.col_idx.tolist() == [(1 << 31) - 2]
        with pytest.raises(ValueError, match="below 2\\^31"):  # int32 would wrap it
            CsrMatrix(1, (1 << 31) + 1, [0, 1], [1 << 31], [1.0])

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


class TestStreamNormal:
    """``_stream_normal`` draws range by range, ``fn`` behind each range."""

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("cuts", [[0, 1000], [0, 3, 500, 999, 1000]])
    def test_bytes_and_state_of_one_draw(self, width, cuts):
        # fn keeps every range it is handed, read only once all are drawn: a
        # range drawn into an array another range reuses would show.
        rng, ref = make_rng(4), make_rng(4)
        drawn = {}

        def fn(lo, hi, rows):
            drawn[lo, hi] = rows

        with row_blocks(width):
            linalg._stream_normal(rng, cuts, 7, fn)
        ranges = list(zip(cuts, cuts[1:]))
        assert sorted(drawn) == ranges
        assert [drawn[r].shape for r in ranges] == [(hi - lo, 7) for lo, hi in ranges]
        got = np.concatenate([drawn[r] for r in ranges])
        assert got.tobytes() == ref.standard_normal((1000, 7)).tobytes()
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("cuts", [[0, 1000], [0, 3, 500, 999, 1000]])
    def test_each_range_into_a_buffer_of_its_own(self, width, cuts):
        # What fn is handed stays as drawn after every later range is drawn,
        # and no two ranges share memory.
        kept, copies = {}, {}

        def fn(lo, hi, rows):
            kept[lo, hi], copies[lo, hi] = rows, rows.copy()

        with row_blocks(width):
            linalg._stream_normal(make_rng(4), cuts, 7, fn)
        ranges = list(zip(cuts, cuts[1:]))
        assert sorted(kept) == ranges
        for r in ranges:
            assert kept[r].tobytes() == copies[r].tobytes()
        for i, r in enumerate(ranges):
            for s in ranges[i + 1:]:
                assert not np.shares_memory(kept[r], kept[s])

    def test_an_error_in_fn_is_raised_after_every_range_is_done(self):
        done = []

        def fn(lo, hi, drawn):
            if lo == 0:
                raise RuntimeError("range 0")
            done.append(lo)

        with row_blocks(2), pytest.raises(RuntimeError, match="range 0"):
            linalg._stream_normal(make_rng(1), [0, 10, 20, 30, 40], 1, fn)
        assert sorted(done) == [10, 20, 30]
