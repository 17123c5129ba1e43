"""Dense/sparse numeric kernels and the seeded generator.

Dense matrices are plain 2-D float64 numpy arrays (row-major). Sparse
matrices use a validated canonical CSR layout (sorted, duplicate-free
column indices per row). Every operation here is a pure function and
accumulates in a fixed row-major, index-ascending order, so repeated
runs with the same inputs are bit-identical.

Row blocks: ``spmm``, the model's dense products ``H @ W``, ``g @ W.T``
and ``H.T @ g``, and the feature ascent's elementwise sweeps split their
output rows into contiguous ranges, at most one per CPU the process may
run on. The first range runs on the caller's thread, the others on a
thread pool created on first use and dropped in a forked child; pool
workers run only numpy array operations, ``np.matmul`` and scipy's CSR
kernel. One rule, ``_row_cuts``, places every cut: on a multiple of
``_ROW_ALIGN`` = 192 rows, with every range doing at least a floor of
work (``_MIN_BLOCK`` = 2^18 output entries for sparse and elementwise
kernels, ``_MIN_MATMUL`` = 2^22 multiply-adds for a dense product), so
small outputs such as the 400-node SBM's stay one inline block. Sparse
and elementwise rows come from the same kernel and operands whatever
range holds them, so their bytes hold at any cut. A dense range is one
single-threaded BLAS call on a slice of rows (of ``H.T``: a column slice
of ``H``, read in place), whose inner kernels OpenBLAS picks by row
offset and product size; the alignment and the work floor are what keep
its bytes equal to one ``a @ b`` call. A second BLAS thread does change
bytes, so ``CAPGNN_THREADS`` still defaults to one.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
# The kernel behind csr_matrix @ dense; called directly so that row blocks
# write into one output. tests/test_linalg.py pins it against the public @.
from scipy.sparse._sparsetools import csr_matvecs

_MIN_BLOCK = 1 << 18  # output entries per sparse or elementwise row block
_MIN_MATMUL = 1 << 22  # multiply-adds per row block of a dense product
_ROW_ALIGN = 192  # every row cut falls on a multiple of this
_CHUNK = 1 << 16  # entries per cache-resident chunk of an elementwise sweep
_pool: ThreadPoolExecutor | None = None


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator, the single PRNG used across the package.

    PCG64 streams are stable across platforms and numpy releases for a
    given seed, which is what makes manifests replayable bit-exactly.
    """
    return np.random.Generator(np.random.PCG64(seed))


def _frozen(a: np.ndarray, dtype) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=dtype)
    if out is a or np.may_share_memory(out, a):  # views of subclasses too
        out = out.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class CsrMatrix:
    """Immutable CSR sparse matrix in canonical form.

    ``row_ptr`` has length ``rows + 1`` with ``row_ptr[0] == 0`` and
    ``row_ptr[rows] == nnz``; column indices are strictly increasing
    within each row. Construction validates all of this, so downstream
    kernels can rely on a deterministic iteration order.
    """

    rows: int
    cols: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "row_ptr", _frozen(self.row_ptr, np.int64))
        object.__setattr__(self, "col_idx", _frozen(self.col_idx, np.int64))
        object.__setattr__(self, "values", _frozen(self.values, np.float64))
        if self.rows < 0 or self.cols < 0:
            raise ValueError(f"invalid CSR shape {self.rows}x{self.cols}")
        ptr = self.row_ptr
        if ptr.shape != (self.rows + 1,):
            raise ValueError("row_ptr must have length rows + 1")
        if ptr[0] != 0 or ptr[-1] != len(self.col_idx):
            raise ValueError("row_ptr must start at 0 and end at nnz")
        if (np.diff(ptr) < 0).any():
            raise ValueError("row_ptr must be non-decreasing")
        if len(self.col_idx) != len(self.values):
            raise ValueError("col_idx and values must have equal length")
        if len(self.col_idx) and (
            self.col_idx.min() < 0 or self.col_idx.max() >= self.cols
        ):
            raise ValueError("column index out of range")
        if not np.isfinite(self.values).all():
            raise ValueError("CSR values contain non-finite entries")
        nnz = len(self.col_idx)
        if nnz > 1:
            diffs = np.diff(self.col_idx)
            interior = np.ones(nnz - 1, dtype=bool)
            starts = ptr[1:-1]
            cut = starts[(starts > 0) & (starts < nnz)] - 1
            interior[cut] = False
            if not (diffs[interior] > 0).all():
                raise ValueError(
                    "column indices must be strictly increasing within each row"
                )

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @cached_property
    def _sp(self) -> sp.csr_matrix:
        # scipy handle reused by spmm; copy=False shares the frozen arrays.
        return sp.csr_matrix(
            (self.values, self.col_idx, self.row_ptr),
            shape=(self.rows, self.cols),
            copy=False,
        )

    @classmethod
    def from_coo(cls, rows, cols, row_indices, col_indices, values) -> "CsrMatrix":
        """Build from triplets; duplicate (row, col) pairs are an error."""
        r = np.asarray(row_indices, dtype=np.int64)
        c = np.asarray(col_indices, dtype=np.int64)
        v = np.asarray(values, dtype=np.float64)
        if not (len(r) == len(c) == len(v)):
            raise ValueError("triplet arrays must have equal length")
        if len(r) and (r.min() < 0 or r.max() >= rows):
            raise ValueError("row index out of range")
        order = np.lexsort((c, r))
        r, c, v = r[order], c[order], v[order]
        if len(r) > 1:
            same = (np.diff(r) == 0) & (np.diff(c) == 0)
            if same.any():
                k = int(np.flatnonzero(same)[0])
                raise ValueError(f"duplicate entry at ({r[k]}, {c[k]})")
        row_ptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(r, minlength=rows), out=row_ptr[1:])
        return cls(rows, cols, row_ptr, c, v)


def _width() -> int:
    """CPUs this process may run on: the most row blocks one call uses."""
    if hasattr(os, "sched_getaffinity"):  # Linux
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _row_cuts(rows: int, row_work: int, min_work: int) -> list[int]:
    """Cuts of [0, rows) into ranges of ``row_work`` work per row (module docstring).

    At most one range per CPU, every inner cut a multiple of
    ``_ROW_ALIGN`` and every range at least ``min_work``; the cuts
    strictly increase, so no range is empty. ``_width`` is asked only
    once the work allows two ranges.
    """
    units = rows // _ROW_ALIGN
    per_block = -(-min_work // max(_ROW_ALIGN * row_work, 1))  # in units
    blocks = units // per_block
    if blocks >= 2:
        blocks = min(blocks, _width())
    if blocks < 2:
        return [0, rows]
    return [_ROW_ALIGN * (units * i // blocks) for i in range(blocks)] + [rows]


def _drop_pool() -> None:
    # A forked child has none of the parent's threads, so the executor it
    # inherits would queue work that nothing runs.
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _run_row_blocks(bounds: list[int], fn) -> None:
    """Call ``fn(lo, hi)`` on each range between consecutive ``_row_cuts`` bounds.

    The first range runs on the caller's thread and the others on the
    pool. Returns once every range is done, raising the first error.
    """
    global _pool
    if len(bounds) == 2:
        fn(*bounds)
        return
    if _pool is None:
        _pool = ThreadPoolExecutor(_width(), thread_name_prefix="capgnn-rows")
    futures = [_pool.submit(fn, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        fn(bounds[0], bounds[1])
    finally:
        wait(futures)  # no worker may still write once this returns
    for f in futures:
        f.result()


def _matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D float64 arrays, in aligned row blocks (module docstring)."""
    bounds = _row_cuts(a.shape[0], a.shape[1] * b.shape[1], _MIN_MATMUL)
    if len(bounds) == 2:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]))
    _run_row_blocks(bounds, lambda lo, hi: np.matmul(a[lo:hi], b, out=out[lo:hi]))
    return out


def _sweep_rows(shape: tuple[int, int], fn) -> None:
    """Call ``fn(lo, hi)`` over row chunks of ~_CHUNK entries, in row blocks.

    For elementwise passes over n x d arrays: ``fn`` runs every pass on
    one chunk while it sits in cache.
    """
    rows, cols = shape
    step = max(1, _CHUNK // max(cols, 1))

    def block(lo, hi):
        for c in range(lo, hi, step):
            fn(c, min(c + step, hi))

    _run_row_blocks(_row_cuts(rows, cols, _MIN_BLOCK), block)


def _add_rows(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.add(x, y, out=out)`` for equal-shape 2-D arrays, in row blocks."""
    _sweep_rows(x.shape, lambda lo, hi: np.add(x[lo:hi], y[lo:hi], out=out[lo:hi]))
    return out


def spmm(a: CsrMatrix, b: np.ndarray) -> np.ndarray:
    """CSR @ dense product.

    Accumulation is row-major and index-ascending within each row (the
    scipy CSR kernel walks nonzeros in storage order), matching a naive
    triple loop bit for bit on canonical input. Large outputs are
    computed in row blocks (module docstring), each zeroed and written
    in place in the one output.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError(f"spmm expects a 2-D dense operand, got shape {b.shape}")
    if a.cols != b.shape[0]:
        raise ValueError(
            f"spmm shape mismatch: {a.rows}x{a.cols} @ {b.shape[0]}x{b.shape[1]}"
        )
    k = b.shape[1]
    bounds = _row_cuts(a.rows, k, _MIN_BLOCK)
    split = len(bounds) > 2
    # With several blocks, each zeroes its own rows, so they start in its cache.
    out = np.empty((a.rows, k)) if split else np.zeros((a.rows, k))
    m, xs, ys = a._sp, b.ravel(), out.ravel()  # xs copies a non-contiguous b

    def block(lo, hi):
        y = ys[lo * k:hi * k]
        if split:
            y.fill(0.0)
        csr_matvecs(hi - lo, a.cols, k, m.indptr[lo:hi + 1], m.indices, m.data, xs, y)

    _run_row_blocks(bounds, block)
    return out


def lp_norm(m: np.ndarray, p) -> float:
    """Entrywise norm of a matrix: flattened l2 for p=2, max-abs for p=inf."""
    m = np.asarray(m)
    if m.size == 0:
        raise ValueError("lp_norm of an empty matrix is undefined")
    if p == 2:
        # np.sum is pairwise and BLAS-free, hence thread-count independent.
        return float(np.sqrt(np.sum(np.square(m, dtype=np.float64))))
    if p == math.inf:
        # The largest |entry| is |max| or |min|; no n x d np.abs(m) temporary,
        # and a NaN entry still gives NaN.
        return float(np.maximum(np.abs(m.max()), np.abs(m.min())))
    raise ValueError(f"unsupported norm order {p!r}; use 2 or math.inf")
