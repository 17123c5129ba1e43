"""Dense/sparse numeric kernels and the seeded generator.

Dense matrices are plain 2-D float64 numpy arrays (row-major). Sparse
matrices use a validated canonical CSR layout (sorted, duplicate-free
column indices per row). Every operation here is a pure function and
accumulates in a fixed row-major, index-ascending order, so repeated
runs with the same inputs are bit-identical.

Row blocks: ``spmm``, the model's dense products ``H @ W`` and
``g @ W.T``, and the feature ascent's elementwise sweeps split their
output rows into contiguous ranges, one per CPU the process may run on.
The first range runs on the caller's thread, the others on a thread
pool created on first use and dropped in a forked child; pool workers
run only numpy array operations, ``np.matmul`` and scipy's CSR kernel.
Sparse and elementwise ranges hold at least ``_MIN_BLOCK`` output
entries each (below that, as on the 400-node SBM, a hand-off costs more
than it saves); every output row comes from the same kernel and
operands whatever range holds it, so the bytes do not depend on the
partition.

A dense row block is one single-threaded BLAS call on a slice of rows,
and OpenBLAS picks its inner kernels by a row's offset and by the
product's size, so ``_matmul_rows`` cuts only where the bytes hold:
every cut a multiple of ``_ROW_ALIGN`` = 192 rows, every block at least
``_MIN_MATMUL`` = 2^22 multiply-adds. On OpenBLAS 0.3.31 (SkylakeX
kernels) ``g @ W.T`` keeps its bytes only at cuts on a 12-row period
(cuts at 32, 64 or 9,856 rows change them), and products under ~10^6
multiply-adds take a small-matrix path with other bytes (``X @ W0`` cut
at 28 rows or fewer). Under the rule, both forms were bit-identical at
4,099-20,000 rows, inner width 1-1,433, output width 1-500, with C- or
F-ordered left operands. BLAS threading is another matter: a second
BLAS thread changes bytes, so ``CAPGNN_THREADS`` still defaults to one.
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

_MIN_BLOCK = 1 << 18  # output entries per row block
_MIN_MATMUL = 1 << 22  # multiply-adds per row block of a dense product
_ROW_ALIGN = 192  # every cut of a dense product falls on a multiple of this
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
    if out is a or out.base is a:
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
    def _bounds(self) -> dict[int, list[int]]:
        return {}

    def _row_bounds(self, blocks: int) -> list[int]:
        """Cuts of [0, rows) into ``blocks`` ranges of ~nnz / blocks stored entries."""
        bounds = self._bounds.get(blocks)
        if bounds is None:
            cuts = np.searchsorted(self.row_ptr, np.arange(1, blocks) * (self.nnz / blocks))
            bounds = self._bounds[blocks] = [0, *cuts.tolist(), self.rows]
        return bounds

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


def _block_count(rows: int, cols: int) -> int:
    """Row blocks for a rows x cols output: one per CPU, each >= _MIN_BLOCK entries."""
    blocks = rows * cols // _MIN_BLOCK
    return 1 if blocks < 2 else min(blocks, _width())


def _drop_pool() -> None:
    # A forked child has none of the parent's threads, so the executor it
    # inherits would queue work that nothing runs.
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _run_row_blocks(bounds: list[int], fn) -> None:
    """Call ``fn(lo, hi)`` on each non-empty range between consecutive ``bounds``.

    The first range (a single one, even if empty) runs on the caller's
    thread and the others on the pool. Returns once every range is
    done, raising the first error.
    """
    global _pool
    if len(bounds) == 2:
        fn(*bounds)
        return
    ranges = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    if _pool is None:
        _pool = ThreadPoolExecutor(_width(), thread_name_prefix="capgnn-rows")
    futures = [_pool.submit(fn, lo, hi) for lo, hi in ranges[1:]]
    try:
        for lo, hi in ranges[:1]:
            fn(lo, hi)
    finally:
        wait(futures)  # no worker may still write once this returns
    for f in futures:
        f.result()


def _matmul_bounds(rows: int, inner: int, cols: int) -> list[int]:
    """Row cuts of a rows x inner @ inner x cols product (module docstring).

    At most one block per CPU; every cut a multiple of ``_ROW_ALIGN``,
    every block at least ``_MIN_MATMUL`` multiply-adds.
    """
    units = rows // _ROW_ALIGN
    per_block = -(-_MIN_MATMUL // max(_ROW_ALIGN * inner * cols, 1))  # in units
    blocks = units // per_block
    if blocks >= 2:
        blocks = min(blocks, _width())
    if blocks < 2:
        return [0, rows]
    return [_ROW_ALIGN * (units * i // blocks) for i in range(blocks)] + [rows]


def _matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D float64 arrays, in aligned row blocks (module docstring)."""
    bounds = _matmul_bounds(a.shape[0], a.shape[1], b.shape[1])
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
    blocks = _block_count(rows, cols)

    def block(lo, hi):
        for c in range(lo, hi, step):
            fn(c, min(c + step, hi))

    _run_row_blocks([rows * i // blocks for i in range(blocks + 1)], block)


def _add_rows(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.add(x, y, out=out)`` for equal-shape 2-D arrays, in row blocks."""
    _sweep_rows(x.shape, lambda lo, hi: np.add(x[lo:hi], y[lo:hi], out=out[lo:hi]))
    return out


def spmm(a: CsrMatrix, b: np.ndarray) -> np.ndarray:
    """CSR @ dense product.

    Accumulation is row-major and index-ascending within each row (the
    scipy CSR kernel walks nonzeros in storage order), matching a naive
    triple loop bit for bit on canonical input. Large outputs are
    computed in row blocks balanced by stored entries (module docstring),
    each zeroed and written in place in the one output.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError(f"spmm expects a 2-D dense operand, got shape {b.shape}")
    if a.cols != b.shape[0]:
        raise ValueError(
            f"spmm shape mismatch: {a.rows}x{a.cols} @ {b.shape[0]}x{b.shape[1]}"
        )
    k = b.shape[1]
    blocks = _block_count(a.rows, k)
    # With several blocks, each zeroes its own rows, so they start in its cache.
    out = np.zeros((a.rows, k)) if blocks == 1 else np.empty((a.rows, k))
    m, xs, ys = a._sp, b.ravel(), out.ravel()  # xs copies a non-contiguous b

    def block(lo, hi):
        y = ys[lo * k:hi * k]
        if blocks > 1:
            y.fill(0.0)
        csr_matvecs(hi - lo, a.cols, k, m.indptr[lo:hi + 1], m.indices, m.data, xs, y)

    _run_row_blocks(a._row_bounds(blocks), block)
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
