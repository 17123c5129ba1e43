"""Dense/sparse numeric kernels and the seeded generator.

Dense matrices are plain 2-D float64 numpy arrays (row-major). Sparse
matrices use a validated canonical CSR layout (sorted, duplicate-free
column indices per row). Every operation here is a pure function and
accumulates in a fixed row-major, index-ascending order, so repeated
runs with the same inputs are bit-identical.

Row blocks: ``spmm``, the model's dense products ``H @ W``, ``g @ W.T``
and ``H.T @ g``, and the elementwise sweeps (forward's ReLU and dropout,
backward's dropout and ReLU gating) cut their output rows into
contiguous ranges on one shared queue, which the caller and up to
``_WIDTH - 1`` pool threads drain (``_WIDTH``: the CPUs the process may
run on when capgnn is imported), so a thread whose CPU is busy
elsewhere leaves its share to the others.
The pool is created on first use and dropped in a forked child; its
threads run only numpy array operations, ``np.matmul`` and scipy's CSR
kernel. ``_row_cuts`` places every cut: as many ranges as fit on
multiples of an alignment while each does at least a floor of work,
whatever ``_WIDTH`` is, so small outputs such as the 400-node SBM's stay
one inline range. Sparse and elementwise rows come from the same kernel
and operands whatever range holds them, so any cut keeps their bytes.
Their one floor is ``_CHUNK`` = 2^16 output entries per range, and a
range is one call, small enough that every pass of it runs in cache. A
dense range is one single-threaded BLAS call on a slice of rows, whose
inner kernels OpenBLAS picks by row offset and product size; two rules
keep its bytes equal to one ``a @ b`` call:

- a C-ordered left operand (``H @ W``, ``g @ W.T``): multiples of
  ``_ROW_ALIGN`` = 192 rows, at least ``_MIN_MATMUL`` = 2^22
  multiply-adds per range;
- a transposed one (``H.T @ g``, whose rows are columns of ``H``, read in
  place): any row, at least ``_MIN_TRANSPOSED`` = 2^27 multiply-adds per
  range. A byte sweep found such cuts exact down to ~1e6 multiply-adds
  (below, OpenBLAS's small-matrix kernel sums in another order); the
  higher floor is for speed, as each range packs all of ``g`` again.
  Pubmed's 500 x 19,717 @ 19,717 x 64 gets four ranges.

A second BLAS thread does change bytes, so ``import capgnn`` pins BLAS
to one thread; the pool is the only way capgnn uses more cores.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
# The kernel behind csr_matrix @ dense; called directly so that row blocks
# write into one output. tests/test_linalg.py pins it against the public @.
from scipy.sparse._sparsetools import csr_matvecs

_MIN_MATMUL = 1 << 22  # multiply-adds per row block of a dense product
_MIN_TRANSPOSED = 1 << 27  # multiply-adds per row block of a transposed product
_ROW_ALIGN = 192  # every cut of a C-ordered dense product falls on a multiple of this
_CHUNK = 1 << 16  # output entries per sparse or elementwise row range
_LEAF = 1 << 16  # most entries in one leaf of lp_norm's summation tree
# CPUs this process may run on at import: the most threads draining one call's ranges.
_WIDTH = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")  # Linux
          else os.cpu_count() or 1)
_pool: ThreadPoolExecutor | None = None


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator, the single PRNG used across the package.

    PCG64 streams are stable across platforms and numpy releases for a
    given seed, which is what makes manifests replayable bit-exactly.
    """
    return np.random.Generator(np.random.PCG64(seed))


def _frozen(a: np.ndarray, dtype) -> np.ndarray:
    out = np.array(a, dtype=dtype, order="C")  # always a copy, and a base ndarray
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class CsrMatrix:
    """Immutable CSR sparse matrix in canonical form.

    ``row_ptr`` has length ``rows + 1`` with ``row_ptr[0] == 0`` and
    ``row_ptr[rows] == nnz``; column indices are strictly increasing
    within each row. Construction validates all of this, so downstream
    kernels can rely on a deterministic iteration order, and then keeps
    the indices as int32, which scipy's CSR kernel reads faster than
    int64; rows, columns and nnz must therefore stay below 2^31.
    """

    rows: int
    cols: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        # Checked in int64, so no index wraps before it is checked.
        ptr = np.asarray(self.row_ptr, dtype=np.int64)
        idx = np.asarray(self.col_idx, dtype=np.int64)
        nnz = len(idx)
        object.__setattr__(self, "values", _frozen(self.values, np.float64))
        if self.rows < 0 or self.cols < 0:
            raise ValueError(f"invalid CSR shape {self.rows}x{self.cols}")
        if ptr.shape != (self.rows + 1,):
            raise ValueError("row_ptr must have length rows + 1")
        if ptr[0] != 0 or ptr[-1] != nnz:
            raise ValueError("row_ptr must start at 0 and end at nnz")
        if (np.diff(ptr) < 0).any():
            raise ValueError("row_ptr must be non-decreasing")
        if nnz != len(self.values):
            raise ValueError("col_idx and values must have equal length")
        if nnz and (idx.min() < 0 or idx.max() >= self.cols):
            raise ValueError("column index out of range")
        if not np.isfinite(self.values).all():
            raise ValueError("CSR values contain non-finite entries")
        if nnz > 1:
            diffs = np.diff(idx)
            interior = np.ones(nnz - 1, dtype=bool)
            starts = ptr[1:-1]
            cut = starts[(starts > 0) & (starts < nnz)] - 1
            interior[cut] = False
            if not (diffs[interior] > 0).all():
                raise ValueError(
                    "column indices must be strictly increasing within each row"
                )
        if max(self.rows, self.cols, nnz) >= 1 << 31:
            raise ValueError("CSR rows, cols and nnz must be below 2^31")
        object.__setattr__(self, "row_ptr", _frozen(ptr, np.int32))
        object.__setattr__(self, "col_idx", _frozen(idx, np.int32))

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

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


def _row_cuts(rows: int, row_work: int, min_work: int, align: int) -> list[int]:
    """Cuts of [0, rows) into ranges of ``row_work`` work per row (module docstring).

    As many ranges as fit with every inner cut a multiple of ``align``
    and every range at least ``min_work``; the cuts strictly increase,
    so no range is empty.
    """
    units = rows // align
    per_block = -(-min_work // max(align * row_work, 1))  # in units
    blocks = units // per_block
    if blocks < 2:
        return [0, rows]
    return [align * (units * i // blocks) for i in range(blocks)] + [rows]


def _drop_pool() -> None:
    # A forked child has none of the parent's threads, so the executor it
    # inherits would queue work that nothing runs.
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _submit(fn, *args):
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(_WIDTH, thread_name_prefix="capgnn-rows")
    return _pool.submit(fn, *args)


def _finish(futures) -> None:
    futures = [f for f in futures if not f.cancelled()]  # those never run
    wait(futures)  # no worker may still write once this returns
    for f in futures:
        f.result()


def _run_row_blocks(bounds: list[int], fn) -> None:
    """Call ``fn(lo, hi)`` on each range between consecutive ``_row_cuts`` bounds.

    The caller and up to ``_WIDTH - 1`` pool workers take the ranges in
    order from one shared counter (``next`` on an ``itertools.count`` is
    atomic under the GIL) until none is left; a worker that has not
    started by then is cancelled, not waited for. Returns once every
    range is done, raising the first error.
    """
    ranges = len(bounds) - 1
    if ranges == 1:
        fn(*bounds)
        return
    taken = itertools.count()

    def drain():
        while (i := next(taken)) < ranges:
            fn(bounds[i], bounds[i + 1])

    futures = [_submit(drain) for _ in range(min(_WIDTH, ranges) - 1)]
    try:
        drain()
    finally:
        for f in futures:
            f.cancel()  # one still queued would find every range taken
        _finish(futures)
        # A cancelled drain stays in the pool's queue until a worker takes it;
        # it must not keep fn's arrays alive until then.
        fn = None


def _stream_normal(rng: np.random.Generator, cuts: list[int], cols: int, fn) -> None:
    """One ``cuts[-1] x cols`` standard normal draw, made range by range in order.

    The rows [lo, hi) between consecutive ``cuts`` are drawn as
    ``rng.standard_normal((hi - lo, cols))`` on the caller's thread, so
    the bytes and the generator state are those of one
    ``rng.standard_normal((cuts[-1], cols))`` call. ``fn(lo, hi, drawn)``
    runs on the pool as soon as they are drawn (inline at width 1 or with
    one range), so it must not use the pool.
    """
    futures = []
    run = fn if _WIDTH < 2 or len(cuts) == 2 else (
        lambda *args: futures.append(_submit(fn, *args)))
    try:
        for lo, hi in zip(cuts, cuts[1:]):
            run(lo, hi, rng.standard_normal((hi - lo, cols)))
    finally:
        _finish(futures)


def _dense_cuts(a: np.ndarray, cols: int) -> list[int]:
    """The ``_row_cuts`` of ``a @ b`` for a 2-D ``a`` and a ``b`` of ``cols`` columns."""
    rows, row_work = a.shape[0], a.shape[1] * cols
    if a.strides[0] < a.strides[1]:  # a transposed view: each row is a column of H
        return _row_cuts(rows, row_work, _MIN_TRANSPOSED, 1)
    return _row_cuts(rows, row_work, _MIN_MATMUL, _ROW_ALIGN)


def _matmul_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` for 2-D float64 arrays, in aligned row blocks (module docstring).

    Written into ``out`` (C-contiguous, of the product's shape) when given.
    """
    bounds = _dense_cuts(a, b.shape[1])
    if len(bounds) == 2:
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty((a.shape[0], b.shape[1]))
    _run_row_blocks(bounds, lambda lo, hi: np.matmul(a[lo:hi], b, out=out[lo:hi]))
    return out


def _shifted_product(rows, x, w, out, lo, hi) -> None:
    """Rows [lo, hi) of ``(S + x) @ w`` into ``out``, from ``rows = S[lo:hi]``.

    ``rows`` (float64, C-contiguous) takes the sum. On a ``_dense_cuts``
    range this is ``_matmul_rows``'s call there, so it has those rows' bytes.
    """
    np.add(rows, x[lo:hi], out=rows)
    np.matmul(rows, w, out=out[lo:hi])


def _sweep_rows(shape: tuple[int, int], fn) -> None:
    """Call ``fn(lo, hi)`` on row ranges of at least ``_CHUNK`` entries.

    For elementwise passes over n x d arrays: ``fn`` runs every pass on
    one range while it sits in cache.
    """
    _run_row_blocks(_row_cuts(*shape, _CHUNK, 1), fn)


def spmm(a: CsrMatrix, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """CSR @ dense product, written into ``out`` when given.

    Accumulation is row-major and index-ascending within each row (the
    scipy CSR kernel walks nonzeros in storage order), matching a naive
    triple loop bit for bit on canonical input. Large outputs are
    computed in row ranges of at least ``_CHUNK`` entries (module
    docstring), each zeroed and written in place in the one output.
    ``out`` must be a C-contiguous float64 array of the product's shape
    that does not overlap ``b``.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError(f"spmm expects a 2-D dense operand, got shape {b.shape}")
    if a.cols != b.shape[0]:
        raise ValueError(
            f"spmm shape mismatch: {a.rows}x{a.cols} @ {b.shape[0]}x{b.shape[1]}"
        )
    k = b.shape[1]
    if out is None:
        out = np.empty((a.rows, k))
    elif (out.shape != (a.rows, k) or out.dtype != np.float64
          or not out.flags.c_contiguous):
        raise ValueError(f"spmm out must be a C-contiguous {a.rows}x{k} float64 array")
    xs, ys = b.ravel(), out.reshape(-1)  # xs copies a non-contiguous b

    def block(lo, hi):  # zeroes its own rows, so they start in its cache
        y = ys[lo * k:hi * k]
        y.fill(0.0)
        csr_matvecs(hi - lo, a.cols, k, a.row_ptr[lo:hi + 1], a.col_idx, a.values, xs, y)

    _run_row_blocks(_row_cuts(a.rows, k, _CHUNK, 1), block)
    return out


def _pairwise_sum(lo: int, hi: int, leaf) -> float:
    """``np.sum`` of a float64 run [lo, hi), adding ``leaf(lo, hi)`` of each leaf.

    numpy's own pairwise tree: a run of n entries splits at
    ``n//2 - (n//2) % 8``, down to leaves of at most ``_LEAF`` entries,
    whose ``np.sum`` has the bits of their subtree.
    """
    n = hi - lo
    if n <= _LEAF:
        return leaf(lo, hi)
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(lo, lo + half, leaf) + _pairwise_sum(lo + half, hi, leaf)


def _square_sum(v: np.ndarray) -> float:
    return np.sum(np.square(v, dtype=np.float64))


def lp_norm(m: np.ndarray, p) -> float:
    """Entrywise norm of a matrix: flattened l2 for p=2, max-abs for p=inf."""
    m = np.asarray(m)
    if m.size == 0:
        raise ValueError("lp_norm of an empty matrix is undefined")
    if p == 2:
        # np.sum is pairwise and BLAS-free, hence thread-count independent.
        # C-contiguous float64 is summed leaf by leaf, with no n x d square.
        if m.dtype == np.float64 and m.flags.c_contiguous:
            flat = m.reshape(-1)
            total = _pairwise_sum(0, m.size, lambda lo, hi: _square_sum(flat[lo:hi]))
            return float(np.sqrt(total))
        return float(np.sqrt(_square_sum(m)))
    if p == math.inf:
        # The largest |entry| is |max| or |min|; no n x d np.abs(m) temporary,
        # and a NaN entry still gives NaN.
        return float(np.maximum(np.abs(m.max()), np.abs(m.min())))
    raise ValueError(f"unsupported norm order {p!r}; use 2 or math.inf")
