"""Dense/sparse numeric kernels and seeded Gaussian sampling.

Dense matrices are plain 2-D float64 numpy arrays (row-major). Sparse
matrices use a validated canonical CSR layout (sorted, duplicate-free
column indices per row). Every operation here is a pure function and
accumulates in a fixed row-major, index-ascending order, so repeated
runs with the same inputs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp


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

    @classmethod
    def from_dense(cls, a) -> "CsrMatrix":
        a = np.asarray(a, dtype=np.float64)
        r, c = np.nonzero(a)
        return cls.from_coo(a.shape[0], a.shape[1], r, c, a[r, c])

    @classmethod
    def identity(cls, n: int) -> "CsrMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    def to_dense(self) -> np.ndarray:
        return self._sp.toarray()


def spmm(a: CsrMatrix, b: np.ndarray) -> np.ndarray:
    """CSR @ dense product.

    Accumulation is row-major and index-ascending within each row (the
    scipy CSR kernel walks nonzeros in storage order), matching a naive
    triple loop bit for bit on canonical input.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError(f"spmm expects a 2-D dense operand, got shape {b.shape}")
    if a.cols != b.shape[0]:
        raise ValueError(
            f"spmm shape mismatch: {a.rows}x{a.cols} @ {b.shape[0]}x{b.shape[1]}"
        )
    return a._sp @ b


def lp_norm(m: np.ndarray, p) -> float:
    """Entrywise norm of a matrix: flattened l2 for p=2, max-abs for p=inf."""
    m = np.asarray(m)
    if m.size == 0:
        raise ValueError("lp_norm of an empty matrix is undefined")
    if p == 2:
        # np.sum is pairwise and BLAS-free, hence thread-count independent.
        return float(np.sqrt(np.sum(np.square(m, dtype=np.float64))))
    if p == math.inf:
        return float(np.max(np.abs(m)))
    raise ValueError(f"unsupported norm order {p!r}; use 2 or math.inf")


def sample_gaussian_like(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. standard-normal matrix drawn from ``rng`` (ziggurat method)."""
    if rows < 1 or cols < 1:
        raise ValueError(f"invalid sample shape {rows}x{cols}")
    return rng.standard_normal((rows, cols))
