"""Graph datasets: adjacency normalization, disk IO, stratified splits, SBM generation.

A dataset directory is plain text (UTF-8, LF line endings):

    meta.json       {"n": int, "d": int, "num_classes": int}
    edges.tsv       one "u<TAB>v" per line, 0-based, each undirected edge once
    features.csv    n lines of d comma-separated reals
    labels.txt      n lines, one class index per line
    split.json      {"train": [ids], "val": [ids], "test": [ids]}

The loader mirrors every edge, rejects duplicates and self-loops, and
reports the offending file and line on malformed input. The writer
prints each feature as its shortest round-trip ``repr``. It formats each
distinct nonzero value once per file and writes each run of zeros (most
cells of bag-of-words features) as one ready-made "0.0,0.0,..." string,
so its Python work grows with the nonzeros, not with n*d.

A large features.csv is parsed on every CPU the process may run on
(``linalg._WIDTH``): the file is cut on line starts into byte ranges of at
least ``_RANGE_BYTES``, and one forked child per range after the first
parses its bytes with the serial ``np.loadtxt`` call into one shared
anonymous mmap, at the row of the line ends before them, while the
parent reads edges.tsv and then its own range. Anything unexpected in
any range falls back to the serial parse, so rows and errors are the
serial parse's; every child is reaped before the loader returns or
raises.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import signal
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import linalg
from .linalg import CsrMatrix, _frozen, make_rng


class DatasetError(ValueError):
    """Malformed dataset directory or invalid graph input."""


def normalize_adjacency(a: CsrMatrix) -> CsrMatrix:
    """Self-loop-augmented symmetric degree normalization of an adjacency.

    With degree weights ``d_i = 1 + (row sum of a)``, the output entry
    (i, j) is ``(a + I)[i][j] / sqrt(d_i * d_j)``. The input must be
    square, symmetric, and non-negative; the output is symmetric with a
    strictly positive diagonal, so isolated nodes stay well-defined.
    """
    if a.rows != a.cols:
        raise DatasetError(f"adjacency must be square, got {a.rows}x{a.cols}")
    if len(a.values) and a.values.min() < 0:
        raise DatasetError("adjacency values must be non-negative")
    m = sp.csr_matrix((a.values, a.col_idx, a.row_ptr), shape=a.shape, copy=False)
    if (m != m.T).nnz:
        raise DatasetError("adjacency must be symmetric")
    deg = 1.0 + np.asarray(m.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    t = (m + sp.identity(a.rows, format="csr")).tocsr()
    t.sort_indices()
    row_of = np.repeat(np.arange(a.rows), np.diff(t.indptr))
    vals = t.data * inv_sqrt[row_of] * inv_sqrt[t.indices]
    return CsrMatrix(a.rows, a.cols, t.indptr, t.indices, vals)


@dataclass(frozen=True)
class Dataset:
    """Immutable node-classification dataset with precomputed normalized adjacency."""

    n: int
    d: int
    num_classes: int
    adjacency: CsrMatrix
    a_hat: CsrMatrix
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray

    @property
    def num_edges(self) -> int:
        """Undirected edge count: the adjacency is symmetric with an empty diagonal."""
        return self.adjacency.nnz // 2


def make_dataset(
    adjacency: CsrMatrix,
    features,
    labels,
    num_classes: int,
    train_mask,
    val_mask,
    test_mask,
) -> Dataset:
    """Validate parts, normalize the adjacency, and freeze everything.

    Accepts only what :func:`load_dataset` reads back: at least one
    feature column and at most ``n`` classes. Every part is copied, so
    later changes to the caller's arrays leave the dataset alone.
    """
    return _dataset(adjacency, np.asarray(features, dtype=np.float64), labels, num_classes,
                    train_mask, val_mask, test_mask, own=False)


def _dataset(adjacency, features, labels, num_classes, train_mask, val_mask, test_mask,
             own: bool) -> Dataset:
    """``make_dataset``; with ``own``, ``features`` is frozen in place, not copied.

    ``own`` is for ``load_dataset``'s own array, which nothing else holds.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = adjacency.rows
    if features.ndim != 2 or features.shape[0] != n or features.shape[1] < 1:
        raise DatasetError(
            f"features must be {n}xd with d >= 1, got shape {features.shape}"
        )
    if labels.shape != (n,):
        raise DatasetError(f"labels must have length {n}")
    rows_of = np.repeat(np.arange(n), np.diff(adjacency.row_ptr))
    loops = rows_of[rows_of == adjacency.col_idx]
    if loops.size:
        raise DatasetError(f"self-loop at node {loops[0]} not allowed")
    if not 1 <= num_classes <= n:
        raise DatasetError(f"num_classes must be in [1, n] = [1, {n}], got {num_classes}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise DatasetError("label out of range")
    if not np.isfinite(features).all():
        raise DatasetError("features contain non-finite entries")
    masks = []
    for name, mask in (("train", train_mask), ("val", val_mask), ("test", test_mask)):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n,):
            raise DatasetError(f"{name} mask must have length {n}")
        masks.append(mask)
    train, val, test = masks
    if (train & val).any() or (train & test).any() or (val & test).any():
        raise DatasetError("split masks must be pairwise disjoint")
    if not train.any():
        raise DatasetError("train mask must select at least one node")
    if own:
        features.flags.writeable = False
    else:  # after the checks, so their temporaries never sit beside the copy
        features = _frozen(features, np.float64)
    return Dataset(
        n=n,
        d=features.shape[1],
        num_classes=num_classes,
        adjacency=adjacency,
        a_hat=normalize_adjacency(adjacency),
        features=features,
        labels=_frozen(labels, np.int64),
        train_mask=_frozen(train, bool),
        val_mask=_frozen(val, bool),
        test_mask=_frozen(test, bool),
    )


def row_normalize(features: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Scale each feature row to unit l1 mass; all-zero rows are left alone.

    The input is read as float64 (so integer features work too) and never
    modified; the quotient is written into the ``np.abs`` buffer, so the
    result is the only n x d array this allocates (none when ``out``, an
    array apart from the input, is given to hold it).
    """
    features = np.asarray(features, dtype=np.float64)
    out = np.abs(features, out=out)
    sums = out.sum(axis=1, keepdims=True)
    sums[sums == 0.0] = 1.0
    return np.divide(features, sums, out=out)


# ---------------------------------------------------------------------------
# Disk IO
# ---------------------------------------------------------------------------

_FILES = ("meta.json", "edges.tsv", "features.csv", "labels.txt", "split.json")
_RANGE_BYTES = 1 << 22  # least features.csv bytes per parse range (4 MiB)


def dataset_fingerprint(directory) -> str:
    """SHA-256 over the dataset files, in a fixed order."""
    h = hashlib.sha256()
    for name in _FILES:
        f = Path(directory) / name
        h.update(name.encode())
        if f.is_file():
            h.update(f.read_bytes())
    return h.hexdigest()


def _fail(path: Path, msg: str, line: int | None = None) -> DatasetError:
    where = f"{path}:{line}" if line is not None else str(path)
    return DatasetError(f"{where}: {msg}")


def _numbered_lines(path: Path):
    """(line number, line) pairs of a UTF-8 text file; other bytes raise DatasetError."""
    try:
        with path.open(encoding="utf-8") as f:
            yield from enumerate(f, start=1)
    except UnicodeDecodeError as e:
        raise _fail(path, f"not UTF-8 text ({e})") from e


def load_dataset(directory, row_normalize_features: bool = False) -> Dataset:
    """Read a dataset directory written by :func:`save_dataset`.

    Raises :class:`DatasetError` naming the file (and line, where it
    applies) for any missing file, bytes that are not UTF-8, sizes in
    ``meta.json`` that are not JSON integers >= 1, more classes than
    nodes, malformed line, out-of-range index, duplicate edge, self-loop,
    node in two splits, or empty train split. A large features.csv is
    parsed in forked byte ranges (see above); no child outlives the call.
    """
    directory = Path(directory)
    for name in _FILES:
        if not (directory / name).is_file():
            raise DatasetError(f"{directory}: missing required file {name}")

    meta_path = directory / "meta.json"
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        n, d, num_classes = meta["n"], meta["d"], meta["num_classes"]
    except (KeyError, TypeError, ValueError) as e:  # ValueError: bad JSON or UTF-8
        raise _fail(meta_path, f"invalid meta.json ({e})") from e
    for key, v in (("n", n), ("d", d), ("num_classes", num_classes)):
        if type(v) is not int or v < 1:
            raise _fail(meta_path, f"{key} must be an integer >= 1, got {v!r}")
    if num_classes > n:
        raise _fail(meta_path, f"num_classes must be <= n ({n}), got {num_classes}")

    feat_path = directory / "features.csv"
    pids = []  # forked range parsers not yet reaped
    try:
        ranges = _fork_ranges(feat_path, n, d, row_normalize_features, pids)
        us, vs = _read_edges(directory / "edges.tsv", n)
        features = (_join_ranges(feat_path, *ranges, row_normalize_features, pids)
                    if ranges else None)
    finally:
        for pid in pids:  # running, or exited and not yet waited for
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if features is None:
        ranges = None  # unmaps the shared rows before the serial parse
        features = _read_features(feat_path, n, d)
        if row_normalize_features:
            features = row_normalize(features)

    labels_path = directory / "labels.txt"
    labels = np.empty(n, dtype=np.int64)
    count = 0
    for lineno, raw in _numbered_lines(labels_path):
        line = raw.strip()
        if not line:
            continue
        if count >= n:
            raise _fail(labels_path, f"more than {n} labels", lineno)
        try:
            lab = int(line)
        except ValueError:
            raise _fail(labels_path, f"non-integer label {line!r}", lineno)
        if not (0 <= lab < num_classes):
            raise _fail(labels_path, f"label {lab} out of range", lineno)
        labels[count] = lab
        count += 1
    if count != n:
        raise _fail(labels_path, f"expected {n} labels, found {count}")

    split_path = directory / "split.json"
    try:
        split = json.loads(split_path.read_text(encoding="utf-8"))
    except ValueError as e:  # invalid JSON or not UTF-8
        raise _fail(split_path, f"invalid JSON ({e})") from e
    if not isinstance(split, dict):
        raise _fail(split_path, "expected a JSON object of train/val/test id lists")
    masks = {}
    for part in ("train", "val", "test"):
        ids = split.get(part)
        if not isinstance(ids, list):
            raise _fail(split_path, f"missing or non-list {part!r} ids")
        mask = np.zeros(n, dtype=bool)
        for i in ids:
            if type(i) is not int or not (0 <= i < n):
                raise _fail(split_path, f"{part} id {i!r} is not a node id in [0, {n})")
            if mask[i]:
                raise _fail(split_path, f"{part} id {i} listed twice")
            mask[i] = True
        for other, taken in masks.items():
            both = np.flatnonzero(mask & taken)
            if both.size:
                raise _fail(
                    split_path,
                    f"id {both[0]} is in both {other} and {part}; splits must be disjoint",
                )
        masks[part] = mask
    if not masks["train"].any():
        raise _fail(split_path, "'train' must list at least one node")

    adjacency = CsrMatrix.from_coo(
        n, n, np.concatenate((us, vs)), np.concatenate((vs, us)), np.ones(2 * len(us))
    )
    return _dataset(
        adjacency, features, labels, num_classes,
        masks["train"], masks["val"], masks["test"], own=True,
    )


_TAB, _LF = 9, 10
_EDGE_BYTE = np.zeros(256, dtype=bool)  # the bytes _parse_edges reads: digits, TAB, LF
_EDGE_BYTE[[_TAB, _LF, *range(ord("0"), ord("9") + 1)]] = True


def _read_edges(path: Path, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Both endpoint arrays of edges.tsv, each undirected edge once.

    Parsed in numpy when ``_parse_edges`` reads the file; otherwise line
    by line, which reads what ``int()`` reads and names the first bad line.
    """
    edges = _parse_edges(path.read_bytes(), n)
    if edges is None:
        edges = tuple(np.array(e, dtype=np.int64) for e in _edge_lines(path, n))
    return edges


def _parse_edges(data: bytes, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """``(us, vs)`` of an edges.tsv whose lines are all ``digits TAB digits LF``
    or empty, naming in-range, distinct, loop-free edges; else None.

    Each endpoint's digits are read by Horner's rule, a column at a time,
    so one takes at most 18 digits (below 2^63).
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    if buf.size and (buf[-1] != _LF or not _EDGE_BYTE[buf].all()):
        return None
    seps = np.flatnonzero(buf < ord("0"))  # TAB or LF
    digits = np.diff(seps, prepend=-1) - 1  # before each separator
    tab = buf[seps] == _TAB
    # An empty line: an LF with no digit since the last LF, or since the start.
    blank = ~tab & (digits == 0) & np.concatenate(([True], ~tab[:-1]))
    ends, digits, tab = seps[~blank], digits[~blank], tab[~blank]
    if (len(ends) % 2 or not tab[0::2].all() or tab[1::2].any()
            or not ((digits >= 1) & (digits <= 18)).all()):
        return None
    values = np.zeros(len(ends), dtype=np.int64)
    for back in range(int(digits.max(initial=0)), 0, -1):  # the digit `back` before the end
        at = np.maximum(ends - back, 0)
        values = values * 10 + np.where(digits >= back, buf[at] - ord("0"), 0)
    us, vs = values[0::2], values[1::2]
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    if (n >= 1 << 31 or not (hi < n).all() or (lo == hi).any()  # lo * n + hi < 2^62
            or len(np.unique(lo * n + hi)) < len(lo)):
        return None
    return us, vs


def _edge_lines(path: Path, n: int) -> tuple[list, list]:
    """``_read_edges`` line by line: raises naming the first bad line."""
    seen = set()
    us, vs = [], []
    for lineno, raw in _numbered_lines(path):
        line = raw.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise _fail(path, f"expected 'u<TAB>v', got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise _fail(path, f"non-integer endpoint in {line!r}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise _fail(path, f"node index out of range in {line!r}", lineno)
        if u == v:
            raise _fail(path, f"self-loop {u}-{v} not allowed", lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise _fail(
                path,
                f"duplicate undirected edge {u}-{v} (each edge listed once)",
                lineno,
            )
        seen.add(key)
        us.append(u)
        vs.append(v)
    return us, vs


def _loadtxt(source, **kw) -> np.ndarray:
    with warnings.catch_warnings():
        # An empty file is rejected by its shape.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(source, delimiter=",", dtype=np.float64, ndmin=2, comments=None,
                          **kw)


def _read_features(path: Path, n: int, d: int) -> np.ndarray:
    """Parse features.csv in this process, or raise naming its first bad line."""
    try:
        features = _loadtxt(path)
    except ValueError:
        _locate_bad_csv_line(path, d)
        raise _fail(path, "malformed features file")
    if features.shape != (n, d):
        raise _fail(path, f"expected {n}x{d} feature rows, got {features.shape}")
    if not np.isfinite(features).all():
        _locate_bad_csv_line(path, d)
        raise _fail(path, "non-finite feature value")
    return features


def _fork_ranges(path: Path, n: int, d: int, normalize: bool, pids: list):
    """Fork a parser per byte range after the first, adding its pid to ``pids``.

    Returns the first range's end and the shared n x d rows, or None for a
    serial parse: no ``os.fork``, under two ranges of ``_RANGE_BYTES``, or
    under the 2 bytes per cell (digit and separator) n x d needs.
    """
    size = path.stat().st_size
    count = min(linalg._WIDTH, size // _RANGE_BYTES)
    if not hasattr(os, "fork") or count < 2 or 2 * n * d > size:
        return None
    bounds = [0]
    with path.open("rb") as f:
        for i in range(1, count):
            f.seek(size * i // count - 1)
            cut = f.tell() + len(f.readline())  # just past the next line end
            if bounds[-1] < cut < size:
                bounds.append(cut)
    if len(bounds) < 2:
        return None
    bounds.append(size)
    out = np.frombuffer(mmap.mmap(-1, 8 * n * d), dtype=np.float64).reshape(n, d)
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        pid = os.fork()
        if pid == 0:  # the child leaves here, without unwinding the parent's stack
            ok = False
            try:
                ok = _parse_range(path, lo, hi, out, normalize, hi == size)
            finally:
                os._exit(0 if ok else 1)
        pids.append(pid)
    return bounds[1], out


def _join_ranges(path: Path, first: int, out: np.ndarray, normalize: bool, pids: list):
    """Parse the first range here, then reap the other parsers: ``out``, or None."""
    ok = _parse_range(path, 0, first, out, normalize, False)
    while ok and pids:
        ok = os.waitpid(pids[-1], 0)[1] == 0  # exited with status 0
        pids.pop()
    return out if ok else None


def _parse_range(path: Path, lo: int, hi: int, out: np.ndarray, normalize: bool,
                 last: bool) -> bool:
    """Parse bytes [lo, hi) of features.csv into ``out``, from the row of its line.

    False, with ``out`` partly written, for what the serial parse might
    read otherwise: a ValueError (non-ASCII bytes too), rows other than
    line ends (an empty line, no final line end), other than d columns,
    a non-finite value, or rows past ``out``'s end or, if ``last``, short of it.
    """
    with path.open("rb") as f:
        row = sum(part.count(b"\n") for part in
                  iter(lambda: f.read(min(lo - f.tell(), 1 << 20)), b""))
        ends = 0

        def lines():
            nonlocal ends
            for line in iter(lambda: f.readline(hi - f.tell()), b""):
                ends += line.endswith(b"\n")
                yield line

        try:
            rows = _loadtxt(lines(), encoding="ascii")
        except ValueError:
            return False
    end = row + len(rows)
    if (rows.shape[1] != out.shape[1] or len(rows) != ends or end > len(out)
            or last and end < len(out) or not np.isfinite(rows).all()):
        return False
    dst = out[row:end]
    if normalize:
        row_normalize(rows, out=dst)
    else:
        dst[...] = rows
    return True


def _locate_bad_csv_line(path: Path, d: int) -> None:
    """Raise at the first row np.loadtxt reads with a bad count, non-number or inf/NaN."""
    for lineno, raw in _numbered_lines(path):
        parts = raw.rstrip("\n").split(",")
        if parts == [""]:  # empty once the line ending goes: np.loadtxt skips it
            continue
        if len(parts) != d:
            raise _fail(path, f"expected {d} values, got {len(parts)}", lineno)
        for p in parts:
            try:
                # float() also takes '1_0' and non-ASCII digits; np.loadtxt does not.
                if "_" in p or not p.isascii():
                    raise ValueError
                value = float(p)
            except ValueError:
                raise _fail(path, f"non-numeric value {p!r}", lineno)
            if not np.isfinite(value):
                raise _fail(path, "non-finite feature value", lineno)


_CSV_BLOCK_ROWS = 512  # feature rows formatted per write: a few MB at d=500


def _write_features_csv(features: np.ndarray, path: Path) -> None:
    """Write one line per row, ``",".join(repr(float(x)) for x in row)``.

    Only nonzero float64 bit patterns are visited (-0.0 has one, so it
    keeps its sign), and each distinct one is formatted once. A line is,
    per nonzero, the zeros and commas before it and its text, then the
    zeros after the row's last nonzero and the line end.
    """
    n, d = features.shape
    bits = features.view(np.int64).ravel()
    at = np.flatnonzero(bits != 0)
    rows, cols = np.divmod(at, d)
    distinct, code = np.unique(bits[at], return_inverse=True)
    values = np.array([repr(x) for x in distinct.view(np.float64).tolist()], dtype=object)
    zeros = ["0.0," * k for k in range(d + 1)]
    # k zeros before a row's first nonzero, then [d + 1 + k] between two nonzeros.
    gaps = np.array(zeros + ["," + z for z in zeros], dtype=object)
    # k zeros after a row's last nonzero; [d] is a row without one.
    ends = np.array([",0.0" * k + "\n" for k in range(d)] + [zeros[d][:-1] + "\n"],
                    dtype=object)
    starts = np.zeros(n + 1, dtype=np.intp)  # starts[r]: nonzeros in rows before r
    np.cumsum(np.bincount(rows, minlength=n), out=starts[1:])
    filled = starts[:-1] < starts[1:]
    prev = np.roll(cols, 1)  # column of the nonzero before, -1 at a row's first
    prev[starts[:-1][filled]] = -1
    last = np.full(n, -1, dtype=np.intp)  # column of a row's last nonzero
    last[filled] = cols[starts[1:][filled] - 1]
    before = gaps[cols - prev - 1 + (d + 1) * (prev >= 0)]
    after = ends[d - 1 - last]
    # Segment indices: before row r come 2 per nonzero and one zeros-after per row.
    value_at = 2 * np.arange(len(cols)) + rows + 1
    row_end = 2 * starts[1:] + np.arange(n)
    with path.open("w", encoding="utf-8", newline="\n") as f:
        for lo in range(0, n, _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, n)
            nz = slice(starts[lo], starts[hi])
            first = 2 * starts[lo] + lo
            segments = np.empty(row_end[hi - 1] + 1 - first, dtype=object)
            segments[value_at[nz] - first - 1] = before[nz]
            segments[value_at[nz] - first] = values[code[nz]]
            segments[row_end[lo:hi] - first] = after[lo:hi]
            f.write("".join(segments.tolist()))


def save_dataset(dataset: Dataset, directory) -> None:
    """Write ``dataset`` in the documented directory layout (LF endings).

    Inverse of :func:`load_dataset`: floats are serialized with
    shortest round-trip repr, so load(save(ds)) reproduces content
    exactly. Feature formatting is per distinct nonzero value and
    joining is per nonzero (runs of zeros are one string each); the
    bytes are those of a per-cell ``repr``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {"n": dataset.n, "d": dataset.d, "num_classes": dataset.num_classes}
    (directory / "meta.json").write_text(
        json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )

    # The adjacency is symmetric and CSR storage order is lexicographic, so
    # its upper triangle lists every undirected edge once, already sorted.
    adj = dataset.adjacency
    rows = np.repeat(np.arange(adj.rows), np.diff(adj.row_ptr))
    upper = adj.col_idx >= rows
    pairs = zip(rows[upper].tolist(), adj.col_idx[upper].tolist())
    lines = [f"{u}\t{v}\n" for u, v in pairs]
    (directory / "edges.tsv").write_text("".join(lines), encoding="utf-8", newline="\n")

    _write_features_csv(dataset.features, directory / "features.csv")
    (directory / "labels.txt").write_text(
        "".join(f"{lab}\n" for lab in dataset.labels.tolist()),
        encoding="utf-8", newline="\n",
    )
    split = {
        "train": np.flatnonzero(dataset.train_mask).tolist(),
        "val": np.flatnonzero(dataset.val_mask).tolist(),
        "test": np.flatnonzero(dataset.test_mask).tolist(),
    }
    (directory / "split.json").write_text(
        json.dumps(split, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )


# ---------------------------------------------------------------------------
# Splits and synthetic graphs
# ---------------------------------------------------------------------------

def random_split(
    labels,
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class stratified train/val/test split.

    Each class is shuffled with ``rng`` and cut at floor(fraction * size)
    for train and val; the remainder goes to test, so the masks cover
    every labeled node. Classes with fewer than 3 members cannot be
    stratified and raise.
    """
    labels = np.asarray(labels, dtype=np.int64)
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or not all(0 <= f <= 1 for f in fractions):  # NaN too
        raise ValueError(f"fractions must be three numbers in [0, 1], got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    if rng is None:
        rng = make_rng(0)
    n = len(labels)
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if len(idx) < 3:
            raise ValueError(
                f"class {c} has only {len(idx)} members; need >= 3 to stratify"
            )
        perm = rng.permutation(idx)
        n_tr = int(np.floor(fractions[0] * len(idx)))
        n_val = int(np.floor(fractions[1] * len(idx)))
        train[perm[:n_tr]] = True
        val[perm[n_tr : n_tr + n_val]] = True
        test[perm[n_tr + n_val :]] = True
    return train, val, test


@dataclass(frozen=True)
class SbmParams:
    """Planted-partition generator parameters.

    Features are a per-block unit mean vector plus isotropic Gaussian
    jitter, so ``feature_noise`` directly controls class overlap. By
    default the means are one-hot and the feature dimension equals the
    number of blocks; ``feature_dim`` switches to random unit means in
    that many dimensions, which gives the model enough width to overfit
    per-node noise (the regime adversarial training targets).
    """

    block_sizes: tuple[int, ...]
    p_in: float
    p_out: float
    feature_noise: float = 1.0
    feature_dim: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "block_sizes", tuple(int(b) for b in self.block_sizes))
        if not self.block_sizes or any(b < 1 for b in self.block_sizes):
            raise ValueError("block sizes must all be >= 1")
        if not (0.0 <= self.p_out <= self.p_in <= 1.0):
            raise ValueError(
                f"need 0 <= p_out <= p_in <= 1, got p_in={self.p_in}, p_out={self.p_out}"
            )
        if not 0 <= self.feature_noise < np.inf:  # NaN too
            raise ValueError(f"need 0 <= feature_noise < inf, got {self.feature_noise}")
        if self.feature_dim is not None and self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")


def generate_sbm(
    params: SbmParams,
    rng: np.random.Generator,
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
) -> Dataset:
    """Sample a symmetric simple SBM graph with block-id labels.

    Draw order is fixed (edges, then block means where random, then
    feature jitter, then split), so a given seed fully determines the
    dataset. Intended for desk-scale graphs; edge sampling materializes
    an n*n uniform draw.
    """
    sizes = params.block_sizes
    n = int(sum(sizes))
    k = len(sizes)
    labels = np.repeat(np.arange(k, dtype=np.int64), sizes)

    same_block = labels[:, None] == labels[None, :]
    prob = np.where(same_block, params.p_in, params.p_out)
    draw = rng.random((n, n))
    upper = np.triu(draw < prob, k=1)
    us, vs = np.nonzero(upper)

    if params.feature_dim is None:
        means = np.eye(k)
    else:
        means = rng.standard_normal((k, params.feature_dim))
        means /= np.sqrt(np.sum(means**2, axis=1, keepdims=True))
    features = means[labels]
    if params.feature_noise > 0:
        features = features + params.feature_noise * rng.standard_normal(
            features.shape
        )

    adjacency = CsrMatrix.from_coo(
        n, n,
        np.concatenate([us, vs]),
        np.concatenate([vs, us]),
        np.ones(2 * len(us)),
    )
    train, val, test = random_split(labels, fractions, rng)
    return make_dataset(adjacency, features, labels, k, train, val, test)
