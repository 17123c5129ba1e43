"""Graph datasets: adjacency normalization, disk IO, stratified splits, SBM generation.

A dataset directory is plain text (UTF-8, LF line endings):

    meta.json       {"n": int, "d": int, "num_classes": int}
    edges.tsv       one "u<TAB>v" per line, 0-based, each undirected edge once
    features.csv    n lines of d comma-separated reals
    labels.txt      n lines, one class index per line
    split.json      {"train": [ids], "val": [ids], "test": [ids]}

The loader mirrors every edge, rejects duplicates and self-loops, and
reports the offending file and line on malformed input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .linalg import CsrMatrix, make_rng


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
    m = a._sp
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
        """Undirected edge count (off-diagonal nnz / 2)."""
        adj = self.adjacency
        rows_of = np.repeat(np.arange(adj.rows), np.diff(adj.row_ptr))
        diag = int((rows_of == adj.col_idx).sum())
        return (adj.nnz - diag) // 2


def _frozen_arr(a, dtype) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def make_dataset(
    adjacency: CsrMatrix,
    features,
    labels,
    num_classes: int,
    train_mask,
    val_mask,
    test_mask,
) -> Dataset:
    """Validate parts, normalize the adjacency, and freeze everything."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = adjacency.rows
    if features.ndim != 2 or features.shape[0] != n:
        raise DatasetError(
            f"features must be {n}x?, got shape {features.shape}"
        )
    if labels.shape != (n,):
        raise DatasetError(f"labels must have length {n}")
    if num_classes < 1:
        raise DatasetError("num_classes must be >= 1")
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
    return Dataset(
        n=n,
        d=features.shape[1],
        num_classes=num_classes,
        adjacency=adjacency,
        a_hat=normalize_adjacency(adjacency),
        features=_frozen_arr(features, np.float64),
        labels=_frozen_arr(labels, np.int64),
        train_mask=_frozen_arr(train, bool),
        val_mask=_frozen_arr(val, bool),
        test_mask=_frozen_arr(test, bool),
    )


def row_normalize(features: np.ndarray) -> np.ndarray:
    """Scale each feature row to unit l1 mass; all-zero rows are left alone."""
    sums = np.abs(features).sum(axis=1, keepdims=True)
    sums[sums == 0.0] = 1.0
    return features / sums


# ---------------------------------------------------------------------------
# Disk IO
# ---------------------------------------------------------------------------

_FILES = ("meta.json", "edges.tsv", "features.csv", "labels.txt", "split.json")


def _fail(path: Path, msg: str, line: int | None = None) -> DatasetError:
    where = f"{path}:{line}" if line is not None else str(path)
    return DatasetError(f"{where}: {msg}")


def load_dataset(directory, row_normalize_features: bool = False) -> Dataset:
    """Read a dataset directory written by :func:`save_dataset`.

    Raises :class:`DatasetError` naming the file (and line, where it
    applies) for any missing file, malformed line, out-of-range index,
    duplicate edge, or self-loop.
    """
    directory = Path(directory)
    for name in _FILES:
        if not (directory / name).is_file():
            raise DatasetError(f"{directory}: missing required file {name}")

    meta_path = directory / "meta.json"
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        n, d, num_classes = int(meta["n"]), int(meta["d"]), int(meta["num_classes"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise _fail(meta_path, f"invalid meta.json ({e})") from e
    if n < 1 or d < 1 or num_classes < 1:
        raise _fail(meta_path, "n, d, num_classes must all be >= 1")

    edges_path = directory / "edges.tsv"
    seen = set()
    us, vs = [], []
    with edges_path.open(encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise _fail(edges_path, f"expected 'u<TAB>v', got {line!r}", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise _fail(edges_path, f"non-integer endpoint in {line!r}", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise _fail(edges_path, f"node index out of range in {line!r}", lineno)
            if u == v:
                raise _fail(edges_path, f"self-loop {u}-{v} not allowed", lineno)
            key = (min(u, v), max(u, v))
            if key in seen:
                raise _fail(
                    edges_path,
                    f"duplicate undirected edge {u}-{v} (each edge listed once)",
                    lineno,
                )
            seen.add(key)
            us.append(u)
            vs.append(v)

    feat_path = directory / "features.csv"
    try:
        features = np.loadtxt(
            feat_path, delimiter=",", dtype=np.float64, ndmin=2, comments=None
        )
    except ValueError:
        _locate_bad_csv_line(feat_path, d)
        raise _fail(feat_path, "malformed features file")
    if features.shape != (n, d):
        raise _fail(
            feat_path, f"expected {n}x{d} feature rows, got {features.shape}"
        )
    if not np.isfinite(features).all():
        bad = int(np.flatnonzero(~np.isfinite(features).all(axis=1))[0]) + 1
        raise _fail(feat_path, "non-finite feature value", bad)

    labels_path = directory / "labels.txt"
    labels = np.empty(n, dtype=np.int64)
    with labels_path.open(encoding="utf-8") as f:
        count = 0
        for lineno, raw in enumerate(f, start=1):
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
    except json.JSONDecodeError as e:
        raise _fail(split_path, f"invalid JSON ({e})") from e
    masks = {}
    for part in ("train", "val", "test"):
        ids = split.get(part)
        if not isinstance(ids, list):
            raise _fail(split_path, f"missing or non-list {part!r} ids")
        mask = np.zeros(n, dtype=bool)
        for i in ids:
            if not isinstance(i, int) or not (0 <= i < n):
                raise _fail(split_path, f"{part} id {i!r} out of range")
            if mask[i]:
                raise _fail(split_path, f"{part} id {i} listed twice")
            mask[i] = True
        masks[part] = mask

    adjacency = CsrMatrix.from_coo(
        n, n, us + vs, vs + us, np.ones(2 * len(us))
    )
    if row_normalize_features:
        features = row_normalize(features)
    return make_dataset(
        adjacency, features, labels, num_classes,
        masks["train"], masks["val"], masks["test"],
    )


def _locate_bad_csv_line(path: Path, d: int) -> None:
    with path.open(encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            parts = raw.rstrip("\n").split(",")
            if len(parts) != d:
                raise _fail(path, f"expected {d} values, got {len(parts)}", lineno)
            for p in parts:
                try:
                    float(p)
                except ValueError:
                    raise _fail(path, f"non-numeric value {p!r}", lineno)


def save_dataset(dataset: Dataset, directory) -> None:
    """Write ``dataset`` in the documented directory layout (LF endings).

    Inverse of :func:`load_dataset`: floats are serialized with
    shortest round-trip repr, so load(save(ds)) reproduces content
    exactly.
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

    with (directory / "features.csv").open("w", encoding="utf-8", newline="\n") as f:
        for row in dataset.features:
            f.write(",".join(repr(float(x)) for x in row) + "\n")
    with (directory / "labels.txt").open("w", encoding="utf-8", newline="\n") as f:
        for lab in dataset.labels:
            f.write(f"{int(lab)}\n")
    split = {
        "train": [int(i) for i in np.flatnonzero(dataset.train_mask)],
        "val": [int(i) for i in np.flatnonzero(dataset.val_mask)],
        "test": [int(i) for i in np.flatnonzero(dataset.test_mask)],
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
    if len(fractions) != 3 or any(f < 0 for f in fractions):
        raise ValueError("fractions must be three non-negative numbers")
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
        if self.feature_noise < 0:
            raise ValueError("feature_noise must be >= 0")
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
