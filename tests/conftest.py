import capgnn  # noqa: F401  (first: caps the BLAS pools before numpy loads)

import base64
import contextlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from capgnn import graph, linalg
from capgnn.graph import DatasetError, SbmParams, generate_sbm, load_dataset, make_dataset
from capgnn.linalg import CsrMatrix, make_rng
from capgnn.model import forward, split_metrics
from capgnn.train import TrainConfig, train


@pytest.fixture(scope="session")
def small_sbm():
    """40-node two-block graph with overlapping (noisy) features."""
    return generate_sbm(SbmParams((20, 20), 0.4, 0.05, 1.5), make_rng(11))


@pytest.fixture(scope="session")
def wide_sbm():
    """1,200 nodes with d=300 features, so n x d arrays dwarf every n x hidden one."""
    return generate_sbm(
        SbmParams((600, 600), 0.01, 0.002, 1.0, feature_dim=300), make_rng(12)
    )


@contextlib.contextmanager
def row_blocks(count: int, chunk: int | None = None):
    """Drain every row-blocked kernel's ranges on ``count`` threads, the caller's first.

    Each sparse or elementwise output is cut into one-row ranges, or with
    ``chunk``, into ranges of at least ``chunk`` entries. Dense products
    keep their own alignment and floors, so they are cut as at full size.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_CHUNK", 1 if chunk is None else chunk)
        mp.setattr(linalg, "_WIDTH", count)
        yield


@contextlib.contextmanager
def feature_ranges(count: int):
    """Parse each features.csv of >= ``count`` bytes in ``count`` byte ranges.

    The first range runs in the loading process and each other one in a
    forked child, as a large file's do (the per-range byte floor is 1).
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_RANGE_BYTES", 1)
        mp.setattr(linalg, "_WIDTH", count)
        yield


def load_outcome(directory, **kw) -> tuple:
    """``("rows", feature bits)`` of a load, or ``("error", message)``."""
    try:
        return "rows", load_dataset(directory, **kw).features.view(np.int64).tobytes()
    except DatasetError as e:
        return "error", str(e)


def traced_bytes(fn) -> tuple:
    """``(fn(), bytes still traced as it returns, peak)`` under ``tracemalloc``.

    numpy reports its buffers to ``tracemalloc``.
    """
    tracemalloc.start()
    try:
        out = fn()
        return (out, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


def peak_traced_bytes(fn) -> int:
    """Peak bytes traced by ``tracemalloc`` while ``fn()`` runs."""
    return traced_bytes(fn)[2]


@pytest.fixture(scope="session")
def trained_small(small_sbm):
    """A converged model on ``small_sbm`` (dropout off, so probes are smooth)."""
    cfg = TrainConfig(
        epochs=300, mode="vanilla", lr=0.05, optimizer="adam",
        hidden_dims=(16,), dropout=0.0, seed=5, eval_every=50,
    )
    model, _ = train(small_sbm, cfg)
    return model


def clean_metrics(model, ds):
    """``split_metrics`` of the model's clean forward on ``ds``."""
    return split_metrics(forward(model, ds.a_hat, ds.features).logits, ds)


def two_node_dataset():
    """Two nodes, one edge, d=2, K=2, train={0}, test={1}."""
    adj = CsrMatrix.from_coo(2, 2, [0, 1], [1, 0], [1.0, 1.0])
    return make_dataset(
        adjacency=adj,
        features=np.array([[1.0, 0.0], [0.0, 1.0]]),
        labels=np.array([0, 1]),
        num_classes=2,
        train_mask=[True, False],
        val_mask=[False, False],
        test_mask=[False, True],
    )


def _shorten_first_blob(payload):
    raw = base64.b64decode(payload["weights_b64"][0])
    payload["weights_b64"][0] = base64.b64encode(raw[:-4]).decode("ascii")


def _drop_header(payload):
    for key in ("version", "backbone", "activation", "dtype", "byte_order"):
        del payload[key]


# case -> (edit of a two-layer checkpoint payload, fragment of the load error)
CHECKPOINT_CORRUPTIONS = {
    "extra_blob": (
        lambda p: p["weights_b64"].append(p["weights_b64"][-1]),
        "3 weight blobs for 2 layers",
    ),
    "missing_blob": (lambda p: p["weights_b64"].pop(), "1 weight blobs for 2 layers"),
    "short_blob": (_shorten_first_blob, "weight 0 has"),
    "no_weights": (lambda p: p.pop("weights_b64"), "missing key 'weights_b64'"),
    "no_layer_dims": (lambda p: p.pop("layer_dims"), "missing key 'layer_dims'"),
    "foreign_backbone": (lambda p: p.update(backbone="gat"), "unsupported backbone 'gat'"),
    "foreign_activation": (
        lambda p: p.update(activation="tanh"), "unsupported activation 'tanh'"
    ),
    "foreign_version": (lambda p: p.update(version=99), "unsupported version 99"),
    "foreign_dtype": (lambda p: p.update(dtype="float32"), "unsupported dtype 'float32'"),
    "foreign_byte_order": (
        lambda p: p.update(byte_order="big"), "unsupported byte_order 'big'"
    ),
    "no_header": (_drop_header, "missing key 'version'"),
    "no_dropout_rate": (lambda p: p.pop("dropout_rate"), "missing key 'dropout_rate'"),
}


def corrupt_checkpoint(src, dst, case: str) -> str:
    """Copy checkpoint ``src`` to ``dst`` with ``case`` applied; return its error fragment."""
    edit, fragment = CHECKPOINT_CORRUPTIONS[case]
    payload = json.loads(Path(src).read_text(encoding="utf-8"))
    edit(payload)
    Path(dst).write_text(json.dumps(payload), encoding="utf-8")
    return fragment
