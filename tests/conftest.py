import base64
import json
from pathlib import Path

import numpy as np
import pytest

from capgnn.graph import SbmParams, generate_sbm, make_dataset
from capgnn.linalg import CsrMatrix, make_rng
from capgnn.train import TrainConfig, train


@pytest.fixture(scope="session")
def small_sbm():
    """40-node two-block graph with overlapping (noisy) features."""
    return generate_sbm(SbmParams((20, 20), 0.4, 0.05, 1.5), make_rng(11))


@pytest.fixture(scope="session")
def trained_small(small_sbm):
    """A converged model on ``small_sbm`` (dropout off, so probes are smooth)."""
    cfg = TrainConfig(
        epochs=300, mode="vanilla", lr=0.05, optimizer="adam",
        hidden_dims=(16,), dropout=0.0, seed=5, eval_every=50,
    )
    model, _ = train(small_sbm, cfg)
    return model


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
}


def corrupt_checkpoint(src, dst, case: str) -> str:
    """Copy checkpoint ``src`` to ``dst`` with ``case`` applied; return its error fragment."""
    edit, fragment = CHECKPOINT_CORRUPTIONS[case]
    payload = json.loads(Path(src).read_text(encoding="utf-8"))
    edit(payload)
    Path(dst).write_text(json.dumps(payload), encoding="utf-8")
    return fragment
