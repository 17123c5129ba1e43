"""Graph convolutional model: forward pass, masked loss, exact reverse-mode gradients.

The layer rule is ``H_l = act(A_hat @ H_{l-1} @ W_l)`` with ReLU between
layers and no activation or bias on the output layer. ``backward``
returns the gradient of the masked cross-entropy with respect to every
weight matrix and with respect to the input features; both are exact
(verified against central finite differences in the test suite), which
is what the inner ascent loops and the outer descent both consume.

Effective inputs: ``forward``/``backward`` accept optional ``w_eff`` and
an explicit feature matrix, so callers can evaluate at (W + eps_w, X) or
(W, X + eps_x) without touching stored state.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import Dataset
from .linalg import CsrMatrix, spmm


@dataclass
class GnnModel:
    """Stack of dense GCN layer weights (ReLU between layers) plus dropout rate.

    ``weights[l]`` maps layer_dims[l] -> layer_dims[l + 1]; weights are
    the only mutable state and are replaced wholesale by the optimizer.
    """

    weights: list[np.ndarray]
    dropout_rate: float = 0.5

    def __post_init__(self):
        if not self.weights:
            raise ValueError("model needs at least one layer")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must be in [0, 1)")
        for l, w in enumerate(self.weights):
            if w.ndim != 2:
                raise ValueError(f"weight {l} must be 2-D")
            if not np.isfinite(w).all():
                raise ValueError(f"weight {l} contains non-finite entries")
            if l and self.weights[l - 1].shape[1] != w.shape[0]:
                raise ValueError(
                    f"layer {l - 1} output dim {self.weights[l - 1].shape[1]} "
                    f"!= layer {l} input dim {w.shape[0]}"
                )

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def copy_weights(self) -> list[np.ndarray]:
        return [w.copy() for w in self.weights]


def init_model(
    layer_dims,
    rng: np.random.Generator,
    dropout_rate: float = 0.5,
) -> GnnModel:
    """Glorot-uniform initialization: entries uniform in +-sqrt(6/(fan_in+fan_out))."""
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"layer_dims needs >= 2 positive entries, got {dims}")
    weights = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    return GnnModel(weights, dropout_rate=dropout_rate)


@dataclass
class ForwardCache:
    """Intermediates of one forward pass, as consumed by ``backward``.

    ``layer_inputs[l]`` is the matrix fed into layer l (index 0 holds the
    effective features), ``pre_acts[l]`` its pre-activation output, and
    ``drop_scales[l]`` the inverted-dropout multiplier applied after the
    ReLU of layer l (None when dropout was off).
    """

    layer_inputs: list[np.ndarray]
    pre_acts: list[np.ndarray]
    drop_scales: list[np.ndarray | None]

    @property
    def logits(self) -> np.ndarray:
        return self.pre_acts[-1]


@dataclass
class Gradients:
    d_weights: list[np.ndarray]
    d_features: np.ndarray


def forward(
    model: GnnModel,
    a_hat: CsrMatrix,
    x_eff: np.ndarray,
    w_eff: list[np.ndarray] | None = None,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> ForwardCache:
    """Run the layer rule on effective inputs.

    Dropout is applied to hidden post-activations only, and only when
    ``training`` is set (requires ``rng``); with ``training=False`` the
    pass is a deterministic pure function of its arguments.
    """
    ws = model.weights if w_eff is None else list(w_eff)
    if len(ws) != model.depth:
        raise ValueError(f"w_eff has {len(ws)} layers, model has {model.depth}")
    for l, (w, ref) in enumerate(zip(ws, model.weights)):
        if w.shape != ref.shape:
            raise ValueError(f"w_eff[{l}] shape {w.shape} != {ref.shape}")
    x_eff = np.asarray(x_eff, dtype=np.float64)
    if x_eff.ndim != 2 or x_eff.shape != (a_hat.rows, ws[0].shape[0]):
        raise ValueError(
            f"features must be {a_hat.rows}x{ws[0].shape[0]}, got {x_eff.shape}"
        )
    use_dropout = training and model.dropout_rate > 0.0
    if use_dropout and rng is None:
        raise ValueError("training with dropout requires an rng")

    layer_inputs = [x_eff]
    pre_acts: list[np.ndarray] = []
    drop_scales: list[np.ndarray | None] = []
    cur = x_eff
    last = model.depth - 1
    for l, w in enumerate(ws):
        z = spmm(a_hat, cur @ w)
        pre_acts.append(z)
        if l == last:
            break
        h = np.maximum(z, 0.0)
        if use_dropout:
            keep = 1.0 - model.dropout_rate
            scale = (rng.random(h.shape) < keep).astype(np.float64) / keep
            h = h * scale
            drop_scales.append(scale)
        else:
            drop_scales.append(None)
        layer_inputs.append(h)
        cur = h
    return ForwardCache(layer_inputs, pre_acts, drop_scales)


def masked_cross_entropy(logits: np.ndarray, labels, mask) -> float:
    """Mean negative log softmax probability of the true class over masked nodes.

    Uses max-subtraction log-sum-exp, so arbitrarily large logits stay
    finite.
    """
    idx = np.flatnonzero(np.asarray(mask, dtype=bool))
    if idx.size == 0:
        raise ValueError("mask selects no nodes")
    labels = np.asarray(labels, dtype=np.int64)
    sub = logits[idx]
    m = sub.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(sub - m).sum(axis=1))
    picked = sub[np.arange(idx.size), labels[idx]]
    return float(np.mean(lse - picked))


def _loss_grad_logits(logits: np.ndarray, labels, mask) -> np.ndarray:
    """d(masked cross-entropy)/d(logits): (softmax - onehot)/count on masked rows."""
    idx = np.flatnonzero(np.asarray(mask, dtype=bool))
    if idx.size == 0:
        raise ValueError("mask selects no nodes")
    labels = np.asarray(labels, dtype=np.int64)
    sub = logits[idx]
    shifted = sub - sub.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    p[np.arange(idx.size), labels[idx]] -= 1.0
    grad = np.zeros_like(logits)
    grad[idx] = p / idx.size
    return grad


def backward(
    model: GnnModel,
    a_hat: CsrMatrix,
    x_eff: np.ndarray,
    w_eff: list[np.ndarray] | None,
    cache: ForwardCache,
    labels,
    mask,
) -> Gradients:
    """Exact gradients of the masked cross-entropy through the layer rule.

    Relies on the normalized adjacency being symmetric, so its transpose
    in the chain rule is itself. The per-layer weight gradient is
    ``layer_input.T @ (A_hat @ delta)`` and the feature gradient
    propagates the first layer's delta back through W_0.
    """
    ws = model.weights if w_eff is None else list(w_eff)
    if len(cache.pre_acts) != len(ws):
        raise ValueError("cache does not match the model depth")
    x0 = cache.layer_inputs[0]
    if x0 is not x_eff and (
        x0.shape != x_eff.shape or not np.array_equal(x0, x_eff)
    ):
        raise ValueError("cache was produced for different effective features")
    for l, w in enumerate(ws):
        expect = (cache.layer_inputs[l].shape[1], cache.pre_acts[l].shape[1])
        if w.shape != expect:
            raise ValueError(f"cache/w_eff mismatch at layer {l}")

    delta = _loss_grad_logits(cache.logits, labels, mask)
    d_weights: list[np.ndarray] = [np.empty(0)] * len(ws)
    d_features = None
    for l in range(len(ws) - 1, -1, -1):
        g = spmm(a_hat, delta)
        d_weights[l] = cache.layer_inputs[l].T @ g
        back = g @ ws[l].T
        if l == 0:
            d_features = back
        else:
            scale = cache.drop_scales[l - 1]
            if scale is not None:
                back = back * scale
            delta = back * (cache.pre_acts[l - 1] > 0.0)
    return Gradients(d_weights, d_features)


def accuracy(logits: np.ndarray, labels, mask) -> float:
    """Fraction of masked nodes whose argmax logit matches the label.

    Ties resolve to the lowest class index (argmax convention).
    """
    idx = np.flatnonzero(np.asarray(mask, dtype=bool))
    if idx.size == 0:
        raise ValueError("mask selects no nodes")
    labels = np.asarray(labels, dtype=np.int64)
    pred = np.argmax(logits[idx], axis=1)
    return float(np.mean(pred == labels[idx]))


def evaluate(model: GnnModel, dataset: Dataset, mask) -> float:
    """Clean accuracy of the model on the masked nodes (dropout off)."""
    cache = forward(model, dataset.a_hat, dataset.features, training=False)
    return accuracy(cache.logits, dataset.labels, mask)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CKPT_FORMAT = "capgnn-checkpoint"
# Architecture keys every checkpoint carries; the layer rule above is the only one.
_ARCHITECTURE = {"backbone": "gcn", "activation": "relu"}


def save_model(model: GnnModel, path) -> None:
    """Write an exact-round-trip JSON checkpoint.

    Weights are base64-encoded little-endian float64 bytes in row-major
    order, so reload reproduces every bit.
    """
    payload = {
        "format": _CKPT_FORMAT,
        "version": 1,
        **_ARCHITECTURE,
        "dropout_rate": model.dropout_rate,
        "layer_dims": model.layer_dims,
        "dtype": "float64",
        "byte_order": "little",
        "weights_b64": [
            base64.b64encode(
                np.ascontiguousarray(w, dtype="<f8").tobytes()
            ).decode("ascii")
            for w in model.weights
        ],
    }
    Path(path).write_text(
        json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )


def load_model(path) -> GnnModel:
    """Read a checkpoint written by :func:`save_model`.

    Malformed content (invalid JSON, another format, missing keys, a
    foreign architecture, weight blobs whose count or byte length does
    not match ``layer_dims``) raises ValueError naming ``path``.
    """
    path = Path(path)
    try:
        return _model_from_payload(json.loads(path.read_text(encoding="utf-8")))
    except (ValueError, TypeError) as e:
        raise ValueError(f"{path}: not a valid checkpoint ({e})") from e


def _model_from_payload(payload) -> GnnModel:
    if not isinstance(payload, dict) or payload.get("format") != _CKPT_FORMAT:
        raise ValueError(f"not a {_CKPT_FORMAT} file")
    for key in ("layer_dims", "weights_b64"):
        if key not in payload:
            raise ValueError(f"missing key {key!r}")
    for key, want in _ARCHITECTURE.items():
        if payload.get(key, want) != want:
            raise ValueError(f"unsupported {key} {payload[key]!r}, expected {want!r}")
    dims, blobs = payload["layer_dims"], payload["weights_b64"]
    if len(blobs) != len(dims) - 1:
        raise ValueError(f"{len(blobs)} weight blobs for {len(dims) - 1} layers")
    weights = []
    for l, (fan_in, fan_out, blob) in enumerate(zip(dims[:-1], dims[1:], blobs)):
        raw = base64.b64decode(blob)
        if len(raw) != fan_in * fan_out * 8:
            raise ValueError(
                f"weight {l} has {len(raw)} bytes, expected {fan_in * fan_out * 8}"
            )
        w = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(fan_in, fan_out)
        weights.append(np.ascontiguousarray(w))
    return GnnModel(weights, dropout_rate=float(payload.get("dropout_rate", 0.5)))
