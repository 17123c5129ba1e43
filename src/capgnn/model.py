"""Graph convolutional model: forward pass, masked loss, exact gradients, split metrics.

The layer rule is ``H_l = act(A_hat @ H_{l-1} @ W_l)`` with ReLU between
layers and no activation or bias on the output layer. ``backward``
returns the exact gradient of the masked cross-entropy with respect to
the weight matrices, the input features, or both (verified against
central finite differences in the test suite). Each loop asks only for
what it reads: the outer descent and the weight ascent loop read the
weight gradients alone, and the feature ascent loop reads the feature
gradient alone. Both kinds cost n x d work at the first layer (the
feature gradient ``g @ W_0.T`` and the weight gradient ``X.T @ g``), so
computing the one nobody reads would nearly double that layer's cost.

Effective inputs: ``forward`` takes an explicit feature matrix and an
optional ``w_eff``, so callers can evaluate at (W + eps_w, X) or
(W, X + eps_x) without touching stored state; ``backward`` differentiates
at the point recorded in the forward cache, never at re-passed inputs.
The cache keeps the logits and only what ``backward`` reads: no
pre-activation, as ReLU and dropout write into each layer's own output.
Within one ``train()``, ``probe_landscape`` or ``gaussian_attack_trials``
call, every pass writes its n x hidden arrays into one ``_workspace``
instead of fresh ones, under the lifetime rule stated in ``backward``.
"""

from __future__ import annotations

import base64
import itertools
import json
import mmap
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import Dataset
from .linalg import CsrMatrix, _matmul_rows, _sweep_rows, spmm


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
    """What ``backward`` reads of one forward pass, and its logits.

    ``weights`` are the effective weights the pass used, in a list of its
    own so an optimizer step on ``model.weights`` leaves it unchanged;
    ``layer_inputs[l]`` is the matrix fed into layer l (index 0 holds the
    effective features, or None if ``forward`` got ``first`` alone), and ``drop_scales[l]`` the inverted-dropout
    multiplier applied after the ReLU of layer l (None when dropout was
    off); ``backward`` reads its ReLU masks from ``layer_inputs``.
    """

    weights: list[np.ndarray]
    layer_inputs: list[np.ndarray | None]
    drop_scales: list[np.ndarray | None]
    logits: np.ndarray


@dataclass
class Gradients:
    d_weights: list[np.ndarray] | None
    d_features: np.ndarray | None
    loss: float  # the masked cross-entropy at the cache's point


_FRESH = (None, None, None)  # a layer's arrays without a workspace: all fresh


def _workspace(model: GnnModel, n: int) -> list[tuple[np.ndarray, ...]]:
    """Per hidden layer, a ``(prod, hidden, scale)`` triple of n x width arrays.

    ``forward`` writes the layer's input times its weights into ``prod``,
    its output into ``hidden`` and its dropout scale into ``scale``;
    ``backward`` writes ``g @ W.T`` into ``prod`` and the layer's gradient
    into ``scale`` (lifetime rule there). All are views of one block, so
    its pages fault in as few runs as possible. The block is mapped on its
    own where the platform allows: freed back to malloc, a block this size
    raises its trim threshold, which kept ~6 MB more resident at the
    ``pubmed_train`` peak.
    """
    widths = [w.shape[1] for w in model.weights[:-1]]
    size = 3 * n * sum(widths)
    if hasattr(mmap, "MAP_PRIVATE"):
        buf = mmap.mmap(-1, 8 * size or 8, mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        if hasattr(mmap, "MADV_HUGEPAGE"):
            buf.madvise(mmap.MADV_HUGEPAGE)  # as numpy asks for its large arrays
        flat = np.frombuffer(buf, count=size)
    else:
        flat = np.empty(size)
    work = []
    for h in widths:
        work.append(tuple(flat[:3 * n * h].reshape(3, n, h)))
        flat = flat[3 * n * h:]
    return work


def forward(
    model: GnnModel,
    a_hat: CsrMatrix,
    x_eff: np.ndarray | None,
    w_eff: list[np.ndarray] | None = None,
    training: bool = False,
    rng: np.random.Generator | None = None,
    *,
    first: np.ndarray | None = None,
    work: list | None = None,
) -> ForwardCache:
    """Run the layer rule on effective inputs.

    Dropout is applied to hidden post-activations only, and only when
    ``training`` is set (requires ``rng``); with ``training=False`` the
    pass is a deterministic pure function of its arguments. ``first``,
    when given, is the first layer's product of the effective features
    and ``W_0``, computed by the caller with the bytes of one such
    ``np.matmul`` call; it is propagated in place of that product and
    not kept past the first ``spmm``. ``x_eff`` may then be None, so a
    caller that builds the features chunk by chunk never passes an n x d
    array that ``first`` might not match; the cache then keeps None as
    layer 0's input, and ``backward`` rejects it. ``work``, when given, is
    a ``_workspace`` the pass writes into in place of fresh arrays
    (lifetime rule in ``backward``), with the same bytes; ``first`` may
    be its first ``prod`` array.
    """
    ws = list(model.weights if w_eff is None else w_eff)
    if len(ws) != model.depth:
        raise ValueError(f"w_eff has {len(ws)} layers, model has {model.depth}")
    for l, (w, ref) in enumerate(zip(ws, model.weights)):
        if w.shape != ref.shape:
            raise ValueError(f"w_eff[{l}] shape {w.shape} != {ref.shape}")
    if x_eff is not None:
        x_eff = np.asarray(x_eff, dtype=np.float64)
        if x_eff.ndim != 2 or x_eff.shape != (a_hat.rows, ws[0].shape[0]):
            raise ValueError(
                f"features must be {a_hat.rows}x{ws[0].shape[0]}, got {x_eff.shape}"
            )
    elif first is None:
        raise ValueError("forward needs x_eff or first")
    if first is not None and first.shape != (a_hat.rows, ws[0].shape[1]):
        raise ValueError(f"first must be {a_hat.rows}x{ws[0].shape[1]}, got {first.shape}")
    use_dropout = training and model.dropout_rate > 0.0
    if use_dropout and rng is None:
        raise ValueError("training with dropout requires an rng")

    layer_inputs = [x_eff]
    drop_scales: list[np.ndarray | None] = []
    keep = 1.0 - model.dropout_rate
    for w, (prod, hidden, scale) in zip(ws[:-1], work or itertools.repeat(_FRESH)):
        if first is None:
            first = _matmul_rows(layer_inputs[-1], w, prod)
        h = spmm(a_hat, first, hidden)
        first = None  # the first layer's product only
        # One serial draw, so the generator's stream does not depend on the
        # row blocks; the sweep turns it into the scale (r < keep) / keep.
        scale = rng.random(h.shape, out=scale) if use_dropout else None

        def relu_dropout(lo, hi):
            r = h[lo:hi]
            np.maximum(r, 0.0, out=r)
            if scale is not None:
                s = scale[lo:hi]
                np.less(s, keep, out=s)
                s /= keep
                r *= s

        _sweep_rows(h.shape, relu_dropout)
        drop_scales.append(scale)
        layer_inputs.append(h)
    logits = spmm(a_hat, _matmul_rows(layer_inputs[-1], ws[-1]) if first is None else first)
    return ForwardCache(ws, layer_inputs, drop_scales, logits)


def _masked_rows(labels, mask) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the masked nodes and their integer labels."""
    idx = np.flatnonzero(np.asarray(mask, dtype=bool))
    if idx.size == 0:
        raise ValueError("mask selects no nodes")
    return idx, np.asarray(labels, dtype=np.int64)[idx]


def masked_cross_entropy(logits: np.ndarray, labels, mask) -> float:
    """Mean negative log softmax probability of the true class over masked nodes.

    Uses max-subtraction log-sum-exp, so arbitrarily large logits stay
    finite.
    """
    idx, y = _masked_rows(labels, mask)
    sub = logits[idx]
    m = sub.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(sub - m).sum(axis=1))
    picked = sub[np.arange(idx.size), y]
    return float(np.mean(lse - picked))


def _loss_grad_logits(logits: np.ndarray, labels, mask) -> tuple[float, np.ndarray]:
    """``masked_cross_entropy`` (same bits) and its logit gradient, from one softmax."""
    idx, y = _masked_rows(labels, mask)
    sub = logits[idx]
    m = sub.max(axis=1, keepdims=True)
    e = np.exp(sub - m)
    s = e.sum(axis=1, keepdims=True)
    rows = np.arange(idx.size)
    loss = float(np.mean(m[:, 0] + np.log(s[:, 0]) - sub[rows, y]))
    e /= s
    e[rows, y] -= 1.0
    grad = np.zeros_like(logits)
    grad[idx] = e / idx.size
    return loss, grad


def backward(
    model: GnnModel,
    a_hat: CsrMatrix,
    cache: ForwardCache,
    labels,
    mask,
    *,
    need_features: bool = True,
    need_weights: bool = True,
    out: np.ndarray | None = None,
    work: list | None = None,
) -> Gradients:
    """Exact gradients of the masked cross-entropy at the point ``cache`` evaluated.

    That point is (``cache.weights``, ``cache.layer_inputs[0]``). Relies
    on the normalized adjacency being symmetric, so its transpose in the
    chain rule is itself. The per-layer weight gradient is
    ``layer_input.T @ g`` with ``g = A_hat @ delta``, and the feature
    gradient is the first layer's ``g @ W_0.T``; each dense product runs
    in row blocks (``linalg``). Both first-layer products are as large as
    the features, so each is computed only on request: the outer descent
    and weight PGD pass ``need_features=False`` (``d_features`` is None),
    feature PGD passes ``need_weights=False`` (``d_weights`` is None).
    What is computed is the same bytes whichever flags are set. ``loss``
    is the masked cross-entropy there, from the logit gradient's softmax.

    ``out``, when given, receives ``d_features`` (an n x d C-contiguous
    float64 array). ``work``, when given, is the ``_workspace`` the
    cache's ``forward`` wrote into; each array of it is written only
    after the cache's last read of it. Lifetime rule: a cache is spent
    once ``backward`` returns, and the next ``forward`` reuses its
    arrays; ``out`` may be the cache's own ``layer_inputs[0]`` only with
    ``need_weights=False``, as nothing else reads that array then.
    Without ``work``, each hidden layer's gradient is freed once the next
    one is computed from it, so backward itself holds at most two
    n x hidden arrays.

    The ReLU mask of layer l is ``layer_inputs[l + 1] > 0``, with the bytes
    of ``z > 0`` on its pre-activation: where the dropout scale is 1/keep
    (>= 1), ``relu(z) * scale > 0`` exactly when ``z > 0`` (a NaN fails
    both); where it is 0, the scaled gradient is +-0 or NaN either way.
    """
    ws = cache.weights
    if len(ws) != model.depth:
        raise ValueError("cache does not match the model depth")
    if cache.layer_inputs[0] is None:
        raise ValueError("cache has no layer-0 input: its forward got first, not x_eff")
    d_weights = [np.empty(0)] * len(ws) if need_weights else None
    loss, g = _loss_grad_logits(cache.logits, labels, mask)
    g = spmm(a_hat, g)
    for l in range(len(ws) - 1, 0, -1):
        prod, _, grad = work[l - 1] if work else _FRESH
        if need_weights:
            d_weights[l] = _matmul_rows(cache.layer_inputs[l].T, g)
        back = _matmul_rows(g, ws[l].T, prod)
        del g
        h, scale = cache.layer_inputs[l], cache.drop_scales[l - 1]

        def gate(lo, hi):
            b = back[lo:hi]
            if scale is not None:
                b *= scale[lo:hi]
            b *= h[lo:hi] > 0.0

        _sweep_rows(back.shape, gate)
        g = spmm(a_hat, back, grad)  # over the scale the gate has read
        del back
    if need_weights:
        d_weights[0] = _matmul_rows(cache.layer_inputs[0].T, g)
    d_features = _matmul_rows(g, ws[0].T, out) if need_features else None
    return Gradients(d_weights, d_features, loss)


def accuracy(logits: np.ndarray, labels, mask) -> float:
    """Fraction of masked nodes whose argmax logit matches the label.

    Ties resolve to the lowest class index (argmax convention).
    """
    idx, y = _masked_rows(labels, mask)
    pred = np.argmax(logits[idx], axis=1)
    return float(np.mean(pred == y))


def split_metrics(
    logits: np.ndarray, dataset: Dataset
) -> tuple[float, float, float | None, float | None]:
    """``(train_loss, train_acc, val_acc, test_acc)`` of one forward's logits.

    The loss is the masked cross-entropy on the train split. A val or
    test accuracy is None when that split selects no node; the train
    split never does. The generalization gap is ``train_acc - test_acc``.
    """
    labels, train = dataset.labels, dataset.train_mask
    val_acc, test_acc = (
        accuracy(logits, labels, mask) if mask.any() else None
        for mask in (dataset.val_mask, dataset.test_mask)
    )
    loss = masked_cross_entropy(logits, labels, train)
    return loss, accuracy(logits, labels, train), val_acc, test_acc


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CKPT_FORMAT = "capgnn-checkpoint"
# Header keys every checkpoint carries, each with the one value this reader accepts;
# the layer rule above is the only architecture.
_HEADER = {
    "version": 1, "backbone": "gcn", "activation": "relu",
    "dtype": "float64", "byte_order": "little",
}


def save_model(model: GnnModel, path) -> None:
    """Write an exact-round-trip JSON checkpoint.

    Weights are base64-encoded little-endian float64 bytes in row-major
    order, so reload reproduces every bit.
    """
    payload = {
        "format": _CKPT_FORMAT,
        **_HEADER,
        "dropout_rate": model.dropout_rate,
        "layer_dims": model.layer_dims,
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
    foreign version, architecture, dtype or byte order, weight blobs
    whose count or byte length does not match ``layer_dims``) raises
    ValueError naming ``path``.
    """
    path = Path(path)
    try:
        return _model_from_payload(json.loads(path.read_text(encoding="utf-8")))
    except (ValueError, TypeError) as e:
        raise ValueError(f"{path}: not a valid checkpoint ({e})") from e


def _model_from_payload(payload) -> GnnModel:
    if not isinstance(payload, dict) or payload.get("format") != _CKPT_FORMAT:
        raise ValueError(f"not a {_CKPT_FORMAT} file")
    for key in ("layer_dims", "weights_b64", "dropout_rate", *_HEADER):
        if key not in payload:
            raise ValueError(f"missing key {key!r}")
    for key, want in _HEADER.items():
        if payload[key] != want:
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
    return GnnModel(weights, dropout_rate=float(payload["dropout_rate"]))
