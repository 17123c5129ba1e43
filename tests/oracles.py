"""Independent reference implementations the test suite checks against.

These stay deliberately naive: dense finite differences for gradients,
a literal re-reading of the two-stage epoch rule, a per-cell
``features.csv`` writer, dense <-> CSR conversions and the lp-ball
projection. They must not share code paths with the implementations
they verify.
"""

import math

import numpy as np

from capgnn.graph import make_dataset
from capgnn.linalg import CsrMatrix, lp_norm, make_rng, spmm
from capgnn.model import (
    Gradients, _loss_grad_logits, backward, forward, init_model, masked_cross_entropy,
)


def csr_from_dense(a) -> CsrMatrix:
    a = np.asarray(a, dtype=np.float64)
    r, c = np.nonzero(a)
    return CsrMatrix.from_coo(a.shape[0], a.shape[1], r, c, a[r, c])


def csr_identity(n: int) -> CsrMatrix:
    return CsrMatrix(n, n, np.arange(n + 1), np.arange(n), np.ones(n))


def csr_to_dense(m: CsrMatrix) -> np.ndarray:
    """Scatter of the stored entries; shares no code with the scipy handle."""
    out = np.zeros(m.shape)
    out[np.repeat(np.arange(m.rows), np.diff(m.row_ptr)), m.col_idx] = m.values
    return out


def loss_at(model, a_hat, x, ws, labels, mask) -> float:
    cache = forward(model, a_hat, x, ws, training=False)
    return masked_cross_entropy(cache.logits, labels, mask)


def fd_weight_grad(model, a_hat, x, labels, mask, layer, h=1e-5) -> np.ndarray:
    grad = np.zeros_like(model.weights[layer])
    for idx in np.ndindex(*grad.shape):
        ws_hi = [w.copy() for w in model.weights]
        ws_lo = [w.copy() for w in model.weights]
        ws_hi[layer][idx] += h
        ws_lo[layer][idx] -= h
        hi = loss_at(model, a_hat, x, ws_hi, labels, mask)
        lo = loss_at(model, a_hat, x, ws_lo, labels, mask)
        grad[idx] = (hi - lo) / (2 * h)
    return grad


def fd_feature_grad(model, a_hat, x, labels, mask, h=1e-5) -> np.ndarray:
    grad = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        x_hi, x_lo = x.copy(), x.copy()
        x_hi[idx] += h
        x_lo[idx] -= h
        hi = loss_at(model, a_hat, x_hi, None, labels, mask)
        lo = loss_at(model, a_hat, x_lo, None, labels, mask)
        grad[idx] = (hi - lo) / (2 * h)
    return grad


def assert_close_to_fd(analytic, fd, rel=1e-4, floor=1e-8):
    scale = np.maximum(np.abs(analytic), np.abs(fd))
    err = np.abs(analytic - fd)
    assert np.all(err <= np.maximum(floor, rel * scale)), (
        f"worst fd violation {np.max(err - np.maximum(floor, rel * scale))}"
    )


def reference_backward(a_hat, cache, labels, mask) -> Gradients:
    """``backward``'s gradients, masking each hidden layer by ``z > 0`` on its pre-activation.

    ``z`` is recomputed from ``cache.layer_inputs`` and every step is out
    of place. Dense products are single ``@`` calls, the bytes of
    ``backward``'s only below the row-block floor, so use small graphs.
    """
    ws = cache.weights
    d_weights = [None] * len(ws)
    g = spmm(a_hat, _loss_grad_logits(cache.logits, labels, mask)[1])
    for l in range(len(ws) - 1, 0, -1):
        d_weights[l] = cache.layer_inputs[l].T @ g
        z = spmm(a_hat, cache.layer_inputs[l - 1] @ ws[l - 1])
        back = g @ ws[l].T
        if cache.drop_scales[l - 1] is not None:
            back = back * cache.drop_scales[l - 1]
        g = spmm(a_hat, back * (z > 0.0))
    d_weights[0] = cache.layer_inputs[0].T @ g
    loss = masked_cross_entropy(cache.logits, labels, mask)
    return Gradients(d_weights, g, loss)


def reference_feature_pgd(model, ds, cfg):
    """Feature ascent written out of place, clamping at every step.

    Returns the perturbation and one ``(step, layer, grad_norm, eps_norm,
    loss)`` tuple per step, the fields of a ``PgdTraceRow``.
    """
    eps = np.zeros_like(ds.features)
    trace = []
    for t in range(cfg.steps):
        cache = forward(model, ds.a_hat, ds.features + eps)
        loss = masked_cross_entropy(cache.logits, ds.labels, ds.train_mask)
        grads = backward(model, ds.a_hat, cache, ds.labels, ds.train_mask)
        g = grads.d_first @ model.weights[0].T
        eps = np.clip(eps + cfg.beta * np.sign(g), -cfg.rho_x, cfg.rho_x)
        trace.append((t, "x", lp_norm(g, math.inf), lp_norm(eps, math.inf), loss))
    return eps, trace


def project_ball(eps: np.ndarray, rho: float, p) -> np.ndarray:
    """Project onto the lp ball of radius ``rho``.

    p=2 rescales radially when the flattened l2 norm exceeds rho
    (interior points come back unchanged); p=inf clamps every entry to
    [-rho, rho]. The weight ascent inlines the p=2 rescale.
    """
    if p in (2, 2.0):
        nrm = lp_norm(eps, 2)
        if nrm > rho:
            return eps * (rho / nrm)
        return eps
    if p == math.inf:
        return np.clip(eps, -rho, rho)
    raise ValueError(f"unsupported norm order {p!r}; use 2 or math.inf")


def random_instance(seed):
    """Small random graph + 2-layer model for gradient checking."""
    rng = make_rng(seed)
    n = int(rng.integers(4, 11))
    d = int(rng.integers(2, 7))
    k = int(rng.integers(2, 4))
    hidden = int(rng.integers(2, 6))
    dense = (rng.random((n, n)) < 0.4).astype(float)
    dense = np.triu(dense, 1)
    adj = csr_from_dense(dense + dense.T)
    x = rng.standard_normal((n, d))
    labels = rng.integers(0, k, size=n)
    mask = rng.random(n) < 0.6
    if not mask.any():
        mask[0] = True
    ds = make_dataset(adj, x, labels, k, mask, np.zeros(n, bool), ~mask)
    model = init_model([d, hidden, k], rng, dropout_rate=0.0)
    return model, ds


def reference_schedule(epoch, mode, skip, freq):
    """Literal five-line reading of the two-stage epoch rule."""
    if epoch <= skip or mode == "vanilla":
        return "standard"
    if mode in ("wp", "fp"):
        return "weight_perturb" if mode == "wp" else "feature_perturb"
    return "feature_perturb" if epoch % freq == 0 else "weight_perturb"


def reference_features_csv(features) -> str:
    """features.csv text written cell by cell with shortest round-trip repr."""
    return "".join(",".join(repr(float(x)) for x in row) + "\n" for row in features)
