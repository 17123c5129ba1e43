"""Inner maximization: norm-ball projection and the two PGD ascent loops.

Both loops start from a zero perturbation, take ``steps`` normalized
ascent steps on the train-mask loss (dropout off, so the maximized
objective is deterministic), and project after every step. The weight
loop uses a per-layer l2 ball whose radius is relative to that layer's
weight norm; the feature loop uses sign steps inside an absolute
l-infinity ball. Stored model weights and dataset features are never
mutated; perturbations are returned for the caller to apply through the
forward pass's effective-input channel.

Each loop asks ``backward`` only for the gradient its step reads. The
feature loop runs on n x d arrays, so it reuses its buffers: one for
the perturbation and one for the effective features, built in place,
and it turns each feature gradient into its step in place. At most
three n x d arrays are live at once. The returned perturbation owns its
memory and belongs to the caller, who may overwrite it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Dataset
from .linalg import lp_norm
from .model import GnnModel, backward, forward, masked_cross_entropy

_GRAD_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class PerturbConfig:
    """Ball radii and inner-loop schedule.

    ``rho_w`` is dimensionless (scales each layer's l2 weight norm);
    ``rho_x`` is an l-infinity radius in feature units. ``beta`` may be
    zero, which degenerates both loops to exact zero perturbations.
    """

    rho_w: float = 0.01
    rho_x: float = 0.01
    beta: float = 1e-3
    steps: int = 3

    def __post_init__(self):
        if self.rho_w <= 0 or self.rho_x <= 0:
            raise ValueError("ball radii must be positive")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass
class PgdTraceRow:
    step: int
    layer: str
    grad_norm: float
    eps_norm: float
    loss: float


def project_ball(eps: np.ndarray, rho: float, p) -> np.ndarray:
    """Project onto the lp ball of radius ``rho``.

    p=2 rescales radially when the flattened l2 norm exceeds rho
    (interior points come back unchanged); p=inf clamps every entry to
    [-rho, rho].
    """
    if p in (2, 2.0):
        nrm = lp_norm(eps, 2)
        if nrm > rho:
            return eps * (rho / nrm)
        return eps
    if p == math.inf:
        return np.clip(eps, -rho, rho)
    raise ValueError(f"unsupported norm order {p!r}; use 2 or math.inf")


def pgd_weight_perturbation(
    model: GnnModel,
    dataset: Dataset,
    cfg: PerturbConfig,
    trace: list[PgdTraceRow] | None = None,
) -> list[np.ndarray]:
    """Multi-step projected ascent on the train loss in weight space.

    Each step evaluates the gradient at (W + eps, X), moves each layer
    by ``beta`` along its norm-normalized gradient, and projects onto
    that layer's ball of radius ``rho_w * ||W_l||_2``. Layers whose
    gradient norm falls below 1e-12 contribute a zero step (recorded in
    ``trace`` when given) instead of dividing by ~0.
    """
    radii = [cfg.rho_w * lp_norm(w, 2) for w in model.weights]
    eps = [np.zeros_like(w) for w in model.weights]
    for t in range(cfg.steps):
        w_eff = [w + e for w, e in zip(model.weights, eps)]
        cache = forward(model, dataset.a_hat, dataset.features, w_eff, training=False)
        loss = masked_cross_entropy(cache.logits, dataset.labels, dataset.train_mask)
        grads = backward(
            model, dataset.a_hat, cache, dataset.labels, dataset.train_mask,
            need_features=False,
        )
        for l, g in enumerate(grads.d_weights):
            gn = lp_norm(g, 2)
            if gn >= _GRAD_NORM_FLOOR and radii[l] > 0.0:
                eps[l] = project_ball(eps[l] + cfg.beta * (g / gn), radii[l], 2)
            if trace is not None:
                trace.append(PgdTraceRow(t, f"w{l}", gn, lp_norm(eps[l], 2), loss))
    return eps


def pgd_feature_perturbation(
    model: GnnModel,
    dataset: Dataset,
    cfg: PerturbConfig,
    trace: list[PgdTraceRow] | None = None,
) -> np.ndarray:
    """Multi-step projected sign ascent on the train loss in feature space.

    Steps are ``beta * sign(grad)`` with sign(0) = 0, so feature rows
    outside the masked nodes' receptive field stay exactly zero; the
    projection clamps entrywise to [-rho_x, rho_x]. Every step works in
    place on reused buffers (see the module docstring) and gives the
    bytes of ``np.clip(eps + beta * np.sign(grad), -rho_x, rho_x)``. The
    returned ``eps`` is the caller's to keep or overwrite.
    """
    x = dataset.features
    eps = np.zeros_like(x)
    x_eff = np.empty_like(x)
    for t in range(cfg.steps):
        np.add(x, eps, out=x_eff)
        cache = forward(model, dataset.a_hat, x_eff, training=False)
        loss = masked_cross_entropy(cache.logits, dataset.labels, dataset.train_mask)
        step = backward(
            model, dataset.a_hat, cache, dataset.labels, dataset.train_mask,
            need_weights=False,
        ).d_features
        if trace is not None:
            gn = lp_norm(step, math.inf)
        np.sign(step, out=step)
        step *= cfg.beta
        eps += step
        np.clip(eps, -cfg.rho_x, cfg.rho_x, out=eps)
        del step  # so the next backward's gradient is the only one alive
        if trace is not None:
            trace.append(PgdTraceRow(t, "x", gn, lp_norm(eps, math.inf), loss))
    return eps
