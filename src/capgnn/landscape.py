"""Diagnostics: loss-landscape profiles, sharpness, generalization gap, noise attack.

A landscape profile traces the masked loss while displacing either the
weights (per-layer, each random direction rescaled to the corresponding
layer's norm) or the features (one direction rescaled to the feature
matrix norm) by a scalar grid of magnitudes. The sharpness scalar is a
pragmatic summary of such a profile, not a Hessian quantity: the mean
symmetric loss rise at a reference magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Dataset
from .linalg import lp_norm, sample_gaussian_like
from .model import GnnModel, accuracy, evaluate, forward, masked_cross_entropy

WEIGHT_KIND = "weight"
FEATURE_KIND = "feature"


@dataclass
class DirectionSet:
    """Norm-matched random probe directions.

    For weight kind each element of ``directions`` is a per-layer list
    with ``||D_l||_2 == ||W_l||_2``; for feature kind each element is a
    single matrix with the feature matrix's norm. Zero-norm sources get
    zero directions.
    """

    kind: str
    directions: list


@dataclass
class LandscapeProfile:
    """Loss values over [direction x alpha], plus an optional sharpness summary."""

    kind: str
    alphas: np.ndarray
    losses: np.ndarray
    sharpness: float | None = None


def _scaled_like(template: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    target = lp_norm(template, 2) if template.size else 0.0
    if target == 0.0:
        return np.zeros_like(template)
    g = sample_gaussian_like(template.shape[0], template.shape[1], rng)
    return g * (target / lp_norm(g, 2))


def sample_directions(
    source: GnnModel | np.ndarray,
    kind: str,
    count: int,
    rng: np.random.Generator,
) -> DirectionSet:
    """Draw ``count`` Gaussian directions rescaled to the source norms."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if kind == WEIGHT_KIND:
        if not isinstance(source, GnnModel):
            raise ValueError("weight directions need a model source")
        directions = [
            [_scaled_like(w, rng) for w in source.weights] for _ in range(count)
        ]
    elif kind == FEATURE_KIND:
        features = np.asarray(source, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("feature directions need a 2-D feature source")
        directions = [_scaled_like(features, rng) for _ in range(count)]
    else:
        raise ValueError(f"kind must be {WEIGHT_KIND!r} or {FEATURE_KIND!r}")
    return DirectionSet(kind=kind, directions=directions)


def probe_landscape(
    model: GnnModel,
    dataset: Dataset,
    dirs: DirectionSet,
    alphas,
    loss_mask: str = "train",
) -> LandscapeProfile:
    """Evaluate the masked loss along every direction at every magnitude.

    The grid must be strictly increasing and contain 0; the alpha=0
    column is evaluated at the stored weights/features, so it equals the
    unperturbed loss bit-exactly. Dropout is always off here.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.ndim != 1 or len(alphas) < 1:
        raise ValueError("alphas must be a 1-D grid")
    if (np.diff(alphas) <= 0).any():
        raise ValueError("alphas must be strictly increasing")
    if not (alphas == 0.0).any():
        raise ValueError("alpha grid must contain 0")
    if loss_mask == "train":
        mask = dataset.train_mask
    elif loss_mask == "test":
        mask = dataset.test_mask
    else:
        raise ValueError(f"loss_mask must be 'train' or 'test', got {loss_mask!r}")

    losses = np.empty((len(dirs.directions), len(alphas)))
    for i, direction in enumerate(dirs.directions):
        for j, alpha in enumerate(alphas):
            if dirs.kind == WEIGHT_KIND:
                w_eff = (
                    None
                    if alpha == 0.0
                    else [w + alpha * d for w, d in zip(model.weights, direction)]
                )
                cache = forward(model, dataset.a_hat, dataset.features, w_eff)
            else:
                x_eff = (
                    dataset.features
                    if alpha == 0.0
                    else dataset.features + alpha * direction
                )
                cache = forward(model, dataset.a_hat, x_eff)
            losses[i, j] = masked_cross_entropy(cache.logits, dataset.labels, mask)
    return LandscapeProfile(kind=dirs.kind, alphas=alphas, losses=losses)


def _grid_index(alphas: np.ndarray, value: float) -> int:
    hits = np.flatnonzero(np.abs(alphas - value) <= 1e-12)
    if hits.size == 0:
        raise ValueError(f"alpha {value} is not on the profile grid")
    return int(hits[0])


def sharpness(profile: LandscapeProfile, alpha_ref: float) -> float:
    """Mean over directions of (g(+a) + g(-a))/2 - g(0) at a = alpha_ref."""
    hi = _grid_index(profile.alphas, alpha_ref)
    lo = _grid_index(profile.alphas, -alpha_ref)
    zero = _grid_index(profile.alphas, 0.0)
    rise = (profile.losses[:, hi] + profile.losses[:, lo]) / 2.0 - profile.losses[:, zero]
    return float(np.mean(rise))


def generalization_gap(model: GnnModel, dataset: Dataset) -> float:
    """Train accuracy minus test accuracy of the model on this dataset."""
    if not dataset.train_mask.any() or not dataset.test_mask.any():
        raise ValueError("need non-empty train and test masks")
    return evaluate(model, dataset, dataset.train_mask) - evaluate(
        model, dataset, dataset.test_mask
    )


def gaussian_attack_trials(
    model: GnnModel,
    dataset: Dataset,
    sigma: float,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Test accuracy per trial on features plus N(0, sigma^2) noise."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    accs = np.empty(trials)
    for t in range(trials):
        noisy = dataset.features + sigma * rng.standard_normal(dataset.features.shape)
        cache = forward(model, dataset.a_hat, noisy)
        accs[t] = accuracy(cache.logits, dataset.labels, dataset.test_mask)
    return accs


def gaussian_attack_eval(
    model: GnnModel,
    dataset: Dataset,
    sigma: float,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Mean attacked test accuracy over ``trials`` noise draws."""
    return float(np.mean(gaussian_attack_trials(model, dataset, sigma, trials, rng)))
