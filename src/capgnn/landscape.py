"""Diagnostics: loss-landscape profiles, sharpness, Gaussian noise attack.

A landscape profile traces the masked loss while displacing either the
weights (per-layer, each random direction rescaled to the corresponding
layer's norm) or the features (one direction rescaled to the feature
matrix norm) by a scalar grid of magnitudes. The sharpness scalar is a
pragmatic summary of such a profile, not a Hessian quantity: the mean
symmetric loss rise at a reference magnitude.

The feature-side passes work on n x d arrays, so they keep n x d
temporaries few: each source's l2 norm is computed once per draw, not
once per direction; a feature profile builds every displaced matrix in
one reused buffer; and the noise attack draws, scales and shifts in one
buffer. Both scale and shift in one ``linalg._sweep_rows`` pass; the
attack's draw stays one serial call, so the generator's stream is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Dataset
from .linalg import _sweep_rows, lp_norm
from .model import GnnModel, accuracy, forward, masked_cross_entropy

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
    """Loss values over [direction x alpha]."""

    alphas: np.ndarray
    losses: np.ndarray


def _norm(source: np.ndarray) -> float:
    return lp_norm(source, 2) if source.size else 0.0


def _scaled_like(
    template: np.ndarray, target: float, rng: np.random.Generator
) -> np.ndarray:
    """A Gaussian draw shaped like ``template``, rescaled to l2 norm ``target``."""
    if target == 0.0:
        return np.zeros_like(template)
    g = rng.standard_normal(template.shape)
    g *= target / lp_norm(g, 2)  # in place: no second n x d array
    return g


def _scaled_plus(a: np.ndarray, scale, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = a * scale + b``, one row chunk at a time; ``out`` may be ``a``."""
    _sweep_rows(out.shape, lambda lo, hi: np.add(
        np.multiply(a[lo:hi], scale, out=out[lo:hi]), b[lo:hi], out=out[lo:hi]))
    return out


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
        targets = [_norm(w) for w in source.weights]
        directions = [
            [_scaled_like(w, n, rng) for w, n in zip(source.weights, targets)]
            for _ in range(count)
        ]
    elif kind == FEATURE_KIND:
        features = np.asarray(source, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("feature directions need a 2-D feature source")
        target = _norm(features)
        directions = [_scaled_like(features, target, rng) for _ in range(count)]
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
    column is the unperturbed loss, from one clean forward per call
    shared by every direction, so it is bit-exact. Dropout is always
    off here. Feature displacements are built in one reused buffer as
    ``alpha * direction + features``, which has the bits of
    ``features + alpha * direction`` (IEEE * and + commute).
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

    def loss_at(x_eff, w_eff=None) -> float:
        cache = forward(model, dataset.a_hat, x_eff, w_eff)
        return masked_cross_entropy(cache.logits, dataset.labels, mask)

    losses = np.empty((len(dirs.directions), len(alphas)))
    losses[:, alphas == 0.0] = loss_at(dataset.features)
    x_eff = np.empty_like(dataset.features) if dirs.kind == FEATURE_KIND else None
    for i, direction in enumerate(dirs.directions):
        for j, alpha in enumerate(alphas):
            if alpha == 0.0:
                continue
            if dirs.kind == WEIGHT_KIND:
                w_eff = [w + alpha * d for w, d in zip(model.weights, direction)]
                losses[i, j] = loss_at(dataset.features, w_eff)
            else:
                losses[i, j] = loss_at(
                    _scaled_plus(direction, alpha, dataset.features, x_eff)
                )
    return LandscapeProfile(alphas=alphas, losses=losses)


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
    # Every trial draws, scales and shifts in this one buffer; x + e and
    # e + x have the same bits, so accs match sigma * draw + features.
    noisy = np.empty_like(dataset.features)
    for t in range(trials):
        rng.standard_normal(out=noisy)
        _scaled_plus(noisy, sigma, dataset.features, noisy)
        cache = forward(model, dataset.a_hat, noisy)
        accs[t] = accuracy(cache.logits, dataset.labels, dataset.test_mask)
    return accs
