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
buffer. The profile scales and shifts in one ``linalg._sweep_rows``
pass. Each draw is one serial stream, made in chunks with the pool
working behind it (``linalg._stream_normal``): a direction sums its
squares there, and the attack shifts each chunk of rows and multiplies
it into the first layer's product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Dataset
from .linalg import _dense_cuts, _normal_norm, _stream_normal, _sweep_rows, lp_norm
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
    """A Gaussian draw shaped like ``template``, rescaled to l2 norm ``target``.

    The bits of ``g = rng.standard_normal(shape); g *= target / lp_norm(g, 2)``.
    """
    if target == 0.0:
        return np.zeros_like(template)
    g = np.empty(template.shape)
    scale = target / _normal_norm(rng, g)
    # In place: no second n x d array.
    _sweep_rows(g.shape, lambda lo, hi: np.multiply(g[lo:hi], scale, out=g[lo:hi]))
    return g


def _scaled_plus(a: np.ndarray, scale, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = a * scale + b``, one row chunk at a time."""
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
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    x, w0 = dataset.features, model.weights[0]
    if x.shape[1] != w0.shape[0]:  # before any chunk reaches np.matmul
        raise ValueError(f"features must be {x.shape[0]}x{w0.shape[0]}, got {x.shape}")
    # Chunks of rows whose products have the bytes of one noisy @ w0 call.
    cuts = _dense_cuts(x, w0.shape[1])
    accs = np.empty(trials)
    # Every trial draws, scales and shifts in this one buffer; x + e and
    # e + x have the same bits, so accs match sigma * draw + features.
    noisy = np.empty_like(x)
    for t in range(trials):
        # Fills noisy before forward runs; first is forward's alone to drop.
        cache = forward(model, dataset.a_hat, noisy,
                        first=_noisy_first(noisy, x, sigma, w0, cuts, rng))
        accs[t] = accuracy(cache.logits, dataset.labels, dataset.test_mask)
    return accs


def _noisy_first(noisy, x, sigma, w0, cuts, rng) -> np.ndarray:
    """Draw ``sigma * N(0, 1) + x`` into ``noisy`` by chunks; return ``noisy @ w0``."""
    first = np.empty((len(x), w0.shape[1]))

    def shift_and_multiply(lo, hi):
        rows = noisy[lo:hi]
        np.add(np.multiply(rows, sigma, out=rows), x[lo:hi], out=rows)
        np.matmul(rows, w0, out=first[lo:hi])

    _stream_normal(rng, noisy, cuts, shift_and_multiply)
    return first
