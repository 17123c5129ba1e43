"""Diagnostics: loss-landscape profiles, sharpness, Gaussian noise attack.

A landscape profile traces the masked loss while displacing either the
weights (per-layer, each random direction rescaled to the corresponding
layer's norm) or the features (one direction rescaled to the feature
matrix norm) by a scalar grid of magnitudes. The sharpness scalar is a
pragmatic summary of such a profile, not a Hessian quantity: the mean
symmetric loss rise at a reference magnitude.

The feature-side passes never build a displaced n x d matrix whole. Each
range of rows that ``_matmul_rows`` would cut the first layer's product
into (``linalg._dense_cuts``) is built in a buffer of that range's size,
``alpha * direction + features`` for a profile and ``sigma * draw +
features`` for the attack, and multiplied by ``W_0`` while it is in
cache, into the first layer's product; ``forward`` takes that product
in place of the features. A profile runs its ranges on the row-block
pool. The attack draws each range on the caller's thread, one serial
stream (``linalg._stream_normal``), with the pool shifting and
multiplying the ranges already drawn. A buffer is reused only once its
product is written, so a call holds one per range in flight: a few at
most while the pool keeps up with the draws, all of them (one n x d
array in total) if it does not. Every forward of one call writes into
one ``model._workspace``, and its first ``prod`` array takes the chunked
product. A direction's l2 norm is summed as it is drawn, once per draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Dataset
from .linalg import (
    _dense_cuts, _normal_norm, _run_row_blocks, _stream_normal, _sweep_rows, lp_norm,
)
from .model import GnnModel, _workspace, accuracy, forward, masked_cross_entropy

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


def _range_buffers(cols: int):
    """``(take, give)``: ``take(lo, hi)`` is a ``(hi - lo) x cols`` buffer for
    rows [lo, hi), and ``give(rows)`` hands it back once they are read.

    A buffer is handed out again only once given back, so no two ranges
    in flight share one. A new one is made only when no spare one is long
    enough, and a spare one too short is dropped, so there are never more
    buffers than the most ranges in flight at once.
    """
    spare = []

    def take(lo, hi):
        try:
            buf = spare.pop()
        except IndexError:  # none is spare
            buf = None
        if buf is None or len(buf) < hi - lo:
            buf = None  # frees a short one before the one replacing it is made
            buf = np.empty((hi - lo, cols))
        return buf[:hi - lo]

    return take, lambda rows: spare.append(rows.base)


def _call_space(model: GnnModel, n: int):
    """One call's ``_workspace`` and the array its first-layer products go in."""
    work = _workspace(model, n)
    return work, work[0][0] if work else np.empty((n, model.weights[0].shape[1]))


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

    The grid must be strictly increasing and contain 0; the alpha=0 column
    is the unperturbed loss, from one clean forward per call shared by
    every direction, so it is bit-exact. Dropout is always off here. The
    kind must be one ``sample_directions`` draws, and every direction must
    have its source's shape: the features', or one array per layer with
    that layer's. A feature displacement is built range by range as
    ``alpha * direction + features``, which has the bits of ``features +
    alpha * direction`` (IEEE * and + commute), and multiplied by ``W_0``
    there (module docstring).
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
    x, w0 = dataset.features, model.weights[0]
    _check_directions(dirs, model, x)
    work, prod = _call_space(model, len(x))

    def loss_at(x_eff, w_eff=None, first=None) -> float:
        cache = forward(model, dataset.a_hat, x_eff, w_eff, first=first, work=work)
        return masked_cross_entropy(cache.logits, dataset.labels, mask)

    cuts = _dense_cuts(x, w0.shape[1])
    take, give = _range_buffers(x.shape[1])

    def displaced_first(direction, alpha) -> np.ndarray:
        def displace_and_multiply(lo, hi):
            rows = take(lo, hi)
            np.add(np.multiply(direction[lo:hi], alpha, out=rows), x[lo:hi], out=rows)
            np.matmul(rows, w0, out=prod[lo:hi])
            give(rows)

        _run_row_blocks(cuts, displace_and_multiply)
        return prod

    losses = np.empty((len(dirs.directions), len(alphas)))
    losses[:, alphas == 0.0] = loss_at(x)
    for i, direction in enumerate(dirs.directions):
        for j, alpha in enumerate(alphas):
            if alpha == 0.0:
                continue
            if dirs.kind == WEIGHT_KIND:
                w_eff = [w + alpha * d for w, d in zip(model.weights, direction)]
                losses[i, j] = loss_at(x, w_eff)
            else:
                losses[i, j] = loss_at(None, first=displaced_first(direction, alpha))
    return LandscapeProfile(alphas=alphas, losses=losses)


def _check_directions(dirs: DirectionSet, model: GnnModel, features: np.ndarray) -> None:
    """Raise unless ``dirs`` has a known kind and each direction its source's shape."""
    if dirs.kind not in (WEIGHT_KIND, FEATURE_KIND):
        raise ValueError(f"kind must be {WEIGHT_KIND!r} or {FEATURE_KIND!r}")
    for i, direction in enumerate(dirs.directions):
        if dirs.kind == WEIGHT_KIND:
            if len(direction) != model.depth:
                raise ValueError(f"weight direction {i} has {len(direction)} layers, "
                                 f"model has {model.depth}")
            for l, (d, w) in enumerate(zip(direction, model.weights)):
                if np.shape(d) != w.shape:
                    raise ValueError(f"weight direction {i} layer {l} is "
                                     f"{np.shape(d)}, layer is {w.shape}")
        elif np.shape(direction) != features.shape:
            raise ValueError(f"feature direction {i} is {np.shape(direction)}, "
                             f"features are {features.shape}")


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
    """Test accuracy per trial on features plus N(0, sigma^2) noise.

    Each trial's noisy features are drawn, shifted and multiplied by
    ``W_0`` range by range (module docstring); ``x + e`` and ``e + x``
    have the same bits, so the accuracies are those of
    ``features + sigma * rng.standard_normal(features.shape)``.
    """
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    x, w0 = dataset.features, model.weights[0]
    if x.shape[1] != w0.shape[0]:  # before any chunk reaches np.matmul
        raise ValueError(f"features must be {x.shape[0]}x{w0.shape[0]}, got {x.shape}")
    cuts = _dense_cuts(x, w0.shape[1])
    work, first = _call_space(model, len(x))
    take, give = _range_buffers(x.shape[1])

    def shift_and_multiply(lo, hi, rows):
        np.add(np.multiply(rows, sigma, out=rows), x[lo:hi], out=rows)
        np.matmul(rows, w0, out=first[lo:hi])
        give(rows)

    accs = np.empty(trials)
    for t in range(trials):
        _stream_normal(rng, cuts, take, shift_and_multiply)
        cache = forward(model, dataset.a_hat, None, first=first, work=work)
        accs[t] = accuracy(cache.logits, dataset.labels, dataset.test_mask)
    return accs
