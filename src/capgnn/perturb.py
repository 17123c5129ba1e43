"""Inner maximization: the two PGD ascent loops.

Both loops start from a zero perturbation, take ``steps`` normalized
ascent steps on the train-mask loss (dropout off, so the maximized
objective is deterministic), and project after every step. The weight
loop uses a per-layer l2 ball whose radius is relative to that layer's
weight norm; the feature loop uses sign steps inside an absolute
l-infinity ball. Stored model weights and dataset features are never
mutated; perturbations are returned for the caller to apply through the
forward pass's effective-input channel.

Each loop asks ``backward`` only for the gradient its step reads, and
traces each step from values it already has (below, and ``backward``'s
loss). The feature loop runs on n x d arrays, so it keeps two of them:
the perturbation and the effective features X + eps. Step 0 runs
``forward`` on X itself: X + 0.0 differs from X only at -0.0 entries,
which no product sum starting at +0.0 can tell apart. Once ``forward``
has run, X + eps is idle (a ``need_weights=False`` backward never reads
it), so ``backward`` writes the feature gradient there. The step then
takes each row range of the gradient, notes its max and min, writes its
sign into a fresh range-sized temporary (with numpy 2.4 an in-place
``np.sign`` is several times slower), adds it to eps (step 0 writes eps
as ``step + 0.0``, the bits of ``0.0 + step``), clamps, notes eps's max
and min, and rebuilds that range of X + eps over the spent gradient. The
whole step is one sweep over row ranges of at least 2^16 entries, each
taken through every pass while it sits in cache, with the ranges drained
across CPUs (see ``linalg``); every pass is elementwise, so the bytes do
not depend on the partition. At most two n x d arrays are live
at once. The l-infinity clamp runs only once the ascent could have
reached the ball (see ``pgd_feature_perturbation``). The returned
perturbation owns its memory and belongs to the caller, who may
overwrite it.

A non-finite value inside either ascent raises ``FloatingPointError``
naming the loop and the step: a NaN gradient norm in the weight loop,
non-finite logits in the feature loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Dataset
from .linalg import _sweep_rows, lp_norm
from .model import GnnModel, backward, forward

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
        for key in ("rho_w", "rho_x"):
            if not 0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be positive and finite")
        if not 0 <= self.beta < math.inf:
            raise ValueError("beta must be finite and >= 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass
class PgdTraceRow:
    """One step on ``w<l>`` (l2 norms) or ``x`` (max-abs); eps after projection."""

    step: int
    layer: str
    grad_norm: float
    eps_norm: float
    loss: float


def pgd_weight_perturbation(
    model: GnnModel,
    dataset: Dataset,
    cfg: PerturbConfig,
    *,
    work: list | None = None,
) -> tuple[list[np.ndarray], list[PgdTraceRow]]:
    """Multi-step projected ascent on the train loss in weight space.

    Each step evaluates the gradient at (W + eps, X), moves each layer
    by ``beta`` along its norm-normalized gradient, and projects onto
    that layer's ball of radius ``rho_w * ||W_l||_2`` (a radial rescale
    when the step leaves the ball). Layers whose gradient norm falls
    below 1e-12 contribute a zero step instead of dividing by ~0; a
    non-finite norm raises ``FloatingPointError``. Returns the
    perturbation and one trace row per (step, layer).
    """
    radii = [cfg.rho_w * lp_norm(w, 2) for w in model.weights]
    eps = [np.zeros_like(w) for w in model.weights]
    rows = []
    for t in range(cfg.steps):
        w_eff = [w + e for w, e in zip(model.weights, eps)]
        cache = forward(model, dataset.a_hat, dataset.features, w_eff, work=work)
        grads = backward(
            model, dataset.a_hat, cache, dataset.labels, dataset.train_mask,
            need_features=False,
        )
        for l, g in enumerate(grads.d_weights):
            gn = lp_norm(g, 2)
            if not math.isfinite(gn):
                raise FloatingPointError(
                    f"weight ascent step {t}: non-finite gradient norm on layer w{l}"
                )
            en = None  # ||eps_l||, unless the step projects or is zero
            if gn >= _GRAD_NORM_FLOOR and radii[l] > 0.0:
                e = eps[l] + cfg.beta * (g / gn)
                nrm = lp_norm(e, 2)
                eps[l], en = (e * (radii[l] / nrm), None) if nrm > radii[l] else (e, nrm)
            en = lp_norm(eps[l], 2) if en is None else en
            rows.append(PgdTraceRow(t, f"w{l}", gn, en, grads.loss))
    return eps, rows


def pgd_feature_perturbation(
    model: GnnModel,
    dataset: Dataset,
    cfg: PerturbConfig,
    *,
    work: list | None = None,
) -> tuple[np.ndarray, list[PgdTraceRow]]:
    """Multi-step projected sign ascent on the train loss in feature space.

    Steps are ``beta * sign(grad)`` with sign(0) = 0, so feature rows
    outside the masked nodes' receptive field stay exactly zero; the
    projection clamps entrywise to [-rho_x, rho_x]. Every step works in
    reused buffers (see the module docstring) and gives the bytes of
    ``np.clip(eps + beta * np.sign(grad), -rho_x, rho_x)``.

    The clamp is skipped while ``reach``, the running float sum of the
    step sizes, is at most ``rho_x``. Each entry of ``eps`` is then a
    sequential float sum of at most t + 1 terms, each +-beta or 0, and
    rounding is monotone, so |eps| <= reach and the clamp would be an
    identity (a NaN entry stays NaN either way). The bound is the running
    sum, not ``(t + 1) * beta``: an entry that gains beta=0.1 three times
    is 0.30000000000000004, so rho_x=0.3 clamps it, and six steps of 0.01
    give 0.060000000000000005 where 6 * 0.01 is 0.06. Returns the
    perturbation, the caller's to keep or overwrite, and one trace row
    per step.
    """
    x = dataset.features
    eps, x_eff = np.empty_like(x), np.empty_like(x)  # both filled by step 0
    reach, rows = 0.0, []
    for t in range(cfg.steps):
        cache = forward(model, dataset.a_hat, x_eff if t else x, work=work)
        if not np.isfinite(cache.logits).all():
            raise FloatingPointError(f"feature ascent step {t}: non-finite logits")
        grads = backward(  # into X + eps, idle until the step rebuilds it
            model, dataset.a_hat, cache, dataset.labels, dataset.train_mask,
            need_weights=False, out=x_eff,
        )
        reach += cfg.beta
        clamp = reach > cfg.rho_x
        first = t == 0
        rebuild = t + 1 < cfg.steps  # the caller adds the final eps itself
        g_ends, e_ends = [], []  # each range's (max, min) of grad, of eps

        def step(lo, hi):
            g = grads.d_features[lo:hi]
            g_ends.append((g.max(), g.min()))
            s = np.sign(g)  # a range temporary: in place is slower
            s *= cfg.beta
            e = eps[lo:hi]
            if first:
                np.add(s, 0.0, out=e)  # 0.0 + s: a -0.0 step gives +0.0
            else:
                e += s
            if clamp:
                np.clip(e, -cfg.rho_x, cfg.rho_x, out=e)
            e_ends.append((e.max(), e.min()))
            if rebuild:
                np.add(x[lo:hi], e, out=x_eff[lo:hi])  # over the spent gradient

        _sweep_rows(x.shape, step)
        rows.append(PgdTraceRow(t, "x", _max_abs(g_ends), _max_abs(e_ends), grads.loss))
    return eps, rows


def _max_abs(ends: list[tuple[float, float]]) -> float:
    """``lp_norm(a, math.inf)`` from each range's (max, min); exact, NaN passes."""
    highs, lows = zip(*ends)
    return float(np.maximum(np.abs(np.max(highs)), np.abs(np.min(lows))))
