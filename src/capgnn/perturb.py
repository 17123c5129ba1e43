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
loss). The feature loop holds one n x d array, eps. Step 0 runs
``forward`` on X itself (X + 0.0 differs from X only at -0.0 entries,
which no product sum starting at +0.0 can tell apart); each later step's
``forward`` takes (X + eps) @ W_0 through ``first``. ``backward`` returns
the first layer's n x hidden gradient; one pass over the ranges
``_matmul_rows`` would cut the feature gradient into (``_dense_cuts``)
multiplies each range of it by W_0.T, with those rows' bytes, into a
range-sized array. On its sub-ranges of 2^16 entries, in cache, the pass
notes the gradient's max and min, adds the sign step to eps (a sub-range
temporary: an in-place ``np.sign`` is several times slower with numpy
2.4; step 0 writes ``step + 0.0``, the bits of ``0.0 + step``), clamps,
notes eps's max and min, and copies eps over the spent gradient. Before
every step but the last, that copy is shifted by X and multiplied into
the next first-layer product (``linalg._shifted_product``). The clamp
runs only once the ascent could have reached the ball (see
``pgd_feature_perturbation``). The returned
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

from . import linalg
from .graph import Dataset
from .linalg import _dense_cuts, _row_cuts, _run_row_blocks, _shifted_product, lp_norm
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
        grads = backward(model, dataset.a_hat, cache, dataset.labels, dataset.train_mask)
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
    x, w0 = dataset.features, model.weights[0]
    eps = np.empty_like(x)  # filled by step 0
    prod = work[0][0] if work else np.empty((len(x), w0.shape[1]))  # (X + eps) @ W_0
    reach, rows = 0.0, []
    for t in range(cfg.steps):
        cache = (forward(model, dataset.a_hat, None, first=prod, work=work) if t
                 else forward(model, dataset.a_hat, x, work=work))
        if not np.isfinite(cache.logits).all():
            raise FloatingPointError(f"feature ascent step {t}: non-finite logits")
        grads = backward(
            model, dataset.a_hat, cache, dataset.labels, dataset.train_mask,
            need_weights=False,
        )
        reach += cfg.beta
        clamp = reach > cfg.rho_x
        rebuild = t + 1 < cfg.steps  # the caller adds the final eps itself
        g_ends, e_ends = [], []  # each sub-range's (max, min) of grad, of eps

        def step(lo, hi):
            g = np.matmul(grads.d_first[lo:hi], w0.T)  # rows [lo, hi) of the gradient
            e = eps[lo:hi]
            sub = _row_cuts(*g.shape, linalg._CHUNK, 1)  # the grain read at each call
            for a, b in zip(sub, sub[1:]):  # one sub-range at a time, in cache
                ga, ea = g[a:b], e[a:b]
                g_ends.append((ga.max(), ga.min()))
                s = np.sign(ga)  # a sub-range temporary: in place is slower
                s *= cfg.beta
                if t == 0:
                    np.add(s, 0.0, out=ea)  # 0.0 + s: a -0.0 step gives +0.0
                else:
                    ea += s
                del s  # before the next sub-range's sign is made
                if clamp:
                    np.clip(ea, -cfg.rho_x, cfg.rho_x, out=ea)
                e_ends.append((ea.max(), ea.min()))
                np.copyto(ga, ea)  # eps over the spent gradient, shifted below
            if rebuild:
                _shifted_product(g, x, w0, prod, lo, hi)

        _run_row_blocks(_dense_cuts(x, w0.shape[1]), step)
        g_norm, e_norm = (lp_norm(np.array(ends), math.inf) for ends in (g_ends, e_ends))
        rows.append(PgdTraceRow(t, "x", g_norm, e_norm, grads.loss))
    return eps, rows

