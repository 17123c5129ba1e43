"""Outer minimization: optimizers, the two-stage alternating schedule, training modes.

Training runs a fixed number of epochs. The first ``skip_epochs`` are
plain cross-entropy descent; afterwards the mode decides which
adversarial objective each epoch minimizes. In ``cap`` mode epochs whose
(global, 1-based) index is divisible by ``frequency`` perturb features
and all other post-skip epochs perturb weights; ``wp``/``fp`` apply a
single perturbation type throughout stage two; ``vanilla`` never
perturbs. Weight perturbations are transient: the gradient is taken at
the displaced point and the update is applied to the stored weights.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import Dataset
from .linalg import _add_rows, make_rng
from .model import GnnModel, _workspace, backward, forward, init_model, split_metrics
from .perturb import PerturbConfig, pgd_feature_perturbation, pgd_weight_perturbation

STANDARD = "standard"
WEIGHT_PERTURB = "weight_perturb"
FEATURE_PERTURB = "feature_perturb"

_MODES = ("vanilla", "wp", "fp", "cap")
_OPTIMIZERS = ("sgd", "adam")
_SELECTIONS = ("best_val", "last")


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    skip_epochs: int = 0
    frequency: int = 5
    lr: float = 0.01
    mode: str = "vanilla"
    perturb: PerturbConfig = field(default_factory=PerturbConfig)
    optimizer: str = "sgd"
    weight_decay: float = 0.0
    seed: int = 0
    eval_every: int = 1
    model_selection: str = "best_val"
    hidden_dims: tuple[int, ...] = (64,)
    dropout: float = 0.5

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (0 <= self.skip_epochs <= self.epochs):
            raise ValueError(
                f"skip_epochs must be in [0, epochs], got {self.skip_epochs}"
            )
        if self.frequency < 1:
            raise ValueError("frequency must be >= 1")
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.optimizer not in _OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {_OPTIMIZERS}")
        if self.model_selection not in _SELECTIONS:
            raise ValueError(f"model_selection must be one of {_SELECTIONS}")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be finite and >= 0")
        if not self.hidden_dims or any(not 1 <= h < 1 << 31 for h in self.hidden_dims):
            raise ValueError("hidden_dims must be in [1, 2^31)")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must be in [0, 1)")


@dataclass
class EpochRecord:
    epoch: int
    mode_used: str
    train_loss: float | None
    adv_loss: float | None
    train_acc: float | None
    val_acc: float | None
    test_acc: float | None
    wall_ms: float
    pgd_rows: list = field(default_factory=list)  # the ascent's PgdTraceRows


def schedule(epoch: int, cfg: TrainConfig) -> str:
    """Which objective epoch ``epoch`` (1-based) minimizes under ``cfg``."""
    if not (1 <= epoch <= cfg.epochs):
        raise ValueError(f"epoch must be in [1, {cfg.epochs}], got {epoch}")
    if epoch <= cfg.skip_epochs or cfg.mode == "vanilla":
        return STANDARD
    if cfg.mode == "wp":
        return WEIGHT_PERTURB
    if cfg.mode == "fp":
        return FEATURE_PERTURB
    return FEATURE_PERTURB if epoch % cfg.frequency == 0 else WEIGHT_PERTURB


class SgdOptimizer:
    """Plain gradient descent; weight decay folds into the gradient.

    With weight_decay=0 the update is literally ``w - lr * g``, which
    keeps perturbed steps byte-replayable.
    """

    def __init__(self, lr: float, weight_decay: float = 0.0):
        self.lr = lr
        self.weight_decay = weight_decay

    def step(self, weights: list[np.ndarray], grads: list[np.ndarray]) -> None:
        for l in range(len(weights)):
            g = grads[l]
            if self.weight_decay:
                g = g + self.weight_decay * weights[l]
            weights[l] = weights[l] - self.lr * g


class AdamOptimizer:
    """Adam with bias correction; weight decay is classic L2-into-gradient."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float, weight_decay: float = 0.0):
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m: list[np.ndarray] | None = None
        self.v: list[np.ndarray] | None = None

    def step(self, weights: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if self.m is None:
            self.m = [np.zeros_like(w) for w in weights]
            self.v = [np.zeros_like(w) for w in weights]
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for l in range(len(weights)):
            g = grads[l]
            if self.weight_decay:
                g = g + self.weight_decay * weights[l]
            self.m[l] = self.beta1 * self.m[l] + (1.0 - self.beta1) * g
            self.v[l] = self.beta2 * self.v[l] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[l] / b1t
            v_hat = self.v[l] / b2t
            weights[l] = weights[l] - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "adam":
        return AdamOptimizer(cfg.lr, cfg.weight_decay)
    return SgdOptimizer(cfg.lr, cfg.weight_decay)


def train_step(
    model: GnnModel,
    dataset: Dataset,
    mode_used: str,
    cfg: TrainConfig,
    optimizer,
    rng: np.random.Generator,
    epoch: int = 0,
    evaluate_metrics: bool = True,
    *,
    work: list | None = None,
) -> EpochRecord:
    """One optimizer step under the given epoch mode.

    Perturbed modes first run the matching PGD loop (dropout off), then
    take the descent gradient at the displaced point and apply it to the
    stored weights; the perturbation itself is discarded. Clean metrics,
    when requested, are evaluated after the update with dropout off.
    A non-finite value inside either ascent, a non-finite loss before the
    update, a non-finite weight after it or a non-finite clean loss
    raises ``TrainingDivergedError`` naming the epoch (and the ascent
    loop, for the first). The record carries the ascent's trace rows.
    Every pass writes into ``work``, a ``model._workspace``, when given.
    """
    t0 = time.perf_counter()
    a_hat, x = dataset.a_hat, dataset.features
    labels, train_mask = dataset.labels, dataset.train_mask

    x_eff, w_eff, rows = x, None, []
    try:
        if mode_used == WEIGHT_PERTURB:
            eps_w, rows = pgd_weight_perturbation(model, dataset, cfg.perturb, work=work)
            w_eff = [w + e for w, e in zip(model.weights, eps_w)]
        elif mode_used == FEATURE_PERTURB:
            eps_x, rows = pgd_feature_perturbation(model, dataset, cfg.perturb, work=work)
            x_eff = _add_rows(x, eps_x, out=eps_x)  # eps_x is discarded after this step
        elif mode_used != STANDARD:
            raise ValueError(f"unknown epoch mode {mode_used!r}")
    except FloatingPointError as e:
        raise TrainingDivergedError(f"at epoch {epoch} ({mode_used}), {e}") from e

    cache = forward(model, a_hat, x_eff, w_eff, training=True, rng=rng, work=work)
    grads = backward(model, a_hat, cache, labels, train_mask, need_features=False,
                     work=work)
    if not np.isfinite(grads.loss):
        raise TrainingDivergedError(
            f"non-finite training loss at epoch {epoch} ({mode_used})"
        )
    optimizer.step(model.weights, grads.d_weights)
    if not all(np.isfinite(w).all() for w in model.weights):
        raise TrainingDivergedError(
            f"non-finite weights after the update at epoch {epoch} ({mode_used})"
        )

    train_loss = train_acc = val_acc = test_acc = None
    if evaluate_metrics:
        clean = forward(model, a_hat, x, work=work)
        train_loss, train_acc, val_acc, test_acc = split_metrics(clean.logits, dataset)
        if not np.isfinite(train_loss):
            raise TrainingDivergedError(
                f"non-finite clean training loss after epoch {epoch} ({mode_used})"
            )

    return EpochRecord(
        epoch=epoch,
        mode_used=mode_used,
        train_loss=train_loss,
        adv_loss=None if mode_used == STANDARD else grads.loss,
        train_acc=train_acc,
        val_acc=val_acc,
        test_acc=test_acc,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        pgd_rows=rows,
    )


def train(dataset: Dataset, cfg: TrainConfig) -> tuple[GnnModel, list[EpochRecord]]:
    """Full training run; returns the selected model and per-epoch history.

    All randomness (init and dropout) flows from ``cfg.seed``, so two
    runs with the same config and dataset are bit-identical. With
    ``model_selection="best_val"`` the returned weights are the earliest
    checkpoint achieving the best validation accuracy. Every epoch's
    passes reuse one ``model._workspace``, which dies with the call.
    """
    rng = make_rng(cfg.seed)
    dims = [dataset.d, *cfg.hidden_dims, dataset.num_classes]
    model = init_model(dims, rng, dropout_rate=cfg.dropout)
    optimizer = make_optimizer(cfg)
    work = _workspace(model, dataset.n)

    history: list[EpochRecord] = []
    best_val = -1.0
    best_weights: list[np.ndarray] | None = None
    for epoch in range(1, cfg.epochs + 1):
        mode_used = schedule(epoch, cfg)
        do_eval = epoch % cfg.eval_every == 0 or epoch == cfg.epochs
        record = train_step(
            model, dataset, mode_used, cfg, optimizer, rng,
            epoch=epoch, evaluate_metrics=do_eval, work=work,
        )
        history.append(record)
        if (
            cfg.model_selection == "best_val"
            and record.val_acc is not None
            and record.val_acc > best_val
        ):
            best_val = record.val_acc
            best_weights = model.copy_weights()
    if cfg.model_selection == "best_val" and best_weights is not None:
        model.weights = best_weights
    return model, history


# ---------------------------------------------------------------------------
# Metrics serialization
# ---------------------------------------------------------------------------

METRICS_HEADER = "epoch,mode,train_loss,adv_loss,train_acc,val_acc,test_acc,wall_ms"


def _fmt(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def write_metrics_csv(history: list[EpochRecord], path) -> None:
    """Per-epoch CSV; optional fields are empty, floats use round-trip repr."""
    lines = [METRICS_HEADER + "\n"]
    for r in history:
        lines.append(
            f"{r.epoch},{r.mode_used},{_fmt(r.train_loss)},{_fmt(r.adv_loss)},"
            f"{_fmt(r.train_acc)},{_fmt(r.val_acc)},{_fmt(r.test_acc)},"
            f"{r.wall_ms:.3f}\n"
        )
    Path(path).write_text("".join(lines), encoding="utf-8", newline="\n")


def write_pgd_trace_csv(history: list[EpochRecord], path) -> None:
    """Per-inner-step CSV of the PGD loops; header only if no epoch ascended."""
    lines = ["epoch,step,layer,grad_norm,eps_norm,loss\n"]
    for r in history:
        lines.extend(
            f"{r.epoch},{row.step},{row.layer},{_fmt(row.grad_norm)},"
            f"{_fmt(row.eps_norm)},{_fmt(row.loss)}\n"
            for row in r.pgd_rows
        )
    Path(path).write_text("".join(lines), encoding="utf-8", newline="\n")
