#!/usr/bin/env python3
"""Desk-scale study: how alternating adversarial perturbation changes a GCN.

Generates a two-block SBM in an overfitting regime, trains the four
modes (vanilla / wp / fp / cap) over a seed sweep, and reports mean test
accuracy, generalization gap, weight/feature sharpness, and accuracy
under Gaussian feature noise. Writes a CSV plus the landscape profile
data for plotting.

Usage:
    python scripts/run_sbm_study.py --out_dir runs/sbm_study --seeds 5
"""

import argparse
import csv
from pathlib import Path

import capgnn  # noqa: F401  (caps BLAS threads on import, so it precedes numpy)
import numpy as np

from capgnn.graph import SbmParams, generate_sbm
from capgnn.landscape import (
    gaussian_attack_trials,
    probe_landscape,
    sample_directions,
    sharpness,
)
from capgnn.linalg import make_rng
from capgnn.model import forward, split_metrics
from capgnn.perturb import PerturbConfig
from capgnn.train import TrainConfig, train

MODES = {"vanilla": 0, "wp": 50, "fp": 50, "cap": 50}


def build_parser():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out_dir", default="runs/sbm_study")
    p.add_argument("--seeds", type=int, default=5, help="number of training seeds")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--skip_epochs", type=int, default=50)
    p.add_argument("--frequency", type=int, default=5)
    p.add_argument("--feature_noise", type=float, default=1.2)
    p.add_argument("--attack_sigma", type=float, default=1.5)
    p.add_argument("--dataset_seed", type=int, default=2024)
    return p


def grid():
    g = np.linspace(-1.0, 1.0, 21)
    g[np.abs(g) < 1e-12] = 0.0
    return g


def main():
    args = build_parser().parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    params = SbmParams(
        (200, 200), p_in=0.05, p_out=0.02,
        feature_noise=args.feature_noise, feature_dim=8,
    )
    ds = generate_sbm(params, make_rng(args.dataset_seed))
    print(f"dataset: n={ds.n} d={ds.d} edges={ds.num_edges}")

    perturb = PerturbConfig(rho_w=0.1, rho_x=0.2, beta=0.02, steps=3)
    rows = []
    profiles = []
    for mode, skip in MODES.items():
        metrics = []
        for seed in range(1, args.seeds + 1):
            cfg = TrainConfig(
                mode=mode, seed=seed, epochs=args.epochs,
                skip_epochs=min(skip, args.skip_epochs),
                frequency=args.frequency, lr=0.01, optimizer="adam",
                hidden_dims=(64,), dropout=0.0, eval_every=10,
                model_selection="last", perturb=perturb,
            )
            model, _ = train(ds, cfg)
            sharps = {}
            for kind in ("weight", "feature"):
                src = model if kind == "weight" else ds.features
                dirs = sample_directions(src, kind, 10, make_rng(0))
                profile = probe_landscape(model, ds, dirs, grid())
                sharps[kind] = sharpness(profile, 0.5)
                if seed == 1:
                    for i in range(profile.losses.shape[0]):
                        for j, alpha in enumerate(profile.alphas):
                            profiles.append(
                                (mode, kind, i, float(alpha), float(profile.losses[i, j]))
                            )
            logits = forward(model, ds.a_hat, ds.features).logits
            _, train_acc, _, test_acc = split_metrics(logits, ds)
            accs = gaussian_attack_trials(model, ds, args.attack_sigma, 10, make_rng(3))
            metrics.append(
                (
                    test_acc,
                    train_acc - test_acc,
                    sharps["weight"],
                    sharps["feature"],
                    float(np.mean(accs)),
                )
            )
        arr = np.array(metrics)
        mean, std = arr.mean(axis=0), arr.std(axis=0)
        rows.append((mode, *mean, std[0]))
        print(
            f"{mode:8s} acc={mean[0]:.4f}+-{std[0]:.4f} gap={mean[1]:.4f} "
            f"sharpW={mean[2]:.4f} sharpX={mean[3]:.4f} "
            f"attacked(s={args.attack_sigma})={mean[4]:.4f}"
        )

    with (out_dir / "study.csv").open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(
            ["mode", "test_acc", "gen_gap", "sharp_weight", "sharp_feature",
             "attacked_acc", "test_acc_std"]
        )
        w.writerows(rows)
    with (out_dir / "profiles.csv").open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["mode", "kind", "direction_id", "alpha", "loss"])
        w.writerows(profiles)
    print(f"wrote {out_dir}/study.csv and {out_dir}/profiles.csv")


if __name__ == "__main__":
    main()
