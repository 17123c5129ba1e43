"""Experiment command line: train / probe / attack / gen-sbm.

Every run is driven by explicit seeds and writes a manifest of what ran.
``train`` echoes its resolved configuration, so re-running its manifest
reproduces all metric files byte for byte (wall-clock columns aside);
``probe``, ``attack`` and ``gen-sbm`` record every parsed flag, with the
values derived from them (parsed lists, dataset fingerprint, graph size)
in place of the raw strings. BLAS always runs on one thread, whatever
the environment says (a second thread changes output bytes): importing
``capgnn`` pins its pools before numpy loads. A train config is
validated in full before the output directory is created. The seeds of
a ``train`` sweep run side by side on forked worker processes, at most
one per CPU the process may run on (``taskset -c 0`` runs them one
after another); every file and line of output is the same either way.

Exit codes: 0 success, 2 configuration/validation error (an array too
large to allocate too), 3 numerical failure (divergence), 4 IO failure,
5 a seed worker died (killed, out of memory) without reporting an error.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from copy import copy
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__, linalg
from .graph import (
    DatasetError, SbmParams, dataset_fingerprint, generate_sbm, load_dataset, save_dataset,
)
from .landscape import (
    gaussian_attack_trials, probe_landscape, sample_directions, sharpness,
)
from .linalg import make_rng
from .model import forward, load_model, save_model, split_metrics
from .perturb import PerturbConfig
from .train import (
    TrainConfig, TrainingDivergedError, train, write_metrics_csv, write_pgd_trace_csv,
)


class ConfigError(ValueError):
    """Invalid configuration file, flag value, or input artifact."""


# ---------------------------------------------------------------------------
# Config keys (shared by the config file and --key overrides)
# ---------------------------------------------------------------------------

def _parse_bool(s: str) -> bool:
    low = str(s).strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_int_list(s: str) -> list[int]:
    s = str(s).strip()
    if ".." in s:
        lo, hi = s.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(p) for p in s.split(",") if p.strip() != ""]


def _parse_float_list(s: str) -> list[float]:
    return [float(p) for p in str(s).split(",") if p.strip() != ""]


_TRAIN, _PERTURB = TrainConfig(), PerturbConfig()

# key -> (parser, default); None default means the key is required.
CONFIG_KEYS: dict = {
    "mode": (str, _TRAIN.mode),
    "epochs": (int, _TRAIN.epochs),
    "skip_epochs": (int, _TRAIN.skip_epochs),
    "frequency": (int, _TRAIN.frequency),
    "lr": (float, _TRAIN.lr),
    "optimizer": (str, _TRAIN.optimizer),
    "weight_decay": (float, _TRAIN.weight_decay),
    "hidden_dims": (_parse_int_list, list(_TRAIN.hidden_dims)),
    "dropout": (float, _TRAIN.dropout),
    "rho_w": (float, _PERTURB.rho_w),
    "rho_x": (float, _PERTURB.rho_x),
    "beta": (float, _PERTURB.beta),
    "pgd_steps": (int, _PERTURB.steps),
    "seeds": (_parse_int_list, list(range(1, 11))),
    "dataset_dir": (str, None),
    "out_dir": (str, None),
    "eval_every": (int, _TRAIN.eval_every),
    "model_selection": (str, _TRAIN.model_selection),
    "row_normalize_features": (_parse_bool, False),
}


def parse_config_file(path: Path) -> dict:
    """Read a flat ``key = value`` config, or a manifest.json to replay."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from e
        resolved = payload.get("resolved_config")
        if not isinstance(resolved, dict):
            raise ConfigError(f"{path}: JSON config must carry 'resolved_config'")
        return {str(k): str(v) for k, v in _flatten_json_config(resolved).items()}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = val
    return values


def _flatten_json_config(resolved: dict) -> dict:
    out = {}
    for key, val in resolved.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"manifest carries unknown config key {key!r}")
        if isinstance(val, list):
            out[key] = ",".join(str(v) for v in val)
        else:
            out[key] = val
    return out


def resolve_config(file_values: dict, overrides: dict) -> dict:
    """Materialize every key: defaults, then config file, then --key flags."""
    merged = {}
    for key, (parse, default) in CONFIG_KEYS.items():
        raw = overrides.get(key)
        if raw is None:
            raw = file_values.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required config key {key!r}")
            merged[key] = copy(default)  # fresh lists: callers may edit theirs
            continue
        try:
            merged[key] = parse(raw)
        except ValueError as e:
            raise ConfigError(f"config key {key!r}: {e}") from e
    seeds = merged["seeds"]
    if not seeds:
        raise ConfigError("config key 'seeds' must list at least one seed")
    if min(seeds) < 0:
        raise ConfigError(f"config key 'seeds': seed {min(seeds)} is negative")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("config key 'seeds' lists a seed more than once")
    return merged


def _train_config(resolved: dict) -> TrainConfig:
    """The run's config, seeded with its first seed; other seeds ``replace`` it."""
    # Config keys are named after the config fields they set, except these.
    values = dict(
        resolved,
        steps=resolved["pgd_steps"],
        hidden_dims=tuple(resolved["hidden_dims"]),
        seed=resolved["seeds"][0],
    )

    def pick(cls) -> dict:
        return {f.name: values[f.name] for f in fields(cls) if f.name in values}

    try:
        perturb = PerturbConfig(**pick(PerturbConfig))
        return TrainConfig(perturb=perturb, **pick(TrainConfig))
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _manifest(command: str, **entries) -> dict:
    return {"tool": "capgnn", "version": __version__, "command": command, **entries}


def _flags(args: argparse.Namespace, **derived) -> dict:
    """Parsed flags (``command`` included), ``derived`` values replacing raw strings."""
    return {**{k: v for k, v in vars(args).items() if k != "func"}, **derived}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
        newline="\n",
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_train(args: argparse.Namespace) -> int:
    file_values = parse_config_file(Path(args.config)) if args.config else {}
    overrides = {k: getattr(args, k) for k in CONFIG_KEYS if getattr(args, k) is not None}
    resolved = resolve_config(file_values, overrides)
    cfg = _train_config(resolved)

    dataset = load_dataset(
        resolved["dataset_dir"],
        row_normalize_features=resolved["row_normalize_features"],
    )
    out_dir = Path(resolved["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest = _manifest(
        "train",
        resolved_config=resolved,
        dataset_fingerprint=dataset_fingerprint(resolved["dataset_dir"]),
        seeds=resolved["seeds"],
        out_dir=str(out_dir),
    )
    _write_json(out_dir / "manifest.json", manifest)
    # No earlier run's outputs may sit next to this manifest; files capgnn
    # did not write stay.
    (out_dir / "summary.json").unlink(missing_ok=True)
    for old in out_dir.glob("seed_*"):  # seed_<s>/, and seed_<s>.tmp/ of a killed run
        if old.is_dir() and old.name[5:].removesuffix(".tmp").isdigit():
            for name in ("metrics.csv", "checkpoint.json", "pgd_trace.csv"):
                (old / name).unlink(missing_ok=True)
            if not any(old.iterdir()):
                old.rmdir()

    per_seed = []
    for row in _seed_rows(resolved["seeds"], (dataset, cfg, out_dir)):
        per_seed.append(row)
        print(f"seed {row['seed']}: test_acc={row['test_acc']} "
              f"gap={row['generalization_gap']}")

    test_accs = [r["test_acc"] for r in per_seed if r["test_acc"] is not None]
    gaps = [r["generalization_gap"] for r in per_seed if r["generalization_gap"] is not None]
    summary = {
        "config": resolved,
        "dataset_fingerprint": manifest["dataset_fingerprint"],
        "per_seed": per_seed,
        "num_seeds": len(per_seed),
        "test_acc_mean": _mean(test_accs),
        "test_acc_std": _std(test_accs),
        "generalization_gap_mean": _mean(gaps),
    }
    _write_json(out_dir / "summary.json", summary)
    print(
        f"{len(per_seed)} runs: test acc {summary['test_acc_mean']} "
        f"+- {summary['test_acc_std']}"
    )
    return 0


_job: tuple | None = None  # (dataset, cfg, out_dir) of the sweep in progress


def _run_seed(seed: int) -> dict:
    """Train ``seed`` of the sweep in ``_job``, write ``seed_<s>/``, return its row.

    ``seed_<s>/`` holds ``metrics.csv``, ``pgd_trace.csv`` (every inner
    ascent step; header only when no epoch ascended) and
    ``checkpoint.json``. The files go to ``seed_<s>.tmp/``, renamed onto
    ``seed_<s>/`` at once (file by file if files capgnn did not write keep
    it), so a killed worker leaves no half-written ``seed_<s>/``.
    """
    dataset, cfg, out_dir = _job
    model, history = train(dataset, replace(cfg, seed=seed))
    seed_dir, tmp = out_dir / f"seed_{seed}", out_dir / f"seed_{seed}.tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(history, tmp / "metrics.csv")
    write_pgd_trace_csv(history, tmp / "pgd_trace.csv")
    save_model(model, tmp / "checkpoint.json")
    try:
        os.replace(tmp, seed_dir)  # seed_dir is absent or empty
    except OSError:
        for f in tmp.iterdir():
            os.replace(f, seed_dir / f.name)
        tmp.rmdir()
    ckpt = seed_dir / "checkpoint.json"
    logits = forward(model, dataset.a_hat, dataset.features).logits
    _, train_acc, val_acc, test_acc = split_metrics(logits, dataset)
    return {
        "seed": seed,
        "train_acc": train_acc,
        "val_acc": val_acc,
        "test_acc": test_acc,
        "generalization_gap": train_acc - test_acc if test_acc is not None else None,
        "checkpoint": str(ckpt),
    }


def _seed_rows(seeds: list[int], job: tuple):
    """``_run_seed``'s rows in seed order, on one forked worker per CPU.

    Seeds are independent and each is trained the same way wherever it
    runs, so rows and files do not depend on the worker count. With one
    CPU (or no ``os.fork``) the seeds run in this process. Workers fork at
    the pool's first submit, after ``_job`` is set, so they inherit it (79
    MB of features at Pubmed shape) and any patched module attribute
    without pickling; the row-block pool's threads, the only ones capgnn
    starts, are idle between kernels, and a forked child drops that pool.
    If the sweep stops early (an error, or the caller closing it),
    ``Executor.map`` cancels the queued seeds and the ``with`` waits for
    the running ones, so no worker outlives the sweep.
    """
    global _job
    workers = min(linalg._WIDTH, len(seeds)) if hasattr(os, "fork") else 1
    _job = job
    try:
        if workers == 1:
            yield from map(_run_seed, seeds)
        else:
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=fork) as pool:
                yield from pool.map(_run_seed, seeds)
    finally:
        _job = None


def _mean(xs) -> float | None:
    return float(sum(xs) / len(xs)) if xs else None


def _std(xs) -> float | None:
    if not xs:
        return None
    mu = sum(xs) / len(xs)
    return float((sum((x - mu) ** 2 for x in xs) / len(xs)) ** 0.5)


def _load_checkpoint_and_dataset(args):
    if args.seed < 0:  # probe and attack both draw from make_rng(args.seed)
        raise ConfigError("--seed must be >= 0")
    try:
        model = load_model(args.checkpoint)
    except ValueError as e:
        raise ConfigError(f"cannot load checkpoint: {e}") from e
    dataset = load_dataset(
        args.dataset_dir, row_normalize_features=args.row_normalize_features
    )
    dims = model.layer_dims
    if dims[0] != dataset.d or dims[-1] != dataset.num_classes:
        raise ConfigError(
            f"checkpoint expects d={dims[0]}, K={dims[-1]} but dataset has "
            f"d={dataset.d}, K={dataset.num_classes}"
        )
    return model, dataset


def _require_test_nodes(args, dataset, command: str) -> None:
    if not dataset.test_mask.any():
        split = Path(args.dataset_dir) / "split.json"
        raise ConfigError(f"{split}: 'test' is empty; {command} needs test nodes")


def cmd_probe(args: argparse.Namespace) -> int:
    model, dataset = _load_checkpoint_and_dataset(args)
    if args.loss_mask == "test":
        _require_test_nodes(args, dataset, "probe --loss_mask test")
    if args.directions < 1:
        raise ConfigError("--directions must be >= 1")
    if args.grid_points < 3 or args.alpha_min >= args.alpha_max:
        raise ConfigError("need alpha_min < alpha_max and >= 3 grid points")
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.grid_points)
    alphas[np.abs(alphas) < 1e-12] = 0.0
    if not (alphas == 0.0).any():
        raise ConfigError("alpha grid must contain 0; adjust range or point count")
    for ref in (args.alpha_ref, -args.alpha_ref):
        if not (np.abs(alphas - ref) <= 1e-12).any():
            raise ConfigError(f"alpha_ref {ref} is not on the alpha grid")

    kinds = ["weight", "feature"] if args.kind == "both" else [args.kind]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sharp: dict = {
        "note": "mean symmetric loss rise at alpha_ref; heuristic summary scalar",
    }
    for kind in kinds:
        rng = make_rng(args.seed)
        source = model if kind == "weight" else dataset.features
        dirs = sample_directions(source, kind, args.directions, rng)
        profile = probe_landscape(model, dataset, dirs, alphas, loss_mask=args.loss_mask)
        sharp[kind] = sharpness(profile, args.alpha_ref)
        csv_path = out_dir / f"profile_{kind}.csv"
        lines = ["kind,direction_id,alpha,loss\n"]
        for i in range(profile.losses.shape[0]):
            for j, alpha in enumerate(profile.alphas):
                lines.append(
                    f"{kind},{i},{repr(float(alpha))},{repr(float(profile.losses[i, j]))}\n"
                )
        csv_path.write_text("".join(lines), encoding="utf-8", newline="\n")
    _write_json(out_dir / "sharpness.json", sharp)
    manifest = _manifest(**_flags(
        args, dataset_fingerprint=dataset_fingerprint(args.dataset_dir)
    ))
    _write_json(out_dir / "manifest.json", manifest)
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    try:
        sigmas = _parse_float_list(args.sigmas)
    except ValueError as e:
        raise ConfigError(f"--sigmas: {e}") from e
    if not sigmas:
        raise ConfigError("--sigmas must list at least one value")
    if not all(0 <= s < math.inf for s in sigmas):
        raise ConfigError("--sigmas must be finite and >= 0")
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    model, dataset = _load_checkpoint_and_dataset(args)
    _require_test_nodes(args, dataset, "attack")

    rng = make_rng(args.seed)
    lines = ["sigma,mean_acc,std_acc\n"]
    for sigma in sigmas:
        accs = gaussian_attack_trials(model, dataset, sigma, args.trials, rng)
        lines.append(
            f"{repr(float(sigma))},{repr(float(np.mean(accs)))},"
            f"{repr(float(np.std(accs)))}\n"
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("".join(lines), encoding="utf-8", newline="\n")
    manifest = _manifest(**_flags(
        args, dataset_fingerprint=dataset_fingerprint(args.dataset_dir), sigmas=sigmas
    ))
    _write_json(out.with_name(out.stem + "_manifest.json"), manifest)
    return 0


def cmd_gen_sbm(args: argparse.Namespace) -> int:
    try:
        blocks = _parse_int_list(args.blocks)
        fractions = _parse_float_list(args.fractions)
        params = SbmParams(
            block_sizes=tuple(blocks),
            p_in=args.p_in,
            p_out=args.p_out,
            feature_noise=args.feature_noise,
            feature_dim=args.feature_dim,
        )
        dataset = generate_sbm(params, make_rng(args.seed), fractions=fractions)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    out_dir = Path(args.out_dir)
    save_dataset(dataset, out_dir)
    manifest = _manifest(**_flags(
        args, blocks=blocks, fractions=fractions, n=dataset.n, num_edges=dataset.num_edges
    ))
    _write_json(out_dir / "manifest.json", manifest)
    print(f"wrote {dataset.n}-node dataset ({dataset.num_edges} edges) to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capgnn",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"capgnn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser(
        "train",
        help="train one model per seed and aggregate mean/std test accuracy",
        description=(
            "Config keys (file 'key = value' lines or --key flags; flags win):\n"
            + "\n".join(
                f"  {k:<24} default: {d!r}" if d is not None else f"  {k:<24} required"
                for k, (_, d) in CONFIG_KEYS.items()
            )
            + "\n\nmode: vanilla | wp | fp | cap. seeds accept '1..10' or '1,2,3'."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_train.add_argument("--config", help="flat config file or a manifest.json to replay")
    for key in CONFIG_KEYS:
        p_train.add_argument(f"--{key}", default=None, help=argparse.SUPPRESS)
    p_train.set_defaults(func=cmd_train)

    p_probe = sub.add_parser(
        "probe", help="loss-landscape profiles and sharpness for a checkpoint"
    )
    p_probe.add_argument("--checkpoint", required=True)
    p_probe.add_argument("--dataset_dir", required=True)
    p_probe.add_argument("--out_dir", required=True)
    p_probe.add_argument("--kind", choices=["weight", "feature", "both"], default="both")
    p_probe.add_argument("--directions", type=int, default=10)
    p_probe.add_argument("--grid_points", type=int, default=21)
    p_probe.add_argument("--alpha_min", type=float, default=-1.0)
    p_probe.add_argument("--alpha_max", type=float, default=1.0)
    p_probe.add_argument("--alpha_ref", type=float, default=0.5)
    p_probe.add_argument("--seed", type=int, default=0)
    p_probe.add_argument("--loss_mask", choices=["train", "test"], default="train")
    p_probe.add_argument("--row_normalize_features", action="store_true")
    p_probe.set_defaults(func=cmd_probe)

    p_attack = sub.add_parser(
        "attack", help="Gaussian feature-noise evasion accuracy for a checkpoint"
    )
    p_attack.add_argument("--checkpoint", required=True)
    p_attack.add_argument("--dataset_dir", required=True)
    p_attack.add_argument("--sigmas", required=True, help="comma-separated noise stds")
    p_attack.add_argument("--trials", type=int, default=20)
    p_attack.add_argument("--seed", type=int, default=0)
    p_attack.add_argument("--out", required=True, help="output CSV path")
    p_attack.add_argument("--row_normalize_features", action="store_true")
    p_attack.set_defaults(func=cmd_attack)

    p_gen = sub.add_parser(
        "gen-sbm", help="write a synthetic block-model dataset directory"
    )
    p_gen.add_argument("--blocks", required=True, help="comma-separated block sizes")
    p_gen.add_argument("--p_in", type=float, required=True)
    p_gen.add_argument("--p_out", type=float, required=True)
    p_gen.add_argument("--feature_noise", type=float, default=1.0)
    p_gen.add_argument(
        "--feature_dim", type=int, default=None,
        help="random unit block means in this many dims (default: one-hot)",
    )
    p_gen.add_argument("--fractions", default="0.6,0.2,0.2")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out_dir", required=True)
    p_gen.set_defaults(func=cmd_gen_sbm)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"capgnn: config error: {e}", file=sys.stderr)
        return 2
    except DatasetError as e:
        print(f"capgnn: dataset error: {e}", file=sys.stderr)
        return 2
    except TrainingDivergedError as e:
        print(f"capgnn: training diverged: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:  # numpy names the shape that could not be allocated
        print(f"capgnn: out of memory: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"capgnn: io error: {e}", file=sys.stderr)
        return 4
    except BrokenProcessPool:
        print("capgnn: a seed worker died", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
