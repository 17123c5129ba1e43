#!/usr/bin/env python3
"""Replay a fixed list of CLI runs and print a digest of every artefact.

Inside OUT_DIR this generates the README's 400-node SBM, trains it six
ways (cap; vanilla with best_val selection; fp, once as configured and
once with a feature ball small enough that the clamp binds; cap with
dropout, weight decay, Adam and two hidden layers; every key but the
paths and seeds at its default), probes one checkpoint twice (both
kinds on the train loss; then feature-only on the test loss with
another grid, alpha_ref and seed) and attacks it, runs
``run_sbm_study.py``, and saves a seeded ~10%-dense dataset (repeated
values, a -0.0, exponent-form reprs) with ``save_dataset``, the path
that formats sparse features. Last it saves a seeded 9,216-node ring
graph with d=64 (chords on its first third only) and trains it with cap
for two epochs, so the row-blocked kernels split; then
generates a 2,304-node SBM with d=384 and trains it the same way, with
wider first-layer products (its weight gradient is one range under the
2^27 transposed floor); then does the same on a
4,096-node ring with d=500 features at one decimal, where a second BLAS
thread would change the first layer's products, so a lost BLAS pin shows.
It then prints one ``sha256  relpath`` line per file written, sorted by
path, with the wall-clock column cut from every ``metrics.csv``, and a
last line for the commands' joint stdout. All paths are relative to
OUT_DIR, so two replays compare line for line:

    python scripts/replay_digests.py /tmp/new > new.txt
    python scripts/replay_digests.py /tmp/old --repo ../old-checkout > old.txt
    diff old.txt new.txt

A change that must leave outputs byte-identical shows no difference.

``--write-golden`` also writes the lines to ``tests/golden/replay_digests.txt``
under a header naming the environment they were made in (the Python,
numpy and scipy versions and OpenBLAS's runtime config string); the
tier-1 test ``tests/test_scripts.py::test_replay_matches_the_golden_digests``
replays and compares against that file, and skips in another environment.
"""

import argparse
import hashlib
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "replay_digests.txt"

CAP = ["--config", "configs/sbm_cap.cfg"]
CKPT = ["--checkpoint", "runs/sbm_cap/seed_1/checkpoint.json", "--dataset_dir", "data/sbm"]
COMMANDS = [
    ["gen-sbm", "--blocks", "200,200", "--p_in", "0.05", "--p_out", "0.02",
     "--feature_noise", "1.2", "--feature_dim", "8", "--seed", "2024",
     "--out_dir", "data/sbm"],
    ["train", *CAP, "--seeds", "1..3"],
    ["train", *CAP, "--mode", "vanilla", "--model_selection", "best_val",
     "--seeds", "1..2", "--out_dir", "runs/sbm_vanilla"],
    ["train", *CAP, "--mode", "fp", "--seeds", "1", "--epochs", "60",
     "--out_dir", "runs/sbm_fp"],
    # No shipped config lets the feature ascent reach rho_x; 0.03 < 3 x 0.02 does.
    ["train", *CAP, "--mode", "fp", "--rho_x", "0.03", "--seeds", "1", "--epochs", "60",
     "--out_dir", "runs/sbm_fp_clamped"],
    ["train", *CAP, "--mode", "cap", "--dropout", "0.5", "--weight_decay", "0.0005",
     "--optimizer", "adam", "--hidden_dims", "16,8", "--seeds", "4,7",
     "--epochs", "30", "--skip_epochs", "5", "--out_dir", "runs/sbm_cap_adam"],
    ["train", "--dataset_dir", "data/sbm", "--out_dir", "runs/defaults", "--seeds", "1,2"],
    ["probe", *CKPT, "--directions", "4", "--out_dir", "runs/probe"],
    ["probe", *CKPT, "--kind", "feature", "--loss_mask", "test", "--directions", "2",
     "--grid_points", "11", "--alpha_ref", "0.4", "--seed", "3",
     "--out_dir", "runs/probe_feature"],
    ["attack", *CKPT, "--sigmas", "0,0.5,1.5", "--trials", "5", "--out", "runs/attack.csv"],
]
STUDY = ["--out_dir", "runs/sbm_study", "--seeds", "2", "--epochs", "60",
         "--skip_epochs", "20"]
# 1,300 rows of 60 features, so the writer's last row block is a partial one.
SPARSE_SAVE = """
import numpy as np
from capgnn.graph import make_dataset, random_split, save_dataset
from capgnn.linalg import CsrMatrix, make_rng

rng = make_rng(31)
n, d = 1300, 60
x = np.where(rng.random((n, d)) < 0.1, np.round(rng.standard_normal((n, d)), 2), 0.0)
x[::7] *= 1e-5
x[5, 3] = -0.0
x[1299, 59] = 5e-324
labels = rng.integers(0, 3, n)
us = np.arange(n - 1)
adjacency = CsrMatrix.from_coo(
    n, n, np.r_[us, us + 1], np.r_[us + 1, us], np.ones(2 * (n - 1)))
split = random_split(labels, (0.6, 0.2, 0.2), rng)
save_dataset(make_dataset(adjacency, x, labels, 3, *split), "data/sparse")
"""
# 9,216 nodes x 64 features: with two or more CPUs, spmm, the feature sweep
# and the 64-wide dense products each run in two or more row blocks. Only
# the first third of the ring has chords, so stored entries crowd its rows.
RING_SAVE = """
import numpy as np
from capgnn.graph import make_dataset, random_split, save_dataset
from capgnn.linalg import CsrMatrix, make_rng

rng = make_rng(41)
n, d = 9216, 64
ring, chord = np.arange(n), np.arange(n // 3)
us = np.r_[ring, chord]
vs = np.r_[(ring + 1) % n, chord + 37]
adjacency = CsrMatrix.from_coo(n, n, np.r_[us, vs], np.r_[vs, us], np.ones(2 * len(us)))
labels = rng.integers(0, 3, n)
x = rng.standard_normal((n, d)) + labels[:, None]
split = random_split(labels, (0.6, 0.2, 0.2), rng)
save_dataset(make_dataset(adjacency, x, labels, 3, *split), "data/ring")
"""
# Two cap epochs, one of each perturbation, at 64 hidden units.
CAP_64 = ["--seeds", "1", "--mode", "cap", "--hidden_dims", "64", "--epochs", "2",
          "--skip_epochs", "0", "--frequency", "2"]
RING_TRAIN = ["train", "--dataset_dir", "data/ring", "--out_dir", "runs/ring_cap", *CAP_64]
# 2,304 nodes x 384 features, 64 hidden: with two or more CPUs the weight
# gradient X.T @ g (384 x 2,304 @ 2,304 x 64) splits over its rows at 192.
WIDE = [
    ["gen-sbm", "--blocks", "1152,1152", "--p_in", "0.006", "--p_out", "0.002",
     "--feature_noise", "1.0", "--feature_dim", "384", "--seed", "51",
     "--out_dir", "data/wide"],
    ["train", "--dataset_dir", "data/wide", "--out_dir", "runs/wide_cap", *CAP_64],
]
# 4,096 nodes x 500 features: two BLAS threads would change the bytes of
# X @ W0, X.T @ g and g @ W0.T here, so this case catches a lost BLAS pin.
RING500_SAVE = """
import numpy as np
from capgnn.graph import make_dataset, random_split, save_dataset
from capgnn.linalg import CsrMatrix, make_rng

rng = make_rng(21)
n, d = 4096, 500
ring = np.arange(n)
us, vs = np.r_[ring, ring], np.r_[(ring + 1) % n, (ring + 37) % n]
adjacency = CsrMatrix.from_coo(n, n, np.r_[us, vs], np.r_[vs, us], np.ones(4 * n))
labels = rng.integers(0, 3, n)
x = (rng.standard_normal((n, d)) + labels[:, None]).round(1)
split = random_split(labels, (0.6, 0.2, 0.2), rng)
save_dataset(make_dataset(adjacency, x, labels, 3, *split), "data/ring500")
"""
RING500_TRAIN = ["train", "--dataset_dir", "data/ring500", "--out_dir", "runs/ring500_cap",
                 *CAP_64]


def build_parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out_dir", help="empty or missing directory to run in")
    p.add_argument(
        "--repo", default=str(ROOT),
        help="checkout whose src/, configs/ and scripts/ are run (default: this one)",
    )
    p.add_argument(
        "--write-golden", action="store_true",
        help=f"also write the lines, headed by the environment, to {GOLDEN.relative_to(ROOT)}",
    )
    return p


def environment() -> dict:
    """What the digests depend on besides the code: interpreter, numpy, scipy, BLAS."""
    import ctypes
    import glob

    import numpy as np
    import scipy

    # The runtime config names the kernel core OpenBLAS picked on this CPU;
    # np.show_config() reports the build's.
    blas = "unknown"
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_char_p, []
        blas = get().decode().strip()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": blas}


def read_golden() -> tuple[dict, list[str]]:
    """The golden file's environment header and its digest lines."""
    env, lines = {}, []
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(": ", 1)
            env[key] = value
        else:
            lines.append(line)
    return env, lines


def file_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name != "metrics.csv":
        return data
    # The last column is wall_ms, the only field that differs between reruns.
    lines = data.decode("utf-8").splitlines(keepends=True)
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in lines).encode("utf-8")


def main():
    args = build_parser().parse_args()
    repo, out = Path(args.repo).resolve(), Path(args.out_dir)
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    (out / "configs").mkdir(parents=True, exist_ok=True)
    shutil.copy(repo / "configs" / "sbm_cap.cfg", out / "configs")
    path = [str(repo / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))

    runs = [[sys.executable, "-m", "capgnn.cli", *c] for c in COMMANDS]
    runs.append([sys.executable, str(repo / "scripts" / "run_sbm_study.py"), *STUDY])
    runs.append([sys.executable, "-c", SPARSE_SAVE])
    runs.append([sys.executable, "-c", RING_SAVE])
    runs.append([sys.executable, "-m", "capgnn.cli", *RING_TRAIN])
    runs += [[sys.executable, "-m", "capgnn.cli", *c] for c in WIDE]
    runs.append([sys.executable, "-c", RING500_SAVE])
    runs.append([sys.executable, "-m", "capgnn.cli", *RING500_TRAIN])
    stdout = []
    for cmd in runs:
        print("running", " ".join(cmd[1:]), file=sys.stderr, flush=True)
        proc = subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"exit {proc.returncode}: {' '.join(cmd)}\n{proc.stderr}")
        stdout.append(proc.stdout)

    lines = [f"{hashlib.sha256(file_bytes(f)).hexdigest()}  {f.relative_to(out)}"
             for f in sorted(p for p in out.rglob("*") if p.is_file())]
    lines.append(f"{hashlib.sha256(''.join(stdout).encode('utf-8')).hexdigest()}  <stdout>")
    print("\n".join(lines))
    if args.write_golden:
        GOLDEN.parent.mkdir(exist_ok=True)
        header = [f"# {key}: {value}" for key, value in environment().items()]
        GOLDEN.write_text("\n".join(header + lines) + "\n", encoding="utf-8", newline="\n")


if __name__ == "__main__":
    main()
