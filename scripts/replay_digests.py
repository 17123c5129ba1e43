#!/usr/bin/env python3
"""Replay a fixed list of CLI runs and print a digest of every artefact.

Inside OUT_DIR this generates the README's 400-node SBM, trains it four
ways (cap with a PGD trace; vanilla with best_val selection; fp with a
PGD trace; cap with dropout, weight decay, Adam and two hidden layers),
probes and attacks one checkpoint, and runs ``run_sbm_study.py``. It
then prints one ``sha256  relpath`` line per file written, sorted by
path, with the wall-clock column cut from every ``metrics.csv``, and a
last line for the commands' joint stdout. All paths are relative to
OUT_DIR, so two replays compare line for line:

    python scripts/replay_digests.py /tmp/new > new.txt
    python scripts/replay_digests.py /tmp/old --repo ../old-checkout > old.txt
    diff old.txt new.txt

A change that must leave outputs byte-identical shows no difference.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CAP = ["--config", "configs/sbm_cap.cfg"]
CKPT = ["--checkpoint", "runs/sbm_cap/seed_1/checkpoint.json", "--dataset_dir", "data/sbm"]
COMMANDS = [
    ["gen-sbm", "--blocks", "200,200", "--p_in", "0.05", "--p_out", "0.02",
     "--feature_noise", "1.2", "--feature_dim", "8", "--seed", "2024",
     "--out_dir", "data/sbm"],
    ["train", *CAP, "--seeds", "1..3", "--pgd_trace"],
    ["train", *CAP, "--mode", "vanilla", "--model_selection", "best_val",
     "--seeds", "1..2", "--out_dir", "runs/sbm_vanilla"],
    ["train", *CAP, "--mode", "fp", "--seeds", "1", "--epochs", "60",
     "--out_dir", "runs/sbm_fp", "--pgd_trace"],
    ["train", *CAP, "--mode", "cap", "--dropout", "0.5", "--weight_decay", "0.0005",
     "--optimizer", "adam", "--hidden_dims", "16,8", "--seeds", "4,7",
     "--epochs", "30", "--skip_epochs", "5", "--out_dir", "runs/sbm_cap_adam",
     "--pgd_trace"],
    ["probe", *CKPT, "--directions", "4", "--out_dir", "runs/probe"],
    ["attack", *CKPT, "--sigmas", "0,0.5,1.5", "--trials", "5", "--out", "runs/attack.csv"],
]
STUDY = ["--out_dir", "runs/sbm_study", "--seeds", "2", "--epochs", "60",
         "--skip_epochs", "20"]


def build_parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out_dir", help="empty or missing directory to run in")
    p.add_argument(
        "--repo", default=str(ROOT),
        help="checkout whose src/, configs/ and scripts/ are run (default: this one)",
    )
    return p


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
    stdout = []
    for cmd in runs:
        print("running", " ".join(cmd[1:]), file=sys.stderr, flush=True)
        proc = subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"exit {proc.returncode}: {' '.join(cmd)}\n{proc.stderr}")
        stdout.append(proc.stdout)

    for f in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(file_bytes(f)).hexdigest()}  {f.relative_to(out)}")
    print(f"{hashlib.sha256(''.join(stdout).encode('utf-8')).hexdigest()}  <stdout>")


if __name__ == "__main__":
    main()
