import contextlib
import io
import json
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import capgnn.cli as cli_mod
import capgnn.perturb as perturb_mod
import capgnn.train as train_mod
from capgnn import __version__, linalg
from capgnn.cli import (
    ConfigError,
    _train_config,
    main,
    parse_config_file,
    resolve_config,
)
from capgnn.graph import (
    dataset_fingerprint, load_dataset, make_dataset, random_split, save_dataset,
)
from capgnn.linalg import CsrMatrix, make_rng
from capgnn.model import load_model
from capgnn.train import SgdOptimizer, TrainConfig

from conftest import (
    CHECKPOINT_CORRUPTIONS, clean_metrics, corrupt_checkpoint, feature_ranges, load_outcome,
)


def run(*argv) -> int:
    return main(list(argv))


class PoisonAtStep:
    """SGD that writes a NaN into the first weight on its ``n``-th step."""

    def __init__(self, lr: float, n: int):
        self.sgd, self.n, self.steps = SgdOptimizer(lr), n, 0

    def step(self, weights, grads):
        self.sgd.step(weights, grads)
        self.steps += 1
        if self.steps == self.n:
            weights[0][0, 0] = float("nan")


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli") / "data"
    code = run(
        "gen-sbm", "--blocks", "20,20", "--p_in", "0.4", "--p_out", "0.05",
        "--feature_noise", "0.8", "--seed", "3", "--out_dir", str(d),
    )
    assert code == 0
    return d


TRAIN_FLAGS = [
    "--epochs", "12", "--skip_epochs", "4", "--frequency", "3",
    "--mode", "cap", "--lr", "0.05", "--optimizer", "adam",
    "--hidden_dims", "8", "--seeds", "1,2",
]


class TestGenSbm:
    def test_round_trip_loadable(self, data_dir):
        ds = load_dataset(data_dir)
        assert ds.n == 40 and ds.num_classes == 2

    def test_clique_edge_count(self, tmp_path):
        out = tmp_path / "clique"
        assert run(
            "gen-sbm", "--blocks", "4,4", "--p_in", "1.0", "--p_out", "0.0",
            "--seed", "0", "--out_dir", str(out),
        ) == 0
        lines = (out / "edges.tsv").read_text().splitlines()
        assert len(lines) == 12  # 2 * C(4, 2)

    def test_same_seed_identical_files(self, tmp_path):
        args = [
            "gen-sbm", "--blocks", "6,6", "--p_in", "0.5", "--p_out", "0.1",
            "--feature_noise", "0.4", "--seed", "9",
        ]
        assert run(*args, "--out_dir", str(tmp_path / "a")) == 0
        assert run(*args, "--out_dir", str(tmp_path / "b")) == 0
        for name in ("meta.json", "edges.tsv", "features.csv", "labels.txt", "split.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_invalid_params_exit_2(self, tmp_path):
        assert run(
            "gen-sbm", "--blocks", "4,4", "--p_in", "0.1", "--p_out", "0.5",
            "--out_dir", str(tmp_path / "x"),
        ) == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--feature_noise", "nan", "need 0 <= feature_noise < inf"),
        ("--feature_noise", "inf", "need 0 <= feature_noise < inf"),
        ("--fractions", "0.6,0.2,nan", "fractions must be three numbers in [0, 1]"),
        ("--fractions", "nan,0.2,0.2", "fractions must be three numbers in [0, 1]"),
    ])
    def test_non_finite_param_exits_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "x"
        assert run(
            "gen-sbm", "--blocks", "4,4", "--p_in", "0.5", "--p_out", "0.1",
            flag, value, "--out_dir", str(out),
        ) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_dir_exit_4(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        assert run(
            "gen-sbm", "--blocks", "4,4", "--p_in", "1.0", "--p_out", "0.0",
            "--out_dir", str(blocker / "sub"),
        ) == 4


class TestTrain:
    def test_sweep_outputs_and_summary(self, data_dir, tmp_path):
        out = tmp_path / "run"
        code = run(
            "train", "--dataset_dir", str(data_dir), "--out_dir", str(out),
            *TRAIN_FLAGS,
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["num_seeds"] == 2
        assert len(summary["per_seed"]) == 2
        assert 0.0 <= summary["test_acc_mean"] <= 1.0
        assert summary["test_acc_std"] >= 0.0
        for seed in (1, 2):
            assert (out / f"seed_{seed}" / "metrics.csv").is_file()
            model = load_model(out / f"seed_{seed}" / "checkpoint.json")
            assert model.layer_dims == [2, 8, 2]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_config"]["mode"] == "cap"
        assert manifest["seeds"] == [1, 2]

    def test_rerun_is_byte_identical_outside_wall_clock(self, data_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run(
                "train", "--dataset_dir", str(data_dir), "--out_dir", str(out),
                *TRAIN_FLAGS,
            ) == 0
            outs.append(out)

        def strip_wall(path: Path) -> str:
            rows = path.read_text().splitlines()
            return "\n".join(",".join(r.split(",")[:-1]) for r in rows)

        for seed in (1, 2):
            a = strip_wall(outs[0] / f"seed_{seed}" / "metrics.csv")
            b = strip_wall(outs[1] / f"seed_{seed}" / "metrics.csv")
            assert a == b
        sa = json.loads((outs[0] / "summary.json").read_text())
        sb = json.loads((outs[1] / "summary.json").read_text())
        sa["config"].pop("out_dir"), sb["config"].pop("out_dir")
        assert sa["per_seed"][0]["test_acc"] == sb["per_seed"][0]["test_acc"]
        assert sa["test_acc_mean"] == sb["test_acc_mean"]

    def test_default_ten_seed_sweep(self, data_dir, tmp_path):
        out = tmp_path / "ten"
        code = run(
            "train", "--dataset_dir", str(data_dir), "--out_dir", str(out),
            "--epochs", "4", "--mode", "vanilla", "--lr", "0.05",
            "--hidden_dims", "8",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["num_seeds"] == 10
        assert summary["config"]["seeds"] == list(range(1, 11))
        assert summary["test_acc_std"] is not None

    def test_test_acc_std_is_the_population_std(self, data_dir, tmp_path):
        out = tmp_path / "std"
        assert run(
            "train", "--dataset_dir", str(data_dir), "--out_dir", str(out),
            "--seeds", "1..3", "--epochs", "3", "--mode", "vanilla", "--lr", "0.05",
            "--hidden_dims", "8",
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        accs = [r["test_acc"] for r in summary["per_seed"]]
        assert len(set(accs)) > 1  # else both stds are 0
        assert summary["test_acc_std"] == pytest.approx(float(np.std(accs)), rel=1e-12)

    def test_every_seed_writes_its_pgd_trace(self, data_dir, tmp_path):
        # Read from the run directory alone: each epoch's mode, and its trace rows.
        out = tmp_path / "run"
        flags = ["--dataset_dir", str(data_dir), "--out_dir", str(out), "--seeds", "1",
                 "--epochs", "6", "--skip_epochs", "3", "--frequency", "3",
                 "--hidden_dims", "8,4", "--pgd_steps", "2", "--lr", "0.05"]
        assert run("train", *flags, "--mode", "cap") == 0
        seed_dir = out / "seed_1"
        metrics = (seed_dir / "metrics.csv").read_text().splitlines()[1:]
        modes = dict(line.split(",")[:2] for line in metrics)
        header, *rows = (seed_dir / "pgd_trace.csv").read_text().splitlines()
        assert header == "epoch,step,layer,grad_norm,eps_norm,loss"
        layers = {e: [tuple(r.split(",")[1:3]) for r in rows if r.split(",")[0] == e]
                  for e in modes}
        want = {
            "standard": [],
            "weight_perturb": [(str(t), f"w{l}") for t in range(2) for l in range(3)],
            "feature_perturb": [("0", "x"), ("1", "x")],
        }
        assert layers == {e: want[m] for e, m in modes.items()}
        assert set(modes.values()) == set(want)
        # A rerun without an ascent leaves a header-only trace, no stale rows.
        assert run("train", *flags, "--mode", "vanilla") == 0
        assert (seed_dir / "pgd_trace.csv").read_text() == header + "\n"
        with pytest.raises(SystemExit) as stop:
            run("train", *flags, "--pgd_trace")
        assert stop.value.code == 2

    def test_manifest_replay(self, data_dir, tmp_path):
        out1 = tmp_path / "orig"
        assert run(
            "train", "--dataset_dir", str(data_dir), "--out_dir", str(out1),
            *TRAIN_FLAGS,
        ) == 0
        out2 = tmp_path / "replay"
        assert run(
            "train", "--config", str(out1 / "manifest.json"),
            "--out_dir", str(out2),
        ) == 0
        sa = json.loads((out1 / "summary.json").read_text())
        sb = json.loads((out2 / "summary.json").read_text())
        assert sa["test_acc_mean"] == sb["test_acc_mean"]
        assert sa["per_seed"][1]["val_acc"] == sb["per_seed"][1]["val_acc"]

    def test_config_file_with_overrides(self, data_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "mode = vanilla\nepochs = 6\nseeds = 1,2\n"
            f"dataset_dir = {data_dir}\nhidden_dims = 8\n"
            "# a comment line\nlr = 0.05\n"
        )
        out = tmp_path / "cfgrun"
        assert run(
            "train", "--config", str(cfg), "--out_dir", str(out), "--seeds", "5",
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["seeds"] == [5]  # flag beats file
        assert summary["config"]["mode"] == "vanilla"

    def test_skip_beyond_epochs_exits_2(self, data_dir, tmp_path):
        assert run(
            "train", "--dataset_dir", str(data_dir),
            "--out_dir", str(tmp_path / "x"),
            "--epochs", "5", "--skip_epochs", "9", "--seeds", "1",
        ) == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--mode", "wp", "--rho_w", "nan"],
            ["--rho_x", "inf"],
            ["--beta", "nan"],
            ["--lr", "nan"],
            ["--weight_decay", "inf"],
        ],
        ids=["rho_w", "rho_x", "beta", "lr", "weight_decay"],
    )
    def test_non_finite_value_exits_2(self, data_dir, tmp_path, capsys, flags):
        assert run(
            "train", "--dataset_dir", str(data_dir),
            "--out_dir", str(tmp_path / "x"), "--seeds", "1", "--epochs", "2", *flags,
        ) == 2
        assert f"{flags[-2][2:]} must be" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_dataset_dir_exits_2(self, tmp_path):
        assert run(
            "train", "--out_dir", str(tmp_path / "x"), "--seeds", "1",
        ) == 2

    def test_bogus_dataset_dir_exits_2(self, tmp_path):
        assert run(
            "train", "--dataset_dir", str(tmp_path / "nope"),
            "--out_dir", str(tmp_path / "x"), "--seeds", "1", "--epochs", "2",
        ) == 2

    @pytest.mark.parametrize(
        "name", ["edges.tsv", "labels.txt", "features.csv", "meta.json"]
    )
    def test_malformed_dataset_file_exits_2_naming_it(
        self, data_dir, tmp_path, capsys, name
    ):
        bad = tmp_path / "bad"
        shutil.copytree(data_dir, bad)
        if name == "meta.json":
            meta = json.loads((bad / name).read_text())
            (bad / name).write_text(json.dumps({**meta, "n": meta["n"] + 0.7}))
        else:
            (bad / name).write_bytes((bad / name).read_bytes() + b"\xff\n")
        assert run(
            "train", "--dataset_dir", str(bad), "--out_dir", str(tmp_path / "x"),
            "--seeds", "1", "--epochs", "2",
        ) == 2
        assert str(bad / name) in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_more_classes_than_nodes_exits_2(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad"
        shutil.copytree(data_dir, bad)
        meta = json.loads((bad / "meta.json").read_text())
        (bad / "meta.json").write_text(json.dumps({**meta, "num_classes": 999999999999}))
        assert run(
            "train", "--dataset_dir", str(bad), "--out_dir", str(tmp_path / "x"),
            "--seeds", "1", "--epochs", "2",
        ) == 2
        err = capsys.readouterr().err
        assert f"{bad / 'meta.json'}: num_classes must be <= n (40), got 999999999999" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run_exits_3_naming_the_epoch(self, data_dir, tmp_path, capsys):
        # The pre-update loss of epoch 1 is finite; the update is what diverges.
        out = tmp_path / "diverged"
        assert run(
            "train", "--dataset_dir", str(data_dir), "--out_dir", str(out),
            "--seeds", "1", "--epochs", "1", "--lr", "1e308", "--mode", "vanilla",
            "--model_selection", "last",
        ) == 3
        err = capsys.readouterr().err
        assert "training diverged" in err and "epoch 1" in err
        assert not (out / "seed_1").exists()
        assert not (out / "summary.json").exists()

    def test_non_finite_update_exits_3_naming_its_epoch(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        # Epoch 2 is not evaluated (eval_every 5); the NaN must not wait for epoch 3.
        monkeypatch.setattr(train_mod, "make_optimizer", lambda cfg: PoisonAtStep(cfg.lr, 2))
        out = tmp_path / "poisoned"
        assert run(
            "train", "--dataset_dir", str(data_dir), "--out_dir", str(out),
            "--seeds", "1", "--epochs", "5", "--eval_every", "5", "--mode", "vanilla",
        ) == 3
        err = capsys.readouterr().err
        assert "non-finite weights after the update at epoch 2 (standard)" in err
        assert not (out / "seed_1").exists()

    @pytest.mark.parametrize(
        "mode,perturb_mode,loop",
        [("wp", "weight_perturb", "weight ascent"), ("fp", "feature_perturb", "feature ascent")],
    )
    def test_non_finite_ascent_exits_3_naming_epoch_and_loop(
        self, mode, perturb_mode, loop, data_dir, tmp_path, capsys, monkeypatch
    ):
        real_forward = perturb_mod.forward

        def nan_logits(*args, **kwargs):
            cache = real_forward(*args, **kwargs)
            cache.logits[:] = np.nan
            return cache

        monkeypatch.setattr(perturb_mod, "forward", nan_logits)
        assert run(
            "train", "--dataset_dir", str(data_dir), "--out_dir", str(tmp_path / "o"),
            "--seeds", "1", "--epochs", "4", "--skip_epochs", "2", "--mode", mode,
        ) == 3
        err = capsys.readouterr().err
        assert f"at epoch 3 ({perturb_mode}), {loop} step 0: non-finite" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_rerun_drops_the_earlier_summary(self, data_dir, tmp_path):
        out = tmp_path / "reused"
        flags = ["--dataset_dir", str(data_dir), "--out_dir", str(out), "--seeds", "1",
                 "--epochs", "1", "--mode", "vanilla", "--model_selection", "last"]
        assert run("train", *flags, "--lr", "0.01") == 0
        assert (out / "summary.json").is_file()
        assert run("train", *flags, "--lr", "1e308") == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_config"]["lr"] == 1e308
        assert not (out / "summary.json").exists()
        assert not (out / "seed_1").exists()  # nor the earlier run's checkpoint

    def test_rerun_with_fewer_seeds_drops_the_earlier_seed_dirs(self, data_dir, tmp_path):
        out = tmp_path / "reused"
        flags = ["--dataset_dir", str(data_dir), "--out_dir", str(out),
                 "--epochs", "2", "--mode", "vanilla", "--hidden_dims", "8"]
        assert run("train", *flags, "--seeds", "1,2,3") == 0
        (out / "seed_3" / "notes.txt").write_text("kept")
        (out / "seed_other").mkdir()
        (out / "seed_other" / "metrics.csv").write_text("kept")
        assert run("train", *flags, "--seeds", "1") == 0
        assert (out / "seed_1" / "checkpoint.json").is_file()
        assert not (out / "seed_2").exists()
        assert [p.name for p in (out / "seed_3").iterdir()] == ["notes.txt"]
        assert (out / "seed_other" / "metrics.csv").read_text() == "kept"

    def test_rerun_keeps_files_capgnn_did_not_write_in_a_seed_dir(self, data_dir, tmp_path):
        out = tmp_path / "reused"
        flags = ["--dataset_dir", str(data_dir), "--out_dir", str(out), "--seeds", "1",
                 "--epochs", "2", "--mode", "vanilla", "--hidden_dims", "8"]
        assert run("train", *flags) == 0
        want = (out / "seed_1" / "checkpoint.json").read_bytes()
        (out / "seed_1" / "notes.txt").write_text("kept")
        assert run("train", *flags) == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "seed_1",
                                                         "summary.json"]
        assert sorted(p.name for p in (out / "seed_1").iterdir()) == [
            "checkpoint.json", "metrics.csv", "notes.txt", "pgd_trace.csv"]
        assert (out / "seed_1" / "checkpoint.json").read_bytes() == want

    def test_input_dataset_directory_is_never_mutated(self, data_dir, tmp_path):
        def snapshot():
            return {
                p.name: p.read_bytes() for p in sorted(Path(data_dir).iterdir())
            }

        before = snapshot()
        out = tmp_path / "immut"
        assert run(
            "train", "--dataset_dir", str(data_dir), "--out_dir", str(out),
            "--seeds", "1", "--epochs", "4", "--hidden_dims", "8",
        ) == 0
        assert run(
            "probe", "--checkpoint", str(out / "seed_1" / "checkpoint.json"),
            "--dataset_dir", str(data_dir), "--out_dir", str(tmp_path / "p"),
            "--directions", "1", "--grid_points", "5",
        ) == 0
        assert run(
            "attack", "--checkpoint", str(out / "seed_1" / "checkpoint.json"),
            "--dataset_dir", str(data_dir), "--sigmas", "0.5", "--trials", "2",
            "--out", str(tmp_path / "a.csv"),
        ) == 0
        assert snapshot() == before


def _seeds_that(action, seeds, real=train_mod.train):
    """A ``cli.train`` that calls ``action(seed)`` first for the given seeds."""

    def patched(dataset, cfg):
        if cfg.seed in seeds:
            action(cfg.seed)
        return real(dataset, cfg)

    return patched


DATASET_FILES = ("meta.json", "edges.tsv", "features.csv", "labels.txt", "split.json")
SEPARATORS = [",", "\t", "\n", " ", ":", "{", "}", "[", "]", '"']
# What a hand edit might leave in place of one token.
FUZZ_TOKENS = ["", "-1", "nan", "1e999", "1_0", "\u0661", "2147483648", "1" * 30, *SEPARATORS]


def tokens(text: str) -> list:
    """Each separator on its own, and each run of other characters."""
    return re.findall(r'[^,\t\n :{}\[\]"]+|[\s\S]', text)


class TestDatasetFuzz:
    """One token of one file of a 12-node dataset replaced: train exits 0 or 2."""

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("fuzz") / "base"
        assert run(
            "gen-sbm", "--blocks", "4,4,4", "--p_in", "0.6", "--p_out", "0.1",
            "--seed", "1", "--out_dir", str(d),
        ) == 0
        return {name: tokens((d / name).read_text()) for name in DATASET_FILES}

    @staticmethod
    def mutant(base, tmp_path_factory, name, where, token) -> Path:
        data = tmp_path_factory.mktemp("data")
        for f, toks in base.items():
            if f == name:
                toks = list(toks)
                toks[where % len(toks)] = token
            (data / f).write_text("".join(toks), encoding="utf-8")
        return data

    @staticmethod
    def train_exit(data: Path) -> int:
        return run(
            "train", "--dataset_dir", str(data), "--out_dir", str(data / "run"),
            "--seeds", "1", "--epochs", "2", "--hidden_dims", "4", "--eval_every", "1",
        )

    @given(
        name=st.sampled_from(DATASET_FILES),
        where=st.integers(0, 1 << 20),
        token=st.sampled_from(FUZZ_TOKENS),
    )
    # meta.json's keys are sorted, so its third token from the end is num_classes
    # and its fifteenth is n.
    @example(name="meta.json", where=-3, token="1" * 30)
    @example(name="meta.json", where=14, token="1" * 30)
    @settings(max_examples=200, deadline=None)
    def test_train_exits_0_or_2(self, base, tmp_path_factory, name, where, token):
        assert self.train_exit(self.mutant(base, tmp_path_factory, name, where, token)) in (0, 2)

    @given(
        name=st.sampled_from(["features.csv", *DATASET_FILES]),
        where=st.integers(0, 1 << 20),
        token=st.sampled_from(FUZZ_TOKENS),
        count=st.sampled_from([2, 3]),
    )
    @settings(max_examples=100, deadline=None)
    def test_ranges_load_as_the_serial_parse(self, base, tmp_path_factory, name, where,
                                            token, count):
        data = self.mutant(base, tmp_path_factory, name, where, token)
        want = load_outcome(data)
        with feature_ranges(count):
            assert load_outcome(data) == want
            assert self.train_exit(data) in (0, 2)
        assert multiprocessing.active_children() == []


def _capped_train(real_train):
    """``train`` that runs at most 3 epochs of at most 2 ascent steps, whatever is asked."""
    def capped(dataset, cfg, **kw):
        steps = min(cfg.perturb.steps, 2)
        cfg = replace(cfg, epochs=min(cfg.epochs, 3), perturb=replace(cfg.perturb, steps=steps))
        return real_train(dataset, cfg, **kw)
    return capped


FUZZ_CONFIG = """\
# A short cap run.
mode = cap
epochs = 3
skip_epochs = 1
frequency = 1
lr = 0.05
optimizer = adam
weight_decay = 0.0005
hidden_dims = 4,4
dropout = 0.1
model_selection = best_val
rho_w = 0.1
rho_x = 0.2
beta = 0.02
pgd_steps = 2
seeds = 1,2
eval_every = 1
row_normalize_features = false
"""
HIDDEN_WIDTH_TOKEN = tokens(FUZZ_CONFIG).index("hidden_dims") + 4


class TestLoaderFuzz:
    """One token of a checkpoint or config replaced: probe, attack and train exit 0 or 2."""

    @given(
        command=st.sampled_from(["probe", "attack"]),
        where=st.integers(0, 1 << 20),
        token=st.sampled_from(FUZZ_TOKENS),
    )
    @settings(max_examples=100, deadline=None)
    def test_checkpoint_edit_exits_0_or_2(self, checkpoint, data_dir, tmp_path_factory,
                                          command, where, token):
        out = tmp_path_factory.mktemp("ckpt_fuzz")
        toks = tokens(checkpoint.read_text())
        toks[where % len(toks)] = token
        (out / "checkpoint.json").write_text("".join(toks), encoding="utf-8")
        dest = {"probe": ["--out_dir", str(out / "probe")],
                "attack": ["--out", str(out / "a.csv"), "--sigmas", "0,0.1"]}[command]
        assert run(
            command, "--checkpoint", str(out / "checkpoint.json"),
            "--dataset_dir", str(data_dir), *dest,
        ) in (0, 2)

    @given(where=st.integers(0, 1 << 20), token=st.sampled_from(FUZZ_TOKENS))
    # Widths no array can have, in place of hidden_dims' first "4".
    @example(where=HIDDEN_WIDTH_TOKEN, token="2147483648")
    @example(where=HIDDEN_WIDTH_TOKEN, token="1" * 30)
    @settings(max_examples=150, deadline=None)
    def test_config_edit_exits_0_or_2(self, data_dir, tmp_path_factory, where, token):
        out = tmp_path_factory.mktemp("cfg_fuzz")
        toks = tokens(FUZZ_CONFIG)
        toks[where % len(toks)] = token
        (out / "run.cfg").write_text("".join(toks), encoding="utf-8")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli_mod, "train", _capped_train(cli_mod.train))
            assert run(
                "train", "--config", str(out / "run.cfg"),
                "--dataset_dir", str(data_dir), "--out_dir", str(out / "run"),
            ) in (0, 2)


def _diverge(seed):
    raise train_mod.TrainingDivergedError(f"seed {seed} diverged on purpose")


class TestSeedWorkers:
    """Sweeps on two forked seed workers; the workers inherit ``cli.train``'s patch."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(linalg, "_WIDTH", 2)  # on one CPU too: never fork-free
        yield
        assert multiprocessing.active_children() == []  # none outlives the sweep

    def sweep(self, data_dir, out, seeds="1..3"):
        return run(
            "train", "--dataset_dir", str(data_dir), "--out_dir", str(out),
            "--seeds", seeds, "--epochs", "2", "--mode", "vanilla", "--hidden_dims", "8",
        )

    def test_diverged_seed_exits_3_keeping_the_seeds_before_it(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli_mod, "train", _seeds_that(_diverge, {2}))
        out = tmp_path / "run"
        assert self.sweep(data_dir, out) == 3
        assert "training diverged: seed 2 diverged on purpose" in capsys.readouterr().err
        assert not (out / "summary.json").exists()
        assert load_model(out / "seed_1" / "checkpoint.json").layer_dims == [2, 8, 2]
        assert len((out / "seed_1" / "metrics.csv").read_text().splitlines()) == 3

    def test_killed_worker_exits_5_with_one_line(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        def kill(seed):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(cli_mod, "train", _seeds_that(kill, {2}))
        out = tmp_path / "run"
        assert self.sweep(data_dir, out) == 5
        assert capsys.readouterr().err == "capgnn: a seed worker died\n"
        assert not (out / "summary.json").exists()

    def test_a_worker_killed_while_writing_leaves_no_half_written_seed_dir(
        self, data_dir, tmp_path, monkeypatch
    ):
        real_save = cli_mod.save_model

        def save(model, path):  # seed 2's metrics.csv is written by now
            if Path(path).parent.name.startswith("seed_2"):
                os.kill(os.getpid(), signal.SIGKILL)
            real_save(model, path)

        monkeypatch.setattr(cli_mod, "save_model", save)
        out = tmp_path / "run"
        assert self.sweep(data_dir, out) == 5
        assert not (out / "seed_2").exists()
        monkeypatch.setattr(cli_mod, "save_model", real_save)
        assert self.sweep(data_dir, out) == 0  # into the same out_dir
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "seed_1", "seed_2", "seed_3", "summary.json"]
        rows = json.loads((out / "summary.json").read_text())["per_seed"]
        assert rows[1]["checkpoint"] == str(out / "seed_2" / "checkpoint.json")
        assert sorted(p.name for p in (out / "seed_2").iterdir()) == [
            "checkpoint.json", "metrics.csv", "pgd_trace.csv"]

    def test_rows_arrive_in_seed_order_when_seed_1_finishes_last(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli_mod, "train", _seeds_that(lambda s: time.sleep(0.5), {1}))
        out = tmp_path / "run"
        assert self.sweep(data_dir, out) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:3]] == ["seed 1", "seed 2", "seed 3"]
        summary = json.loads((out / "summary.json").read_text())
        assert [r["seed"] for r in summary["per_seed"]] == [1, 2, 3]

    def test_an_error_cancels_the_seeds_still_queued(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        # Seed 1 fails at once while every other seed takes 0.2 s, so only
        # the few seeds already handed to the workers run: two running and
        # the executor's queue of three behind them.
        slow = _seeds_that(lambda s: time.sleep(0.2), set(range(2, 11)))
        monkeypatch.setattr(cli_mod, "train", _seeds_that(_diverge, {1}, real=slow))
        out = tmp_path / "run"
        assert self.sweep(data_dir, out, seeds="1..10") == 3
        assert "seed 1 diverged on purpose" in capsys.readouterr().err
        ran = sorted(int(p.name[5:]) for p in out.glob("seed_*"))
        assert ran and max(ran) <= 7

    def test_closing_the_sweep_stops_its_workers(self, data_dir, tmp_path, monkeypatch):
        # What cmd_train does when it stops mid-sweep (EPIPE on stdout, say):
        # the sweep is closed after its first row, with seeds still queued.
        slow = _seeds_that(lambda s: time.sleep(0.2), set(range(2, 11)))
        monkeypatch.setattr(cli_mod, "train", slow)
        job = (load_dataset(data_dir), TrainConfig(epochs=2, hidden_dims=(8,)), tmp_path)
        rows = cli_mod._seed_rows(list(range(1, 11)), job)
        assert next(rows)["seed"] == 1
        rows.close()
        assert multiprocessing.active_children() == [] and cli_mod._job is None
        ran = sorted(int(p.name[5:]) for p in tmp_path.glob("seed_*"))
        assert 1 in ran and len(ran) < 10


@pytest.fixture(scope="module")
def checkpoint(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt_run")
    assert run(
        "train", "--dataset_dir", str(data_dir), "--out_dir", str(out),
        "--epochs", "25", "--mode", "vanilla", "--lr", "0.05",
        "--optimizer", "adam", "--hidden_dims", "8", "--seeds", "1",
    ) == 0
    return out / "seed_1" / "checkpoint.json"


BAD_SEEDS = {
    "train_negative": (["train", "--seeds=-1"], "seed -1 is negative"),
    "train_repeated": (["train", "--seeds", "1,1"], "lists a seed more than once"),
    "probe_negative": (["probe", "--seed=-2"], "--seed must be >= 0"),
    "attack_negative": (["attack", "--seed=-2", "--sigmas", "0"], "--seed must be >= 0"),
}


@pytest.mark.parametrize("case", sorted(BAD_SEEDS))
def test_bad_seed_exits_2(case, checkpoint, data_dir, tmp_path, capsys):
    argv, message = BAD_SEEDS[case]
    out = tmp_path / "out"
    paths = {
        "train": ["--out_dir", str(out)],
        "probe": ["--checkpoint", str(checkpoint), "--out_dir", str(out)],
        "attack": ["--checkpoint", str(checkpoint), "--out", str(out / "a.csv")],
    }[argv[0]]
    assert run(*argv, *paths, "--dataset_dir", str(data_dir)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_hidden_width_of_2_to_the_31_exits_2(data_dir, tmp_path, capsys):
    assert run(
        "train", "--dataset_dir", str(data_dir), "--out_dir", str(tmp_path / "run"),
        "--seeds", "1", "--hidden_dims", str(1 << 31),
    ) == 2
    assert "hidden_dims must be in [1, 2^31)" in capsys.readouterr().err


def test_array_too_large_to_allocate_exits_2(data_dir, tmp_path, capsys, monkeypatch):
    def allocate(*args, **kw):
        raise MemoryError("Unable to allocate 48.0 GiB for an array with shape (3, 2147483647)")

    monkeypatch.setattr(cli_mod, "train", allocate)
    assert run(
        "train", "--dataset_dir", str(data_dir), "--out_dir", str(tmp_path / "run"),
        "--seeds", "1", "--epochs", "2",
    ) == 2
    assert capsys.readouterr().err == (
        "capgnn: out of memory: Unable to allocate 48.0 GiB for an array with shape "
        "(3, 2147483647)\n"
    )


@pytest.fixture(scope="module")
def no_test_dir(tmp_path_factory):
    """The data_dir graph family split 0.8/0.2/0.0, so 'test' is empty."""
    d = tmp_path_factory.mktemp("cli") / "no_test"
    assert run(
        "gen-sbm", "--blocks", "20,20", "--p_in", "0.3", "--p_out", "0.05",
        "--fractions", "0.8,0.2,0.0", "--out_dir", str(d),
    ) == 0
    return d


EMPTY_TEST_SPLIT = {
    "attack": (["attack", "--sigmas", "0.5"], "attack needs test nodes"),
    "probe": (["probe", "--loss_mask", "test"], "probe --loss_mask test needs"),
}


@pytest.mark.parametrize("command", sorted(EMPTY_TEST_SPLIT))
def test_empty_test_split_exits_2(command, checkpoint, no_test_dir, tmp_path, capsys):
    argv, message = EMPTY_TEST_SPLIT[command]
    out = tmp_path / "out"
    dest = {"attack": ["--out", str(out / "a.csv")], "probe": ["--out_dir", str(out)]}
    assert run(
        *argv, *dest[command],
        "--checkpoint", str(checkpoint), "--dataset_dir", str(no_test_dir),
    ) == 2
    err = capsys.readouterr().err
    assert str(no_test_dir / "split.json") in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["attack", "gen-sbm", "probe"])
def test_manifest_holds_every_flag_and_derived_value(
    command, checkpoint, data_dir, tmp_path
):
    out = tmp_path / "out"
    inputs = {"checkpoint": str(checkpoint), "dataset_dir": str(data_dir)}
    fingerprint = {"dataset_fingerprint": dataset_fingerprint(data_dir)}
    # command -> (every flag at a non-default value, derived values, manifest path)
    flags, derived, manifest = {
        "attack": (
            {**inputs, "sigmas": "0.25,1", "trials": 3, "seed": 6,
             "out": str(out / "a.csv"), "row_normalize_features": True},
            {**fingerprint, "sigmas": [0.25, 1.0]},
            out / "a_manifest.json",
        ),
        "gen-sbm": (
            {"blocks": "6,5,4", "p_in": 0.7, "p_out": 0.1, "feature_noise": 0.3,
             "feature_dim": 5, "fractions": "0.5,0.25,0.25", "seed": 9,
             "out_dir": str(out)},
            {"blocks": [6, 5, 4], "fractions": [0.5, 0.25, 0.25]},
            out / "manifest.json",
        ),
        "probe": (
            {**inputs, "out_dir": str(out), "kind": "weight", "directions": 2,
             "grid_points": 5, "alpha_min": -0.5, "alpha_max": 0.5, "alpha_ref": 0.25,
             "seed": 4, "loss_mask": "test", "row_normalize_features": True},
            fingerprint,
            out / "manifest.json",
        ),
    }[command]
    argv = [f"--{k}" if v is True else f"--{k}={v}" for k, v in flags.items()]
    assert run(command, *argv) == 0
    if command == "gen-sbm":
        ds = load_dataset(out)
        derived.update(n=ds.n, num_edges=ds.num_edges)
    assert json.loads(manifest.read_text()) == {
        "tool": "capgnn", "version": __version__, "command": command,
        **flags, **derived,
    }


class TestProbe:
    def test_both_kinds_emit_two_profiles(self, checkpoint, data_dir, tmp_path):
        out = tmp_path / "p"
        assert run(
            "probe", "--checkpoint", str(checkpoint), "--dataset_dir", str(data_dir),
            "--out_dir", str(out), "--directions", "3", "--grid_points", "9",
        ) == 0
        assert (out / "profile_weight.csv").is_file()
        assert (out / "profile_feature.csv").is_file()
        sharp = json.loads((out / "sharpness.json").read_text())
        assert "weight" in sharp and "feature" in sharp
        header = (out / "profile_weight.csv").read_text().splitlines()[0]
        assert header == "kind,direction_id,alpha,loss"

    def test_grid_without_zero_rejected(self, checkpoint, data_dir, tmp_path):
        assert run(
            "probe", "--checkpoint", str(checkpoint), "--dataset_dir", str(data_dir),
            "--out_dir", str(tmp_path / "p"), "--grid_points", "10",
            "--alpha_min", "0.1", "--alpha_max", "1.0",
        ) == 2

    def test_reprobe_is_deterministic(self, checkpoint, data_dir, tmp_path):
        args = [
            "probe", "--checkpoint", str(checkpoint), "--dataset_dir", str(data_dir),
            "--directions", "2", "--grid_points", "5", "--seed", "7",
        ]
        assert run(*args, "--out_dir", str(tmp_path / "a")) == 0
        assert run(*args, "--out_dir", str(tmp_path / "b")) == 0
        for name in ("profile_weight.csv", "profile_feature.csv", "sharpness.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_dimension_mismatch_exits_2(self, checkpoint, tmp_path):
        other = tmp_path / "otherdata"
        assert run(
            "gen-sbm", "--blocks", "5,5,5", "--p_in", "0.6", "--p_out", "0.1",
            "--seed", "1", "--out_dir", str(other),
        ) == 0
        assert run(
            "probe", "--checkpoint", str(checkpoint), "--dataset_dir", str(other),
            "--out_dir", str(tmp_path / "p"),
        ) == 2

    @pytest.mark.parametrize("case", sorted(CHECKPOINT_CORRUPTIONS))
    def test_malformed_checkpoint_exits_2_naming_path(
        self, checkpoint, data_dir, tmp_path, capsys, case
    ):
        bad = tmp_path / "bad.json"
        corrupt_checkpoint(checkpoint, bad, case)
        assert run(
            "probe", "--checkpoint", str(bad), "--dataset_dir", str(data_dir),
            "--out_dir", str(tmp_path / "p"),
        ) == 2
        assert str(bad) in capsys.readouterr().err


class TestAttack:
    def test_zero_sigma_row_equals_clean_accuracy(
        self, checkpoint, data_dir, tmp_path
    ):
        out = tmp_path / "attack.csv"
        assert run(
            "attack", "--checkpoint", str(checkpoint), "--dataset_dir", str(data_dir),
            "--sigmas", "0", "--trials", "4", "--out", str(out),
        ) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "sigma,mean_acc,std_acc"
        sigma, mean_acc, std_acc = rows[1].split(",")
        model = load_model(checkpoint)
        ds = load_dataset(data_dir)
        assert float(mean_acc) == clean_metrics(model, ds)[3]
        assert float(std_acc) == 0.0

    def test_accuracy_trend_is_non_increasing_within_jitter(
        self, checkpoint, data_dir, tmp_path
    ):
        out = tmp_path / "trend.csv"
        assert run(
            "attack", "--checkpoint", str(checkpoint), "--dataset_dir", str(data_dir),
            "--sigmas", "0,0.5,1.0,2.0,4.0", "--trials", "30", "--out", str(out),
        ) == 0
        means = [float(r.split(",")[1]) for r in out.read_text().splitlines()[1:]]
        for earlier, later in zip(means, means[1:]):
            assert later <= earlier + 0.01

    def test_empty_sigma_list_exits_2(self, checkpoint, data_dir, tmp_path):
        assert run(
            "attack", "--checkpoint", str(checkpoint), "--dataset_dir", str(data_dir),
            "--sigmas", "", "--out", str(tmp_path / "a.csv"),
        ) == 2

    def test_negative_sigma_exits_2(self, checkpoint, data_dir, tmp_path):
        assert run(
            "attack", "--checkpoint", str(checkpoint), "--dataset_dir", str(data_dir),
            "--sigmas", "0.5,-1", "--out", str(tmp_path / "a.csv"),
        ) == 2

    @pytest.mark.parametrize("sigmas", ["nan", "0.5,inf"])
    def test_non_finite_sigma_exits_2(
        self, checkpoint, data_dir, tmp_path, capsys, sigmas
    ):
        out = tmp_path / "a.csv"
        assert run(
            "attack", "--checkpoint", str(checkpoint), "--dataset_dir", str(data_dir),
            "--sigmas", sigmas, "--out", str(out),
        ) == 2
        assert "--sigmas must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(CHECKPOINT_CORRUPTIONS))
    def test_malformed_checkpoint_exits_2_naming_path(
        self, checkpoint, data_dir, tmp_path, capsys, case
    ):
        bad = tmp_path / "bad.json"
        corrupt_checkpoint(checkpoint, bad, case)
        out = tmp_path / "a.csv"
        assert run(
            "attack", "--checkpoint", str(bad), "--dataset_dir", str(data_dir),
            "--sigmas", "0.5", "--out", str(out),
        ) == 2
        assert str(bad) in capsys.readouterr().err
        assert not out.exists()


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("momentum = 0.9\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(cfg)

    def test_non_utf8_config_rejected(self, tmp_path):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"mode = caf\xe9\n")
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config_file(cfg)

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs = 5\nepochs = 6\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(cfg)

    def test_seed_range_syntax(self):
        resolved = resolve_config(
            {"dataset_dir": "d", "out_dir": "o", "seeds": "1..4"}, {}
        )
        assert resolved["seeds"] == [1, 2, 3, 4]

    def test_defaults_materialized(self):
        resolved = resolve_config({"dataset_dir": "d", "out_dir": "o"}, {})
        assert resolved["seeds"] == list(range(1, 11))
        assert resolved["mode"] == "vanilla"
        assert resolved["pgd_steps"] == 3
        assert resolved["row_normalize_features"] is False
        assert _train_config(resolved) == TrainConfig(seed=1)

    def test_resolved_lists_are_fresh_copies(self):
        first = resolve_config({"dataset_dir": "d", "out_dir": "o"}, {})
        first["seeds"].append(99)
        first["hidden_dims"].append(7)
        again = resolve_config({"dataset_dir": "d", "out_dir": "o"}, {})
        assert again["seeds"] == list(range(1, 11))
        assert again["hidden_dims"] == [64]

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="dataset_dir"):
            resolve_config({"out_dir": "o"}, {})


BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def test_import_caps_unset_blas_thread_vars():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(CAPGNN_THREADS="3", OMP_NUM_THREADS="2", PYTHONPATH=src)
    code = (
        "import os, capgnn; "
        f"print(' '.join(os.environ[v] for v in {BLAS_THREAD_VARS!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"] * 5  # pre-set values do not survive


_PINNABLE_MAIN = """
import os, sys
if sys.argv[1]:
    os.sched_setaffinity(0, {int(sys.argv[1])})
from capgnn.cli import main
sys.exit(main(sys.argv[2:]))
"""
# As _PINNABLE_MAIN unpinned, with every X.T @ g in one range.
_ONE_RANGE_MAIN = """
import sys
from capgnn import linalg
linalg._MIN_TRANSPOSED = 1 << 62
from capgnn.cli import main
sys.exit(main(sys.argv[2:]))
"""


def _save_ring(path: Path, n: int, d: int, decimals: int | None = None) -> None:
    """Save a seeded n-node ring with chords (degree 4) and 3 noisy classes."""
    rng = make_rng(21)
    ring = np.arange(n)
    us = np.concatenate([ring, ring])
    vs = np.concatenate([(ring + 1) % n, (ring + 37) % n])
    adjacency = CsrMatrix.from_coo(n, n, np.r_[us, vs], np.r_[vs, us], np.ones(4 * n))
    labels = rng.integers(0, 3, n)
    features = rng.standard_normal((n, d)) + labels[:, None]
    if decimals is not None:
        features = features.round(decimals)  # short features.csv cells
    split = random_split(labels, (0.6, 0.2, 0.2), rng)
    save_dataset(make_dataset(adjacency, features, labels, 3, *split), path)


def _train_ring(data: Path, out: Path, env: dict, cpus: str = "", main=_PINNABLE_MAIN):
    """Train 2 ``cap`` epochs in a subprocess (pinned to ``cpus`` if given).

    Returns the checkpoint, the PGD trace and the metrics rows without
    their ``wall_ms`` column.
    """
    proc = subprocess.run(
        [sys.executable, "-c", main, cpus, "train",
         "--dataset_dir", str(data), "--out_dir", str(out),
         "--seeds", "1", "--epochs", "2", "--skip_epochs", "0", "--frequency", "2",
         "--mode", "cap", "--hidden_dims", "64"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seed_dir = out / "seed_1"
    metrics = (seed_dir / "metrics.csv").read_text().splitlines()
    return (
        (seed_dir / "checkpoint.json").read_bytes(),
        (seed_dir / "pgd_trace.csv").read_bytes(),
        [line.rsplit(",", 1)[0] for line in metrics],
    )


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs to compare against one",
)
def test_outputs_do_not_depend_on_cpu_affinity(tmp_path):
    # 9,216 nodes x 64 features (and 64 hidden units): a 2^18-entry range
    # holds 4,096 rows, so spmm and the feature sweep run in two ranges; the
    # 9,216 x 64 @ 64 x 64 products X @ W0 and g @ W0.T (6 aligned 192-row
    # units per 2^22 multiply-adds) in eight. One CPU drains them all alone.
    n, d = 9216, 64
    assert len(linalg._row_cuts(n, d, linalg._MIN_BLOCK, 1)) == 3
    assert len(linalg._dense_cuts(np.empty((n, d)), 64)) == 9
    _save_ring(tmp_path / "data", n, d)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    outputs = [
        _train_ring(tmp_path / "data", tmp_path / f"run_{cpus or 'all'}", env, cpus)
        for cpus in (str(min(os.sched_getaffinity(0))), "")
    ]
    assert outputs[0] == outputs[1]
    assert [line.split(",")[1] for line in outputs[0][2][1:]] == [
        "weight_perturb", "feature_perturb",
    ]


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs to compare against one",
)
def test_seed_sweep_outputs_do_not_depend_on_cpu_affinity(tmp_path):
    # Pinned to one CPU the seeds run in one process; unpinned, on forked
    # workers. The out_dir is relative, so the two manifests can match too.
    root = Path(__file__).resolve().parents[1]
    data = tmp_path / "sbm"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(
            "gen-sbm", "--blocks", "200,200", "--p_in", "0.05", "--p_out", "0.02",
            "--feature_noise", "1.2", "--feature_dim", "8", "--seed", "2024",
            "--out_dir", str(data),
        ) == 0
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    outputs = []
    for cpus in (str(min(os.sched_getaffinity(0))), ""):
        cwd = tmp_path / f"cpus_{cpus or 'all'}"
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", _PINNABLE_MAIN, cpus, "train",
             "--config", str(root / "configs" / "sbm_cap.cfg"),
             "--dataset_dir", str(data), "--out_dir", "run", "--seeds", "1..3"],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        files = {}
        for path in sorted((cwd / "run").rglob("*")):
            if path.is_file():
                text = path.read_text()
                if path.name == "metrics.csv":
                    text = "\n".join(row.rsplit(",", 1)[0] for row in text.splitlines())
                files[str(path.relative_to(cwd))] = text
        outputs.append((proc.stdout, files))
    assert outputs[0] == outputs[1]
    # manifest, summary; per seed metrics, pgd_trace, checkpoint
    assert len(outputs[0][1]) == 2 + 3 * 3
    assert outputs[0][0].count("\n") == 4


def test_outputs_do_not_depend_on_preset_thread_vars(tmp_path):
    # At d=500, X @ W0, X.T @ g and g @ W0.T are large enough that a second
    # BLAS thread would change their bytes; import capgnn must pin it to one.
    _save_ring(tmp_path / "data", 4096, 500, decimals=1)
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_THREAD_VARS and k != "CAPGNN_THREADS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    preset = dict(env, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", CAPGNN_THREADS="2")
    assert _train_ring(tmp_path / "data", tmp_path / "run_unset", env) == _train_ring(
        tmp_path / "data", tmp_path / "run_preset", preset
    )


def test_a_split_weight_gradient_keeps_the_bytes_of_one_range(tmp_path):
    # 8,192 nodes x 512 features, 64 hidden: X.T @ g holds two 2^27 floors,
    # so the shipped rule cuts it at row 256; against one range per product.
    n, d = 8192, 512
    assert linalg._dense_cuts(np.empty((n, d)).T, 64) == [0, 256, 512]
    _save_ring(tmp_path / "data", n, d, decimals=1)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    assert _train_ring(tmp_path / "data", tmp_path / "run_split", env) == _train_ring(
        tmp_path / "data", tmp_path / "run_one", env, main=_ONE_RANGE_MAIN
    )
