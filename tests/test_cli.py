import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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

from conftest import CHECKPOINT_CORRUPTIONS, clean_metrics, corrupt_checkpoint


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

    def test_pgd_trace_flag_writes_inner_step_csv(self, data_dir, tmp_path):
        out = tmp_path / "traced"
        assert run(
            "train", "--dataset_dir", str(data_dir), "--out_dir", str(out),
            "--seeds", "1", "--epochs", "6", "--mode", "cap",
            "--skip_epochs", "3", "--frequency", "3", "--lr", "0.05",
            "--hidden_dims", "8", "--pgd_trace",
        ) == 0
        rows = (out / "seed_1" / "pgd_trace.csv").read_text().splitlines()
        assert rows[0] == "epoch,step,layer,grad_norm,eps_norm,loss"
        assert all(int(r.split(",")[0]) > 3 for r in rows[1:])
        assert len(rows) > 1

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

    def test_untraced_rerun_drops_the_earlier_pgd_trace(self, data_dir, tmp_path):
        out = tmp_path / "reused"
        flags = ["--dataset_dir", str(data_dir), "--out_dir", str(out), "--seeds", "1",
                 "--epochs", "4", "--skip_epochs", "2", "--hidden_dims", "8"]
        assert run("train", *flags, "--mode", "fp", "--pgd_trace") == 0
        assert (out / "seed_1" / "pgd_trace.csv").is_file()
        assert run("train", *flags, "--mode", "vanilla") == 0
        assert (out / "seed_1" / "checkpoint.json").is_file()
        assert not (out / "seed_1" / "pgd_trace.csv").exists()

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
    assert proc.stdout.split() == ["2", "3", "3", "3", "3"]


_PINNABLE_MAIN = """
import os, sys
if sys.argv[1]:
    os.sched_setaffinity(0, {int(sys.argv[1])})
from capgnn.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs to compare against one",
)
def test_outputs_do_not_depend_on_cpu_affinity(tmp_path):
    # 9,216 nodes x 64 features (and 64 hidden units) is 48 aligned 192-row
    # units, and a 2^18-entry block needs 22 of them, so with two CPUs spmm
    # and the feature sweep run in two row blocks; the 9,216 x 64 @ 64 x 64
    # products X @ W0 and g @ W0.T (6 units per 2^22 multiply-adds) split too.
    n, d = 9216, 64
    assert len(linalg._row_cuts(n, d, linalg._MIN_BLOCK)) == 3
    assert len(linalg._row_cuts(n, d * 64, linalg._MIN_MATMUL)) > 2
    rng = make_rng(21)
    ring = np.arange(n)
    us = np.concatenate([ring, ring])
    vs = np.concatenate([(ring + 1) % n, (ring + 37) % n])
    adjacency = CsrMatrix.from_coo(n, n, np.r_[us, vs], np.r_[vs, us], np.ones(4 * n))
    labels = rng.integers(0, 3, n)
    features = rng.standard_normal((n, d)) + labels[:, None]
    split = random_split(labels, (0.6, 0.2, 0.2), rng)
    save_dataset(make_dataset(adjacency, features, labels, 3, *split), tmp_path / "data")

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    outputs = []
    for cpus in (str(min(os.sched_getaffinity(0))), ""):
        out = tmp_path / f"run_{cpus or 'all'}"
        proc = subprocess.run(
            [sys.executable, "-c", _PINNABLE_MAIN, cpus, "train",
             "--dataset_dir", str(tmp_path / "data"), "--out_dir", str(out),
             "--seeds", "1", "--epochs", "2", "--skip_epochs", "0", "--frequency", "2",
             "--mode", "cap", "--hidden_dims", "64", "--pgd_trace"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        seed_dir = out / "seed_1"
        metrics = (seed_dir / "metrics.csv").read_text().splitlines()
        outputs.append((
            (seed_dir / "checkpoint.json").read_bytes(),
            (seed_dir / "pgd_trace.csv").read_bytes(),
            [line.rsplit(",", 1)[0] for line in metrics],  # wall_ms aside
        ))
    assert outputs[0] == outputs[1]
    assert [line.split(",")[1] for line in outputs[0][2][1:]] == [
        "weight_perturb", "feature_perturb",
    ]
