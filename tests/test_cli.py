import json
from pathlib import Path

import pytest

from capgnn.cli import (
    ConfigError,
    main,
    parse_config_file,
    resolve_config,
)
from capgnn.graph import load_dataset
from capgnn.model import evaluate, load_model

from conftest import CHECKPOINT_CORRUPTIONS, corrupt_checkpoint


def run(*argv) -> int:
    return main(list(argv))


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

    def test_missing_dataset_dir_exits_2(self, tmp_path):
        assert run(
            "train", "--out_dir", str(tmp_path / "x"), "--seeds", "1",
        ) == 2

    def test_bogus_dataset_dir_exits_2(self, tmp_path):
        assert run(
            "train", "--dataset_dir", str(tmp_path / "nope"),
            "--out_dir", str(tmp_path / "x"), "--seeds", "1", "--epochs", "2",
        ) == 2

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
        assert float(mean_acc) == evaluate(model, ds, ds.test_mask)
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


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("momentum = 0.9\n")
        with pytest.raises(ConfigError, match="unknown key"):
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

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="dataset_dir"):
            resolve_config({"out_dir": "o"}, {})
