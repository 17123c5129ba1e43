import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capgnn.perturb as perturb_mod
import capgnn.train as train_mod
from capgnn.graph import SbmParams, generate_sbm
from capgnn.linalg import make_rng
from capgnn.model import _workspace, backward, forward, init_model, masked_cross_entropy
from capgnn.perturb import PerturbConfig, pgd_weight_perturbation
from capgnn.train import (
    FEATURE_PERTURB,
    STANDARD,
    WEIGHT_PERTURB,
    AdamOptimizer,
    EpochRecord,
    SgdOptimizer,
    TrainConfig,
    TrainingDivergedError,
    make_optimizer,
    schedule,
    train,
    train_step,
    write_metrics_csv,
)
from conftest import clean_metrics, peak_traced_bytes, row_blocks
from oracles import reference_schedule


class TestSchedule:
    def test_documented_example_sequence(self):
        cfg = TrainConfig(epochs=10, skip_epochs=2, frequency=3, mode="cap")
        got = [schedule(e, cfg) for e in range(1, 11)]
        assert got == [
            STANDARD, STANDARD, FEATURE_PERTURB,
            WEIGHT_PERTURB, WEIGHT_PERTURB, FEATURE_PERTURB,
            WEIGHT_PERTURB, WEIGHT_PERTURB, FEATURE_PERTURB,
            WEIGHT_PERTURB,
        ]

    def test_full_skip_degenerates_to_vanilla(self):
        cfg = TrainConfig(epochs=5, skip_epochs=5, mode="cap")
        assert all(schedule(e, cfg) == STANDARD for e in range(1, 6))

    def test_frequency_one_is_all_feature(self):
        cfg = TrainConfig(epochs=6, skip_epochs=2, frequency=1, mode="cap")
        assert all(schedule(e, cfg) == FEATURE_PERTURB for e in range(3, 7))

    def test_single_mode_variants(self):
        wp = TrainConfig(epochs=4, skip_epochs=1, mode="wp")
        fp = TrainConfig(epochs=4, skip_epochs=1, mode="fp")
        assert [schedule(e, wp) for e in range(1, 5)] == [
            STANDARD, WEIGHT_PERTURB, WEIGHT_PERTURB, WEIGHT_PERTURB
        ]
        assert [schedule(e, fp) for e in range(1, 5)] == [
            STANDARD, FEATURE_PERTURB, FEATURE_PERTURB, FEATURE_PERTURB
        ]

    @given(
        st.integers(1, 50),
        st.sampled_from(["vanilla", "wp", "fp", "cap"]),
        st.integers(0, 50),
        st.integers(1, 9),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_interpreter(self, epochs, mode, skip, freq):
        skip = min(skip, epochs)
        cfg = TrainConfig(epochs=epochs, skip_epochs=skip, frequency=freq, mode=mode)
        for e in range(1, epochs + 1):
            assert schedule(e, cfg) == reference_schedule(e, mode, skip, freq)

    def test_epoch_out_of_range(self):
        cfg = TrainConfig(epochs=3)
        with pytest.raises(ValueError):
            schedule(0, cfg)
        with pytest.raises(ValueError):
            schedule(4, cfg)


class TestConfigValidation:
    def test_skip_beyond_epochs_rejected(self):
        with pytest.raises(ValueError, match="skip_epochs"):
            TrainConfig(epochs=5, skip_epochs=6)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            TrainConfig(mode="pgd")

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["lr", "weight_decay", "rho_w", "rho_x", "beta"])
    def test_non_finite_value_rejected(self, key, value):
        cls = TrainConfig if key in ("lr", "weight_decay") else PerturbConfig
        with pytest.raises(ValueError, match=f"{key} must be"):
            cls(**{key: value})


def quick_cfg(**kw):
    base = dict(
        epochs=8, skip_epochs=2, frequency=3, mode="cap", lr=0.05,
        optimizer="sgd", hidden_dims=(6,), dropout=0.0, seed=1,
        perturb=PerturbConfig(rho_w=0.05, rho_x=0.05, beta=0.02, steps=2),
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrainStep:
    def test_zero_lr_sgd_is_a_null_update(self, small_sbm):
        model = init_model([small_sbm.d, 6, 2], make_rng(0), dropout_rate=0.0)
        before = [w.tobytes() for w in model.weights]
        opt = SgdOptimizer(lr=0.0)
        cfg = quick_cfg()
        train_step(model, small_sbm, STANDARD, cfg, opt, make_rng(1), epoch=1)
        assert [w.tobytes() for w in model.weights] == before

    def test_tiny_weight_ball_matches_standard_step(self, small_sbm):
        cfg = quick_cfg(perturb=PerturbConfig(rho_w=1e-15, beta=1e-3, steps=2))
        model_a = init_model([small_sbm.d, 6, 2], make_rng(4), dropout_rate=0.0)
        model_b = init_model([small_sbm.d, 6, 2], make_rng(4), dropout_rate=0.0)
        train_step(
            model_a, small_sbm, STANDARD, cfg, SgdOptimizer(cfg.lr), make_rng(0), epoch=1
        )
        train_step(
            model_b, small_sbm, WEIGHT_PERTURB, cfg, SgdOptimizer(cfg.lr), make_rng(0),
            epoch=1,
        )
        for wa, wb in zip(model_a.weights, model_b.weights):
            denom = np.maximum(np.abs(wa), 1e-12)
            assert np.max(np.abs(wa - wb) / denom) <= 1e-6

    def test_feature_step_adv_loss_dominates_clean_loss(self, small_sbm):
        cfg = quick_cfg(perturb=PerturbConfig(rho_x=0.05, beta=0.03, steps=3))
        wins = 0
        for seed in range(100):
            model = init_model([small_sbm.d, 6, 2], make_rng(seed), dropout_rate=0.0)
            clean_cache = forward(model, small_sbm.a_hat, small_sbm.features)
            clean_loss = masked_cross_entropy(
                clean_cache.logits, small_sbm.labels, small_sbm.train_mask
            )
            rec = train_step(
                model, small_sbm, FEATURE_PERTURB, cfg, SgdOptimizer(cfg.lr),
                make_rng(0), epoch=1,
            )
            if rec.adv_loss >= clean_loss:
                wins += 1
        assert wins >= 95

    def test_weight_perturbation_is_transient(self, small_sbm):
        # Replay contract: after a weight-perturbed sgd step (wd=0), the new
        # weights equal old - lr * grad(old + eps) bit for bit.
        cfg = quick_cfg()
        model = init_model([small_sbm.d, 6, 2], make_rng(9), dropout_rate=0.0)
        old = [w.copy() for w in model.weights]
        train_step(
            model, small_sbm, WEIGHT_PERTURB, cfg, SgdOptimizer(cfg.lr), make_rng(0),
            epoch=1,
        )
        replay = init_model([small_sbm.d, 6, 2], make_rng(9), dropout_rate=0.0)
        assert all(np.array_equal(a, b) for a, b in zip(replay.weights, old))
        eps, _ = pgd_weight_perturbation(replay, small_sbm, cfg.perturb)
        w_eff = [w + e for w, e in zip(old, eps)]
        cache = forward(replay, small_sbm.a_hat, small_sbm.features, w_eff)
        grads = backward(
            replay, small_sbm.a_hat, cache, small_sbm.labels, small_sbm.train_mask
        )
        for l in range(len(old)):
            want = old[l] - cfg.lr * grads.d_weights[l]
            assert np.array_equal(model.weights[l], want)

    def test_feature_step_peak_memory_is_three_feature_arrays(self, wide_sbm):
        model = init_model([wide_sbm.d, 16, 2], make_rng(1), dropout_rate=0.0)
        cfg = quick_cfg(perturb=PerturbConfig(rho_x=0.05, beta=0.02, steps=3))
        peak = peak_traced_bytes(
            lambda: train_step(
                model, wide_sbm, FEATURE_PERTURB, cfg, SgdOptimizer(cfg.lr),
                make_rng(2), epoch=1,
            )
        )
        assert peak < 3.5 * wide_sbm.features.nbytes

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self, small_sbm):
        cfg = quick_cfg(mode="vanilla", lr=1e150, epochs=4, skip_epochs=0)
        with pytest.raises(TrainingDivergedError):
            train(small_sbm, cfg)


class TestWorkspace:
    """``train()``'s one set of n x hidden arrays, reused by every pass of its steps."""

    MODES = (STANDARD, WEIGHT_PERTURB, FEATURE_PERTURB)

    @staticmethod
    def two_steps(ds, mode, hidden, work):
        """Weights, records and PGD rows of two train_steps from one initial model."""
        cfg = quick_cfg(hidden_dims=hidden, dropout=0.5, optimizer="adam")
        model = init_model([ds.d, *hidden, ds.num_classes], make_rng(4), dropout_rate=0.5)
        opt, rng = make_optimizer(cfg), make_rng(5)
        records = [
            train_step(model, ds, mode, cfg, opt, rng, epoch=e, work=work)
            for e in (1, 2)
        ]
        return ([w.tobytes() for w in model.weights],
                [(r.train_loss, r.adv_loss, r.train_acc, r.val_acc, r.test_acc)
                 for r in records],
                [r.pgd_rows for r in records])

    @pytest.mark.parametrize("hidden", [(6,), (6, 5)], ids=["one_hidden", "two_hidden"])
    @pytest.mark.parametrize("mode", MODES)
    def test_train_step_gives_the_bytes_of_fresh_arrays(self, small_sbm, mode, hidden):
        want = self.two_steps(small_sbm, mode, hidden, None)
        model = init_model([small_sbm.d, *hidden, 2], make_rng(0))
        work = _workspace(model, small_sbm.n)
        assert self.two_steps(small_sbm, mode, hidden, work) == want
        with row_blocks(2, chunk=3 * 6):
            assert self.two_steps(small_sbm, mode, hidden, work) == want

    # Peak traced bytes of one train_step, in n x hidden arrays, on 1,200
    # nodes with d=4, hidden width 128 and dropout 0.5. Measured before the
    # workspace existed, when every pass allocated its own arrays.
    FRESH_PEAK = {
        (128,): {STANDARD: 4.03, WEIGHT_PERTURB: 4.04, FEATURE_PERTURB: 4.06},
        (128, 128): {STANDARD: 7.24, WEIGHT_PERTURB: 7.46, FEATURE_PERTURB: 7.27},
    }

    @pytest.mark.parametrize("hidden", FRESH_PEAK, ids=["one_hidden", "two_hidden"])
    @pytest.mark.parametrize("mode", MODES)
    def test_peak_holds_no_more_hidden_arrays_than_fresh_ones_did(self, mode, hidden):
        ds = generate_sbm(SbmParams((600, 600), 0.01, 0.002, 1.0, feature_dim=4),
                          make_rng(12))
        cfg = quick_cfg(hidden_dims=hidden, dropout=0.5)
        model = init_model([ds.d, *hidden, 2], make_rng(3), dropout_rate=0.5)

        work = _workspace(model, ds.n)
        peak = peak_traced_bytes(
            lambda: train_step(model, ds, mode, cfg, SgdOptimizer(cfg.lr), make_rng(2),
                               epoch=1, work=work)
        )
        # The workspace counts too (train() makes it), though tracemalloc
        # does not see a block mapped outside malloc.
        peak += sum(a.nbytes for layer in work for a in layer)
        assert peak / (ds.n * 128 * 8) <= self.FRESH_PEAK[hidden][mode]


class TestTrain:
    def test_bit_identical_reruns(self, small_sbm):
        cfg = quick_cfg(dropout=0.5, optimizer="adam")
        model_a, hist_a = train(small_sbm, cfg)
        model_b, hist_b = train(small_sbm, cfg)
        for wa, wb in zip(model_a.weights, model_b.weights):
            assert wa.tobytes() == wb.tobytes()
        for ra, rb in zip(hist_a, hist_b):
            assert (ra.mode_used, ra.train_loss, ra.adv_loss, ra.val_acc) == (
                rb.mode_used, rb.train_loss, rb.adv_loss, rb.val_acc
            )

    def test_history_follows_schedule(self, small_sbm):
        cfg = quick_cfg(epochs=10, skip_epochs=3, frequency=2)
        _, hist = train(small_sbm, cfg)
        assert len(hist) == 10
        assert [r.mode_used for r in hist] == [
            schedule(e, cfg) for e in range(1, 11)
        ]
        assert [r.epoch for r in hist] == list(range(1, 11))

    def test_stage_one_never_runs_pgd(self, small_sbm, monkeypatch):
        calls = {"w": 0, "x": 0}
        real_w = train_mod.pgd_weight_perturbation
        real_x = train_mod.pgd_feature_perturbation

        def count_w(*a, **k):
            calls["w"] += 1
            return real_w(*a, **k)

        def count_x(*a, **k):
            calls["x"] += 1
            return real_x(*a, **k)

        monkeypatch.setattr(train_mod, "pgd_weight_perturbation", count_w)
        monkeypatch.setattr(train_mod, "pgd_feature_perturbation", count_x)

        cfg = quick_cfg(epochs=6, skip_epochs=6)
        _, hist = train(small_sbm, cfg)
        assert calls == {"w": 0, "x": 0}
        assert all(r.adv_loss is None for r in hist)

        calls["w"] = calls["x"] = 0
        cfg = quick_cfg(epochs=6, skip_epochs=3, frequency=3)
        _, hist = train(small_sbm, cfg)
        # Epochs 4, 5 perturb weights; epoch 6 perturbs features.
        assert calls == {"w": 2, "x": 1}
        assert all(r.adv_loss is None for r in hist[:3])
        assert all(r.adv_loss is not None for r in hist[3:])

    def test_only_feature_pgd_asks_for_the_feature_gradient(
        self, small_sbm, monkeypatch
    ):
        # Per epoch, the (module, need_features, need_weights) of every backward call.
        calls: list[tuple[str, list]] = []
        real_step, real_backward = train_mod.train_step, train_mod.backward

        def step_spy(model, dataset, mode_used, *a, **k):
            calls.append((mode_used, []))
            return real_step(model, dataset, mode_used, *a, **k)

        def backward_spy(where):
            def spy(*a, need_features=True, need_weights=True, **k):
                calls[-1][1].append((where, need_features, need_weights))
                return real_backward(
                    *a, need_features=need_features, need_weights=need_weights, **k
                )

            return spy

        monkeypatch.setattr(train_mod, "train_step", step_spy)
        monkeypatch.setattr(train_mod, "backward", backward_spy("train"))
        monkeypatch.setattr(perturb_mod, "backward", backward_spy("perturb"))
        steps = 2
        cfg = quick_cfg(epochs=8, skip_epochs=2, frequency=3,
                        perturb=PerturbConfig(steps=steps))
        train(small_sbm, cfg)

        assert [mode for mode, _ in calls] == [schedule(e, cfg) for e in range(1, 9)]
        assert sum(mode == FEATURE_PERTURB for mode, _ in calls) == 2
        for mode, backwards in calls:
            # Feature PGD reads only the feature gradient, the rest only weights.
            is_fp = mode == FEATURE_PERTURB
            pgd = [("perturb", is_fp, not is_fp)] * steps
            if mode == STANDARD:
                pgd = []
            assert backwards == pgd + [("train", False, True)]

    def test_cap_with_full_skip_equals_vanilla(self, small_sbm):
        cap = quick_cfg(mode="cap", epochs=7, skip_epochs=7, dropout=0.5)
        vanilla = quick_cfg(mode="vanilla", epochs=7, skip_epochs=0, dropout=0.5)
        model_a, _ = train(small_sbm, cap)
        model_b, _ = train(small_sbm, vanilla)
        for wa, wb in zip(model_a.weights, model_b.weights):
            assert wa.tobytes() == wb.tobytes()

    @pytest.mark.parametrize("mode", ["vanilla", "cap"])
    def test_fits_separable_sbm(self, mode):
        ds = generate_sbm(SbmParams((100, 100), 0.05, 0.01, 0.4), make_rng(77))
        cfg = TrainConfig(
            epochs=200, skip_epochs=50, frequency=5, mode=mode, lr=0.05,
            optimizer="adam", hidden_dims=(16,), dropout=0.0, seed=2,
            eval_every=50,
            perturb=PerturbConfig(rho_w=0.02, rho_x=0.02, beta=0.005, steps=3),
        )
        model, hist = train(ds, cfg)
        final = [r for r in hist if r.train_acc is not None][-1]
        assert final.train_acc >= 0.95

    def test_best_val_selection_restores_best_checkpoint(self, small_sbm):
        cfg = quick_cfg(epochs=10, model_selection="best_val", dropout=0.5)
        model, hist = train(small_sbm, cfg)
        best = max(r.val_acc for r in hist if r.val_acc is not None)
        assert clean_metrics(model, small_sbm)[2] == best

    def test_eval_every_skips_metrics(self, small_sbm):
        cfg = quick_cfg(epochs=7, eval_every=3)
        _, hist = train(small_sbm, cfg)
        evaluated = [r.epoch for r in hist if r.val_acc is not None]
        assert evaluated == [3, 6, 7]  # multiples plus the final epoch

    def test_pgd_trace_covers_stage_two_only(self, small_sbm):
        cfg = quick_cfg(epochs=6, skip_epochs=3, frequency=3,
                        perturb=PerturbConfig(steps=2))
        _, hist = train(small_sbm, cfg)
        by_epoch = {r.epoch: r.pgd_rows for r in hist if r.pgd_rows}
        epochs = sorted(by_epoch)
        assert epochs == [4, 5, 6]
        # Weight epochs log one row per (step, layer); feature epochs one per step.
        assert {r.layer for r in by_epoch[4]} == {"w0", "w1"}
        assert {r.layer for r in by_epoch[6]} == {"x"}
        assert all(len(by_epoch[e]) in (2, 4) for e in epochs)


class TestOptimizers:
    def test_sgd_with_decay_shrinks_weights(self):
        opt = SgdOptimizer(lr=0.1, weight_decay=0.5)
        weights = [np.ones((2, 2))]
        opt.step(weights, [np.zeros((2, 2))])
        assert np.allclose(weights[0], 0.95)

    def test_adam_moves_against_gradient(self):
        opt = make_optimizer(TrainConfig(optimizer="adam", lr=0.1))
        weights = [np.zeros((2, 2))]
        opt.step(weights, [np.ones((2, 2))])
        assert (weights[0] < 0).all()

    def test_adam_adds_eps_after_the_square_root(self):
        # At t=1, m_hat = g and sqrt(v_hat) = |g|: a gradient of 1e-8 = eps steps
        # lr * g / (|g| + eps) = lr / 2, where eps inside the root gives ~1e-4 * lr.
        lr, g = 0.1, 1e-8
        weights = [np.zeros((1, 1))]
        AdamOptimizer(lr).step(weights, [np.full((1, 1), g)])
        assert weights[0][0, 0] == pytest.approx(-lr * g / (g + AdamOptimizer.eps), rel=1e-9)

    def test_factory_choices(self):
        assert isinstance(make_optimizer(TrainConfig(optimizer="sgd")), SgdOptimizer)


class TestMetricsCsv:
    def test_format_and_empty_fields(self, tmp_path):
        hist = [
            EpochRecord(1, STANDARD, 0.5, None, 0.9, 0.8, 0.7, 1.25),
            EpochRecord(2, WEIGHT_PERTURB, None, 0.6, None, None, None, 2.0),
        ]
        path = tmp_path / "m.csv"
        write_metrics_csv(hist, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,mode,train_loss,adv_loss,train_acc,val_acc,test_acc,wall_ms"
        assert lines[1] == "1,standard,0.5,,0.9,0.8,0.7,1.250"
        assert lines[2] == "2,weight_perturb,,0.6,,,,2.000"
