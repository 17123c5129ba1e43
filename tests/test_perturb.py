import math

import numpy as np
import pytest

from capgnn.graph import SbmParams, generate_sbm
from capgnn.linalg import lp_norm, make_rng
from capgnn.model import GnnModel, backward, forward, init_model, masked_cross_entropy
from capgnn.perturb import (
    PerturbConfig,
    pgd_feature_perturbation,
    pgd_weight_perturbation,
    project_ball,
)


def train_loss(model, ds, w_eff=None, x_eff=None):
    x = ds.features if x_eff is None else x_eff
    cache = forward(model, ds.a_hat, x, w_eff, training=False)
    return masked_cross_entropy(cache.logits, ds.labels, ds.train_mask)


def clean_gradients(model, ds):
    cache = forward(model, ds.a_hat, ds.features, training=False)
    return backward(
        model, ds.a_hat, ds.features, None, cache, ds.labels, ds.train_mask
    )


@pytest.fixture(scope="module")
def fixture_8():
    return generate_sbm(SbmParams((4, 4), 0.9, 0.1, 0.6), make_rng(88))


class TestProjectBall:
    def test_l2_rescales_outside_points(self):
        eps = np.array([[3.0, 0.0], [0.0, 0.0]])
        out = project_ball(eps, 1.0, 2)
        assert np.allclose(out, eps / 3.0)
        assert lp_norm(out, 2) == pytest.approx(1.0, abs=1e-12)

    def test_l2_keeps_interior_points(self):
        eps = np.array([[0.3, 0.4]])
        out = project_ball(eps, 1.0, 2)
        assert np.array_equal(out, eps)

    def test_linf_clamps_entrywise(self):
        eps = np.array([[0.02, -0.005]])
        out = project_ball(eps, 0.01, math.inf)
        assert np.array_equal(out, np.array([[0.01, -0.005]]))

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            project_ball(np.ones((1, 1)), 1.0, 3)

    @pytest.mark.parametrize("p", [2, math.inf])
    def test_containment_on_randomized_inputs(self, p):
        rng = make_rng(5)
        for _ in range(200):
            eps = rng.standard_normal((3, 4)) * rng.uniform(0, 5)
            rho = rng.uniform(1e-3, 2.0)
            out = project_ball(eps, rho, p)
            assert lp_norm(out, p) <= rho * (1 + 1e-12)


class TestWeightPgd:
    def test_single_step_is_normalized_gradient(self, fixture_8):
        model = init_model([fixture_8.d, 5, 2], make_rng(1), dropout_rate=0.0)
        cfg = PerturbConfig(rho_w=1e6, beta=0.01, steps=1)
        eps = pgd_weight_perturbation(model, fixture_8, cfg)
        grads = clean_gradients(model, fixture_8)
        for e, g in zip(eps, grads.d_weights):
            want = cfg.beta * g / lp_norm(g, 2)
            assert np.allclose(e, want, atol=1e-15)

    def test_collapsed_ball_keeps_perturbation_tiny(self, fixture_8):
        model = init_model([fixture_8.d, 5, 2], make_rng(1), dropout_rate=0.0)
        cfg = PerturbConfig(rho_w=1e-15, beta=0.01, steps=3)
        eps = pgd_weight_perturbation(model, fixture_8, cfg)
        for e, w in zip(eps, model.weights):
            assert lp_norm(e, 2) <= 1e-15 * lp_norm(w, 2) * (1 + 1e-9)

    def test_ball_containment_and_immutability(self, fixture_8):
        for seed in range(10):
            model = init_model([fixture_8.d, 4, 2], make_rng(seed), dropout_rate=0.0)
            before = [w.tobytes() for w in model.weights]
            feat_before = fixture_8.features.tobytes()
            cfg = PerturbConfig(rho_w=0.05, beta=0.02, steps=3)
            eps = pgd_weight_perturbation(model, fixture_8, cfg)
            for e, w in zip(eps, model.weights):
                assert lp_norm(e, 2) <= cfg.rho_w * lp_norm(w, 2) + 1e-9
            assert [w.tobytes() for w in model.weights] == before
            assert fixture_8.features.tobytes() == feat_before

    def test_zero_beta_gives_exact_zero(self, fixture_8):
        model = init_model([fixture_8.d, 4, 2], make_rng(3), dropout_rate=0.0)
        eps = pgd_weight_perturbation(
            model, fixture_8, PerturbConfig(beta=0.0, steps=3)
        )
        for e in eps:
            assert np.count_nonzero(e) == 0

    def test_matches_reference_loop(self, fixture_8):
        model = init_model([fixture_8.d, 4, 2], make_rng(7), dropout_rate=0.0)
        cfg = PerturbConfig(rho_w=0.02, beta=0.015, steps=4)
        got = pgd_weight_perturbation(model, fixture_8, cfg)

        eps = [np.zeros_like(w) for w in model.weights]
        radii = [cfg.rho_w * lp_norm(w, 2) for w in model.weights]
        for _ in range(cfg.steps):
            w_eff = [w + e for w, e in zip(model.weights, eps)]
            cache = forward(model, fixture_8.a_hat, fixture_8.features, w_eff)
            grads = backward(
                model, fixture_8.a_hat, fixture_8.features, w_eff, cache,
                fixture_8.labels, fixture_8.train_mask,
            )
            for l, g in enumerate(grads.d_weights):
                gn = lp_norm(g, 2)
                if gn < 1e-12:
                    continue
                cand = eps[l] + cfg.beta * g / gn
                nrm = lp_norm(cand, 2)
                eps[l] = cand * (radii[l] / nrm) if nrm > radii[l] else cand
        for a, b in zip(got, eps):
            assert np.allclose(a, b, atol=1e-14)

    def test_statistical_ascent_on_fixture(self, fixture_8):
        cfg = PerturbConfig(rho_w=0.05, beta=0.02, steps=3)
        wins = 0
        for seed in range(100):
            model = init_model([fixture_8.d, 4, 2], make_rng(seed), dropout_rate=0.0)
            eps = pgd_weight_perturbation(model, fixture_8, cfg)
            w_eff = [w + e for w, e in zip(model.weights, eps)]
            if train_loss(model, fixture_8, w_eff=w_eff) >= train_loss(model, fixture_8):
                wins += 1
        assert wins >= 95

    def test_saturated_model_logs_zero_gradient_steps(self, fixture_8):
        # A model that classifies the fixture perfectly with huge margin has
        # train gradients below the division floor on every layer.
        w0 = np.zeros((fixture_8.d, 2))
        w0[:2, :2] = np.eye(2) * 400.0
        model = GnnModel([w0], dropout_rate=0.0)
        trace = []
        eps = pgd_weight_perturbation(
            model, fixture_8, PerturbConfig(steps=2), trace=trace
        )
        assert np.count_nonzero(eps[0]) == 0
        assert len(trace) == 2
        assert all(row.grad_norm < 1e-12 for row in trace)
        assert all(row.eps_norm == 0.0 for row in trace)


class TestFeaturePgd:
    def test_single_step_is_sign_of_gradient(self, fixture_8):
        model = init_model([fixture_8.d, 5, 2], make_rng(2), dropout_rate=0.0)
        cfg = PerturbConfig(rho_x=1.0, beta=0.01, steps=1)
        eps = pgd_feature_perturbation(model, fixture_8, cfg)
        grads = clean_gradients(model, fixture_8)
        assert np.array_equal(eps, cfg.beta * np.sign(grads.d_features))

    def test_zero_gradient_rows_stay_zero(self):
        # Two disconnected triangles, supervision only in the first one.
        from capgnn.graph import make_dataset
        from capgnn.linalg import CsrMatrix

        us = [0, 1, 2, 3, 4, 5]
        vs = [1, 2, 0, 4, 5, 3]
        adj = CsrMatrix.from_coo(6, 6, us + vs, vs + us, np.ones(12))
        rng = make_rng(0)
        ds = make_dataset(
            adj, rng.standard_normal((6, 3)), [0, 1, 0, 1, 0, 1], 2,
            [True, True, True, False, False, False],
            np.zeros(6, bool),
            [False, False, False, True, True, True],
        )
        model = init_model([3, 4, 2], rng, dropout_rate=0.0)
        eps = pgd_feature_perturbation(model, ds, PerturbConfig(steps=3))
        assert np.array_equal(eps[3:], np.zeros((3, 3)))
        assert np.abs(eps[:3]).max() > 0

    def test_large_beta_saturates_touched_entries(self, fixture_8):
        model = init_model([fixture_8.d, 5, 2], make_rng(4), dropout_rate=0.0)
        cfg = PerturbConfig(rho_x=0.01, beta=0.05, steps=3)
        eps = pgd_feature_perturbation(model, fixture_8, cfg)
        touched = eps != 0.0
        assert touched.any()
        assert np.all(np.abs(eps[touched]) == cfg.rho_x)

    def test_ball_containment_and_feature_immutability(self, fixture_8):
        snapshot = fixture_8.features.tobytes()
        for seed in range(10):
            model = init_model([fixture_8.d, 4, 2], make_rng(seed), dropout_rate=0.0)
            cfg = PerturbConfig(rho_x=0.03, beta=0.02, steps=3)
            eps = pgd_feature_perturbation(model, fixture_8, cfg)
            assert lp_norm(eps, math.inf) <= cfg.rho_x + 1e-12
        assert fixture_8.features.tobytes() == snapshot

    def test_zero_beta_gives_exact_zero(self, fixture_8):
        model = init_model([fixture_8.d, 4, 2], make_rng(3), dropout_rate=0.0)
        eps = pgd_feature_perturbation(
            model, fixture_8, PerturbConfig(beta=0.0, steps=3)
        )
        assert np.count_nonzero(eps) == 0

    def test_statistical_ascent_on_fixture(self, fixture_8):
        cfg = PerturbConfig(rho_x=0.05, beta=0.03, steps=3)
        wins = 0
        for seed in range(100):
            model = init_model([fixture_8.d, 4, 2], make_rng(seed), dropout_rate=0.0)
            eps = pgd_feature_perturbation(model, fixture_8, cfg)
            perturbed = train_loss(model, fixture_8, x_eff=fixture_8.features + eps)
            if perturbed >= train_loss(model, fixture_8):
                wins += 1
        assert wins >= 95


class TestMeanAscent:
    def test_mean_loss_increase_is_positive_for_both_loops(self, fixture_8):
        cfg = PerturbConfig(rho_w=0.05, rho_x=0.05, beta=0.02, steps=3)
        deltas_w, deltas_x = [], []
        for seed in range(50):
            model = init_model([fixture_8.d, 4, 2], make_rng(seed), dropout_rate=0.0)
            base = train_loss(model, fixture_8)
            eps_w = pgd_weight_perturbation(model, fixture_8, cfg)
            w_eff = [w + e for w, e in zip(model.weights, eps_w)]
            deltas_w.append(train_loss(model, fixture_8, w_eff=w_eff) - base)
            eps_x = pgd_feature_perturbation(model, fixture_8, cfg)
            deltas_x.append(
                train_loss(model, fixture_8, x_eff=fixture_8.features + eps_x) - base
            )
        assert np.mean(deltas_w) > 0
        assert np.mean(deltas_x) > 0


class TestPerturbConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PerturbConfig(rho_w=0.0)
        with pytest.raises(ValueError):
            PerturbConfig(beta=-1.0)
        with pytest.raises(ValueError):
            PerturbConfig(steps=0)
