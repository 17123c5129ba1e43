import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import capgnn.perturb as perturb_mod
from capgnn.graph import SbmParams, generate_sbm, make_dataset
from capgnn.linalg import lp_norm, make_rng
from capgnn.model import (
    GnnModel, Gradients, backward, forward, init_model, masked_cross_entropy,
)
from capgnn.perturb import (
    PerturbConfig,
    pgd_feature_perturbation,
    pgd_weight_perturbation,
)

from conftest import peak_traced_bytes, row_blocks
from oracles import project_ball, reference_feature_pgd


def train_loss(model, ds, w_eff=None, x_eff=None):
    x = ds.features if x_eff is None else x_eff
    cache = forward(model, ds.a_hat, x, w_eff, training=False)
    return masked_cross_entropy(cache.logits, ds.labels, ds.train_mask)


def clean_gradients(model, ds):
    cache = forward(model, ds.a_hat, ds.features, training=False)
    return backward(model, ds.a_hat, cache, ds.labels, ds.train_mask)


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
        eps, _ = pgd_weight_perturbation(model, fixture_8, cfg)
        grads = clean_gradients(model, fixture_8)
        for e, g in zip(eps, grads.d_weights):
            want = cfg.beta * g / lp_norm(g, 2)
            assert np.allclose(e, want, atol=1e-15)

    def test_collapsed_ball_keeps_perturbation_tiny(self, fixture_8):
        model = init_model([fixture_8.d, 5, 2], make_rng(1), dropout_rate=0.0)
        cfg = PerturbConfig(rho_w=1e-15, beta=0.01, steps=3)
        eps, _ = pgd_weight_perturbation(model, fixture_8, cfg)
        for e, w in zip(eps, model.weights):
            assert lp_norm(e, 2) <= 1e-15 * lp_norm(w, 2) * (1 + 1e-9)

    def test_ball_containment_and_immutability(self, fixture_8):
        for seed in range(10):
            model = init_model([fixture_8.d, 4, 2], make_rng(seed), dropout_rate=0.0)
            before = [w.tobytes() for w in model.weights]
            feat_before = fixture_8.features.tobytes()
            cfg = PerturbConfig(rho_w=0.05, beta=0.02, steps=3)
            eps, _ = pgd_weight_perturbation(model, fixture_8, cfg)
            for e, w in zip(eps, model.weights):
                assert lp_norm(e, 2) <= cfg.rho_w * lp_norm(w, 2) + 1e-9
            assert [w.tobytes() for w in model.weights] == before
            assert fixture_8.features.tobytes() == feat_before

    def test_zero_beta_gives_exact_zero(self, fixture_8):
        model = init_model([fixture_8.d, 4, 2], make_rng(3), dropout_rate=0.0)
        eps, _ = pgd_weight_perturbation(
            model, fixture_8, PerturbConfig(beta=0.0, steps=3)
        )
        for e in eps:
            assert np.count_nonzero(e) == 0

    def test_matches_reference_loop(self, fixture_8):
        model = init_model([fixture_8.d, 4, 2], make_rng(7), dropout_rate=0.0)
        cfg = PerturbConfig(rho_w=0.02, beta=0.015, steps=4)
        got, _ = pgd_weight_perturbation(model, fixture_8, cfg)

        eps = [np.zeros_like(w) for w in model.weights]
        radii = [cfg.rho_w * lp_norm(w, 2) for w in model.weights]
        for _ in range(cfg.steps):
            w_eff = [w + e for w, e in zip(model.weights, eps)]
            cache = forward(model, fixture_8.a_hat, fixture_8.features, w_eff)
            grads = backward(
                model, fixture_8.a_hat, cache, fixture_8.labels, fixture_8.train_mask
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
            eps, _ = pgd_weight_perturbation(model, fixture_8, cfg)
            w_eff = [w + e for w, e in zip(model.weights, eps)]
            if train_loss(model, fixture_8, w_eff=w_eff) >= train_loss(model, fixture_8):
                wins += 1
        assert wins >= 95

    def test_trace_rows_hold_each_layer_after_projection(self, fixture_8):
        # Steps of 0.03 against a ball of radius 0.04 * ||W_l||: the ball binds
        # from the second step on.
        model = init_model([fixture_8.d, 4, 2], make_rng(7), dropout_rate=0.0)
        cfg = PerturbConfig(rho_w=0.04, beta=0.03, steps=3)
        eps, trace = pgd_weight_perturbation(model, fixture_8, cfg)
        radii = [cfg.rho_w * lp_norm(w, 2) for w in model.weights]
        assert [(r.step, r.layer) for r in trace] == [
            (t, f"w{l}") for t in range(cfg.steps) for l in range(model.depth)
        ]
        clean = clean_gradients(model, fixture_8)
        for l, row in enumerate(trace[:model.depth]):
            assert row.grad_norm == lp_norm(clean.d_weights[l], 2)
            assert row.loss == train_loss(model, fixture_8)
        for row in trace:
            assert row.eps_norm <= radii[int(row.layer[1:])] * (1 + 1e-12)
        last = trace[-model.depth:]
        assert [r.eps_norm for r in last] == [lp_norm(e, 2) for e in eps]
        assert [r.eps_norm for r in last] == pytest.approx(radii, rel=1e-12)

    def test_saturated_model_logs_zero_gradient_steps(self, fixture_8):
        # A model that classifies the fixture perfectly with huge margin has
        # train gradients below the division floor on every layer.
        w0 = np.zeros((fixture_8.d, 2))
        w0[:2, :2] = np.eye(2) * 400.0
        model = GnnModel([w0], dropout_rate=0.0)
        eps, trace = pgd_weight_perturbation(model, fixture_8, PerturbConfig(steps=2))
        assert np.count_nonzero(eps[0]) == 0
        assert len(trace) == 2
        assert all(row.grad_norm < 1e-12 for row in trace)
        assert all(row.eps_norm == 0.0 for row in trace)


def overflowing_model(ds) -> GnnModel:
    """Finite weights whose logits overflow to inf on every node of ``ds``."""
    return GnnModel([np.full((ds.d, ds.num_classes), 1e308)], dropout_rate=0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteAscent:
    def test_weight_loop_raises_on_a_nan_gradient_norm(self, fixture_8):
        with pytest.raises(
            FloatingPointError,
            match="weight ascent step 0: non-finite gradient norm on layer w0",
        ):
            pgd_weight_perturbation(overflowing_model(fixture_8), fixture_8, PerturbConfig())

    def test_feature_loop_raises_on_non_finite_logits(self, fixture_8):
        with pytest.raises(FloatingPointError, match="feature ascent step 0: non-finite logits"):
            pgd_feature_perturbation(overflowing_model(fixture_8), fixture_8, PerturbConfig())


# name -> (rho_x, beta, steps, whether some entry ends on the ball's face)
CLAMP_SCHEDULES = {
    "binds_from_step_3": (0.05, 0.02, 4, True),
    "never_binds": (0.2, 0.02, 3, False),
    "binds_from_step_1": (0.01, 0.02, 3, True),
    # 0.1 + 0.1 + 0.1 is 0.30000000000000004, so the third step must clamp.
    "float_sum_boundary": (0.3, 0.1, 3, True),
    # The ascent reaches rho_x exactly, where the skipped clamp is an identity.
    "reach_equals_rho": (0.5, 0.25, 2, True),
    # Six sums of 0.01 give 0.060000000000000005 but 6 * 0.01 is 0.06: a reach
    # bounded by the product would skip the clamp that the sixth step needs.
    "running_sum_above_product": (0.06, 0.01, 6, True),
}


def reference_loop_cases():
    for dataset in ("fixture_8", "small_sbm"):
        for depth, hidden in (("2-layer", (5,)), ("3-layer", (6, 4))):
            for name, schedule in CLAMP_SCHEDULES.items():
                # The first schedule is untagged, so its four ids stay stable.
                tag = "" if name == "binds_from_step_3" else f"-{name}"
                yield pytest.param(dataset, hidden, *schedule, id=f"{dataset}-{depth}{tag}")


class TestFeaturePgd:
    @pytest.mark.parametrize(
        "dataset,hidden,rho_x,beta,steps,on_face", reference_loop_cases()
    )
    def test_matches_reference_loop(
        self, dataset, hidden, rho_x, beta, steps, on_face, request
    ):
        ds = request.getfixturevalue(dataset)
        snapshot = ds.features.tobytes()
        model = init_model([ds.d, *hidden, ds.num_classes], make_rng(9), dropout_rate=0.0)
        cfg = PerturbConfig(rho_x=rho_x, beta=beta, steps=steps)
        got, trace = pgd_feature_perturbation(model, ds, cfg)
        eps, want_trace = reference_feature_pgd(model, ds, cfg)
        assert got.tobytes() == eps.tobytes()
        assert np.any(np.abs(eps) == cfg.rho_x) == on_face
        assert [
            (r.step, r.layer, r.grad_norm, r.eps_norm, r.loss) for r in trace
        ] == want_trace
        assert ds.features.tobytes() == snapshot
        assert got.flags.owndata and not np.shares_memory(got, ds.features)

    @pytest.mark.parametrize("beta", [0.0, 0.02])
    def test_negative_zero_features_match_the_reference(self, small_sbm, beta):
        # Step 0 runs on X itself, where the reference runs on X + 0.0 (whose
        # -0.0 entries are +0.0); with beta=0 every step is +-0.0 and eps
        # must still come out +0.0.
        ds = small_sbm
        x = ds.features.copy()
        x[::3] = -0.0
        x[1::5, 0] = -0.0
        ds = make_dataset(ds.adjacency, x, ds.labels, ds.num_classes,
                          ds.train_mask, ds.val_mask, ds.test_mask)
        model = init_model([ds.d, 5, 2], make_rng(9), dropout_rate=0.0)
        cfg = PerturbConfig(rho_x=0.05, beta=beta, steps=2)
        got, trace = pgd_feature_perturbation(model, ds, cfg)
        eps, want_trace = reference_feature_pgd(model, ds, cfg)
        assert got.tobytes() == eps.tobytes()
        assert [
            (r.step, r.layer, r.grad_norm, r.eps_norm, r.loss) for r in trace
        ] == want_trace
        assert got.flags.owndata and not np.shares_memory(got, ds.features)

    @given(
        beta=st.floats(0.0, 0.5),
        rho_x=st.floats(1e-3, 1.0),
        steps=st.integers(1, 5),
        blocks=st.integers(1, 3),
        chunk_rows=st.integers(1, 16),
    )
    # Three sums of 0.1 exceed 0.3: the third step must clamp.
    @example(beta=0.1, rho_x=0.3, steps=3, blocks=2, chunk_rows=7)
    @settings(max_examples=60, deadline=None)
    def test_blocked_sweep_matches_clip_every_step(
        self, small_sbm, beta, rho_x, steps, blocks, chunk_rows
    ):
        model = init_model([small_sbm.d, 5, 2], make_rng(9), dropout_rate=0.0)
        cfg = PerturbConfig(rho_x=rho_x, beta=beta, steps=steps)
        want, _ = reference_feature_pgd(model, small_sbm, cfg)
        with row_blocks(blocks, chunk=chunk_rows * small_sbm.d):
            got, _ = pgd_feature_perturbation(model, small_sbm, cfg)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "rho_x,clips", [(0.2, 0), (0.03, 2)], ids=["never_binds", "binds_from_step_2"]
    )
    def test_clamps_only_once_the_ascent_can_reach_the_ball(
        self, rho_x, clips, fixture_8, monkeypatch
    ):
        model = init_model([fixture_8.d, 5, 2], make_rng(2), dropout_rate=0.0)
        calls = []
        real_clip = np.clip

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return real_clip(*args, **kwargs)

        monkeypatch.setattr(np, "clip", spy)
        pgd_feature_perturbation(
            model, fixture_8, PerturbConfig(rho_x=rho_x, beta=0.02, steps=3)
        )
        # Steps reach 0.02, 0.04 and 0.06: at rho_x=0.03 the last two clamp.
        assert calls == [fixture_8.features.shape] * clips

    def test_peak_memory_is_three_feature_arrays(self, wide_sbm):
        model = init_model([wide_sbm.d, 16, 2], make_rng(1), dropout_rate=0.0)
        cfg = PerturbConfig(rho_x=0.05, beta=0.02, steps=3)
        peak = peak_traced_bytes(
            lambda: pgd_feature_perturbation(model, wide_sbm, cfg)
        )
        # eps, X + eps and one feature gradient; n x hidden arrays are ~5% each.
        assert peak < 3.5 * wide_sbm.features.nbytes

    def test_traced_peak_memory_is_three_feature_arrays(self, wide_sbm):
        model = init_model([wide_sbm.d, 16, 2], make_rng(1), dropout_rate=0.0)
        cfg = PerturbConfig(rho_x=0.05, beta=0.02, steps=3)
        trace = []
        peak = peak_traced_bytes(
            lambda: trace.extend(pgd_feature_perturbation(model, wide_sbm, cfg)[1])
        )
        # The trace's max-abs norms of the gradient and of eps add no n x d array.
        assert len(trace) == cfg.steps
        assert peak < 3.5 * wide_sbm.features.nbytes

    def test_peak_memory_is_two_feature_arrays(self, wide_sbm):
        model = init_model([wide_sbm.d, 16, 2], make_rng(1), dropout_rate=0.0)
        cfg = PerturbConfig(rho_x=0.05, beta=0.02, steps=3)
        peak = peak_traced_bytes(
            lambda: pgd_feature_perturbation(model, wide_sbm, cfg)
        )
        # eps and X + eps, which takes each feature gradient in turn.
        assert peak < 2.5 * wide_sbm.features.nbytes

    def test_traced_peak_memory_is_two_feature_arrays(self, wide_sbm):
        model = init_model([wide_sbm.d, 16, 2], make_rng(1), dropout_rate=0.0)
        cfg = PerturbConfig(rho_x=0.05, beta=0.02, steps=3)
        trace = []
        peak = peak_traced_bytes(
            lambda: trace.extend(pgd_feature_perturbation(model, wide_sbm, cfg)[1])
        )
        assert len(trace) == cfg.steps
        assert peak < 2.5 * wide_sbm.features.nbytes

    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_split_sweeps_match_the_reference_at_every_step(self, small_sbm, steps):
        # Two threads on six-row ranges of three-row chunks; the clamp binds at
        # the third step.
        model = init_model([small_sbm.d, 5, 2], make_rng(9), dropout_rate=0.0)
        cfg = PerturbConfig(rho_x=0.05, beta=0.02, steps=steps)
        want, want_trace = reference_feature_pgd(model, small_sbm, cfg)
        with row_blocks(2, chunk=3 * small_sbm.d):
            got, trace = pgd_feature_perturbation(model, small_sbm, cfg)
        assert got.tobytes() == want.tobytes()
        assert [
            (r.step, r.layer, r.grad_norm, r.eps_norm, r.loss) for r in trace
        ] == want_trace

    @pytest.mark.parametrize("where", ["max_in_first_chunk", "min_in_last_chunk", "nan"])
    @pytest.mark.parametrize("width", [1, 2])
    def test_trace_norms_are_lp_norms_over_every_chunk(
        self, small_sbm, monkeypatch, width, where
    ):
        # A planted gradient over 14 three-row chunks, on ``width`` threads.
        ds = small_sbm
        planted = make_rng(3).standard_normal(ds.features.shape)
        row, value = {"max_in_first_chunk": (0, 50.0), "min_in_last_chunk": (-1, -50.0),
                      "nan": (ds.n // 2, np.nan)}[where]
        planted[row, 1] = value

        def planting_backward(*args, out, **kwargs):
            np.copyto(out, planted)
            return Gradients(None, out, 0.25)

        monkeypatch.setattr(perturb_mod, "backward", planting_backward)
        model = init_model([ds.d, 5, 2], make_rng(9), dropout_rate=0.0)
        with row_blocks(width, chunk=3 * ds.d):
            eps, trace = pgd_feature_perturbation(model, ds, PerturbConfig(steps=1))
        want = [lp_norm(planted, math.inf), lp_norm(eps, math.inf)]
        got = [trace[0].grad_norm, trace[0].eps_norm]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert math.isnan(got[0]) == (where == "nan")

    def test_single_step_is_sign_of_gradient(self, fixture_8):
        model = init_model([fixture_8.d, 5, 2], make_rng(2), dropout_rate=0.0)
        cfg = PerturbConfig(rho_x=1.0, beta=0.01, steps=1)
        eps, _ = pgd_feature_perturbation(model, fixture_8, cfg)
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
        eps, _ = pgd_feature_perturbation(model, ds, PerturbConfig(steps=3))
        assert np.array_equal(eps[3:], np.zeros((3, 3)))
        assert np.abs(eps[:3]).max() > 0

    def test_large_beta_saturates_touched_entries(self, fixture_8):
        model = init_model([fixture_8.d, 5, 2], make_rng(4), dropout_rate=0.0)
        cfg = PerturbConfig(rho_x=0.01, beta=0.05, steps=3)
        eps, _ = pgd_feature_perturbation(model, fixture_8, cfg)
        touched = eps != 0.0
        assert touched.any()
        assert np.all(np.abs(eps[touched]) == cfg.rho_x)

    def test_ball_containment_and_feature_immutability(self, fixture_8):
        snapshot = fixture_8.features.tobytes()
        for seed in range(10):
            model = init_model([fixture_8.d, 4, 2], make_rng(seed), dropout_rate=0.0)
            cfg = PerturbConfig(rho_x=0.03, beta=0.02, steps=3)
            eps, _ = pgd_feature_perturbation(model, fixture_8, cfg)
            assert lp_norm(eps, math.inf) <= cfg.rho_x + 1e-12
        assert fixture_8.features.tobytes() == snapshot

    def test_zero_beta_gives_exact_zero(self, fixture_8):
        model = init_model([fixture_8.d, 4, 2], make_rng(3), dropout_rate=0.0)
        eps, _ = pgd_feature_perturbation(
            model, fixture_8, PerturbConfig(beta=0.0, steps=3)
        )
        assert np.count_nonzero(eps) == 0

    def test_statistical_ascent_on_fixture(self, fixture_8):
        cfg = PerturbConfig(rho_x=0.05, beta=0.03, steps=3)
        wins = 0
        for seed in range(100):
            model = init_model([fixture_8.d, 4, 2], make_rng(seed), dropout_rate=0.0)
            eps, _ = pgd_feature_perturbation(model, fixture_8, cfg)
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
            eps_w, _ = pgd_weight_perturbation(model, fixture_8, cfg)
            w_eff = [w + e for w, e in zip(model.weights, eps_w)]
            deltas_w.append(train_loss(model, fixture_8, w_eff=w_eff) - base)
            eps_x, _ = pgd_feature_perturbation(model, fixture_8, cfg)
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
