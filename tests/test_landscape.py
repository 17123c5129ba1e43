import contextlib
import math
from concurrent.futures import Future

import numpy as np
import pytest

from capgnn import landscape, linalg
from capgnn.graph import SbmParams, generate_sbm
from capgnn.landscape import (
    DirectionSet,
    LandscapeProfile,
    gaussian_attack_trials,
    probe_landscape,
    sample_directions,
    sharpness,
)
from capgnn.linalg import lp_norm, make_rng
from capgnn.model import GnnModel, accuracy, forward, init_model, masked_cross_entropy

from conftest import clean_metrics, peak_traced_bytes, row_blocks


def count_forwards(monkeypatch) -> list:
    """Record ``(x_eff, first)`` of every forward that landscape runs, each as
    its bytes when the forward starts, or None."""
    seen = []

    def spy(model, a_hat, x_eff, *args, first=None, **kwargs):
        seen.append(tuple(None if a is None else a.tobytes() for a in (x_eff, first)))
        return forward(model, a_hat, x_eff, *args, first=first, **kwargs)

    monkeypatch.setattr(landscape, "forward", spy)
    return seen


@contextlib.contextmanager
def lagging_pool():
    """Two-wide, with every pool task run only once its caller waits for it.

    So the attack draws every range before the pool has read any, as on a
    pool whose CPU is busy elsewhere.
    """
    queued, finish = [], linalg._finish

    def submit(fn, *args):
        future = Future()
        queued.append((future, fn, args))
        return future

    def run_then_finish(futures):
        while queued:
            future, fn, args = queued.pop(0)
            if future.set_running_or_notify_cancel():
                future.set_result(fn(*args))
        finish(futures)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_WIDTH", 2)
        mp.setattr(linalg, "_submit", submit)
        mp.setattr(linalg, "_finish", run_then_finish)
        yield


@pytest.fixture(scope="module")
def three_chunks():
    """600 nodes, d=500, 64 hidden: X @ W0 is cut into three 192-row-aligned ranges."""
    ds = generate_sbm(
        SbmParams((300, 300), 0.02, 0.004, 1.0, feature_dim=500), make_rng(13)
    )
    model = init_model([ds.d, 64, 2], make_rng(2), dropout_rate=0.0)
    assert linalg._dense_cuts(ds.features, 64) == [0, 192, 384, 600]
    return ds, model


def grid(lo=-1.0, hi=1.0, num=9):
    g = np.linspace(lo, hi, num)
    g[np.abs(g) < 1e-12] = 0.0
    return g


class TestSampleDirections:
    def test_weight_directions_match_layer_norms(self, trained_small):
        dirs = sample_directions(trained_small, "weight", 4, make_rng(0))
        assert len(dirs.directions) == 4
        for per_layer in dirs.directions:
            for d, w in zip(per_layer, trained_small.weights):
                assert lp_norm(d, 2) == pytest.approx(lp_norm(w, 2), rel=1e-10)

    def test_zero_layer_gets_zero_direction(self):
        model = GnnModel([np.zeros((3, 4)), np.ones((4, 2))], dropout_rate=0.0)
        dirs = sample_directions(model, "weight", 2, make_rng(1))
        for per_layer in dirs.directions:
            assert np.count_nonzero(per_layer[0]) == 0
            assert lp_norm(per_layer[1], 2) == pytest.approx(
                lp_norm(model.weights[1], 2), rel=1e-10
            )

    def test_feature_direction_matches_matrix_norm(self, small_sbm):
        dirs = sample_directions(small_sbm.features, "feature", 3, make_rng(2))
        want = lp_norm(small_sbm.features, 2)
        for d in dirs.directions:
            assert lp_norm(d, 2) == pytest.approx(want, rel=1e-10)

    def test_a_feature_direction_holds_one_feature_array(self, wide_sbm):
        # Each direction is drawn, summed and scaled in place, so two peak at
        # ~2.1 feature arrays; a draw, its square and a scaled copy per
        # direction would peak at ~4.
        features = wide_sbm.features
        peak = peak_traced_bytes(
            lambda: sample_directions(features, "feature", 2, make_rng(4))
        )
        assert peak < 2.5 * features.nbytes

    def test_deterministic_given_seed(self, small_sbm):
        a = sample_directions(small_sbm.features, "feature", 2, make_rng(5))
        b = sample_directions(small_sbm.features, "feature", 2, make_rng(5))
        for da, db in zip(a.directions, b.directions):
            assert da.tobytes() == db.tobytes()

    def test_rejects_bad_args(self, trained_small):
        with pytest.raises(ValueError):
            sample_directions(trained_small, "weight", 0, make_rng(0))
        with pytest.raises(ValueError):
            sample_directions(trained_small, "spectral", 1, make_rng(0))


class TestProbeLandscape:
    @pytest.mark.parametrize("kind", ["weight", "feature"])
    def test_zero_alpha_column_is_bit_exact(self, kind, small_sbm, trained_small):
        source = trained_small if kind == "weight" else small_sbm.features
        dirs = sample_directions(source, kind, 3, make_rng(7))
        profile = probe_landscape(trained_small, small_sbm, dirs, grid())
        base = masked_cross_entropy(
            forward(trained_small, small_sbm.a_hat, small_sbm.features).logits,
            small_sbm.labels,
            small_sbm.train_mask,
        )
        zero_col = profile.losses[:, list(profile.alphas).index(0.0)]
        assert all(v == base for v in zero_col)

    @pytest.mark.parametrize("kind", ["weight", "feature"])
    def test_one_clean_forward_per_call(self, kind, monkeypatch, small_sbm, trained_small):
        source = trained_small if kind == "weight" else small_sbm.features
        dirs = sample_directions(source, kind, 3, make_rng(7))
        alphas = grid(num=5)
        seen = count_forwards(monkeypatch)
        profile = probe_landscape(trained_small, small_sbm, dirs, alphas)
        assert len(seen) == 3 * (len(alphas) - 1) + 1

        # Reference: one forward per grid point, alpha=0 included.
        ds, model = small_sbm, trained_small
        for i, direction in enumerate(dirs.directions):
            for j, alpha in enumerate(alphas):
                if kind == "weight":
                    ws = [w + alpha * d for w, d in zip(model.weights, direction)]
                    cache = forward(model, ds.a_hat, ds.features, ws)
                else:
                    cache = forward(model, ds.a_hat, ds.features + alpha * direction)
                want = masked_cross_entropy(cache.logits, ds.labels, ds.train_mask)
                assert profile.losses[i, j] == want

    def test_split_feature_sweep_matches_one_block_and_reference(
        self, monkeypatch, wide_sbm
    ):
        # Two threads on three-row ranges, against five 240-row ranges.
        ds = wide_sbm
        model = init_model([ds.d, 16, 2], make_rng(1), dropout_rate=0.0)
        dirs = sample_directions(ds.features, "feature", 2, make_rng(3))
        alphas = grid(num=5)
        one = probe_landscape(model, ds, dirs, alphas)
        seen = count_forwards(monkeypatch)
        with row_blocks(2, chunk=3 * ds.d):
            split = probe_landscape(model, ds, dirs, alphas)
        assert split.losses.tobytes() == one.losses.tobytes()
        displaced = iter(seen[1:])  # seen[0] is the clean forward
        for i, direction in enumerate(dirs.directions):
            for j, alpha in enumerate(alphas):
                if alpha == 0.0:
                    continue
                x = ds.features + alpha * direction
                assert next(displaced) == (None, np.matmul(x, model.weights[0]).tobytes())
                logits = forward(model, ds.a_hat, x).logits
                assert split.losses[i, j] == masked_cross_entropy(
                    logits, ds.labels, ds.train_mask
                )

    @pytest.mark.parametrize("width", [1, 2])
    def test_chunked_products_match_reference(self, monkeypatch, three_chunks, width):
        # Three ranges, built and multiplied inline at width 1, on two threads at 2.
        ds, model = three_chunks
        dirs = sample_directions(ds.features, "feature", 2, make_rng(3))
        alphas = grid(num=3)
        monkeypatch.setattr(linalg, "_WIDTH", width)
        seen = count_forwards(monkeypatch)
        profile = probe_landscape(model, ds, dirs, alphas)
        displaced = iter(seen[1:])
        for i, direction in enumerate(dirs.directions):
            for j in (0, 2):
                x = ds.features + alphas[j] * direction
                assert next(displaced) == (None, np.matmul(x, model.weights[0]).tobytes())
                logits = forward(model, ds.a_hat, x).logits
                assert profile.losses[i, j] == masked_cross_entropy(
                    logits, ds.labels, ds.train_mask)

    def test_a_float32_direction_is_computed_in_float64(self, small_sbm, trained_small):
        # Each alpha is a numpy float64, so numpy multiplies a float32 row in
        # float64 and adds it to the features in the float64 range buffer.
        drawn = sample_directions(small_sbm.features, "feature", 2, make_rng(8)).directions
        low = [d.astype(np.float32) for d in drawn]
        got, want = (
            probe_landscape(trained_small, small_sbm, DirectionSet("feature", dirs), grid())
            for dirs in (low, [d.astype(np.float64) for d in low]))
        assert got.losses.tobytes() == want.losses.tobytes()

    def test_feature_direction_of_another_shape_rejected(
        self, small_sbm, trained_small, monkeypatch
    ):
        # Longer by 7 rows: the ranges would read only the first n of them.
        n, d = small_sbm.features.shape
        dirs = DirectionSet("feature", [np.ones((n, d)), np.ones((n + 7, d))])
        with pytest.raises(ValueError, match=rf"feature direction 1 is \({n + 7}, {d}\)"):
            probe_landscape(trained_small, small_sbm, dirs, grid())
        # A kind sample_directions does not draw, refused before any forward.
        seen = count_forwards(monkeypatch)
        with pytest.raises(ValueError, match="kind must be 'weight' or 'feature'"):
            probe_landscape(trained_small, small_sbm,
                            DirectionSet("spectral", [np.ones((n, d))]), grid())
        assert seen == []

    def test_weight_direction_of_another_shape_rejected(self, small_sbm, trained_small):
        # One row where the layer has d: w + alpha * d would broadcast it.
        ws = trained_small.weights
        bad = [np.ones((1, ws[0].shape[1])), np.ones(ws[1].shape)]
        for direction, error in (
            (bad, r"weight direction 0 layer 0 is \(1, 16\), layer is"),
            (bad[1:], r"weight direction 0 has 1 layers, model has 2"),
        ):
            with pytest.raises(ValueError, match=error):
                probe_landscape(trained_small, small_sbm,
                                DirectionSet("weight", [direction]), grid())

    def test_zero_directions_give_constant_profile(self, small_sbm, trained_small):
        dirs = sample_directions(trained_small, "weight", 2, make_rng(0))
        zeroed = type(dirs)(
            kind="weight",
            directions=[[np.zeros_like(d) for d in per] for per in dirs.directions],
        )
        profile = probe_landscape(trained_small, small_sbm, zeroed, grid())
        assert np.all(profile.losses == profile.losses[:, :1])

    def test_losses_shape_and_nonnegative(self, small_sbm, trained_small):
        dirs = sample_directions(trained_small, "weight", 5, make_rng(3))
        alphas = grid(num=7)
        profile = probe_landscape(trained_small, small_sbm, dirs, alphas)
        assert profile.losses.shape == (5, 7)
        assert (profile.losses >= 0).all()

    def test_feature_probe_peak_memory_is_one_feature_array(self, wide_sbm):
        model = init_model([wide_sbm.d, 16, 2], make_rng(1), dropout_rate=0.0)
        dirs = sample_directions(wide_sbm.features, "feature", 2, make_rng(3))
        peak = peak_traced_bytes(
            lambda: probe_landscape(model, wide_sbm, dirs, grid(num=5))
        )
        # One displaced-feature buffer for every alpha; n x hidden arrays are ~5% each.
        assert peak < 1.5 * wide_sbm.features.nbytes

    def test_probe_does_not_mutate_model_or_data(self, small_sbm, trained_small):
        w_before = [w.tobytes() for w in trained_small.weights]
        x_before = small_sbm.features.tobytes()
        dirs = sample_directions(trained_small, "weight", 2, make_rng(1))
        probe_landscape(trained_small, small_sbm, dirs, grid())
        assert [w.tobytes() for w in trained_small.weights] == w_before
        assert small_sbm.features.tobytes() == x_before

    def test_trained_model_sits_near_a_local_minimum(self, small_sbm, trained_small):
        dirs = sample_directions(trained_small, "weight", 50, make_rng(42))
        alphas = np.array([-0.5, 0.0, 0.5])
        profile = probe_landscape(trained_small, small_sbm, dirs, alphas)
        base = profile.losses[:, 1]
        ok = (profile.losses[:, 0] >= base) & (profile.losses[:, 2] >= base)
        assert ok.mean() >= 0.9

    def test_grid_validation(self, small_sbm, trained_small):
        dirs = sample_directions(trained_small, "weight", 1, make_rng(0))
        with pytest.raises(ValueError, match="contain 0"):
            probe_landscape(trained_small, small_sbm, dirs, np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match="increasing"):
            probe_landscape(trained_small, small_sbm, dirs, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="loss_mask"):
            probe_landscape(
                trained_small, small_sbm, dirs, grid(), loss_mask="val"
            )

    def test_test_mask_probing(self, small_sbm, trained_small):
        dirs = sample_directions(trained_small, "weight", 2, make_rng(0))
        a = probe_landscape(trained_small, small_sbm, dirs, grid(), loss_mask="train")
        b = probe_landscape(trained_small, small_sbm, dirs, grid(), loss_mask="test")
        assert (a.losses != b.losses).any()


class TestSharpness:
    def test_constant_profile_is_flat(self):
        profile = LandscapeProfile(grid(num=5), np.full((3, 5), 2.5))
        assert sharpness(profile, 0.5) == 0.0

    def test_single_direction_arithmetic(self):
        alphas = np.array([-0.5, 0.0, 0.5])
        profile = LandscapeProfile(alphas, np.array([[2.0, 1.0, 2.0]]))
        assert sharpness(profile, 0.5) == 1.0

    def test_quadratic_profile_scales_with_square(self):
        alphas = grid(num=21)
        c = 3.7
        losses = np.tile(c * alphas**2, (4, 1))
        profile = LandscapeProfile(alphas, losses)
        assert sharpness(profile, 0.5) == pytest.approx(c * 0.25, rel=1e-12)
        assert sharpness(profile, 1.0) == pytest.approx(c, rel=1e-12)

    def test_missing_reference_point_rejected(self):
        profile = LandscapeProfile(grid(num=5), np.zeros((1, 5)))
        with pytest.raises(ValueError, match="grid"):
            sharpness(profile, 0.3)


class TestGeneralizationGap:
    def test_perfect_model_has_zero_gap(self):
        # Edgeless graph with exact one-hot features: the identity map
        # classifies every node, so train and test accuracy are both 1.
        from capgnn.graph import SbmParams, generate_sbm

        ds = generate_sbm(SbmParams((5, 5), 0.0, 0.0, 0.0), make_rng(0))
        model = GnnModel([np.eye(2)], dropout_rate=0.0)
        _, train_acc, _, test_acc = clean_metrics(model, ds)
        assert train_acc == 1.0
        assert train_acc - test_acc == 0.0

    def test_gap_is_train_minus_test(self, small_sbm, trained_small):
        _, train_acc, _, test_acc = clean_metrics(trained_small, small_sbm)
        logits = forward(trained_small, small_sbm.a_hat, small_sbm.features).logits
        want = accuracy(logits, small_sbm.labels, small_sbm.train_mask) - accuracy(
            logits, small_sbm.labels, small_sbm.test_mask
        )
        assert train_acc - test_acc == want


class TestGaussianAttack:
    def test_zero_sigma_equals_clean_accuracy(self, small_sbm, trained_small):
        clean = clean_metrics(trained_small, small_sbm)[3]
        accs = gaussian_attack_trials(trained_small, small_sbm, 0.0, 5, make_rng(3))
        assert np.array_equal(accs, np.full(5, clean))

    def test_same_seed_same_mean(self, small_sbm, trained_small):
        a = gaussian_attack_trials(trained_small, small_sbm, 0.7, 8, make_rng(11))
        b = gaussian_attack_trials(trained_small, small_sbm, 0.7, 8, make_rng(11))
        assert np.mean(a) == np.mean(b)

    def test_huge_noise_approaches_chance(self, small_sbm, trained_small):
        accs = gaussian_attack_trials(trained_small, small_sbm, 1e3, 40, make_rng(5))
        assert abs(np.mean(accs) - 0.5) <= 0.1  # two classes

    @pytest.mark.parametrize("split", [False, True])
    def test_noise_matches_reference_draws(self, monkeypatch, wide_sbm, split):
        # split: two threads on three-row ranges, against five 240-row ranges.
        ds = wide_sbm
        model = init_model([ds.d, 16, 2], make_rng(1), dropout_rate=0.0)
        one = gaussian_attack_trials(model, ds, 0.7, 3, make_rng(9))
        seen = count_forwards(monkeypatch)
        with row_blocks(2, chunk=3 * ds.d) if split else contextlib.nullcontext():
            accs = gaussian_attack_trials(model, ds, 0.7, 3, make_rng(9))
        assert accs.tobytes() == one.tobytes()
        rng = make_rng(9)
        for t in range(3):
            noisy = ds.features + 0.7 * rng.standard_normal(ds.features.shape)
            assert seen[t] == (None, np.matmul(noisy, model.weights[0]).tobytes())
            logits = forward(model, ds.a_hat, noisy).logits
            assert accs[t] == accuracy(logits, ds.labels, ds.test_mask)

    def test_peak_memory_is_one_feature_array(self, wide_sbm):
        model = init_model([wide_sbm.d, 16, 2], make_rng(1), dropout_rate=0.0)
        peak = peak_traced_bytes(
            lambda: gaussian_attack_trials(model, wide_sbm, 0.5, 2, make_rng(0))
        )
        # One noisy-feature buffer for all trials; n x hidden arrays are ~5% each.
        assert peak < 1.5 * wide_sbm.features.nbytes

    def test_validation(self, small_sbm, trained_small):
        with pytest.raises(ValueError):
            gaussian_attack_trials(trained_small, small_sbm, -1.0, 3, make_rng(0))
        with pytest.raises(ValueError):
            gaussian_attack_trials(trained_small, small_sbm, 1.0, 0, make_rng(0))
        for sigma in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                gaussian_attack_trials(trained_small, small_sbm, sigma, 3, make_rng(0))
        wider = init_model([small_sbm.d + 1, 4, 2], make_rng(0))
        with pytest.raises(ValueError, match="features must be"):
            gaussian_attack_trials(wider, small_sbm, 1.0, 3, make_rng(0))

    @pytest.mark.parametrize("width", [1, 2])
    def test_streamed_chunks_match_reference_draws(self, monkeypatch, three_chunks, width):
        ds, model = three_chunks
        monkeypatch.setattr(linalg, "_WIDTH", width)  # pool, or inline at width 1
        seen = count_forwards(monkeypatch)
        rng, ref = make_rng(9), make_rng(9)
        accs = gaussian_attack_trials(model, ds, 0.7, 2, rng)
        for t in range(2):
            noisy = ds.features + 0.7 * ref.standard_normal(ds.features.shape)
            assert seen[t] == (None, np.matmul(noisy, model.weights[0]).tobytes())
            logits = forward(model, ds.a_hat, noisy).logits
            assert accs[t] == accuracy(logits, ds.labels, ds.test_mask)
        assert rng.random() == ref.random()

    def test_a_lagging_pool_reads_every_range_as_drawn(self, monkeypatch, three_chunks):
        # Every range is drawn before the pool multiplies any, so no buffer
        # may be drawn into again before its product is written.
        ds, model = three_chunks
        want = gaussian_attack_trials(model, ds, 0.7, 2, make_rng(9))
        seen = count_forwards(monkeypatch)
        with lagging_pool():
            got = gaussian_attack_trials(model, ds, 0.7, 2, make_rng(9))
        assert got.tobytes() == want.tobytes()
        ref = make_rng(9)
        for t in range(2):
            noisy = ds.features + 0.7 * ref.standard_normal(ds.features.shape)
            assert seen[t] == (None, np.matmul(noisy, model.weights[0]).tobytes())


class TestFeatureSideMemory:
    """Bytes the feature-side passes allocate beyond their inputs, against X's.

    Neither builds an n x d array: each range's displaced rows go into a
    buffer of that range's size, and every n x hidden array into the
    call's workspace, an anonymous map that ``tracemalloc`` does not see.
    """

    @pytest.mark.parametrize("run", ["profile", "attack"])
    def test_one_range_at_a_time_inline(self, monkeypatch, three_chunks, run):
        ds, model = three_chunks
        dirs = sample_directions(ds.features, "feature", 2, make_rng(3))
        monkeypatch.setattr(linalg, "_WIDTH", 1)
        call = {
            "profile": lambda: probe_landscape(model, ds, dirs, grid(num=3)),
            "attack": lambda: gaussian_attack_trials(model, ds, 0.5, 2, make_rng(0)),
        }[run]
        # The 216-row last range's buffer is 0.36 of X.
        assert peak_traced_bytes(call) < 0.5 * ds.features.nbytes

    def test_a_lagging_pool_holds_one_feature_array(self, three_chunks):
        # Every range drawn before any is read: one buffer per range, X's rows in all.
        ds, model = three_chunks
        with lagging_pool():
            peak = peak_traced_bytes(
                lambda: gaussian_attack_trials(model, ds, 0.5, 2, make_rng(0)))
        assert ds.features.nbytes < peak < 1.1 * ds.features.nbytes

