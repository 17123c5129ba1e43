import math
import re

import numpy as np
import pytest

from capgnn.graph import SbmParams, generate_sbm, make_dataset
from capgnn.linalg import CsrMatrix, make_rng
from capgnn.model import (
    GnnModel,
    accuracy,
    backward,
    evaluate,
    forward,
    init_model,
    load_model,
    masked_cross_entropy,
    save_model,
)

from conftest import CHECKPOINT_CORRUPTIONS, corrupt_checkpoint, two_node_dataset
from oracles import (
    assert_close_to_fd,
    fd_feature_grad,
    fd_weight_grad,
    random_instance,
)


class TestGradientsAgainstFiniteDifferences:
    @pytest.mark.parametrize("seed", range(6))
    def test_weight_and_feature_grads(self, seed):
        model, ds = random_instance(seed)
        cache = forward(model, ds.a_hat, ds.features, training=False)
        grads = backward(
            model, ds.a_hat, ds.features, None, cache, ds.labels, ds.train_mask
        )
        for layer in range(model.depth):
            fd = fd_weight_grad(
                model, ds.a_hat, ds.features, ds.labels, ds.train_mask, layer
            )
            assert_close_to_fd(grads.d_weights[layer], fd)
        fd_x = fd_feature_grad(model, ds.a_hat, ds.features, ds.labels, ds.train_mask)
        assert_close_to_fd(grads.d_features, fd_x)

    def test_saturated_predictions_give_near_zero_gradients(self):
        ds = two_node_dataset()
        # One layer mapping the one-hot features straight to huge correct logits.
        model = GnnModel([np.eye(2) * 200.0], dropout_rate=0.0)
        cache = forward(model, CsrMatrix.identity(2), ds.features, training=False)
        grads = backward(
            model, CsrMatrix.identity(2), ds.features, None, cache,
            ds.labels, np.array([True, True]),
        )
        assert np.max(np.abs(grads.d_weights[0])) < 1e-8
        assert np.max(np.abs(grads.d_features)) < 1e-8

    def test_out_of_receptive_field_rows_exactly_zero(self):
        # Two disconnected triangles; only the first is supervised. With two
        # layers, nodes of the second triangle cannot reach any masked node.
        us = [0, 1, 2, 3, 4, 5]
        vs = [1, 2, 0, 4, 5, 3]
        adj = CsrMatrix.from_coo(6, 6, us + vs, vs + us, np.ones(12))
        rng = make_rng(0)
        x = rng.standard_normal((6, 3))
        labels = np.array([0, 1, 0, 1, 0, 1])
        mask = np.array([True, True, True, False, False, False])
        ds = make_dataset(adj, x, labels, 2, mask, np.zeros(6, bool), ~mask)
        model = init_model([3, 4, 2], rng, dropout_rate=0.0)
        cache = forward(model, ds.a_hat, ds.features, training=False)
        grads = backward(
            model, ds.a_hat, ds.features, None, cache, ds.labels, ds.train_mask
        )
        assert np.array_equal(grads.d_features[3:], np.zeros((3, 3)))
        assert np.abs(grads.d_features[:3]).max() > 0


class TestForward:
    def test_identity_composition(self):
        x = make_rng(1).standard_normal((3, 3))
        model = GnnModel([np.eye(3)], dropout_rate=0.0)
        cache = forward(model, CsrMatrix.identity(3), x, training=False)
        assert np.array_equal(cache.logits, x)

    def test_uniform_adjacency_averages_rows(self):
        a = CsrMatrix.from_dense(np.full((2, 2), 0.5))
        x = np.array([[2.0, 4.0], [6.0, 8.0]])
        model = GnnModel([np.eye(2)], dropout_rate=0.0)
        cache = forward(model, a, x, training=False)
        assert np.allclose(cache.logits, [[4.0, 6.0], [4.0, 6.0]], atol=1e-15)

    def test_inference_is_bit_deterministic(self, small_sbm):
        model = init_model([small_sbm.d, 8, small_sbm.num_classes], make_rng(2))
        a = forward(model, small_sbm.a_hat, small_sbm.features, training=False)
        b = forward(model, small_sbm.a_hat, small_sbm.features, training=False)
        assert a.logits.tobytes() == b.logits.tobytes()

    def test_dropout_requires_rng_and_changes_activations(self, small_sbm):
        model = init_model([small_sbm.d, 16, small_sbm.num_classes], make_rng(2))
        with pytest.raises(ValueError, match="rng"):
            forward(model, small_sbm.a_hat, small_sbm.features, training=True)
        a = forward(
            model, small_sbm.a_hat, small_sbm.features, training=True,
            rng=make_rng(3),
        )
        b = forward(model, small_sbm.a_hat, small_sbm.features, training=False)
        assert (a.logits != b.logits).any()

    def test_shape_mismatch_rejected(self, small_sbm):
        model = init_model([small_sbm.d + 1, 4, 2], make_rng(0))
        with pytest.raises(ValueError, match="features must be"):
            forward(model, small_sbm.a_hat, small_sbm.features, training=False)

    def test_equivariance_under_node_permutation(self):
        rng = make_rng(8)
        ds = generate_sbm(SbmParams((6, 6), 0.5, 0.2, 0.3), rng)
        model = init_model([ds.d, 5, ds.num_classes], rng, dropout_rate=0.0)
        base = forward(model, ds.a_hat, ds.features, training=False).logits
        perm = make_rng(9).permutation(ds.n)
        dense = ds.a_hat.to_dense()[np.ix_(perm, perm)]
        permuted = forward(
            model, CsrMatrix.from_dense(dense), ds.features[perm], training=False
        ).logits
        assert np.max(np.abs(permuted - base[perm])) <= 1e-10
        loss_a = masked_cross_entropy(base, ds.labels, ds.train_mask)
        loss_b = masked_cross_entropy(
            permuted, ds.labels[perm], ds.train_mask[perm]
        )
        assert loss_a == pytest.approx(loss_b, abs=1e-10)


class TestMaskedCrossEntropy:
    def test_uniform_logits_equal_log_k(self):
        logits = np.zeros((4, 3))
        labels = np.array([0, 1, 2, 0])
        got = masked_cross_entropy(logits, labels, np.ones(4, bool))
        assert got == pytest.approx(math.log(3.0), abs=1e-12)

    def test_confident_correct_prediction_is_near_zero(self):
        logits = np.array([[50.0, 0.0, 0.0]])
        assert masked_cross_entropy(logits, [0], [True]) < 1e-9

    def test_extreme_logits_stay_finite(self):
        got = masked_cross_entropy(np.array([[1000.0, 0.0]]), [0], [True])
        assert math.isfinite(got)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_loss_is_non_negative(self):
        rng = make_rng(4)
        for _ in range(20):
            logits = rng.standard_normal((5, 3)) * 3
            labels = rng.integers(0, 3, 5)
            assert masked_cross_entropy(logits, labels, np.ones(5, bool)) >= 0.0

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="mask"):
            masked_cross_entropy(np.zeros((2, 2)), [0, 1], [False, False])


class TestEvaluate:
    def test_perfect_predictor(self):
        labels = np.array([0, 2, 1])
        logits = np.eye(3)[labels]
        assert accuracy(logits, labels, np.ones(3, bool)) == 1.0

    def test_tie_break_picks_lowest_class(self):
        logits = np.zeros((3, 4))
        assert accuracy(logits, np.zeros(3, dtype=int), np.ones(3, bool)) == 1.0
        assert accuracy(logits, np.ones(3, dtype=int), np.ones(3, bool)) == 0.0

    def test_counting(self):
        logits = np.array([[1.0, 0], [1.0, 0], [1.0, 0], [0, 1.0], [9, 0]])
        labels = np.array([0, 0, 0, 0, 1])
        mask = np.array([True, True, True, True, False])
        assert accuracy(logits, labels, mask) == 0.75

    def test_evaluate_on_dataset(self, small_sbm, trained_small):
        acc = evaluate(trained_small, small_sbm, small_sbm.train_mask)
        assert 0.0 <= acc <= 1.0

    def test_empty_mask_rejected(self, small_sbm, trained_small):
        with pytest.raises(ValueError):
            evaluate(trained_small, small_sbm, np.zeros(small_sbm.n, bool))


class TestInitModel:
    def test_glorot_bound_and_shapes(self):
        model = init_model([500, 64, 3], make_rng(0))
        assert model.weights[0].shape == (500, 64)
        assert model.weights[1].shape == (64, 3)
        assert np.abs(model.weights[0]).max() <= math.sqrt(6.0 / 564.0)
        assert np.abs(model.weights[1]).max() <= math.sqrt(6.0 / 67.0)

    def test_deterministic(self):
        a = init_model([5, 4, 2], make_rng(3))
        b = init_model([5, 4, 2], make_rng(3))
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()

    def test_single_layer_model_allowed(self):
        model = init_model([4, 4], make_rng(0))
        assert model.depth == 1

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            init_model([4], make_rng(0))
        with pytest.raises(ValueError):
            init_model([4, 0, 2], make_rng(0))


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        model = init_model([7, 5, 3], make_rng(13), dropout_rate=0.3)
        path = tmp_path / "ckpt.json"
        save_model(model, path)
        back = load_model(path)
        assert back.layer_dims == model.layer_dims
        assert back.dropout_rate == model.dropout_rate
        for wa, wb in zip(model.weights, back.weights):
            assert wa.tobytes() == wb.tobytes()

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError, match="checkpoint"):
            load_model(path)

    @pytest.mark.parametrize("case", sorted(CHECKPOINT_CORRUPTIONS))
    def test_rejects_malformed_checkpoint_naming_path(self, tmp_path, case):
        good = tmp_path / "good.json"
        save_model(init_model([7, 5, 3], make_rng(13)), good)
        bad = tmp_path / "bad.json"
        fragment = corrupt_checkpoint(good, bad, case)
        with pytest.raises(ValueError, match=re.escape(str(bad))) as info:
            load_model(bad)
        assert fragment in str(info.value)
