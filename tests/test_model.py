import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from capgnn import linalg
from capgnn.graph import SbmParams, generate_sbm, make_dataset
from capgnn.linalg import CsrMatrix, make_rng, spmm
from capgnn.model import (
    ForwardCache,
    GnnModel,
    _loss_grad_logits,
    _workspace,
    accuracy,
    backward,
    forward,
    init_model,
    load_model,
    masked_cross_entropy,
    save_model,
    split_metrics,
)

from conftest import (
    CHECKPOINT_CORRUPTIONS,
    corrupt_checkpoint,
    peak_traced_bytes,
    row_blocks,
    traced_bytes,
    two_node_dataset,
)
from oracles import (
    assert_close_to_fd,
    csr_from_dense,
    csr_identity,
    csr_to_dense,
    fd_feature_grad,
    fd_weight_grad,
    random_instance,
    reference_backward,
)


class TestGradientsAgainstFiniteDifferences:
    @pytest.mark.parametrize("seed", range(6))
    def test_weight_and_feature_grads(self, seed):
        model, ds = random_instance(seed)
        cache = forward(model, ds.a_hat, ds.features, training=False)
        grads = backward(model, ds.a_hat, cache, ds.labels, ds.train_mask)
        for layer in range(model.depth):
            fd = fd_weight_grad(
                model, ds.a_hat, ds.features, ds.labels, ds.train_mask, layer
            )
            assert_close_to_fd(grads.d_weights[layer], fd)
        fd_x = fd_feature_grad(model, ds.a_hat, ds.features, ds.labels, ds.train_mask)
        assert_close_to_fd(grads.d_first @ model.weights[0].T, fd_x)

    def test_saturated_predictions_give_near_zero_gradients(self):
        ds = two_node_dataset()
        # One layer mapping the one-hot features straight to huge correct logits.
        model = GnnModel([np.eye(2) * 200.0], dropout_rate=0.0)
        cache = forward(model, csr_identity(2), ds.features, training=False)
        grads = backward(
            model, csr_identity(2), cache, ds.labels, np.array([True, True])
        )
        assert np.max(np.abs(grads.d_weights[0])) < 1e-8
        assert np.max(np.abs(grads.d_first @ model.weights[0].T)) < 1e-8

    def test_gradient_is_taken_at_the_cached_point(self, small_sbm):
        ds = small_sbm
        model = init_model([ds.d, 6, 2], make_rng(4), dropout_rate=0.0)
        rng = make_rng(5)
        w_eff = [w + 0.1 * rng.standard_normal(w.shape) for w in model.weights]
        x_eff = ds.features + 0.1 * rng.standard_normal(ds.features.shape)
        cache = forward(model, ds.a_hat, x_eff, w_eff)
        assert cache.weights is not model.weights
        assert all(a is b for a, b in zip(cache.weights, w_eff))
        moved = GnnModel(w_eff, dropout_rate=0.0)
        moved_cache = forward(moved, ds.a_hat, x_eff)
        want = backward(moved, ds.a_hat, moved_cache, ds.labels, ds.train_mask)
        got = backward(model, ds.a_hat, cache, ds.labels, ds.train_mask)
        assert gradient_bytes(got) == gradient_bytes(want)

    def test_weight_gradients_alone_are_the_same_bytes(self):
        # backward builds no n x d feature gradient: 400 x 384 features, 64 hidden.
        ds = generate_sbm(
            SbmParams((200, 200), 0.05, 0.02, 1.0, feature_dim=384), make_rng(13)
        )
        model = init_model([ds.d, 64, ds.num_classes], make_rng(14), dropout_rate=0.5)
        cache = forward(model, ds.a_hat, ds.features, training=True, rng=make_rng(15))
        want = reference_backward(ds.a_hat, cache, ds.labels, ds.train_mask)
        got, _, peak = traced_bytes(
            lambda: backward(model, ds.a_hat, cache, ds.labels, ds.train_mask)
        )
        assert gradient_bytes(got) == gradient_bytes(want)
        assert peak < 0.5 * ds.features.nbytes

    def test_feature_gradient_alone_is_the_same_bytes(self, small_sbm):
        ds = small_sbm
        model = init_model([ds.d, 8, 4, ds.num_classes], make_rng(6), dropout_rate=0.5)
        cache = forward(model, ds.a_hat, ds.features, training=True, rng=make_rng(7))
        full = backward(model, ds.a_hat, cache, ds.labels, ds.train_mask)
        alone = backward(
            model, ds.a_hat, cache, ds.labels, ds.train_mask, need_weights=False
        )
        assert alone.d_weights is None
        assert alone.d_first.tobytes() == full.d_first.tobytes()
        assert alone.loss == full.loss

    def test_weight_gradients_do_not_depend_on_the_cpu_count(self, monkeypatch):
        # X.T @ g is 384 x 400 @ 400 x 64: one range at the transposed floor;
        # at the C-order floor, cut at row 192 and drained by one thread or two.
        ds = generate_sbm(
            SbmParams((200, 200), 0.05, 0.02, 1.0, feature_dim=384), make_rng(13)
        )
        model = init_model([ds.d, 64, ds.num_classes], make_rng(14), dropout_rate=0.5)
        cache = forward(model, ds.a_hat, ds.features, training=True, rng=make_rng(15))

        def weight_grads():
            grads = backward(model, ds.a_hat, cache, ds.labels, ds.train_mask)
            return [w.tobytes() for w in grads.d_weights]

        assert linalg._dense_cuts(ds.features.T, 64) == [0, 384]
        want = weight_grads()
        monkeypatch.setattr(linalg, "_MIN_TRANSPOSED", linalg._MIN_MATMUL)
        assert linalg._dense_cuts(ds.features.T, 64) == [0, 192, 384]
        for width in (1, 2):
            monkeypatch.setattr(linalg, "_WIDTH", width)
            assert weight_grads() == want

    def test_output_masks_give_the_bytes_of_pre_activation_masks(self, small_sbm):
        ds = small_sbm
        model = init_model([ds.d, 16, 16, ds.num_classes], make_rng(6), dropout_rate=0.5)
        cache = forward(model, ds.a_hat, ds.features, training=True, rng=make_rng(7))
        z = spmm(ds.a_hat, ds.features @ model.weights[0])
        assert ((cache.drop_scales[0] == 0.0) & (z > 0.0)).any()  # the masks differ here
        want = reference_backward(ds.a_hat, cache, ds.labels, ds.train_mask)
        got = backward(model, ds.a_hat, cache, ds.labels, ds.train_mask)
        assert gradient_bytes(got) == gradient_bytes(want)

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
        grads = backward(model, ds.a_hat, cache, ds.labels, ds.train_mask)
        d_features = grads.d_first @ model.weights[0].T
        assert np.array_equal(d_features[3:], np.zeros((3, 3)))
        assert np.abs(d_features[:3]).max() > 0


class TestForward:
    def test_identity_composition(self):
        x = make_rng(1).standard_normal((3, 3))
        model = GnnModel([np.eye(3)], dropout_rate=0.0)
        cache = forward(model, csr_identity(3), x, training=False)
        assert np.array_equal(cache.logits, x)

    def test_uniform_adjacency_averages_rows(self):
        a = csr_from_dense(np.full((2, 2), 0.5))
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

    def test_inverted_dropout_scales_kept_entries_by_one_over_keep(self, small_sbm):
        ds = small_sbm
        model = init_model([ds.d, 16, ds.num_classes], make_rng(2), dropout_rate=0.3)
        cache = forward(model, ds.a_hat, ds.features, training=True, rng=make_rng(3))
        keep = 1.0 - model.dropout_rate
        scale = cache.drop_scales[0]
        assert set(np.unique(scale)) == {0.0, 1.0 / keep}
        kept = scale != 0.0
        relu = np.maximum(spmm(ds.a_hat, ds.features @ model.weights[0]), 0.0)
        h = cache.layer_inputs[1]
        assert np.array_equal(h[kept], relu[kept] * (1.0 / keep))
        assert not h[~kept].any()

    def test_shape_mismatch_rejected(self, small_sbm):
        model = init_model([small_sbm.d + 1, 4, 2], make_rng(0))
        with pytest.raises(ValueError, match="features must be"):
            forward(model, small_sbm.a_hat, small_sbm.features, training=False)

    @pytest.mark.parametrize("hidden", [(16, 16), ()], ids=["three_layers", "one_layer"])
    def test_given_first_product_gives_the_same_bytes(self, small_sbm, hidden):
        ds = small_sbm
        model = init_model([ds.d, *hidden, ds.num_classes], make_rng(6), dropout_rate=0.5)

        def run(**first):
            return cache_bytes(forward(model, ds.a_hat, ds.features, training=True,
                                       rng=make_rng(7), **first))

        assert run(first=ds.features @ model.weights[0]) == run()

    def test_first_product_without_features_gives_the_same_logits(self, small_sbm):
        ds = small_sbm
        model = init_model([ds.d, 16, ds.num_classes], make_rng(6), dropout_rate=0.0)
        cache = forward(model, ds.a_hat, None, first=ds.features @ model.weights[0])
        assert cache.layer_inputs[0] is None
        assert cache.logits.tobytes() == forward(model, ds.a_hat, ds.features).logits.tobytes()
        with pytest.raises(ValueError, match="x_eff or first"):
            forward(model, ds.a_hat, None)

    def test_backward_refuses_a_cache_without_features(self, small_sbm):
        # Only the weight gradients read the features.
        ds = small_sbm
        model = init_model([ds.d, 4, ds.num_classes], make_rng(0))
        cache = forward(model, ds.a_hat, None, first=ds.features @ model.weights[0])
        with pytest.raises(ValueError, match="no layer-0 input"):
            backward(model, ds.a_hat, cache, ds.labels, ds.train_mask)

    def test_backward_without_weights_needs_no_features(self, small_sbm):
        ds = small_sbm
        model = init_model([ds.d, 4, ds.num_classes], make_rng(0), dropout_rate=0.0)

        def run(x, **first):
            cache = forward(model, ds.a_hat, x, **first)
            return gradient_bytes(backward(model, ds.a_hat, cache, ds.labels, ds.train_mask,
                                           need_weights=False))

        got = run(None, first=ds.features @ model.weights[0])
        assert got == run(ds.features)
        assert got[0] is None

    def test_first_product_of_the_wrong_shape_rejected(self, small_sbm):
        model = init_model([small_sbm.d, 4, 2], make_rng(0))
        with pytest.raises(ValueError, match="first must be"):
            forward(model, small_sbm.a_hat, small_sbm.features, first=np.zeros((small_sbm.n, 5)))

    def test_equivariance_under_node_permutation(self):
        rng = make_rng(8)
        ds = generate_sbm(SbmParams((6, 6), 0.5, 0.2, 0.3), rng)
        model = init_model([ds.d, 5, ds.num_classes], rng, dropout_rate=0.0)
        base = forward(model, ds.a_hat, ds.features, training=False).logits
        perm = make_rng(9).permutation(ds.n)
        dense = csr_to_dense(ds.a_hat)[np.ix_(perm, perm)]
        permuted = forward(
            model, csr_from_dense(dense), ds.features[perm], training=False
        ).logits
        assert np.max(np.abs(permuted - base[perm])) <= 1e-10
        loss_a = masked_cross_entropy(base, ds.labels, ds.train_mask)
        loss_b = masked_cross_entropy(
            permuted, ds.labels[perm], ds.train_mask[perm]
        )
        assert loss_a == pytest.approx(loss_b, abs=1e-10)


class TestForwardCacheMemory:
    """Bytes one forward keeps and peaks at, and backward's peak, in n x hidden arrays.

    The cache holds each hidden layer's output (ReLU and dropout written
    into it) and its dropout scale, and no pre-activation.
    """

    @pytest.fixture(scope="class")
    def ds(self):
        # d=8 and 2 classes: every array that counts is one of the 2,000 x 256 ones.
        return generate_sbm(
            SbmParams((1000, 1000), 0.005, 0.001, 1.0, feature_dim=8), make_rng(16)
        )

    def _run(self, ds, dropout_rate):
        model = init_model([ds.d, 256, 256, ds.num_classes], make_rng(17), dropout_rate)
        cache, kept, peak = traced_bytes(
            lambda: forward(model, ds.a_hat, ds.features, training=True, rng=make_rng(18))
        )
        back_peak = peak_traced_bytes(
            lambda: backward(model, ds.a_hat, cache, ds.labels, ds.train_mask)
        )
        unit = ds.n * 256 * 8
        return kept / unit, peak / unit, back_peak / unit

    def test_with_dropout(self, ds):
        kept, peak, back_peak = self._run(ds, 0.5)
        assert kept < 4.5  # two outputs and two scales
        assert peak < 4.5  # plus the draw for the second scale
        assert back_peak < 3.5

    def test_without_dropout(self, ds):
        kept, peak, back_peak = self._run(ds, 0.0)
        assert kept < 2.5  # the two outputs
        assert peak < 3.5
        assert back_peak < 3.5

    def test_given_first_product_is_dropped_after_its_spmm(self, ds):
        model = init_model([ds.d, 256, 256, ds.num_classes], make_rng(17), 0.5)
        # Made inside the trace, so forward holds the only reference to it.
        _, kept, peak = traced_bytes(lambda: forward(
            model, ds.a_hat, ds.features, training=True, rng=make_rng(18),
            first=ds.features @ model.weights[0]))
        unit = ds.n * 256 * 8
        assert kept / unit < 4.5  # as without it
        assert peak / unit < 4.5

    @pytest.mark.parametrize("dropout_rate", [0.5, 0.0])
    def test_backward_holds_two_hidden_gradients(self, ds, dropout_rate):
        # Each layer's g is dropped once back is computed, and back once
        # spmm has read it: the next g and its back are all that is live.
        assert self._run(ds, dropout_rate)[2] < 2.5


def cache_bytes(cache):
    return (
        [h.tobytes() for h in cache.layer_inputs],
        [None if s is None else s.tobytes() for s in cache.drop_scales],
        cache.logits.tobytes(),
    )


def gradient_bytes(grads):
    weights = None if grads.d_weights is None else [w.tobytes() for w in grads.d_weights]
    return weights, grads.d_first.tobytes(), grads.loss


class TestSplitSweeps:
    """Forward's ReLU and dropout and backward's gating give one block's bytes.

    Under ``row_blocks(2, chunk=...)`` each 40 x 16 hidden array is swept
    by two threads in three-row ranges; outside it, in one range.
    """

    CHUNK = 3 * 16

    @pytest.fixture
    def model(self, small_sbm):
        return init_model(
            [small_sbm.d, 16, 16, small_sbm.num_classes], make_rng(6), dropout_rate=0.5
        )

    def _forward(self, model, ds, rng=None):
        return forward(model, ds.a_hat, ds.features, training=True, rng=rng or make_rng(7))

    @pytest.mark.parametrize("dropout_rate", [0.5, 0.0])
    def test_forward(self, small_sbm, dropout_rate):
        model = init_model(
            [small_sbm.d, 16, 16, small_sbm.num_classes], make_rng(6), dropout_rate
        )
        want = cache_bytes(self._forward(model, small_sbm))
        with row_blocks(2, chunk=self.CHUNK):
            got = cache_bytes(self._forward(model, small_sbm))
        assert got == want
        assert (got[1][0] is None) == (dropout_rate == 0.0)

    @pytest.mark.parametrize(
        "dropout, need_weights",
        [(True, True), (True, False), (False, True), (False, False)],
    )
    def test_backward(self, small_sbm, dropout, need_weights):
        ds = small_sbm
        model = init_model([ds.d, 16, 16, ds.num_classes], make_rng(6), 0.5 if dropout else 0.0)
        cache = self._forward(model, ds)
        assert (cache.drop_scales[0] is None) != dropout

        def run():
            return backward(
                model, ds.a_hat, cache, ds.labels, ds.train_mask, need_weights=need_weights
            )

        want = gradient_bytes(run())
        with row_blocks(2, chunk=self.CHUNK):
            got = gradient_bytes(run())
        assert got == want

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("ranges", [1, 4])
    def test_first_layer_gradient_times_w0_is_the_feature_gradient(
        self, small_sbm, ranges, width
    ):
        # Feature PGD multiplies d_first by W_0.T range by range itself, with
        # the bytes of one product.
        ds, hidden = small_sbm, 16
        if ranges > 1:  # 800 x 120 features into 256 hidden units
            ds = generate_sbm(SbmParams((400, 400), 0.01, 0.002, 1.0, feature_dim=120),
                              make_rng(3))
            hidden = 256
        model = init_model([ds.d, hidden, ds.num_classes], make_rng(6), dropout_rate=0.5)
        cache = self._forward(model, ds)
        cuts = linalg._dense_cuts(ds.features, hidden)
        assert len(cuts) - 1 == ranges
        with row_blocks(width):
            grads = backward(model, ds.a_hat, cache, ds.labels, ds.train_mask,
                             need_weights=False)
        w0t = model.weights[0].T
        products = [np.matmul(grads.d_first[lo:hi], w0t) for lo, hi in zip(cuts, cuts[1:])]
        assert np.concatenate(products).tobytes() == (grads.d_first @ w0t).tobytes()

    def test_dropout_draw_leaves_the_generator_where_one_draw_per_layer_does(
        self, small_sbm, model
    ):
        rng = make_rng(7)
        with row_blocks(2, chunk=self.CHUNK):
            self._forward(model, small_sbm, rng)
        ref = make_rng(7)
        for w in model.weights[:-1]:
            ref.random((small_sbm.n, w.shape[1]))
        assert rng.random() == ref.random()


class TestWorkspace:
    """``forward`` and ``backward`` with a ``_workspace``: its arrays, fresh bytes."""

    @pytest.mark.parametrize("hidden", [[16], [16, 8]], ids=["one_hidden", "two_hidden"])
    def test_passes_write_into_the_workspace(self, small_sbm, hidden):
        ds = small_sbm
        model = init_model([ds.d, *hidden, ds.num_classes], make_rng(6), dropout_rate=0.5)
        work = _workspace(model, ds.n)
        fresh = forward(model, ds.a_hat, ds.features, training=True, rng=make_rng(7))
        want = gradient_bytes(backward(model, ds.a_hat, fresh, ds.labels, ds.train_mask))
        cache = forward(model, ds.a_hat, ds.features, training=True, rng=make_rng(7),
                        work=work)
        assert cache_bytes(cache) == cache_bytes(fresh)
        assert cache.work is work and fresh.work is None
        for j, (_, hidden_out, scale) in enumerate(work):
            assert cache.layer_inputs[j + 1] is hidden_out
            assert cache.drop_scales[j] is scale
        products = [prod.copy() for prod, _, _ in work]
        got = backward(model, ds.a_hat, cache, ds.labels, ds.train_mask)
        assert gradient_bytes(got) == want
        # Each layer's g @ W.T went into the cache's workspace, over the product.
        assert all((prod != old).any() for (prod, _, _), old in zip(work, products))


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

    @given(data=st.data(), n=st.integers(1, 6), k=st.integers(2, 4))
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_backward_loss_and_logit_gradient_are_the_separate_bits(self, data, n, k):
        # Any float64 logits, +-inf and NaN included; one layer on the identity graph.
        entries = st.one_of(st.floats(), st.sampled_from([np.inf, -np.inf, np.nan, 0.0]))
        logits = data.draw(hnp.arrays(np.float64, (n, k), elements=entries))
        labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
        mask = data.draw(hnp.arrays(bool, n).filter(np.any))
        model = GnnModel([np.ones((2, k))], dropout_rate=0.0)
        cache = ForwardCache(model.weights, [np.ones((n, 2))], [], logits)
        got = backward(model, csr_identity(n), cache, labels, mask)
        want = masked_cross_entropy(logits, labels, mask)
        assert np.float64(got.loss).tobytes() == np.float64(want).tobytes()
        # The gradient as it was computed before the loss shared its softmax.
        idx, y = np.flatnonzero(mask), labels[mask]
        sub = logits[idx]
        e = np.exp(sub - sub.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(idx.size), y] -= 1.0
        grad = np.zeros_like(logits)
        grad[idx] = p / idx.size
        assert _loss_grad_logits(logits, labels, mask)[1].tobytes() == grad.tobytes()


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

    def test_split_metrics_match_per_mask_bits(self, small_sbm):
        ds = small_sbm
        logits = make_rng(0).standard_normal((ds.n, ds.num_classes))
        masks = (ds.train_mask, ds.val_mask, ds.test_mask)
        want = (
            masked_cross_entropy(logits, ds.labels, ds.train_mask),
            *(accuracy(logits, ds.labels, m) for m in masks),
        )
        assert len(set(want[1:])) == 3  # distinct, so a swapped split shows
        assert split_metrics(logits, ds) == want
        none = np.zeros(ds.n, bool)
        train_only = make_dataset(
            ds.adjacency, ds.features, ds.labels, 2, ds.train_mask, none, none
        )
        assert split_metrics(logits, train_only) == (*want[:2], None, None)

    def test_empty_mask_rejected(self, small_sbm, trained_small):
        logits = forward(trained_small, small_sbm.a_hat, small_sbm.features).logits
        with pytest.raises(ValueError):
            accuracy(logits, small_sbm.labels, np.zeros(small_sbm.n, bool))


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
