import json
import math

import numpy as np
import pytest

from capgnn.graph import (
    DatasetError,
    SbmParams,
    generate_sbm,
    load_dataset,
    make_dataset,
    normalize_adjacency,
    random_split,
    row_normalize,
    save_dataset,
)
from capgnn.linalg import CsrMatrix, make_rng

from conftest import two_node_dataset


def normalize_oracle(dense_adj: np.ndarray) -> np.ndarray:
    """Direct dense evaluation of the self-loop degree normalization."""
    n = dense_adj.shape[0]
    t = dense_adj + np.eye(n)
    d = 1.0 + dense_adj.sum(axis=1)
    inv = np.diag(1.0 / np.sqrt(d))
    return inv @ t @ inv


def path_graph(n: int) -> CsrMatrix:
    us = list(range(n - 1))
    vs = list(range(1, n))
    return CsrMatrix.from_coo(n, n, us + vs, vs + us, np.ones(2 * (n - 1)))


def cycle_graph(n: int) -> CsrMatrix:
    us = list(range(n))
    vs = [(i + 1) % n for i in range(n)]
    return CsrMatrix.from_coo(n, n, us + vs, vs + us, np.ones(2 * n))


class TestNormalizeAdjacency:
    def test_single_isolated_node(self):
        a = CsrMatrix.from_coo(1, 1, [], [], [])
        assert np.array_equal(normalize_adjacency(a).to_dense(), [[1.0]])

    def test_two_nodes_one_edge(self):
        got = normalize_adjacency(path_graph(2)).to_dense()
        assert np.allclose(got, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_three_node_path_hand_values(self):
        got = normalize_adjacency(path_graph(3)).to_dense()
        assert got[0, 1] == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-12)
        assert got[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert got[1, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert np.allclose(got, normalize_oracle(path_graph(3).to_dense()), atol=1e-14)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_cycle_rows_sum_to_one(self, n):
        got = normalize_adjacency(cycle_graph(n))
        sums = got.to_dense().sum(axis=1)
        # r-regular graph: row sum = (1 + r)/(1 + r) = 1.
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_symmetric_output_positive_diagonal(self):
        rng = make_rng(3)
        dense = (rng.random((6, 6)) < 0.4).astype(float)
        dense = np.triu(dense, 1)
        dense = dense + dense.T
        got = normalize_adjacency(CsrMatrix.from_dense(dense)).to_dense()
        assert np.allclose(got, got.T, atol=0)
        assert (np.diag(got) > 0).all()
        assert np.allclose(got, normalize_oracle(dense), atol=1e-14)

    def test_rejects_non_square(self):
        m = CsrMatrix.from_coo(2, 3, [0], [1], [1.0])
        with pytest.raises(DatasetError, match="square"):
            normalize_adjacency(m)

    def test_rejects_asymmetric(self):
        m = CsrMatrix.from_coo(2, 2, [0], [1], [1.0])
        with pytest.raises(DatasetError, match="symmetric"):
            normalize_adjacency(m)

    def test_rejects_negative_values(self):
        m = CsrMatrix.from_coo(2, 2, [0, 1], [1, 0], [-1.0, -1.0])
        with pytest.raises(DatasetError, match="non-negative"):
            normalize_adjacency(m)


class TestDatasetIO:
    def test_two_node_fixture_composition(self):
        ds = two_node_dataset()
        assert ds.n == 2 and ds.d == 2 and ds.num_classes == 2
        assert np.allclose(ds.a_hat.to_dense(), 0.5)

    def test_round_trip_is_identity(self, tmp_path):
        ds = generate_sbm(SbmParams((6, 7, 5), 0.6, 0.1, 0.35), make_rng(21))
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert back.n == ds.n and back.d == ds.d
        assert back.num_classes == ds.num_classes
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.train_mask, ds.train_mask)
        assert np.array_equal(back.val_mask, ds.val_mask)
        assert np.array_equal(back.test_mask, ds.test_mask)
        assert np.array_equal(back.adjacency.to_dense(), ds.adjacency.to_dense())
        assert np.array_equal(back.a_hat.to_dense(), ds.a_hat.to_dense())

    def test_edges_file_lists_each_edge_once_sorted(self, tmp_path):
        ds = generate_sbm(SbmParams((6, 7, 5), 0.6, 0.1, 0.35), make_rng(21))
        save_dataset(ds, tmp_path / "d")
        nz = zip(*np.nonzero(ds.adjacency.to_dense()))
        want = sorted({(min(i, j), max(i, j)) for i, j in nz})
        got = (tmp_path / "d" / "edges.tsv").read_text().splitlines()
        assert got == [f"{u}\t{v}" for u, v in want]

    @pytest.fixture
    def fixture_dir(self, tmp_path):
        d = tmp_path / "data"
        save_dataset(two_node_dataset(), d)
        return d

    def test_loads_two_node_fixture(self, fixture_dir):
        ds = load_dataset(fixture_dir)
        assert ds.n == 2
        assert np.allclose(ds.a_hat.to_dense(), 0.5)
        assert list(ds.train_mask) == [True, False]
        assert list(ds.test_mask) == [False, True]

    def test_missing_file_names_it(self, fixture_dir):
        (fixture_dir / "labels.txt").unlink()
        with pytest.raises(DatasetError, match="labels.txt"):
            load_dataset(fixture_dir)

    def test_edge_index_out_of_range_reports_line(self, fixture_dir):
        (fixture_dir / "edges.tsv").write_text("0\t1\n0\t5\n")
        with pytest.raises(DatasetError, match=r"edges\.tsv:2"):
            load_dataset(fixture_dir)

    def test_self_loop_rejected(self, fixture_dir):
        (fixture_dir / "edges.tsv").write_text("1\t1\n")
        with pytest.raises(DatasetError, match="self-loop"):
            load_dataset(fixture_dir)

    def test_duplicate_edge_rejected_both_orders(self, fixture_dir):
        (fixture_dir / "edges.tsv").write_text("0\t1\n1\t0\n")
        with pytest.raises(DatasetError, match=r"edges\.tsv:2.*duplicate"):
            load_dataset(fixture_dir)

    def test_malformed_edge_line(self, fixture_dir):
        (fixture_dir / "edges.tsv").write_text("0,1\n")
        with pytest.raises(DatasetError, match=r"edges\.tsv:1"):
            load_dataset(fixture_dir)

    def test_label_out_of_range_reports_line(self, fixture_dir):
        (fixture_dir / "labels.txt").write_text("0\n7\n")
        with pytest.raises(DatasetError, match=r"labels\.txt:2"):
            load_dataset(fixture_dir)

    def test_bad_feature_value_reports_line(self, fixture_dir):
        (fixture_dir / "features.csv").write_text("1.0,0.0\n0.0,oops\n")
        with pytest.raises(DatasetError, match=r"features\.csv:2"):
            load_dataset(fixture_dir)

    def test_wrong_feature_arity_reports_line(self, fixture_dir):
        (fixture_dir / "features.csv").write_text("1.0,0.0\n0.0\n")
        with pytest.raises(DatasetError, match=r"features\.csv:2"):
            load_dataset(fixture_dir)

    def test_split_overlap_rejected(self, fixture_dir):
        (fixture_dir / "split.json").write_text(
            json.dumps({"train": [0], "val": [0], "test": [1]})
        )
        with pytest.raises(DatasetError, match="disjoint"):
            load_dataset(fixture_dir)

    def test_row_normalize_flag(self, fixture_dir):
        (fixture_dir / "features.csv").write_text("2.0,2.0\n0.0,0.0\n")
        ds = load_dataset(fixture_dir, row_normalize_features=True)
        assert np.allclose(ds.features[0], [0.5, 0.5])
        assert np.array_equal(ds.features[1], [0.0, 0.0])

    def test_row_normalize_helper_leaves_zero_rows(self):
        x = np.array([[3.0, -1.0], [0.0, 0.0]])
        out = row_normalize(x)
        assert np.allclose(out[0], [0.75, -0.25])
        assert np.array_equal(out[1], [0.0, 0.0])


class TestRandomSplit:
    def test_exact_division(self):
        labels = np.repeat([0, 1, 2], 10)
        train, val, test = random_split(labels, (0.6, 0.2, 0.2), make_rng(1))
        for c in range(3):
            cls = labels == c
            assert (train & cls).sum() == 6
            assert (val & cls).sum() == 2
            assert (test & cls).sum() == 2
        assert not (train & val).any() and not (train & test).any()
        assert (train | val | test).all()

    def test_deterministic_given_seed(self):
        labels = np.repeat([0, 1], 25)
        a = random_split(labels, rng=make_rng(7))
        b = random_split(labels, rng=make_rng(7))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_degenerate_all_train(self):
        labels = np.repeat([0, 1], 5)
        train, val, test = random_split(labels, (1.0, 0.0, 0.0), make_rng(0))
        assert train.all() and not val.any() and not test.any()

    def test_small_class_rejected(self):
        with pytest.raises(ValueError, match="stratify"):
            random_split(np.array([0, 0, 1, 1, 1]), rng=make_rng(0))

    def test_bad_fractions_rejected(self):
        labels = np.repeat([0], 10)
        with pytest.raises(ValueError, match="sum to 1"):
            random_split(labels, (0.5, 0.2, 0.2), make_rng(0))


class TestGenerateSbm:
    def test_extreme_probabilities_give_two_cliques(self):
        ds = generate_sbm(SbmParams((4, 4), 1.0, 0.0), make_rng(0))
        dense = ds.adjacency.to_dense()
        within = dense[:4, :4]
        assert np.array_equal(within, np.ones((4, 4)) - np.eye(4))
        assert np.array_equal(dense[4:, 4:], np.ones((4, 4)) - np.eye(4))
        assert ds.num_edges == 12
        assert np.array_equal(dense[:4, 4:], np.zeros((4, 4)))

    def test_edgeless_graph_normalizes_to_identity(self):
        ds = generate_sbm(SbmParams((5, 5), 0.0, 0.0), make_rng(0))
        assert np.array_equal(ds.a_hat.to_dense(), np.eye(10))

    def test_block_diagonal_when_p_out_zero(self):
        ds = generate_sbm(SbmParams((15, 10), 0.3, 0.0), make_rng(4))
        dense = ds.adjacency.to_dense()
        assert np.array_equal(dense[:15, 15:], np.zeros((15, 10)))

    def test_edge_counts_within_binomial_bounds(self):
        # Within-block pairs per block: C(100, 2) = 4950 at p=0.1
        # -> mean 495, sd 21.1, 3 sd window [432, 558].
        # Cross pairs: 100*100 = 10000 at p=0.01 -> 3 sd window [71, 129].
        ds = generate_sbm(SbmParams((100, 100), 0.1, 0.01), make_rng(12))
        dense = ds.adjacency.to_dense()
        blk0 = int(np.triu(dense[:100, :100], 1).sum())
        blk1 = int(np.triu(dense[100:, 100:], 1).sum())
        cross = int(dense[:100, 100:].sum())
        assert 432 <= blk0 <= 558
        assert 432 <= blk1 <= 558
        assert 71 <= cross <= 129

    def test_labels_are_block_ids_and_features_center_on_blocks(self):
        ds = generate_sbm(SbmParams((30, 30), 0.2, 0.02, 0.1), make_rng(3))
        assert np.array_equal(ds.labels, np.repeat([0, 1], 30))
        centroids = np.stack(
            [ds.features[ds.labels == c].mean(axis=0) for c in range(2)]
        )
        assert np.allclose(centroids, np.eye(2), atol=0.15)

    def test_random_unit_means_in_requested_dimension(self):
        ds = generate_sbm(
            SbmParams((25, 25), 0.3, 0.05, 0.0, feature_dim=12), make_rng(6)
        )
        assert ds.d == 12
        norms = np.sqrt((ds.features**2).sum(axis=1))
        assert np.allclose(norms, 1.0, atol=1e-12)  # noise 0: rows are the means
        assert np.allclose(ds.features[0], ds.features[10])
        assert not np.allclose(ds.features[0], ds.features[30])

    def test_deterministic_given_seed(self):
        a = generate_sbm(SbmParams((10, 10), 0.5, 0.1, 0.5), make_rng(99))
        b = generate_sbm(SbmParams((10, 10), 0.5, 0.1, 0.5), make_rng(99))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.adjacency.to_dense(), b.adjacency.to_dense())
        assert np.array_equal(a.train_mask, b.train_mask)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SbmParams((4,), 0.1, 0.5)  # p_out > p_in
        with pytest.raises(ValueError):
            SbmParams((), 0.5, 0.1)
        with pytest.raises(ValueError):
            SbmParams((4, 0), 0.5, 0.1)


class TestMakeDataset:
    def test_rejects_overlapping_masks(self):
        adj = CsrMatrix.from_coo(2, 2, [0, 1], [1, 0], [1.0, 1.0])
        with pytest.raises(DatasetError, match="disjoint"):
            make_dataset(
                adj, np.eye(2), [0, 1], 2,
                [True, True], [False, True], [False, False],
            )

    def test_rejects_empty_train(self):
        adj = CsrMatrix.from_coo(2, 2, [0, 1], [1, 0], [1.0, 1.0])
        with pytest.raises(DatasetError, match="train"):
            make_dataset(
                adj, np.eye(2), [0, 1], 2,
                [False, False], [True, False], [False, True],
            )

    def test_rejects_label_out_of_range(self):
        adj = CsrMatrix.from_coo(2, 2, [0, 1], [1, 0], [1.0, 1.0])
        with pytest.raises(DatasetError, match="label"):
            make_dataset(
                adj, np.eye(2), [0, 5], 2,
                [True, False], [False, False], [False, True],
            )

    def test_arrays_frozen_after_construction(self):
        ds = two_node_dataset()
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0
