import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from capgnn import graph
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
from oracles import csr_from_dense, csr_to_dense, reference_features_csv


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
        assert np.array_equal(csr_to_dense(normalize_adjacency(a)), [[1.0]])

    def test_two_nodes_one_edge(self):
        got = csr_to_dense(normalize_adjacency(path_graph(2)))
        assert np.allclose(got, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_three_node_path_hand_values(self):
        got = csr_to_dense(normalize_adjacency(path_graph(3)))
        assert got[0, 1] == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-12)
        assert got[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert got[1, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)
        want = normalize_oracle(csr_to_dense(path_graph(3)))
        assert np.allclose(got, want, atol=1e-14)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_cycle_rows_sum_to_one(self, n):
        got = normalize_adjacency(cycle_graph(n))
        sums = csr_to_dense(got).sum(axis=1)
        # r-regular graph: row sum = (1 + r)/(1 + r) = 1.
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_symmetric_output_positive_diagonal(self):
        rng = make_rng(3)
        dense = (rng.random((6, 6)) < 0.4).astype(float)
        dense = np.triu(dense, 1)
        dense = dense + dense.T
        got = csr_to_dense(normalize_adjacency(csr_from_dense(dense)))
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
        assert np.allclose(csr_to_dense(ds.a_hat), 0.5)

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
        assert np.array_equal(csr_to_dense(back.adjacency), csr_to_dense(ds.adjacency))
        assert np.array_equal(csr_to_dense(back.a_hat), csr_to_dense(ds.a_hat))

    def test_edges_file_lists_each_edge_once_sorted(self, tmp_path):
        ds = generate_sbm(SbmParams((6, 7, 5), 0.6, 0.1, 0.35), make_rng(21))
        save_dataset(ds, tmp_path / "d")
        nz = zip(*np.nonzero(csr_to_dense(ds.adjacency)))
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
        assert np.allclose(csr_to_dense(ds.a_hat), 0.5)
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

    def test_empty_features_file_raises_without_a_warning(self, fixture_dir):
        (fixture_dir / "features.csv").write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetError, match=r"features\.csv: expected 2x2"):
                load_dataset(fixture_dir)

    def test_split_overlap_rejected(self, fixture_dir):
        (fixture_dir / "split.json").write_text(
            json.dumps({"train": [0], "val": [0], "test": [1]})
        )
        with pytest.raises(DatasetError, match=r"split\.json: .*disjoint"):
            load_dataset(fixture_dir)

    def test_split_empty_train_rejected(self, fixture_dir):
        (fixture_dir / "split.json").write_text(
            json.dumps({"train": [], "val": [0], "test": [1]})
        )
        with pytest.raises(DatasetError, match=r"split\.json: 'train' must list"):
            load_dataset(fixture_dir)

    def test_split_array_rejected(self, fixture_dir):
        (fixture_dir / "split.json").write_text(json.dumps([[0], [], [1]]))
        with pytest.raises(DatasetError, match=r"split\.json: expected a JSON object"):
            load_dataset(fixture_dir)

    def test_split_not_utf8_rejected(self, fixture_dir):
        (fixture_dir / "split.json").write_bytes(b"\xff{")
        with pytest.raises(DatasetError, match=r"split\.json: invalid JSON"):
            load_dataset(fixture_dir)

    @pytest.mark.parametrize("name", ["edges.tsv", "labels.txt", "features.csv"])
    def test_line_file_not_utf8_rejected(self, fixture_dir, name):
        path = fixture_dir / name
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(DatasetError, match=rf"{re.escape(name)}: not UTF-8"):
            load_dataset(fixture_dir)

    @pytest.mark.parametrize("value", [2.7, 2.0, True, "2", None, 0])
    @pytest.mark.parametrize("key", ["n", "d", "num_classes"])
    def test_meta_size_must_be_json_integer(self, fixture_dir, key, value):
        meta_path = fixture_dir / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta[key] = value
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(
            DatasetError, match=rf"meta\.json: {key} must be an integer >= 1, got "
        ):
            load_dataset(fixture_dir)

    def test_split_bool_id_rejected(self, fixture_dir):
        (fixture_dir / "split.json").write_text(
            json.dumps({"train": [True], "val": [], "test": [1]})
        )
        with pytest.raises(DatasetError, match=r"split\.json: train id True is not"):
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


def edgeless_dataset(features):
    """A dataset around ``features``: no edges, one class, every node in train."""
    n = len(features)
    return make_dataset(
        CsrMatrix.from_coo(n, n, [], [], []), features, np.zeros(n, dtype=np.int64),
        1, np.ones(n, bool), np.zeros(n, bool), np.zeros(n, bool),
    )


class TestFeaturesCsv:
    """features.csv bytes equal the per-cell repr writer's, block by block."""

    def assert_written_as_reference(self, features, directory):
        ds = edgeless_dataset(features)
        save_dataset(ds, directory)
        got = (directory / "features.csv").read_bytes()
        assert got == reference_features_csv(ds.features).encode("utf-8")
        back = load_dataset(directory)
        assert back.features.tobytes() == ds.features.tobytes()

    def test_repr_edge_values(self, tmp_path):
        # Both repr exponent switches (1e-4 / 1e-5 and 1e15 / 1e16), the
        # smallest subnormal and a negative zero, which must keep its sign.
        row = [-0.0, 5e-324, 1e-5, 1e-4, 1e16, 1e15, -1e-7, 0.1, -2.5, 0.0]
        self.assert_written_as_reference(np.array([row, row[::-1]]), tmp_path / "d")
        text = (tmp_path / "d" / "features.csv").read_text()
        assert text.startswith("-0.0,5e-324,1e-05,0.0001,1e+16,1000000000000000.0,")

    def test_zero_row_full_row_and_single_column(self, tmp_path):
        x = np.array([[0.0, 0.0, 0.0], [1.5, -3.0, 7e-9], [0.0, 2.0, 0.0]])
        self.assert_written_as_reference(x, tmp_path / "wide")
        self.assert_written_as_reference(x[:, 1:2], tmp_path / "d1")
        assert (tmp_path / "wide" / "features.csv").read_text().splitlines()[0] == (
            "0.0,0.0,0.0"
        )

    def test_rows_not_a_multiple_of_the_block(self, tmp_path):
        block = graph._CSV_BLOCK_ROWS
        rng = make_rng(4)
        x = rng.standard_normal((2 * block + 3, 6))
        x[rng.random(x.shape) < 0.8] = 0.0
        # One value in the first block, the last row and a middle block.
        x[0, 0] = x[-1, 5] = x[block + 1, 2] = 0.3
        x[-1, 0] = -0.0
        self.assert_written_as_reference(x, tmp_path / "d")
        lines = (tmp_path / "d" / "features.csv").read_text().splitlines()
        assert len(lines) == 2 * block + 3
        assert lines[-1].startswith("-0.0,") and lines[-1].endswith(",0.3")

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9),
            elements=st.one_of(
                st.just(0.0),
                st.just(-0.0),
                st.sampled_from([1.0, -0.5, 1e-5, 1e16]),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_sparse_matrices_match_reference(self, tmp_path_factory, x):
        self.assert_written_as_reference(x, tmp_path_factory.mktemp("d"))

    def test_labels_and_split_bytes(self, tmp_path):
        ds = generate_sbm(SbmParams((6, 7, 5), 0.6, 0.1, 0.35), make_rng(21))
        save_dataset(ds, tmp_path)
        labels = "".join(f"{int(lab)}\n" for lab in ds.labels)
        assert (tmp_path / "labels.txt").read_text() == labels
        split = {
            part: [int(i) for i in np.flatnonzero(getattr(ds, f"{part}_mask"))]
            for part in ("train", "val", "test")
        }
        want = json.dumps(split, sort_keys=True) + "\n"
        assert (tmp_path / "split.json").read_text() == want


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
        dense = csr_to_dense(ds.adjacency)
        within = dense[:4, :4]
        assert np.array_equal(within, np.ones((4, 4)) - np.eye(4))
        assert np.array_equal(dense[4:, 4:], np.ones((4, 4)) - np.eye(4))
        assert ds.num_edges == 12
        assert np.array_equal(dense[:4, 4:], np.zeros((4, 4)))

    def test_edgeless_graph_normalizes_to_identity(self):
        ds = generate_sbm(SbmParams((5, 5), 0.0, 0.0), make_rng(0))
        assert np.array_equal(csr_to_dense(ds.a_hat), np.eye(10))

    def test_block_diagonal_when_p_out_zero(self):
        ds = generate_sbm(SbmParams((15, 10), 0.3, 0.0), make_rng(4))
        dense = csr_to_dense(ds.adjacency)
        assert np.array_equal(dense[:15, 15:], np.zeros((15, 10)))

    def test_edge_counts_within_binomial_bounds(self):
        # Within-block pairs per block: C(100, 2) = 4950 at p=0.1
        # -> mean 495, sd 21.1, 3 sd window [432, 558].
        # Cross pairs: 100*100 = 10000 at p=0.01 -> 3 sd window [71, 129].
        ds = generate_sbm(SbmParams((100, 100), 0.1, 0.01), make_rng(12))
        dense = csr_to_dense(ds.adjacency)
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
        assert np.array_equal(csr_to_dense(a.adjacency), csr_to_dense(b.adjacency))
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

    def test_rejects_self_loop(self):
        adj = CsrMatrix.from_coo(3, 3, [0, 1, 2], [1, 0, 2], [1.0, 1.0, 1.0])
        with pytest.raises(DatasetError, match="self-loop at node 2"):
            make_dataset(
                adj, np.eye(3), [0, 1, 0], 2,
                [True, False, False], [False, True, False], [False, False, True],
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

    def test_later_changes_to_the_callers_arrays_leave_the_dataset_alone(self):
        adj = CsrMatrix.from_coo(3, 3, [0, 1, 1, 2], [1, 0, 2, 1], np.ones(4))
        block = np.arange(12.0).reshape(4, 3)
        features = block[1:]  # a view: the dataset must not share the caller's buffer
        labels = np.array([0, 1, 0])
        masks = [np.array(m) for m in ([True, False, False], [False, True, False],
                                        [False, False, True])]
        ds = make_dataset(adj, features, labels, 2, *masks)
        parts = (ds.features, ds.labels, ds.train_mask, ds.val_mask, ds.test_mask)
        before = [p.tobytes() for p in parts]
        block[:] = -1.0
        labels[:] = 1
        for m in masks:
            m[:] = ~m
        assert [p.tobytes() for p in parts] == before
