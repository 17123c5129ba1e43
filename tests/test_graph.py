import ast
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from capgnn import graph, linalg
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

from conftest import feature_ranges, load_outcome, peak_traced_bytes, two_node_dataset
from oracles import csr_from_dense, csr_to_dense, reference_features_csv


class SpyRng:
    """A generator that records the shape of every ``random`` draw."""

    def __init__(self, rng):
        self.rng, self.shapes = rng, []

    def random(self, shape):
        self.shapes.append(shape)
        return self.rng.random(shape)

    def __getattr__(self, name):
        return getattr(self.rng, name)


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

    # Lines int() reads that the numpy parse leaves to the line loop, and
    # lines either path rejects: the loader's result or message is the loop's.
    EDGE_TEXTS = {
        "plain": b"0\t1\n2\t11\n", "leading_zeros": b"007\t010\n",
        "empty_lines": b"\n0\t1\n\n\n2\t3\n", "empty_file": b"", "only_lf": b"\n",
        "plus": b"+1\t2\n", "space_before": b" 1\t2\n", "space_after": b"1\t2 \n",
        "underscore": b"1_0\t2\n", "arabic_indic_one": "\u0661\t2\n".encode(),
        "fullwidth_one": "\uff11\t2\n".encode(), "crlf": b"0\t1\r\n2\t3\r\n",
        "lone_cr": b"0\t1\r2\t3\n", "no_final_lf": b"0\t1\n2\t3",
        "duplicate": b"0\t1\n0\t1\n", "reversed_duplicate": b"0\t1\n3\t4\n1\t0\n",
        "self_loop": b"0\t1\n5\t5\n", "out_of_range": b"0\t1\n0\t12\n",
        "twenty_digits": b"0\t1\n1\t" + b"9" * 20 + b"\n", "three_fields": b"0\t1\t2\n",
        "one_field": b"0\t1\n3\n", "empty_field": b"0\t\n", "tab_first": b"\t1\n",
        "comma": b"0,1\n", "not_utf8": b"0\t1\n\xff\n",
        # np.loadtxt reads both as the edge 0-1; the byte screen keeps them out.
        "latin1_nbsp": b"0\t\xa01\n", "file_separator": b"0\t\x1c1\n",
    }

    @pytest.mark.parametrize("name", EDGE_TEXTS)
    def test_edges_read_as_the_line_loop_reads_them(self, tmp_path, name):
        path = tmp_path / "edges.tsv"
        path.write_bytes(self.EDGE_TEXTS[name])

        def outcome(read):
            try:
                return "edges", [np.asarray(e, dtype=np.int64).tobytes() for e in read(path, 12)]
            except DatasetError as e:
                return "error", str(e)

        assert outcome(graph._read_edges) == outcome(graph._edge_lines)

    def test_written_edges_parse_without_the_line_loop(self, tmp_path, monkeypatch):
        ds = generate_sbm(SbmParams((6, 7, 5), 0.6, 0.1, 0.35), make_rng(21))
        save_dataset(ds, tmp_path / "d")
        monkeypatch.setattr(graph, "_edge_lines", None)  # any call fails
        back = load_dataset(tmp_path / "d")
        assert csr_to_dense(back.adjacency).tobytes() == csr_to_dense(ds.adjacency).tobytes()

    def test_label_out_of_range_reports_line(self, fixture_dir):
        (fixture_dir / "labels.txt").write_text("0\n7\n")
        with pytest.raises(DatasetError, match=r"labels\.txt:2"):
            load_dataset(fixture_dir)

    def test_bad_feature_value_reports_line(self, fixture_dir):
        (fixture_dir / "features.csv").write_text("1.0,0.0\n0.0,oops\n")
        with pytest.raises(DatasetError, match=r"features\.csv:2"):
            load_dataset(fixture_dir)

    def test_features_load_alike_under_any_locale(self, fixture_dir):
        # features.csv is UTF-8 text: its bytes decode alike under a C locale.
        # The child parses in as many ranges as this process would.
        (fixture_dir / "features.csv").write_bytes("1.0\u00a0,0.0\n0.0,1.0\n".encode())
        tests = Path(__file__).resolve().parent
        code = ("import sys; from capgnn import graph, linalg; "
                "from conftest import load_outcome; "
                "graph._RANGE_BYTES, linalg._WIDTH = map(int, sys.argv[2:]); "
                "print(repr(load_outcome(sys.argv[1])))")
        args = [str(fixture_dir), str(graph._RANGE_BYTES), str(linalg._WIDTH)]
        outcomes = []
        for env in ({"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"},
                    {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}):
            env["PYTHONPATH"] = f"{tests.parent / 'src'}{os.pathsep}{tests}"
            proc = subprocess.run([sys.executable, "-c", code, *args],
                                  env=dict(os.environ, **env), capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outcomes.append(ast.literal_eval(proc.stdout))
        assert outcomes[0][0] == "rows"
        assert outcomes[1] == outcomes[0]

    def test_wrong_feature_arity_reports_line(self, fixture_dir):
        (fixture_dir / "features.csv").write_text("1.0,0.0\n0.0\n")
        with pytest.raises(DatasetError, match=r"features\.csv:2"):
            load_dataset(fixture_dir)

    @pytest.mark.parametrize("text, error", [
        ("1.0,2.0\n\n3.0,x\n", r"features\.csv:3: non-numeric value 'x'"),
        ("1.0,2.0\n\n\ninf,1.0\n", r"features\.csv:4: non-finite feature value"),
    ])
    def test_feature_error_line_counts_skipped_empty_lines(self, fixture_dir, text, error):
        # np.loadtxt skips the empty lines; the error still names the file line.
        (fixture_dir / "features.csv").write_text(text)
        with pytest.raises(DatasetError, match=error):
            load_dataset(fixture_dir)

    # Python's float() reads each of these cells; np.loadtxt rejects them.
    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "\uff11"])
    def test_cells_float_reads_but_loadtxt_rejects_report_line(self, fixture_dir, cell):
        (fixture_dir / "features.csv").write_text(f"{cell},2.0\n3.0,4.0\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=r"features\.csv:1: non-numeric value"):
            load_dataset(fixture_dir)

    def test_whitespace_only_feature_line_is_a_row(self, fixture_dir):
        (fixture_dir / "features.csv").write_text("1.0,2.0\n \n3.0,4.0\n")
        with pytest.raises(DatasetError, match=r"features\.csv:2: expected 2 values, got 1"):
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

    def test_more_classes_than_nodes_rejected(self, fixture_dir):
        meta_path = fixture_dir / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["num_classes"] = 999999999999
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(
            DatasetError,
            match=rf"meta\.json: num_classes must be <= n \({meta['n']}\), got 999999999999$",
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


class TestDatasetIOInRanges(TestDatasetIO):
    """Every TestDatasetIO case again, with features.csv parsed in two ranges."""

    @pytest.fixture(autouse=True)
    def two_ranges(self):
        with feature_ranges(2):
            yield


def record_forks(monkeypatch, kill: bool = False) -> list:
    """Pids of the children ``os.fork`` makes from now on; with ``kill``, each SIGKILLs itself."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid == 0 and kill:
            os.kill(os.getpid(), signal.SIGKILL)
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# 13 bytes a line, so a cut at half of 7 such lines and 5 lines 4 bytes longer
# falls just before line 8 (index 7).
ROWS = [f"{i:02d}.5,1.5,2.5\n" for i in range(12)]

# case -> (features.csv lines, fragment of the serial error or None for rows)
RANGE_EDITS = {
    "non_numeric": (ROWS[:-1] + ["11.5,1.5,x\n"], "features.csv:12: non-numeric value 'x'"),
    "inf": (ROWS[:-1] + ["11.5,inf,2.5\n"], "features.csv:12: non-finite feature value"),
    "arity": (ROWS[:-1] + ["11.5,1.5\n"], "features.csv:12: expected 3 values, got 2"),
    "not_utf8": (ROWS[:-1] + ["11.5,1.5,\udcff\n"], "features.csv: not UTF-8 text"),
    "wider_last_range": (
        ROWS[:7] + [r[:-1] + ",3.5\n" for r in ROWS[7:]],
        "features.csv:8: expected 3 values, got 4",
    ),
    "empty_line": (ROWS[:-1] + ["\n", ROWS[-1]], None),
    "no_final_newline": (ROWS[:-1] + [ROWS[-1][:-1]], None),
    "crlf_line_ends": ([r[:-1] + "\r\n" for r in ROWS], None),
}


class TestFeatureRanges:
    """features.csv in forked ranges: the serial parse's bits or error, and no child left."""

    @pytest.fixture(scope="class")
    def wide_dir(self, wide_sbm, tmp_path_factory):
        d = tmp_path_factory.mktemp("wide") / "data"
        save_dataset(wide_sbm, d)
        return d

    @pytest.fixture
    def data_dir(self, tmp_path):
        d = tmp_path / "data"
        save_dataset(edgeless_dataset(np.arange(36.0).reshape(12, 3)), d)
        return d

    @staticmethod
    def no_serial_parse(monkeypatch):
        def serial(*args):
            raise AssertionError("features.csv fell back to the serial parse")

        monkeypatch.setattr(graph, "_read_features", serial)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("count", [2, 3])
    def test_saved_wide_sbm_loads_to_the_serial_bits(self, wide_dir, monkeypatch, count,
                                                     normalize):
        want = load_dataset(wide_dir, row_normalize_features=normalize).features
        self.no_serial_parse(monkeypatch)
        pids = record_forks(monkeypatch)
        with feature_ranges(count):
            got = load_dataset(wide_dir, row_normalize_features=normalize).features
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert len(pids) == count - 1
        assert_reaped(pids)

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("case", sorted(RANGE_EDITS))
    def test_edited_file_gives_the_serial_rows_or_error(self, data_dir, monkeypatch, case,
                                                        count):
        lines, error = RANGE_EDITS[case]
        text = "".join(lines).encode("utf-8", "surrogateescape")
        (data_dir / "features.csv").write_bytes(text)
        want = load_outcome(data_dir)
        assert want[0] == ("rows" if error is None else "error")
        assert error is None or error in want[1]
        pids = record_forks(monkeypatch)
        with feature_ranges(count):
            assert load_outcome(data_dir) == want
        assert len(pids) == count - 1
        assert_reaped(pids)

    def test_a_file_below_two_byte_floors_parses_serially(self, wide_dir, monkeypatch):
        assert (wide_dir / "features.csv").stat().st_size < 2 * graph._RANGE_BYTES
        monkeypatch.setattr(linalg, "_WIDTH", 2)
        pids = record_forks(monkeypatch)
        load_dataset(wide_dir)
        assert pids == []

    def test_without_fork_parses_serially(self, data_dir, monkeypatch):
        want = load_outcome(data_dir)
        monkeypatch.delattr(os, "fork")
        with feature_ranges(2):
            assert load_outcome(data_dir) == want

    def test_killed_child_falls_back_to_the_serial_bits(self, data_dir, monkeypatch):
        want = load_outcome(data_dir, row_normalize_features=True)
        pids = record_forks(monkeypatch, kill=True)
        with feature_ranges(3):
            assert load_outcome(data_dir, row_normalize_features=True) == want
        assert len(pids) == 2
        assert_reaped(pids)

    def test_edges_error_while_the_child_parses_leaves_no_child(self, data_dir, monkeypatch):
        parent, parse = os.getpid(), graph._parse_range

        def slow_in_child(*args):
            if os.getpid() != parent:
                time.sleep(60)
            return parse(*args)

        monkeypatch.setattr(graph, "_parse_range", slow_in_child)
        (data_dir / "edges.tsv").write_text("0\t0\n")
        pids = record_forks(monkeypatch)
        start = time.monotonic()
        with feature_ranges(2), pytest.raises(DatasetError, match=r"edges\.tsv:1: self-loop"):
            load_dataset(data_dir)
        assert time.monotonic() - start < 30
        assert len(pids) == 1
        assert_reaped(pids)

    def test_interrupt_during_the_load_leaves_no_child(self, data_dir, monkeypatch):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(graph, "_read_edges", interrupt)
        pids = record_forks(monkeypatch)
        with feature_ranges(2), pytest.raises(KeyboardInterrupt):
            load_dataset(data_dir)
        assert len(pids) == 1
        assert_reaped(pids)



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

    @staticmethod
    def edge_input(case: str) -> np.ndarray:
        block = graph._CSV_BLOCK_ROWS
        rng = make_rng(8)
        if case == "no_nonzero":
            return np.zeros((7, 4))
        if case == "all_zero_middle_block":
            x = rng.standard_normal((2 * block + 1, 3))
            x[block:2 * block] = 0.0
            return x
        if case == "only_last_or_only_first_column":
            x = np.zeros((4, 5))
            x[0, -1], x[2, 0] = 0.25, -3.0
            return x
        if case == "d500_ten_percent":
            x = rng.random((40, 500))
            x[rng.random(x.shape) >= 0.1] = 0.0
            return x
        assert case == "dense_400x8"  # gen-sbm's features: dense Gaussian
        return generate_sbm(
            SbmParams((200, 200), 0.05, 0.02, 1.2, feature_dim=8), make_rng(2024)
        ).features

    @pytest.mark.parametrize("case", [
        "no_nonzero", "all_zero_middle_block", "only_last_or_only_first_column",
        "d500_ten_percent", "dense_400x8",
    ])
    def test_edge_inputs(self, tmp_path, case):
        self.assert_written_as_reference(self.edge_input(case), tmp_path / "d")

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
        for bad in [(0.6, 0.2, math.nan), (math.nan, 0.2, 0.2), (0.6, 0.2, math.inf),
                    (1.2, -0.2, 0.0), (0.5, 0.5)]:
            with pytest.raises(ValueError, match=r"three numbers in \[0, 1\]"):
                random_split(labels, bad, make_rng(0))


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

    def test_row_blocks_give_the_one_draw_edges(self, monkeypatch):
        # 137-row blocks of a 1,000-node draw against one (n, n) draw.
        params = SbmParams((300, 450, 250), 0.05, 0.01, 0.5)
        labels = np.repeat([0, 1, 2], params.block_sizes)
        prob = np.where(labels[:, None] == labels, params.p_in, params.p_out)
        us, vs = np.nonzero(np.triu(make_rng(17).random((1000, 1000)) < prob, k=1))
        want = CsrMatrix.from_coo(1000, 1000, np.r_[us, vs], np.r_[vs, us], np.ones(2 * len(us)))
        whole = SpyRng(make_rng(17))
        one = generate_sbm(params, whole)
        monkeypatch.setattr(graph, "_SBM_DRAWS", 137 * 1000)
        blocks = SpyRng(make_rng(17))
        ds = generate_sbm(params, blocks)
        assert whole.shapes == [(1000, 1000)]
        assert blocks.shapes == [(137, 1000)] * 7 + [(41, 1000)]
        for got in (one, ds):
            assert got.adjacency.row_ptr.tobytes() == want.row_ptr.tobytes()
            assert got.adjacency.col_idx.tobytes() == want.col_idx.tobytes()
        for key in ("features", "train_mask", "val_mask", "test_mask"):
            assert getattr(ds, key).tobytes() == getattr(one, key).tobytes()
        assert blocks.rng.random() == whole.rng.random()

    def test_a_400_node_draw_is_one_block(self):
        rng = SpyRng(make_rng(2024))
        generate_sbm(SbmParams((200, 200), 0.05, 0.02, 1.2, feature_dim=8), rng)
        assert rng.shapes == [(400, 400)]

    def test_peak_memory_is_a_few_row_blocks(self):
        # An n x n draw at n = 4,000 would be 128 MB, and its probabilities as much.
        rng = SpyRng(make_rng(4))
        peak = peak_traced_bytes(
            lambda: generate_sbm(SbmParams((2000, 2000), 0.01, 0.001), rng)
        )
        assert len(rng.shapes) == 16
        assert peak < 3 * 8 * graph._SBM_DRAWS

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SbmParams((4,), 0.1, 0.5)  # p_out > p_in
        with pytest.raises(ValueError):
            SbmParams((), 0.5, 0.1)
        with pytest.raises(ValueError):
            SbmParams((4, 0), 0.5, 0.1)
        for noise in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="need 0 <= feature_noise < inf"):
                SbmParams((4, 4), 0.5, 0.1, noise)


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

    @pytest.mark.parametrize("count", [1, 2], ids=["serial", "ranges"])
    def test_a_load_keeps_its_own_features_array(self, tmp_path, monkeypatch, count):
        # Frozen in place, not copied: one n x d pass and array fewer per load.
        save_dataset(edgeless_dataset(np.arange(36.0).reshape(12, 3)), tmp_path / "data")
        name = "_read_features" if count == 1 else "_join_ranges"
        real, built = getattr(graph, name), []
        monkeypatch.setattr(graph, name, lambda *a: built.append(real(*a)) or built[-1])
        with feature_ranges(count):
            ds = load_dataset(tmp_path / "data")
        assert ds.features is built[0]
        assert not ds.features.flags.writeable
        assert ds.features.tolist() == np.arange(36.0).reshape(12, 3).tolist()

    def test_a_callers_features_are_copied_and_stay_writeable(self):
        features = np.arange(36.0).reshape(12, 3)
        ds = edgeless_dataset(features)
        assert features.flags.writeable
        assert not ds.features.flags.writeable
        assert not np.shares_memory(ds.features, features)

    def test_rejects_more_classes_than_nodes(self):
        adj = CsrMatrix.from_coo(2, 2, [0, 1], [1, 0], [1.0, 1.0])
        with pytest.raises(DatasetError, match=r"num_classes must be in \[1, n\]"):
            make_dataset(adj, np.eye(2), [0, 1], 5, [True, False], [False, False],
                         [False, True])

    def test_rejects_zero_feature_columns(self):
        adj = CsrMatrix.from_coo(2, 2, [0, 1], [1, 0], [1.0, 1.0])
        with pytest.raises(DatasetError, match="d >= 1"):
            make_dataset(adj, np.zeros((2, 0)), [0, 1], 2, [True, False],
                         [False, False], [False, True])

    @given(
        st.integers(1, 5).flatmap(lambda n: st.tuples(
            st.just(n),
            st.integers(0, 3),  # d
            st.integers(0, n + 2),  # num_classes
            st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),  # edges
            st.lists(st.integers(0, 3), min_size=n, max_size=n),  # part of each node
            st.lists(st.integers(0, n + 1), min_size=n, max_size=n),  # labels
        )),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_saved_dataset_loads_back_or_is_rejected(self, tmp_path_factory, parts, data):
        # Whatever make_dataset accepts, save_dataset writes and load_dataset
        # reads back unchanged; the rest make_dataset rejects up front.
        n, d, k, edges, part, labels = parts
        features = data.draw(hnp.arrays(
            np.float64, (n, d),
            elements=st.floats(allow_nan=False, allow_infinity=False)))
        pairs = sorted({(min(u, v), max(u, v)) for u, v in edges if u != v})
        us = [u for u, _ in pairs]
        vs = [v for _, v in pairs]
        adj = CsrMatrix.from_coo(n, n, us + vs, vs + us, np.ones(2 * len(pairs)))
        masks = [np.array(part) == i for i in range(3)]
        try:
            ds = make_dataset(adj, features, labels, k, *masks)
        except DatasetError:
            return
        directory = tmp_path_factory.mktemp("d")
        save_dataset(ds, directory)
        back = load_dataset(directory)
        assert (back.n, back.d, back.num_classes) == (ds.n, ds.d, ds.num_classes)
        for name in ("features", "labels", "train_mask", "val_mask", "test_mask"):
            assert getattr(back, name).tobytes() == getattr(ds, name).tobytes(), name
        assert csr_to_dense(back.adjacency).tobytes() == csr_to_dense(ds.adjacency).tobytes()
