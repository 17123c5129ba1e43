"""Seeded O(edges) planted-partition sampler at the shape of Pubmed.

``capgnn.graph.generate_sbm`` draws an n x n uniform matrix, about 7 GB at
n = 19,717, so the Pubmed-shaped graph is built here instead. As in
Batagelj & Brandes (Efficient generation of large random networks,
PRE 71, 2005), no work is spent on absent edges: each block pair gets a
binomial edge count, and that many distinct node pairs are drawn by
rejection (self-loops and repeats are redrawn). Features are sparse,
positive TF-IDF-like rows whose words lean towards a class-specific
vocabulary, so a GCN beats chance by a wide margin.

Only numpy is used, so the sampled content depends on the seed alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


HOMOPHILY = 0.8  # share of edges inside a block (Pubmed: ~0.8)
SIGNAL = 0.5  # share of a node's words drawn from its class vocabulary


@dataclass(frozen=True)
class Shape:
    block_sizes: tuple[int, ...]
    num_edges: int
    feature_dim: int
    words_per_node: int


# Pubmed: 19,717 nodes in classes of 4,103 / 7,739 / 7,875, 44,338
# undirected edges, 500 TF-IDF words with ~50 nonzeros per row.
PUBMED = Shape(block_sizes=(4103, 7739, 7875), num_edges=44338,
               feature_dim=500, words_per_node=50)
TOY = Shape(block_sizes=(30, 40, 50), num_edges=300,
            feature_dim=24, words_per_node=5)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph (u < v per edge) with raw sparse features."""

    n: int
    us: np.ndarray
    vs: np.ndarray
    features: np.ndarray
    labels: np.ndarray

    @property
    def num_edges(self) -> int:
        return len(self.us)

    @property
    def density(self) -> float:
        return float(np.count_nonzero(self.features)) / self.features.size

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for a in (self.us, self.vs, self.features, self.labels):
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()[:16]


def _distinct_pairs(rng, lo_a, size_a, lo_b, size_b, count):
    """``count`` distinct node pairs between two blocks, self-loops rejected."""
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < count:
        need = count - len(keys)
        draw = need + need // 8 + 16
        u = lo_a + rng.integers(0, size_a, draw)
        v = lo_b + rng.integers(0, size_b, draw)
        keep = u != v
        lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
        fresh = lo.astype(np.int64) * (1 << 32) + hi
        # Keep the earliest draws, not the smallest keys, so that the cut
        # to ``count`` does not favour low node ids.
        merged = np.concatenate([keys, fresh])
        _, first = np.unique(merged, return_index=True)
        keys = merged[np.sort(first)][:count]
    return keys


def sample_graph(shape: Shape, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    sizes = np.asarray(shape.block_sizes, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    n = int(sizes.sum())
    k = len(sizes)
    labels = np.repeat(np.arange(k, dtype=np.int64), sizes)

    pairs_in = sum(int(s) * (int(s) - 1) // 2 for s in sizes)
    pairs_out = (n * (n - 1) // 2) - pairs_in
    p_in = HOMOPHILY * shape.num_edges / pairs_in
    p_out = (1.0 - HOMOPHILY) * shape.num_edges / pairs_out
    keys = []
    for a in range(k):
        for b in range(a, k):
            if a == b:
                count = rng.binomial(sizes[a] * (sizes[a] - 1) // 2, p_in)
            else:
                count = rng.binomial(sizes[a] * sizes[b], p_out)
            keys.append(_distinct_pairs(
                rng, starts[a], sizes[a], starts[b], sizes[b], int(count)))
    keys = np.sort(np.concatenate(keys))
    us, vs = keys >> 32, keys & ((1 << 32) - 1)

    d = shape.feature_dim
    idf = np.log(1.0 + rng.pareto(1.5, d) * 4.0) + 0.5
    vocab = rng.permutation(d)[: (d // k) * k].reshape(k, -1)
    draws = shape.words_per_node + shape.words_per_node // 10
    own = rng.random((n, draws)) < SIGNAL
    word = rng.integers(0, d, (n, draws))
    pick = rng.integers(0, vocab.shape[1], (n, draws))
    word = np.where(own, vocab[labels[:, None], pick], word)
    features = np.zeros((n, d))
    rows = np.repeat(np.arange(n), draws)
    tf = rng.integers(1, 4, n * draws).astype(np.float64)
    np.add.at(features, (rows, word.ravel()), tf)
    features *= idf
    return Graph(n=n, us=us, vs=vs, features=features, labels=labels)
