"""The three closed-loop workloads: one client, next op after the last ends.

Each workload builds its inputs from the benchmark seed in ``setup`` and
then repeats one op on those inputs. An op returns an ``OpResult``: the
program time the end-to-end metrics use, the op's phases, per-epoch
``(mode, wall_ms)`` pairs as the program reports them, scalar outputs
compared against the stored reference, artefact digests, and the list of
problems the checks found. Every call into capgnn goes through the module
attribute (``capgnn.train.train``), so the tracer's wrappers see it.

Workloads (why each one is here):

- ``sbm_sweep``: the README's 400-node two-block SBM trained by
  ``capgnn train`` with ``configs/sbm_cap.cfg``'s settings over seeds
  1..10. Per-call overhead, the optimizer, CLI writes and the clean
  forwards after training dominate; dense kernels barely register.
- ``pubmed_train``: one ``train()`` call on the Pubmed-shaped graph with
  ``configs/pubmed_cap.cfg``'s hyperparameters on a 4-epoch ``cap``
  schedule (1 standard, 2 weight-perturbed, 1 feature-perturbed).
  float64 dense kernels dominate and PGD multiplies them.
- ``pubmed_diagnose``: the same graph through the forward-only paths:
  dataset save and load, a checkpoint round trip, landscape probes of
  both kinds and the Gaussian attack. No backward, PGD or optimizer runs
  in the op, so a training-side change should not move it.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import capgnn.cli
import capgnn.graph
import capgnn.landscape
import capgnn.linalg
import capgnn.model
import capgnn.perturb
import capgnn.train

import pubmed_shape

LOSS_RTOL = 1e-6


@dataclass
class OpResult:
    program_s: float
    phases: dict[str, float] = field(default_factory=dict)
    epochs: list[tuple[str, float]] = field(default_factory=list)
    outputs: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    segments: list[float] = field(default_factory=list)  # see PhaseClock


class PhaseClock:
    """Phase times of an op. A ``pause`` mark calls ``between`` off the clock.

    ``segments`` holds the program time between pauses, so run.py can
    scale each stretch of an op by the machine speed measured around it.
    """

    def __init__(self, between):
        self.between, self.phases, self.segments = between, {}, [0.0]
        self.t = time.perf_counter()

    def mark(self, name: str, pause: bool = False) -> None:
        now = time.perf_counter()
        self.phases[name] = now - self.t
        self.segments[-1] += now - self.t
        if pause:
            self.between()
            self.segments.append(0.0)
        self.t = time.perf_counter()


# ---------------------------------------------------------------------------
# Independent checks: a second implementation of the GCN forward pass
# ---------------------------------------------------------------------------

def normalized_adjacency(n: int, us: np.ndarray, vs: np.ndarray) -> sp.csr_matrix:
    """D^-1/2 (A + I) D^-1/2 with D = 1 + degree, built straight from edges."""
    a = sp.coo_matrix(
        (np.ones(2 * len(us)), (np.concatenate([us, vs]), np.concatenate([vs, us]))),
        shape=(n, n),
    ).tocsr()
    inv = 1.0 / np.sqrt(1.0 + np.asarray(a.sum(axis=1)).ravel())
    return sp.diags(inv) @ (a + sp.identity(n, format="csr")) @ sp.diags(inv)


@dataclass
class Oracle:
    a_hat: sp.csr_matrix
    features: np.ndarray
    labels: np.ndarray
    masks: dict[str, np.ndarray]

    def logits(self, weights) -> np.ndarray:
        h = self.features
        for l, w in enumerate(weights):
            h = self.a_hat @ (h @ w)
            if l < len(weights) - 1:
                h = np.maximum(h, 0.0)
        return h

    def loss(self, logits, part="train") -> float:
        sub = logits[self.masks[part]]
        m = sub.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(sub - m).sum(axis=1))
        return float(np.mean(lse - sub[np.arange(len(sub)), self.labels[self.masks[part]]]))

    def acc(self, logits, part) -> float:
        pred = np.argmax(logits[self.masks[part]], axis=1)
        return float(np.mean(pred == self.labels[self.masks[part]]))


# ---------------------------------------------------------------------------
# Reference kernels: the yardstick of machine speed
# ---------------------------------------------------------------------------
# The shared host this benchmark was tuned on changes speed by up to 1.7x
# over tens of seconds, in CPU time as much as in wall time. Each workload
# therefore has a reference kernel: a fixed amount of the benchmark's own
# numpy and Python work with the same mix of kernels as its op, on inputs
# the benchmark builds itself and never on capgnn's objects, so no change
# to the program can move it. run.py times the kernel between ops and
# scales each op time by the kernel's nominal time over its measured time.

class ReferenceGcn:
    """Two-layer GCN steps in plain numpy: forward, backward, Adam update.

    The weights are not kept between calls, so every call does the same
    work on the same numbers.
    """

    def __init__(self, a_hat: sp.csr_matrix, x: np.ndarray, labels: np.ndarray,
                 hidden: int = 64):
        rng = np.random.default_rng(0)
        self.a, self.at, self.x, self.y = a_hat, a_hat.T.tocsr(), x, labels
        self.w = [rng.standard_normal((x.shape[1], hidden)) * 0.1,
                  rng.standard_normal((hidden, int(labels.max()) + 1)) * 0.1]

    def forward(self, x: np.ndarray, w) -> tuple[np.ndarray, np.ndarray]:
        h0 = self.a @ (x @ w[0])
        return h0, self.a @ (np.maximum(h0, 0.0) @ w[1])

    def steps(self, count: int, feature_step: bool = False) -> None:
        w = list(self.w)
        m = [np.zeros_like(v) for v in w]
        s = [np.zeros_like(v) for v in w]
        for t in range(1, count + 1):
            h0, z = self.forward(self.x, w)
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(len(p)), self.y] -= 1.0
            gz = self.at @ (p / len(p))
            grads = [None, np.maximum(h0, 0.0).T @ gz]
            gh0 = self.at @ ((gz @ w[1].T) * (h0 > 0.0))
            grads[0] = self.x.T @ gh0
            if feature_step:  # one signed feature-gradient step, as in PGD
                self.forward(self.x + 0.01 * np.sign(gh0 @ w[0].T), w)
            for i, g in enumerate(grads):
                m[i] = 0.9 * m[i] + 0.1 * g
                s[i] = 0.999 * s[i] + 0.001 * g * g
                w[i] = w[i] - 0.01 * (m[i] / (1 - 0.9 ** t)) / (
                    np.sqrt(s[i] / (1 - 0.999 ** t)) + 1e-8)


def text_round_trip(rows: np.ndarray) -> None:
    """Format rows as CSV text and parse them back, value by value."""
    lines = [",".join(repr(float(v)) for v in row) for row in rows]
    [[float(t) for t in line.split(",")] for line in lines]


def own_row_normalize(features: np.ndarray) -> np.ndarray:
    sums = np.abs(features).sum(axis=1, keepdims=True)
    sums[sums == 0.0] = 1.0
    return features / sums


def read_checkpoint(path: Path) -> list[np.ndarray]:
    payload = json.loads(path.read_text(encoding="utf-8"))
    dims = payload["layer_dims"]
    return [
        np.frombuffer(base64.b64decode(blob), dtype="<f8").reshape(fi, fo)
        for (fi, fo), blob in zip(zip(dims[:-1], dims[1:]), payload["weights_b64"])
    ]


def close(a: float, b: float, rtol: float = LOSS_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def metrics_csv_digest(path: Path) -> str:
    """Digest of metrics.csv without its last column (wall_ms, not replayable)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return sha("\n".join(line.rsplit(",", 1)[0] for line in lines).encode())


def read_epochs(path: Path) -> list[tuple[str, float]]:
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return [(r.split(",")[1], float(r.rsplit(",", 1)[1])) for r in rows]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class SbmSweep:
    """``capgnn gen-sbm`` once, then ``capgnn train`` over a seed list per op."""

    name = "sbm_sweep"
    KERNEL_S = 0.15  # nominal reference-kernel time (see run.py)

    def __init__(self, seed: int, work: Path, toy: bool = False):
        self.seed, self.work = seed, work
        self.blocks = "20,20" if toy else "200,200"
        self.seeds = (1, 2) if toy else tuple(range(1, 11))
        self.data = work / "sbm"
        self.config = work / "sbm_cap.cfg"
        self.oracle = self.ref = None
        self.gemm_shape = (sum(int(b) for b in self.blocks.split(",")), 8, 64)

    def describe(self) -> str:
        meta = json.loads((self.data / "manifest.json").read_text())
        return f"capgnn gen-sbm --blocks {self.blocks} n={meta['n']} edges={meta['num_edges']}"

    def setup(self) -> None:
        argv = ["gen-sbm", "--blocks", self.blocks, "--p_in", "0.05",
                "--p_out", "0.02", "--feature_noise", "1.2", "--feature_dim", "8",
                "--seed", str(self.seed), "--out_dir", str(self.data)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = capgnn.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"capgnn gen-sbm exited {rc}")
        # configs/sbm_cap.cfg, with this benchmark's paths and seed list.
        self.config.write_text(
            f"dataset_dir = {self.data}\nmode = cap\nepochs = 200\n"
            "skip_epochs = 50\nfrequency = 5\nlr = 0.01\noptimizer = adam\n"
            "weight_decay = 0.0\nhidden_dims = 64\ndropout = 0.0\n"
            "model_selection = last\nrho_w = 0.1\nrho_x = 0.2\nbeta = 0.02\n"
            f"pgd_steps = 3\nseeds = {self.seeds[0]}..{self.seeds[-1]}\n"
            "eval_every = 10\n",
            encoding="utf-8",
        )

    def reference_kernel(self) -> None:
        """300 Adam steps on the SBM graph: small arrays, call overhead."""
        if self.ref is None:
            o = self._oracle()
            self.ref = ReferenceGcn(o.a_hat, o.features, o.labels)
        self.ref.steps(300)

    def _oracle(self) -> Oracle:
        if self.oracle is None:
            d = self.data
            edges = np.loadtxt(d / "edges.tsv", dtype=np.int64, ndmin=2)
            feats = np.loadtxt(d / "features.csv", delimiter=",", ndmin=2)
            labels = np.loadtxt(d / "labels.txt", dtype=np.int64)
            split = json.loads((d / "split.json").read_text())
            masks = {}
            for part in ("train", "val", "test"):
                masks[part] = np.zeros(len(labels), dtype=bool)
                masks[part][split[part]] = True
            self.oracle = Oracle(
                normalized_adjacency(len(labels), edges[:, 0], edges[:, 1]),
                feats, labels, masks,
            )
        return self.oracle

    def op(self, k: int) -> OpResult:
        out = self.work / f"sweep_{k}"
        argv = ["train", "--config", str(self.config), "--out_dir", str(out)]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = capgnn.cli.main(argv)
        res = OpResult(time.perf_counter() - t0)
        res.phases["sweep_s"] = res.program_s
        if rc != 0:
            res.problems.append(f"capgnn train exited {rc}")
            return res
        try:
            self._check(out, res)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return res

    def _check(self, out: Path, res: OpResult) -> None:
        missing = [p for p in ("manifest.json", "summary.json") if not (out / p).is_file()]
        missing += [f"seed_{s}/{f}" for s in self.seeds
                    for f in ("metrics.csv", "checkpoint.json")
                    if not (out / f"seed_{s}" / f).is_file()]
        if missing:
            res.problems.append(f"missing artefacts: {', '.join(missing)}")
            return
        summary = json.loads((out / "summary.json").read_text())
        oracle = self._oracle()
        for row in summary["per_seed"]:
            s = row["seed"]
            seed_dir = out / f"seed_{s}"
            res.epochs += read_epochs(seed_dir / "metrics.csv")
            last = (seed_dir / "metrics.csv").read_text().splitlines()[-1].split(",")
            res.outputs[f"s{s}.train_loss"] = float(last[2])
            for part in ("train", "val", "test"):
                res.outputs[f"s{s}.{part}_acc"] = row[f"{part}_acc"]
            res.digests[f"s{s}.checkpoint"] = sha((seed_dir / "checkpoint.json").read_bytes())
            res.digests[f"s{s}.metrics"] = metrics_csv_digest(seed_dir / "metrics.csv")
            # model_selection = last: the checkpoint holds the final weights,
            # at which the last metrics row was evaluated.
            logits = oracle.logits(read_checkpoint(seed_dir / "checkpoint.json"))
            if not close(oracle.loss(logits), float(last[2])):
                res.problems.append(f"seed {s}: train_loss {last[2]} != recomputed "
                                    f"{oracle.loss(logits)!r}")
            for part in ("train", "val", "test"):
                if oracle.acc(logits, part) != row[f"{part}_acc"]:
                    res.problems.append(f"seed {s}: {part}_acc differs from recomputed")


def _pubmed_parts(seed: int, toy: bool):
    g = pubmed_shape.sample_graph(pubmed_shape.TOY if toy else pubmed_shape.PUBMED, seed)
    adjacency = capgnn.linalg.CsrMatrix.from_coo(
        g.n, g.n, np.concatenate([g.us, g.vs]), np.concatenate([g.vs, g.us]),
        np.ones(2 * g.num_edges),
    )
    split = capgnn.graph.random_split(g.labels, (0.6, 0.2, 0.2), capgnn.linalg.make_rng(seed))
    return g, adjacency, split


def _describe(g) -> str:
    return (f"Pubmed-shaped n={g.n} edges={g.num_edges} density={g.density:.4f} "
            f"fingerprint={g.fingerprint()}")


def _reference_for(g) -> ReferenceGcn:
    return ReferenceGcn(normalized_adjacency(g.n, g.us, g.vs),
                        own_row_normalize(g.features), g.labels)


def _oracle_for(g, split, features) -> Oracle:
    masks = dict(zip(("train", "val", "test"), split))
    return Oracle(normalized_adjacency(g.n, g.us, g.vs), features, g.labels, masks)


def _pubmed_cfg(**kw):
    """configs/pubmed_cap.cfg's hyperparameters; callers set the schedule."""
    perturb = capgnn.perturb.PerturbConfig(rho_w=0.01, rho_x=0.01, beta=0.001, steps=3)
    base = dict(lr=0.01, optimizer="adam", weight_decay=0.0005, hidden_dims=(64,),
                dropout=0.5, eval_every=10, model_selection="best_val", perturb=perturb)
    base.update(kw)
    return capgnn.train.TrainConfig(**base)


class PubmedTrain:
    """One ``train()`` call per op on the in-memory Pubmed-shaped dataset."""

    name = "pubmed_train"
    KERNEL_S = 0.35

    def __init__(self, seed: int, work: Path, toy: bool = False):
        self.seed, self.work, self.toy = seed, work, toy
        self.cfg = _pubmed_cfg(epochs=4, skip_epochs=1, frequency=4, mode="cap", seed=seed)
        self.oracle = self.ref = None

    def describe(self) -> str:
        return _describe(self.graph)

    @property
    def gemm_shape(self):
        return (self.graph.n, self.dataset.d, 64)

    def reference_kernel(self) -> None:
        """One step with a feature-gradient forward: large dense GEMMs."""
        if self.ref is None:
            self.ref = _reference_for(self.graph)
        self.ref.steps(1, feature_step=True)

    def setup(self) -> None:
        g, adjacency, split = _pubmed_parts(self.seed, self.toy)
        self.graph = g
        features = capgnn.graph.row_normalize(g.features)
        self.dataset = capgnn.graph.make_dataset(adjacency, features, g.labels, 3, *split)
        self.split = split

    def op(self, k: int) -> OpResult:
        t0 = time.perf_counter()
        model, history = capgnn.train.train(self.dataset, self.cfg)
        res = OpResult(time.perf_counter() - t0)
        res.phases["train_s"] = res.program_s
        res.epochs = [(r.mode_used, r.wall_ms) for r in history]
        out = self.work / f"train_{k}"
        out.mkdir(parents=True)
        try:
            capgnn.train.write_metrics_csv(history, out / "metrics.csv")
            capgnn.model.save_model(model, out / "checkpoint.json")
            res.digests["checkpoint"] = sha((out / "checkpoint.json").read_bytes())
            res.digests["metrics"] = metrics_csv_digest(out / "metrics.csv")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self._check(model, history, res)
        return res

    def _check(self, model, history, res: OpResult) -> None:
        final = history[-1]
        res.outputs["train_loss"] = final.train_loss
        for part in ("train", "val", "test"):
            res.outputs[f"{part}_acc"] = getattr(final, f"{part}_acc")
        if self.oracle is None:
            self.oracle = _oracle_for(self.graph, self.split, self.dataset.features)
        # best_val selection returns the weights of the first evaluated epoch
        # with the highest val_acc; that epoch's record describes them.
        evaluated = [r for r in history if r.val_acc is not None]
        chosen = max(evaluated, key=lambda r: r.val_acc)
        logits = self.oracle.logits(model.weights)
        if not close(self.oracle.loss(logits), chosen.train_loss):
            res.problems.append("train_loss of the returned model differs from recomputed")
        for part in ("train", "val", "test"):
            if self.oracle.acc(logits, part) != getattr(chosen, f"{part}_acc"):
                res.problems.append(f"{part}_acc of the returned model differs from recomputed")
        majority = np.bincount(self.graph.labels).max() / self.graph.n
        if not self.toy and chosen.test_acc <= majority + 0.1:
            res.problems.append(f"test_acc {chosen.test_acc} is not above chance")


class PubmedDiagnose:
    """Dataset IO, a checkpoint round trip, landscape probes and the attack."""

    name = "pubmed_diagnose"
    KERNEL_S = 0.45
    DIRECTIONS = 2
    ALPHAS = np.linspace(-1.0, 1.0, 5)
    SIGMAS = (0.0, 0.01, 0.02, 0.05)
    TRIALS = 2
    TEXT_ROWS = 800

    def __init__(self, seed: int, work: Path, toy: bool = False):
        self.seed, self.work, self.toy = seed, work, toy
        self.oracle = self.ref = None

    def describe(self) -> str:
        return _describe(self.graph)

    @property
    def gemm_shape(self):
        return (self.graph.n, self.raw.d, 64)

    def reference_kernel(self) -> None:
        """A noisy forward, and CSV text for some feature rows both ways."""
        if self.ref is None:
            self.ref = _reference_for(self.graph)
        r = self.ref
        r.forward(r.x + 0.01 * np.random.default_rng(0).standard_normal(r.x.shape), r.w)
        text_round_trip(self.graph.features[:self.TEXT_ROWS])

    @staticmethod
    def between() -> None:
        """Called between the op's phases; run.py measures the speed here."""

    def setup(self) -> None:
        g, adjacency, split = _pubmed_parts(self.seed, self.toy)
        self.graph, self.split = g, split
        self.raw = capgnn.graph.make_dataset(adjacency, g.features, g.labels, 3, *split)
        self.expected = capgnn.graph.row_normalize(g.features)
        normalized = capgnn.graph.make_dataset(adjacency, self.expected, g.labels, 3, *split)
        # A briefly trained checkpoint, so the attack has accuracy to lose.
        cfg = _pubmed_cfg(epochs=5, mode="vanilla", lr=0.05, eval_every=5,
                          model_selection="last", seed=self.seed)
        self.model, _ = capgnn.train.train(normalized, cfg)

    def op(self, k: int) -> OpResult:
        out = self.work / f"diagnose_{k}"
        data, ckpt = out / "data", out / "checkpoint.json"
        out.mkdir(parents=True)
        try:
            res = self._run(data, ckpt)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return res

    def _run(self, data: Path, ckpt: Path) -> OpResult:
        land = capgnn.landscape
        clock = PhaseClock(self.between)
        capgnn.graph.save_dataset(self.raw, data)
        clock.mark("dataset_save_s", pause=True)
        ds = capgnn.graph.load_dataset(data, row_normalize_features=True)
        clock.mark("dataset_load_s")
        capgnn.model.save_model(self.model, ckpt)
        model = capgnn.model.load_model(ckpt)
        clock.mark("checkpoint_s", pause=True)
        profiles = {}
        for kind in (land.WEIGHT_KIND, land.FEATURE_KIND):
            source = model if kind == land.WEIGHT_KIND else ds.features
            dirs = land.sample_directions(
                source, kind, self.DIRECTIONS, capgnn.linalg.make_rng(self.seed))
            profiles[kind] = land.probe_landscape(model, ds, dirs, self.ALPHAS)
        clock.mark("probe_s", pause=True)
        rng = capgnn.linalg.make_rng(self.seed)
        attack = {s: land.gaussian_attack_trials(model, ds, s, self.TRIALS, rng)
                  for s in self.SIGMAS}
        clock.mark("attack_s")

        res = OpResult(sum(clock.phases.values()), clock.phases,
                       segments=clock.segments)
        for kind, prof in profiles.items():
            res.outputs[f"sharpness.{kind}"] = land.sharpness(prof, 0.5)
            res.outputs[f"loss_sum.{kind}"] = float(prof.losses.sum())
        for s, accs in attack.items():
            res.outputs[f"attack_acc.{s}"] = float(np.mean(accs))
        res.digests["checkpoint"] = sha(ckpt.read_bytes())
        for name in ("edges.tsv", "features.csv", "labels.txt", "split.json"):
            res.digests[name] = sha((data / name).read_bytes())
        self._check(ds, model, profiles, attack, res)
        return res

    def _check(self, ds, model, profiles, attack, res: OpResult) -> None:
        g = self.graph
        if not np.array_equal(ds.features, self.expected):
            res.problems.append("loaded features differ from the saved ones")
        if ds.num_edges != g.num_edges or not np.array_equal(ds.labels, g.labels):
            res.problems.append("loaded graph differs from the saved one")
        if any(not np.array_equal(a, b) for a, b in zip(model.weights, self.model.weights)):
            res.problems.append("checkpoint round trip changed the weights")
        if self.oracle is None:
            self.oracle = _oracle_for(g, self.split, ds.features)
        logits = self.oracle.logits(model.weights)
        clean = self.oracle.loss(logits)
        zero = int(np.flatnonzero(self.ALPHAS == 0.0)[0])
        for kind, prof in profiles.items():
            if not all(close(v, clean) for v in prof.losses[:, zero]):
                res.problems.append(f"{kind} profile at alpha=0 != recomputed clean loss")
        if not np.all(attack[0.0] == self.oracle.acc(logits, "test")):
            res.problems.append("attack at sigma=0 != recomputed clean test accuracy")


WORKLOADS = {w.name: w for w in (SbmSweep, PubmedTrain, PubmedDiagnose)}
