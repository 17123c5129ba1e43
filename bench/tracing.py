"""In-memory span tracer installed around capgnn's public functions.

The program itself carries no timers, so spans are recorded here, from
outside: every public function of the traced modules is replaced, under
every name a capgnn module binds it to (``capgnn.perturb.forward`` and
``capgnn.model.forward`` are the same wrapper), by a wrapper that records
``(name, start, end, parent, info)``. Two methods are wrapped as well:
``CsrMatrix.__init__`` (construction and validation, span
``linalg.CsrMatrix``) and the optimizers' ``step`` (``train.optimizer_step``).
``uninstall`` puts every original back, so untraced work runs the
unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field
from pathlib import Path

MODULES = ("linalg", "model", "perturb", "train", "landscape", "graph", "cli")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    info: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _dir_bytes(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())


def _forward_info(args, kwargs, result):
    model, a_hat = args[0], args[1]
    training = kwargs.get("training", args[4] if len(args) > 4 else False)
    flop = sum(2 * a_hat.rows * w.shape[0] * w.shape[1] + 2 * a_hat.nnz * w.shape[1]
               for w in model.weights)
    return {"training": bool(training), "flop": flop}


def _backward_info(args, kwargs, result):
    model, a_hat = args[0], args[1]
    flop = sum(4 * a_hat.rows * w.shape[0] * w.shape[1] + 2 * a_hat.nnz * w.shape[1]
               for w in model.weights)
    return {"flop": flop}


def _spmm_info(args, kwargs, result):
    return {"flop": 2 * args[0].nnz * result.shape[1]}


def _dataset_io_info(args, kwargs, result):
    return {"bytes": _dir_bytes(args[1] if len(args) > 1 else kwargs["directory"])}


def _load_info(args, kwargs, result):
    return {"bytes": _dir_bytes(args[0] if args else kwargs["directory"])}


# Shape-derived annotations, computed after the call; flop counts are
# 2 * m * n * k per dense product and 2 * nnz * cols per sparse product.
_INFO = {
    "model.forward": _forward_info,
    "model.backward": _backward_info,
    "linalg.spmm": _spmm_info,
    "graph.save_dataset": _dataset_io_info,
    "graph.load_dataset": _load_info,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if info is not None:
                self.spans[idx].info = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"capgnn.{m}") for m in MODULES}
        wrappers = {}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("capgnn."):
                    continue
                if obj not in wrappers:
                    short = obj.__module__.split(".", 1)[1]
                    wrappers[obj] = self._wrap(f"{short}.{obj.__name__}", obj)
                self._patch(mod, attr, wrappers[obj])
        csr = mods["linalg"].CsrMatrix
        self._patch(csr, "__init__", self._wrap("linalg.CsrMatrix", csr.__init__))
        for cls in (mods["train"].AdamOptimizer, mods["train"].SgdOptimizer):
            self._patch(cls, "step", self._wrap("train.optimizer_step", cls.step))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children (ms).

    Spans nest strictly (one thread), so children never overlap and the
    self times of a tree add up to its root's duration.
    """
    out = [s.ms for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.ms
    return out
