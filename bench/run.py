#!/usr/bin/env python3
"""Benchmark of the capgnn training engine: one command, one workload per run.

    python3 bench/run.py --workload pubmed_train --seed 3 --seconds 24 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The run sets up the workload's inputs from ``--seed`` (when untraced,
once to warm up and then at least three times and for at least a second,
reporting the median), then repeats the workload's op in a closed loop
(one client) until ``--seconds`` have passed and at least three ops ran;
the median over three or more ops absorbs the slower first op
(first-touch allocations). Every op is checked (see ``workloads.py``)
and compared with ``reference.json``. The report lists every metric by
name, unit and sample count; the last stdout line is the JSON result:

- ``--trace 0``: end-to-end metrics ``setup_s``, ``op_s`` (median program
  time of one op) and ``peak_rss_mb`` (this process). The workload's
  reference kernel (see ``workloads.py``) runs before the set-ups, after
  them and after every op. Each time is scaled to the machine speed at
  which the kernel takes its nominal ``KERNEL_S``: an op's time is
  multiplied by ``KERNEL_S`` over the mean kernel time just before and
  just after it (per phase on ``pubmed_diagnose``), and the set-up times by ``KERNEL_S`` over the mean
  kernel time around the set-ups. The report also gives the unscaled
  medians.
- ``--trace 1``: per-layer metrics. Ops alternate untraced and traced
  (at least three ops); the traced ones run with ``tracing.Tracer``
  installed, and every per-layer value is a mean per traced op.

``--record-reference SEEDS`` (e.g. ``0..31``) instead runs one op per seed
of ``--workload`` (default: every workload) and updates ``reference.json``.
``--toy`` shrinks every workload for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
THREAD_VARS = ("CAPGNN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_SETUPS, SETUP_SECONDS = 3, 1.0
MIN_OPS = 3
KERNEL_REPS = 2  # reference-kernel calls per speed measurement
MODES = ("standard", "weight_perturb", "feature_perturb")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true")
    p.add_argument("--record-reference", metavar="SEEDS")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.record_reference is None and args.workload is None:
        p.error("--workload is required")
    return args


# ---------------------------------------------------------------------------
# Statistics and records
# ---------------------------------------------------------------------------

def tail(values):
    """Highest of p99.9/p99/p95/p90/p75/p50 with >= 10 samples beyond it."""
    import numpy as np

    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(values, p))
    return None, None


def machine_record() -> dict:
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = f"{os.environ['OPENBLAS_NUM_THREADS']} (env)"
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        threads = get()
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def compare(outputs: dict, ref: dict) -> list[str]:
    """Accuracies must equal the reference; losses must be within 1e-6 relative."""
    from workloads import close

    problems = []
    for key, want in ref.items():
        got = outputs.get(key)
        exact = key.endswith("_acc") or key.startswith("attack_acc.")
        if got is None or not (got == want if exact else close(got, want)):
            problems.append(f"{key} = {got!r}, reference {want!r}")
    return problems


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, workload, reference: dict | None):
        self.w, self.reference = workload, reference
        self.setup_s: list[float] = []
        self.setup_scale = 1.0
        self.kernel_s: list[float] = []
        self.scaled_op_s: list[float] = []
        self.results = []
        self.attempted = self.failed = 0
        self.exact = self.digests = 0

    def setup(self, min_times: int, min_seconds: float = 0.0) -> None:
        while len(self.setup_s) < min_times or sum(self.setup_s) < min_seconds:
            t0 = time.perf_counter()
            self.w.setup()
            self.setup_s.append(time.perf_counter() - t0)

    def speed(self, reps: int = KERNEL_REPS) -> float:
        """Mean time of ``reps`` reference-kernel calls."""
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            self.w.reference_kernel()
            times.append(time.perf_counter() - t0)
        self.kernel_s += times
        return statistics.fmean(times)

    def scaled_setup(self) -> None:
        """Warm-up set-up, then timed set-ups between two speed measurements."""
        self.w.setup()
        self.w.reference_kernel()  # builds its inputs; warms it up
        before = self.speed()
        self.setup(MIN_SETUPS, SETUP_SECONDS)
        self.setup_scale = self.w.KERNEL_S / ((before + self.speed()) / 2)

    def scaled_loop(self, seconds: float, min_ops: int) -> None:
        """Closed loop of ops, each scaled by the speed measured around it.

        An op with segments (``workloads.PhaseClock``) also has the speed
        measured between them, with one kernel call, and each segment is
        scaled by the speed measured at its two ends.
        """
        speeds = [self.speed()]
        self.w.between = lambda: speeds.append(self.speed(1))
        for res, _ in self.loop(seconds, min_ops):
            speeds.append(self.speed())
            if res is not None:
                segments = res.segments or [res.program_s]
                ends = speeds[-len(segments) - 1:]
                self.scaled_op_s.append(sum(
                    t * self.w.KERNEL_S * 2 / (a + b)
                    for t, a, b in zip(segments, ends, ends[1:])))
            del speeds[:-1]

    def op(self, k: int, tracer=None):
        self.attempted += 1
        try:
            if tracer is None:
                res = self.w.op(k)
            else:
                tracer.install()
                try:
                    with tracer.span("bench.op"):
                        res = self.w.op(k)
                finally:
                    tracer.uninstall()
        except Exception:
            self.failed += 1
            print(f"op {k} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        if self.reference is None:
            self.reference = {"outputs": res.outputs, "digests": res.digests}
        res.problems += compare(res.outputs, self.reference["outputs"])
        want = self.reference["digests"]
        self.digests += len(want)
        self.exact += sum(res.digests.get(key) == v for key, v in want.items())
        if res.problems:
            self.failed += 1
            for p in res.problems:
                print(f"op {k}: {p}", file=sys.stderr)
        self.results.append(res)
        return res

    def loop(self, seconds: float, min_ops: int, tracer=None):
        """Closed loop of ops; with a tracer, every second op is traced."""
        t0 = time.perf_counter()
        k = 0
        while k < min_ops or time.perf_counter() - t0 < seconds:
            traced = tracer is not None and k % 2 == 1
            yield self.op(k, tracer if traced else None), traced
            k += 1


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    ok = run.results
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(run.setup_s)
    op_s = statistics.median(r.program_s for r in ok)
    metrics = {
        "setup_s": (setup_s * run.setup_scale, "s"),
        "op_s": (statistics.median(run.scaled_op_s), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    kernel_s = statistics.median(run.kernel_s)
    lines = [
        f"  {'setup_s':28s} {metrics['setup_s'][0]:12.4f} s     "
        f"median of {len(run.setup_s)} set-ups, scaled to the nominal speed",
        f"  {'op_s':28s} {metrics['op_s'][0]:12.4f} s     "
        f"median of {len(run.scaled_op_s)} ops, scaled to the nominal speed",
        f"  {'setup_wall_s':28s} {setup_s:12.4f} s     unscaled",
        f"  {'op_wall_s':28s} {op_s:12.4f} s     unscaled",
        f"  {'kernel_s':28s} {kernel_s:12.4f} s     median of {len(run.kernel_s)} "
        f"reference-kernel calls (nominal {run.w.KERNEL_S:g} s)",
    ]
    phases = {}
    for r in ok:
        for name, v in r.phases.items():
            phases.setdefault(name, []).append(v)
    for name, vals in phases.items():
        lines.append(f"  {name:28s} {statistics.median(vals):12.4f} s     "
                     f"median of {len(vals)} ops")
    for mode in MODES:
        ms = [t for r in ok for m, t in r.epochs if m == mode]
        if not ms:
            continue
        lines.append(f"  {'epoch_ms.' + mode + '.p50':28s} {statistics.median(ms):12.2f} ms"
                     f"    median of {len(ms)} epochs")
        p, v = tail(ms)
        if p is not None:
            lines.append(f"  {'epoch_ms.' + mode + '.tail':28s} {v:12.2f} ms"
                         f"    p{p:g} of {len(ms)} epochs")
    lines.append(f"  {'peak_rss_mb':28s} {rss:12.1f} MB    this process")
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines)


def per_layer(tracer_runs, untraced, traced, dgemm) -> tuple[dict, list[str]]:
    """Per-layer metrics as means over the traced ops (``tracer_runs``)."""
    from tracing import self_times

    n = len(tracer_runs)
    tot: dict[str, float] = {}

    def add(key, v):
        tot[key] = tot.get(key, 0.0) + v / n

    for spans in tracer_runs:
        selfs = self_times(spans)
        for i, s in enumerate(spans):
            add(f"{s.name}.calls", 1)
            add(f"{s.name}.ms", s.ms)
            add(f"{s.name}.self_ms", selfs[i])
            add(f"{s.name}.flop", s.info.get("flop", 0))
            parent = spans[s.parent].name if s.parent >= 0 else ""
            if s.name == "model.forward" and parent.startswith("perturb.pgd_"):
                add("pgd.forwards", 1)
            if (s.name == "model.forward" and parent == "train.train_step"
                    and not s.info["training"]):
                add("train.clean_eval.ms", s.ms)
            if s.name == "graph.load_dataset":
                add("graph.bytes_read", s.info["bytes"])
            if s.name == "graph.save_dataset":
                add("graph.bytes_written", s.info["bytes"])
            if s.name == "train.train" and _under(spans, i, "cli.cmd_train"):
                add("cli.cmd_train.train_ms", s.ms)
            if s.name == "bench.op":
                add("trace.wall_ms", s.ms)
        add("trace.self_ms", sum(selfs))

    g = lambda key: tot.get(key, 0.0)  # noqa: E731
    pgd_calls = g("perturb.pgd_weight_perturbation.calls") + g(
        "perturb.pgd_feature_perturbation.calls")
    model_gflop = (g("model.forward.flop") + g("model.backward.flop")) / 1e9
    model_s = (g("model.forward.ms") + g("model.backward.ms")) / 1e3
    values = {
        "linalg.spmm.calls": (g("linalg.spmm.calls"), "count"),
        "linalg.spmm.ms": (g("linalg.spmm.ms"), "ms"),
        "linalg.spmm.gflop": (g("linalg.spmm.flop") / 1e9, "GFLOP"),
        "linalg.CsrMatrix.calls": (g("linalg.CsrMatrix.calls"), "count"),
        "linalg.CsrMatrix.ms": (g("linalg.CsrMatrix.ms"), "ms"),
        "model.forward.calls": (g("model.forward.calls"), "count"),
        "model.forward.self_ms": (g("model.forward.self_ms"), "ms"),
        "model.backward.calls": (g("model.backward.calls"), "count"),
        "model.backward.self_ms": (g("model.backward.self_ms"), "ms"),
        "model.gflop": (model_gflop, "GFLOP"),
        "model.gflops": (model_gflop / model_s if model_s else 0.0, "GFLOP/s"),
        "model.dgemm_gflops": (dgemm, "GFLOP/s"),
        "model.gflops_over_dgemm": (
            model_gflop / model_s / dgemm if model_s else 0.0, "ratio"),
        "model.save_model.ms": (g("model.save_model.ms"), "ms"),
        "model.load_model.ms": (g("model.load_model.ms"), "ms"),
        "perturb.forwards_per_pgd": (
            g("pgd.forwards") / pgd_calls if pgd_calls else 0.0, "ratio"),
        "train.train_step.calls": (g("train.train_step.calls"), "count"),
        "train.train_step.self_ms": (g("train.train_step.self_ms"), "ms"),
        "train.optimizer_step.ms": (g("train.optimizer_step.ms"), "ms"),
        "train.clean_eval.ms": (g("train.clean_eval.ms"), "ms"),
        "train.train.ms": (g("train.train.ms"), "ms"),
        "landscape.sample_directions.ms": (g("landscape.sample_directions.ms"), "ms"),
        "landscape.probe_landscape.self_ms": (
            g("landscape.probe_landscape.self_ms"), "ms"),
        "landscape.gaussian_attack_trials.self_ms": (
            g("landscape.gaussian_attack_trials.self_ms"), "ms"),
        "graph.load_dataset.ms": (g("graph.load_dataset.ms"), "ms"),
        "graph.save_dataset.ms": (g("graph.save_dataset.ms"), "ms"),
        "graph.normalize_adjacency.ms": (g("graph.normalize_adjacency.ms"), "ms"),
        "graph.make_dataset.ms": (g("graph.make_dataset.ms"), "ms"),
        "graph.bytes_read": (g("graph.bytes_read"), "bytes"),
        "graph.bytes_written": (g("graph.bytes_written"), "bytes"),
        "cli.cmd_train.overhead_ms": (
            g("cli.cmd_train.ms") - g("cli.cmd_train.train_ms"), "ms"),
        "trace.wall_ms": (g("trace.wall_ms"), "ms"),
        "trace.self_ms": (g("trace.self_ms"), "ms"),
        "trace.overhead": (
            statistics.median(traced) / statistics.median(untraced), "ratio"),
    }
    for name in ("pgd_weight_perturbation", "pgd_feature_perturbation"):
        for part, unit in (("calls", "count"), ("ms", "ms"), ("self_ms", "ms")):
            key = f"perturb.{name}.{part}"
            values[key] = (g(key), unit)
    lines = [f"  per traced op, mean of {n}, alternating with {len(untraced)} untraced ops"]
    lines += [f"  {k:42s} {v:14.4f} {u}" for k, (v, u) in sorted(values.items())]
    return values, lines


def _under(spans, i, name) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def dgemm_gflops(n: int, d: int, h: int) -> float:
    """Single-thread float64 GEMM rate at the ``X @ W0`` shape, same run."""
    import numpy as np

    rng = np.random.default_rng(0)
    x, w = rng.standard_normal((n, d)), rng.standard_normal((d, h))
    times = []
    t_end = time.perf_counter() + 0.3
    while len(times) < 5 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        x @ w
        times.append(time.perf_counter() - t0)
    return 2.0 * n * d * h / statistics.median(times) / 1e9


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def bootstrap() -> None:
    """Cap BLAS threads and import capgnn from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "capgnn" / "__init__.py").is_file():
        raise SystemExit(f"bench: no capgnn sources under {src}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]
    import capgnn

    if Path(capgnn.__file__).resolve().parent != (src / "capgnn").resolve():
        raise SystemExit(f"bench: imported capgnn from {capgnn.__file__}, not {src}")


def load_reference(workload: str, seed: int, toy: bool):
    if toy or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def run_benchmark(args, work: Path) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    ref = load_reference(args.workload, args.seed, args.toy)
    run = Run(WORKLOADS[args.workload](args.seed, work, toy=args.toy), ref)
    report = [f"workload {args.workload}  seed {args.seed}  closed loop, 1 client, "
              f"{args.seconds:g} s  trace {args.trace}"]
    if args.trace == 0:
        run.scaled_setup()
        run.scaled_loop(args.seconds, MIN_OPS)
        metrics, lines = end_to_end(run)
    else:
        from tracing import Tracer

        run.setup(1)
        tracer, spans, untraced, traced = Tracer(), [], [], []
        for res, was_traced in run.loop(args.seconds, 3, tracer):
            if was_traced:
                spans.append(tracer.spans)
                tracer.spans = []
            if res is not None:
                (traced if was_traced else untraced).append(res.program_s)
        values, lines = per_layer(spans, untraced, traced,
                                  dgemm_gflops(*run.w.gemm_shape))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    report += lines
    report.append(f"  {'fail_ratio':28s} {run.failed / run.attempted:12.4f}       "
                  f"{run.failed} failed of {run.attempted} ops")
    ref_note = "stored reference" if ref is not None else "first op (no stored reference)"
    report.append(f"  {'outputs_exact':28s} {run.exact:12d}       "
                  f"of {run.digests} artefact digests, against the {ref_note}")
    report.append(f"  inputs: {run.w.describe()}")
    report.append(f"  machine: {json.dumps(machine_record(), sort_keys=True)}")
    print("\n".join(report))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def record_reference(seeds: str, workload: str | None, work: Path) -> int:
    from workloads import WORKLOADS

    lo, _, hi = seeds.partition("..")
    out = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name in [workload] if workload else WORKLOADS:
        cls = WORKLOADS[name]
        out[name] = {}
        for seed in range(int(lo), int(hi or lo) + 1):
            w = cls(seed, work)
            w.setup()
            res = w.op(0)
            if res.problems:
                raise SystemExit(f"{name} seed {seed}: {res.problems}")
            out[name][str(seed)] = {"outputs": res.outputs, "digests": res.digests}
            print(f"{name} seed {seed}: {res.program_s:.2f} s", flush=True)
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.record_reference is not None:
            return record_reference(args.record_reference, args.workload, work)
        return run_benchmark(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
