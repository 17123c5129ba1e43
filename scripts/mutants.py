#!/usr/bin/env python3
"""Run named source mutations against the tests that should kill them.

Each mutation replaces one exact string of one file under ``src/capgnn``
with another. For every selected mutation this copies ``src/`` and
``tests/`` into a temporary directory, applies the mutation there, runs
the tests named for it, and prints ``killed`` (a test failed) or
``survived`` (all passed). The checkout itself is never written.

    python scripts/mutants.py                  # every mutation
    python scripts/mutants.py sample_std ...   # the named ones
    python scripts/mutants.py --check          # every old string occurs once

Exits 1 if a mutation survives, if pytest cannot run its tests (a
renamed test, say), or if its old string does not occur exactly once:
a source edit that moves a mutated line fails loudly instead of leaving
a mutation that no longer mutates anything.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutation(NamedTuple):
    file: str  # relative to src/capgnn
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repo root


MODEL, PERTURB, LINALG = "model.py", "perturb.py", "linalg.py"
FEATURE_PGD = "tests/test_perturb.py::TestFeaturePgd"
SEED_WORKERS = "tests/test_cli.py::TestSeedWorkers"
FEATURES_CSV = "tests/test_graph.py::TestFeaturesCsv"
RANGE_BITS = ("tests/test_graph.py::TestFeatureRanges::"
              "test_saved_wide_sbm_loads_to_the_serial_bits")
STREAMED_ATTACK = ("tests/test_landscape.py::TestGaussianAttack::"
                   "test_streamed_chunks_match_reference_draws")
PROBE = "tests/test_landscape.py::TestProbeLandscape"
DENSE_RANGES = f"{FEATURE_PGD}::test_dense_ranges_match_the_reference"
EDGE_TEXTS = "tests/test_graph.py::TestDatasetIO::test_edges_read_as_the_line_loop_reads_them"

MUTATIONS = {
    # Numerics that tier-1 once let through.
    "adam_no_second_bias_correction": Mutation(
        "train.py", "v_hat = self.v[l] / b2t", "v_hat = self.v[l]",
        ("tests/test_train.py::TestOptimizers",),
    ),
    "adam_eps_inside_sqrt": Mutation(
        "train.py", "(np.sqrt(v_hat) + self.eps)", "np.sqrt(v_hat + self.eps)",
        ("tests/test_train.py::TestOptimizers::test_adam_adds_eps_after_the_square_root",),
    ),
    "weight_ball_at_twice_the_radius": Mutation(
        PERTURB,
        "(e * (radii[l] / nrm), None) if nrm > radii[l]",
        "(e * (2 * radii[l] / nrm), None) if nrm > 2 * radii[l]",
        ("tests/test_perturb.py::TestWeightPgd",),
    ),
    "weight_radius_from_linf_norm": Mutation(
        PERTURB, "cfg.rho_w * lp_norm(w, 2)", "cfg.rho_w * lp_norm(w, math.inf)",
        ("tests/test_perturb.py::TestWeightPgd",),
    ),
    "sample_std": Mutation(
        "cli.py", "/ len(xs)) ** 0.5", "/ (len(xs) - 1)) ** 0.5",
        ("tests/test_cli.py::TestTrain::test_test_acc_std_is_the_population_std",),
    ),
    "dropout_without_inverted_scale": Mutation(
        MODEL, "                s /= keep\n", "",
        ("tests/test_model.py::TestForward::"
         "test_inverted_dropout_scales_kept_entries_by_one_over_keep",),
    ),
    # Row blocks: cuts, ranges and the pool.
    "unaligned_cuts": Mutation(
        LINALG,
        "[align * (units * i // blocks) for i in range(blocks)]",
        "[rows * i // blocks for i in range(blocks)]",
        ("tests/test_linalg.py::TestMatmulRows",),
    ),
    "row_align_8": Mutation(
        LINALG, "_ROW_ALIGN = 192", "_ROW_ALIGN = 8",
        ("tests/test_linalg.py::TestMatmulRows",),
    ),
    # The cuts stopped depending on the CPU count; the old one-per-CPU cap:
    "cuts_capped_at_width": Mutation(
        LINALG, "blocks = units // per_block", "blocks = min(units // per_block, _WIDTH)",
        ("tests/test_linalg.py::TestRowCuts",),
    ),
    "transposed_cut_at_the_sparse_floor": Mutation(
        LINALG,
        "return _row_cuts(rows, row_work, _MIN_TRANSPOSED, 1)",
        "return _row_cuts(rows, row_work, _CHUNK, 1)",
        ("tests/test_linalg.py::TestMatmulRows::test_weight_gradient_bitwise_equal",),
    ),
    # The shared queue of ranges: what it hands out, and who drains it.
    "dropped_last_range": Mutation(
        LINALG, "fn(bounds[i], bounds[i + 1])",
        "fn(bounds[i], bounds[min(i + 1, ranges - 1)])",
        ("tests/test_linalg.py::TestSpmmRowBlocks",),
    ),
    "drain_skips_its_last_range": Mutation(
        LINALG, "while (i := next(taken)) < ranges:", "while (i := next(taken)) < ranges - 1:",
        ("tests/test_linalg.py::TestSharedQueue",),
    ),
    "cancelled_drain_keeps_fn": Mutation(
        LINALG, "        fn = None\n", "",
        ("tests/test_linalg.py::TestSharedQueue::test_a_cancelled_drain_keeps_no_array_alive",),
    ),
    # The child waits on a pool thread it does not have; the test kills it at 10 s.
    "no_fork_hook": Mutation(
        LINALG, "    os.register_at_fork(after_in_child=_drop_pool)", "    pass",
        ("tests/test_linalg.py::TestSpmmRowBlocks::"
         "test_forked_child_runs_blocked_spmm_after_the_parent_built_the_pool",),
    ),
    "sweep_skips_its_last_block": Mutation(
        LINALG,
        "_run_row_blocks(_row_cuts(*shape, _CHUNK, 1), fn)",
        "_run_row_blocks(_row_cuts(*shape, _CHUNK, 1),\n"
        "                    lambda lo, hi: (lo == 0 or hi < shape[0]) and fn(lo, hi))",
        ("tests/test_model.py::TestSplitSweeps",),
    ),
    "clamp_in_first_chunk_only": Mutation(
        PERTURB, "                if clamp:", "                if clamp and lo == 0:",
        (DENSE_RANGES,),
    ),
    # The PGD trace: each norm from the right point and over every chunk.
    "trace_eps_norm_before_projection": Mutation(
        PERTURB, "(e * (radii[l] / nrm), None)", "(e * (radii[l] / nrm), nrm)",
        ("tests/test_perturb.py::TestWeightPgd::"
         "test_trace_rows_hold_each_layer_after_projection",),
    ),
    "trace_max_without_the_first_chunk": Mutation(
        PERTURB, "g_ends.append((ga.max(), ga.min()))",
        "g_ends.append((ga.max() if lo + a else -np.inf, ga.min()))",
        (f"{FEATURE_PGD}::test_trace_norms_are_lp_norms_over_every_chunk",),
    ),
    # Memory: arrays kept alive longer than their readers need them.
    "sign_step_keeps_its_temporary": Mutation(
        PERTURB, "                del s  # before the next sub-range's sign is made\n", "",
        (f"{FEATURE_PGD}::test_peak_memory_is_two_feature_arrays",),
    ),
    "backward_keeps_back": Mutation(
        MODEL, "        del back\n", "",
        ("tests/test_model.py::TestForwardCacheMemory::"
         "test_backward_holds_two_hidden_gradients",),
    ),
    # The workspace's lifetime rule, and feature PGD's start on X.
    "back_into_the_live_hidden_output": Mutation(
        MODEL, "prod, _, grad = cache.work[l - 1] if cache.work else _FRESH",
        "_, prod, grad = cache.work[l - 1] if cache.work else _FRESH",
        ("tests/test_train.py::TestWorkspace::"
         "test_train_step_gives_the_bytes_of_fresh_arrays",),
    ),
    "first_eps_without_plus_zero": Mutation(
        PERTURB, "np.add(s, 0.0, out=ea)", "np.copyto(ea, s)",
        (f"{FEATURE_PGD}::test_negative_zero_features_match_the_reference",),
    ),
    # Feature PGD's next first-layer product: from clamped eps, on every range.
    "next_product_before_the_clamp": Mutation(
        PERTURB,
        "                if clamp:\n"
        "                    np.clip(ea, -cfg.rho_x, cfg.rho_x, out=ea)\n"
        "                e_ends.append((ea.max(), ea.min()))\n"
        "                np.copyto(ga, ea)",
        "                np.copyto(ga, ea)\n"
        "                if clamp:\n"
        "                    np.clip(ea, -cfg.rho_x, cfg.rho_x, out=ea)\n"
        "                e_ends.append((ea.max(), ea.min()))",
        (DENSE_RANGES,),
    ),
    "last_range_without_next_product": Mutation(
        PERTURB, "            if rebuild:\n                _shifted_product(",
        "            if rebuild and hi < len(x):\n                _shifted_product(",
        (DENSE_RANGES,),
    ),
    # The features.csv writer's segments, and the feature profile's range build.
    "line_end_one_column_early": Mutation(
        "graph.py", "ends[d - 1 - last]", "ends[d - 2 - last]", (FEATURES_CSV,),
    ),
    "zero_run_one_long": Mutation(
        "graph.py", "gaps[cols - prev - 1 +", "gaps[cols - prev +", (FEATURES_CSV,),
    ),
    "probe_rows_in_the_direction_dtype": Mutation(
        "landscape.py", "rows = np.empty((hi - lo, x.shape[1]))",
        "rows = np.empty_like(direction[lo:hi])",
        (f"{PROBE}::test_a_float32_direction_is_computed_in_float64",),
    ),
    # edges.tsv: what np.loadtxt may read, and the rows it may hand back.
    "edges_without_byte_screen": Mutation(
        "graph.py", "buf[-1] == _LF and _EDGE_BYTE[buf].all()", "buf[-1] == _LF",
        (f"{EDGE_TEXTS}[latin1_nbsp]", f"{EDGE_TEXTS}[file_separator]"),
    ),
    "edges_any_column_count": Mutation(
        "graph.py", "edges is not None and (edges.shape[1] == 2 or not len(edges))",
        "edges is not None", (f"{EDGE_TEXTS}[three_fields]",),
    ),
    # features.csv in forked ranges: where a range starts, and where its rows go.
    "cut_not_at_a_line_start": Mutation(
        "graph.py", "cut = f.tell() + len(f.readline())", "cut = f.tell()", (RANGE_BITS,),
    ),
    "range_rows_at_row_0": Mutation(
        "graph.py", "dst = out[row:end]", "dst = out[:end - row]", (RANGE_BITS,),
    ),
    # A direction's norm: the summation tree, and what is summed.
    "pairwise_split_at_half": Mutation(
        LINALG, "half = n // 2 - (n // 2) % 8", "half = n // 2",
        ("tests/test_linalg.py::TestLpNorm::test_leaf_sums_add_up_to_the_bits_of_np_sum",),
    ),
    "direction_scaled_by_the_template_norm": Mutation(
        "landscape.py", "lp_norm(g, 2)", "lp_norm(template, 2)",
        ("tests/test_landscape.py::TestSampleDirections::"
         "test_feature_direction_matches_matrix_norm",),
    ),
    # The displaced ranges the probe, the attack and feature PGD multiply into
    # W_0 (one helper): each shifted, and each multiplied.
    "shift_in_first_chunk_only": Mutation(
        LINALG, "np.add(rows, x[lo:hi], out=rows)",
        "np.add(rows, x[lo:hi] if lo == 0 else 0.0, out=rows)",
        (f"{PROBE}::test_chunked_products_match_reference", STREAMED_ATTACK, DENSE_RANGES),
    ),
    "last_range_without_product": Mutation(
        LINALG,
        "    np.matmul(rows, w, out=out[lo:hi])",
        "    if hi < len(x):\n        np.matmul(rows, w, out=out[lo:hi])",
        (STREAMED_ATTACK,),
    ),
    # The chunked X @ W0 written where forward's spmm writes the hidden output.
    "probe_product_into_the_hidden_slot": Mutation(
        "landscape.py", "work[0][0] if work", "work[0][1] if work",
        (f"{PROBE}::test_one_clean_forward_per_call",),
    ),
    # Seed workers: the order rows come back in, and what stopping early leaves running.
    "rows_in_completion_order": Mutation(
        "cli.py",
        "yield from pool.map(_run_seed, seeds)",
        "yield from (f.result() for f in __import__('concurrent.futures').futures"
        ".as_completed([pool.submit(_run_seed, s) for s in seeds]))",
        (f"{SEED_WORKERS}::test_rows_arrive_in_seed_order_when_seed_1_finishes_last",),
    ),
    "map_without_cancel": Mutation(
        "cli.py",
        "yield from pool.map(_run_seed, seeds)",
        "yield from (f.result() for f in [pool.submit(_run_seed, s) for s in seeds])",
        (f"{SEED_WORKERS}::test_an_error_cancels_the_seeds_still_queued",
         f"{SEED_WORKERS}::test_closing_the_sweep_stops_its_workers"),
    ),
}


def occurrences(name: str) -> int:
    m = MUTATIONS[name]
    return (ROOT / "src" / "capgnn" / m.file).read_text(encoding="utf-8").count(m.old)


def run_mutation(name: str) -> str:
    """``killed``, ``survived``, or an error when pytest could not run the tests."""
    m = MUTATIONS[name]
    with tempfile.TemporaryDirectory(prefix=f"capgnn-mutant-{name}-") as tmp:
        copy = Path(tmp)
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, copy / sub,
                            ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / "src" / "capgnn" / m.file
        path.write_text(path.read_text(encoding="utf-8").replace(m.old, m.new),
                        encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *m.tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    if proc.returncode in (0, 1):  # all passed / some test failed
        return "survived" if proc.returncode == 0 else "killed"
    tail = "\n".join(proc.stdout.splitlines()[-5:])
    return f"error (pytest exit {proc.returncode}):\n{tail}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("names", nargs="*", metavar="NAME",
                   help=f"mutations to run (default: all): {', '.join(MUTATIONS)}")
    p.add_argument("--check", action="store_true",
                   help="only check that every old string occurs exactly once")
    args = p.parse_args(argv)
    unknown = [n for n in args.names if n not in MUTATIONS]
    if unknown:
        p.error(f"unknown mutation(s): {', '.join(unknown)}")
    bad = 0
    for name in args.names or MUTATIONS:
        count = occurrences(name)
        if count != 1:
            print(f"{name}: old string occurs {count} times", flush=True)
            bad += 1
        elif not args.check:
            result = run_mutation(name)
            print(f"{name}: {result}", flush=True)
            bad += result != "killed"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
