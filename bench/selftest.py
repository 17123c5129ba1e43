"""Self-test of the benchmark at toy shapes: output schema, not timings.

    python3 bench/selftest.py        (or: python3 -m pytest bench/selftest.py)

For every workload and both trace settings it runs ``bench/run.py --toy``
and checks the result line against ``BENCHMARK.json``: the metric names
and units, ``correct`` with ``failed == 0`` (fail_ratio 0), and in traced
runs that the self times add up to the traced wall time. It also checks
that the benchmark refuses to run, without a result line, where the
program's sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def check_workload(name: str, trace: int) -> None:
    proc = run_bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for key, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), key
    if trace:
        wall = result["metrics"]["trace.wall_ms"]["value"]
        assert abs(result["metrics"]["trace.self_ms"]["value"] - wall) <= 1e-6 * wall
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workloads():
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            check_workload(workload["name"], trace)


def test_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "--workload", SPEC["workloads"][0]["name"],
                         "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    test_workloads()
    test_refuses_without_sources()
    print("bench self-test passed")
