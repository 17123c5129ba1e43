import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, *args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "script", ["run_sbm_study.py", "export_pubmed.py", "replay_digests.py", "mutants.py"]
)
def test_script_help_exits_0(script):
    proc = run_script(script, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_sbm_study_smoke_run(tmp_path):
    proc = run_script(
        "run_sbm_study.py", "--out_dir", str(tmp_path), "--seeds", "1",
        "--epochs", "4", "--skip_epochs", "2",
    )
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "study.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["vanilla", "wp", "fp", "cap"]


def test_every_mutation_still_applies():
    # Each named mutation's old string occurs exactly once in src/capgnn.
    proc = run_script("mutants.py", "--check")
    assert proc.returncode == 0, proc.stdout


def test_replay_matches_the_golden_digests(tmp_path):
    # Every artefact of the replay, byte for byte (wall_ms aside), against
    # tests/golden/replay_digests.txt; only where that file was made.
    spec = importlib.util.spec_from_file_location(
        "replay_digests", ROOT / "scripts" / "replay_digests.py")
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    made_in, golden = replay.read_golden()
    here = replay.environment()
    differ = [f"{k} (golden {made_in.get(k)!r}, here {here.get(k)!r})"
              for k in sorted(made_in.keys() | here.keys()) if made_in.get(k) != here.get(k)]
    if differ:
        pytest.skip(f"golden digests come from another environment: {'; '.join(differ)}")
    proc = run_script("replay_digests.py", str(tmp_path / "replay"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == golden
