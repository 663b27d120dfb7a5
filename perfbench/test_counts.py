"""The benchmark's own checks: exact counts repeat, and it refuses to run bare.

    python3 -m pytest perfbench

Two traced runs of one seed, in separate interpreters, must agree exactly
on every count in tracing.COUNT_METRICS and on the bytes of every
artifact (trace.csv, or pct_report.json on conformal_1d).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402
from tracing import COUNT_METRICS  # noqa: E402


def _run(root: Path, workload: str, trace: int = 1) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def _traced(workload: str) -> tuple:
    out = _run(HERE.parent, workload)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    digest = [ln for ln in lines if ln.startswith("  artifacts sha256")]
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_counts_and_artifacts_repeat_exactly(workload):
    (first, digest1), (second, digest2) = _traced(workload), _traced(workload)
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    for name in COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert digest1 and digest1 == digest2


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "growth_1d", trace=0)
    assert out.returncode != 0
    assert "correct" not in out.stdout
