"""Every benchmark workload's config loads under the program's input checks.

perfbench/workloads.py writes each workload's experiment config from a
seed.  A key the program renames or a value it starts to refuse would
otherwise show only when the benchmark runs.  This test loads each config
as the benchmark does, at both seeds.  It only reads perfbench.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

KINDS = {
    "growth_1d": "single",
    "probes_3d": "single",
    "dichotomy_sweep": "sweep",
    "conformal_1d": "pct-check",
}


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED])
@pytest.mark.parametrize("name", sorted(KINDS))
def test_benchmark_config_loads(tmp_path, name, seed):
    path = tmp_path / f"{name}.cfg"
    path.write_text(workloads.WORKLOADS[name].config_text(seed), encoding="utf-8")
    cfg, state0 = workloads.setup(path)
    assert cfg.kind.value == KINDS[name]
    assert state0.grid == cfg.grid
