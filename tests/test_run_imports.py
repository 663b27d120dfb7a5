"""A run imports numpy and scipy.fft only.

scipy.integrate (and the scipy.optimize, scipy.linalg and scipy.sparse it
pulls in) costs every CLI call about a third of its start-up time and
resident memory; only `nls accept`, duhamel_residual and the quadrature
check of the cutoff norms use it.  The check runs in a fresh interpreter,
since the test session itself has imported scipy.integrate.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG = """
kind = single
output_dir = {out}
model.dim = 2
model.alpha = 1.0
model.kappa_im = -1.0
grid.box_length = 20.0
grid.points = 32
solver.dt = 1e-2
solver.t_end = 0.04
solver.diagnostics_cadence = 1
initial.kind = gaussian
initial.amplitude_re = 0.5
probes.localized_mass = true
probes.scatter = true
probes.checkpoint_every = 2
"""

SCRIPT = """
import sys
from pathlib import Path

from nls.cli import main
from nls.config import load_config
from nls.harness import execute_single

cfg = load_config(Path(sys.argv[1]))
out = execute_single(cfg, Path(cfg.output_dir))
assert out.trace.loc_mass.shape[1] == len(cfg.probes.cutoffs.lambdas)
assert len(out.checkpoints) == 3
assert main(["exponents", "--dim", "7", "--alpha", "0.55"]) == 0
assert "scipy.integrate" not in sys.modules, "scipy.integrate imported by a run"
"""


def test_run_path_does_not_import_scipy_integrate(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(cfg)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "trace.csv").exists()
