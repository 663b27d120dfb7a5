"""A run imports numpy and scipy.fft only; a command that runs no FFT
imports neither.

scipy.integrate (and the scipy.optimize, scipy.linalg and scipy.sparse it
pulls in) costs every CLI call about a third of its start-up time and
resident memory; only `nls accept` and the quadrature check of the cutoff
norms use it.  `nls --version`, `nls exponents` and `nls oracle` are
arithmetic: they load nls.exponents, nls.oracle and numpy, and not
scipy.fft, which is most of a run's start-up time.  The checks run in a
fresh interpreter, since the test session itself has imported scipy.
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


ARITHMETIC_SCRIPT = """
import sys

from nls.cli import main

try:
    main(["--version"])
except SystemExit as exc:
    assert exc.code == 0
assert main(["exponents", "--dim", "7", "--alpha", "0.55"]) == 0
assert main(["oracle", "--kappa-im", "-1", "--alpha", "1", "--dim", "2",
             "--t0", "1", "--z0", "1", "--trace", sys.argv[1]]) == 0
loaded = [m for m in ("scipy.fft", "nls.field", "nls.solver", "nls.config")
          if m in sys.modules]
assert not loaded, f"imported by an arithmetic command: {loaded}"
"""


def run_fresh(script, *args):
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_run_path_does_not_import_scipy_integrate(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out"))
    proc = run_fresh(SCRIPT, cfg)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "trace.csv").exists()


def test_arithmetic_commands_do_not_import_the_fft_stack(tmp_path):
    proc = run_fresh(ARITHMETIC_SCRIPT, tmp_path / "z.csv")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("nls ")
    assert (tmp_path / "z.csv").exists()
