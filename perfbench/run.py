"""nls-suite benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of perfbench/workloads.py as a closed loop: one
repetition starts when the previous one has finished, in one process, with
at most NLS_THREADS = min(2, nproc) threads.  The loop repeats for S
seconds (at least MIN_REPS times) and checks every repetition's outputs.

--trace 0 reports the end-to-end metrics, measured with tracing off:
setup time (median over fresh interpreters); wall time, accepted steps and
completed cells per repetition, each against a calibration loop timed
before and after the repetition (unit "cal"), with the raw seconds printed
too; and peak resident memory of this process.  --trace 1 alternates
untraced and traced repetitions and reports the per-layer metrics from the
traced ones (see tracing.py).
``--workload all`` runs every workload in both modes, each in its own
interpreter so peak memory is attributed to one workload.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print every metric by
name and unit.  The program is imported from src/ of the checkout holding
this file; without it the runner exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
NPROC = len(os.sched_getaffinity(0))
NLS_THREADS = min(2, NPROC)
SETUP_SAMPLES = 5
MIN_REPS = 3
MIN_TRACE_CYCLES = 2
DUMPED_REPS = 2  # traced repetitions whose spans are kept for the dump
WORKLOAD_NAMES = ("growth_1d", "probes_3d", "dichotomy_sweep", "conformal_1d")

# Reported end-to-end metrics.  On a shared machine the speed of a core can
# drift by a third between runs minutes apart, so repetition times are
# reported in units of a calibration loop timed next to each repetition
# ("cal"); the raw seconds are printed alongside.
E2E_UNITS = {
    "setup_s": "s",
    "wall_cal": "cal",
    "steps_per_cal": "1/cal",
    "cells_per_cal": "1/cal",
    "peak_rss_mb": "MiB",
}
CAL_POINTS = 4096
CAL_ITERATIONS = 400


def _summary(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of n={len(values)}; p25 {q1:.6g}, p75 {q3:.6g}"


def _print_metric(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<30} {value:>14.6g} {unit:<14} {note}")


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return int(out) if out.isdigit() else None


def print_environment() -> None:
    import numpy
    import scipy

    env = {
        "nproc": NPROC,
        "NLS_THREADS": NLS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
    }
    print("environment " + json.dumps(env))


def _calibration_loop() -> None:
    import numpy as np
    import scipy.fft

    x = np.linspace(-8.0, 8.0, CAL_POINTS)
    u = np.exp(-x**2).astype(np.complex128)
    half = np.exp(-1j * x**2 * 1e-3)
    for _ in range(CAL_ITERATIONS):
        u = scipy.fft.ifft(half * scipy.fft.fft(u))
        u = u * np.exp(1j * np.abs(u))
    if not np.isfinite(u).all():
        raise RuntimeError("calibration loop diverged")


def calibrate(threads: int) -> float:
    """Seconds for a fixed split-step-like loop of numpy/scipy calls, run
    once on each of `threads` threads (the workload's thread count).

    It runs no nls code, so a change to the program leaves it alone, while
    contention on the host (and, with two threads, for the interpreter
    lock) slows it as it slows the workload.
    """
    start = time.perf_counter()
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        for fut in [pool.submit(_calibration_loop) for _ in range(threads)]:
            fut.result()
    return time.perf_counter() - start


def setup_in_fresh_interpreter(config_path: Path) -> float:
    """Seconds from `import nls` to a warmed first step, in a new process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(config_path)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Loop:
    """Runs repetitions, checks them against the first one and the pin."""

    def __init__(self, workload, cfg, state0, seed: int, work: Path):
        self.workload = workload
        self.cfg = cfg
        self.state0 = state0
        self.work = work
        self.reps: list = []
        self.reference = None
        self.pinned = workloads.PINNED.get(workload.name) if seed == workloads.DEFAULT_SEED else None

    def once(self):
        out = self.work / f"rep{len(self.reps)}"
        out.mkdir()
        t0 = time.perf_counter()
        try:
            rep = self.workload.repeat(self.cfg, self.state0, out)
        except Exception as exc:  # a crashed repetition is a failed one
            rep = workloads.Rep(time.perf_counter() - t0, 0, 0, [repr(exc)], {}, {})
        finally:
            shutil.rmtree(out)
        if self.reference is None:
            self.reference = rep.artifacts
        elif rep.artifacts != self.reference:
            rep.failures.append("artifacts differ from the first repetition's bytes")
        if self.pinned is not None:
            rep.failures += workloads.compare_fingerprint(rep.fingerprint, self.pinned)
        self.reps.append(rep)
        for msg in rep.failures:
            self._print_failure(msg)
        return rep

    def fail(self, msg: str) -> None:
        """Charge a failed check made after the loop to its last repetition."""
        self.reps[-1].failures.append(msg)
        self._print_failure(msg)

    def _print_failure(self, msg: str) -> None:
        print(f"  FAILED check (repetition {len(self.reps) - 1}): {msg}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.reps if r.failures)

    def report(self) -> None:
        h = hashlib.sha256()
        names = sorted(self.reference)
        for name in names:
            h.update(name.encode() + b"\0" + self.reference[name])
        print(f"  artifacts sha256 {h.hexdigest()} ({', '.join(names)})")
        attempted = len(self.reps)
        _print_metric("failed_fraction", self.failed / attempted, "ratio",
                      f"{self.failed} of {attempted} repetitions")


def measure(args, workload, work: Path) -> tuple:
    """Untraced run: end-to-end metrics."""
    config_path = work / "experiment.cfg"
    config_path.write_text(workload.config_text(args.seed))
    setups = [setup_in_fresh_interpreter(config_path) for _ in range(SETUP_SAMPLES)]
    cfg, state0 = workloads.setup(config_path)
    print(f"  field bytes {state0.values.nbytes} (cache-resident: no bandwidth ratio)")
    loop = Loop(workload, cfg, state0, args.seed, work)
    threads = NLS_THREADS if cfg.sweep is not None else 1
    cals = [calibrate(threads)]
    start = time.perf_counter()
    while len(loop.reps) < MIN_REPS or time.perf_counter() - start < args.seconds:
        loop.once()
        cals.append(calibrate(threads))
    # each repetition against the mean of the calibrations either side of it
    cal = [(a + b) / 2 for a, b in zip(cals, cals[1:])]
    reps = loop.reps
    samples = {
        "setup_s": setups,
        "wall_cal": [r.wall / c for r, c in zip(reps, cal)],
        "steps_per_cal": [r.steps * c / r.wall for r, c in zip(reps, cal)],
        "cells_per_cal": [r.cells * c / r.wall for r, c in zip(reps, cal)],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
    }
    raw = {
        "wall_s": ([r.wall for r in reps], "s"),
        "steps_per_s": ([r.steps / r.wall for r in reps], "1/s"),
        "cells_per_s": ([r.cells / r.wall for r in reps], "1/s"),
        "calibration_s": (cals, "s"),
    }
    metrics = {}
    for name, unit in E2E_UNITS.items():
        metrics[name] = statistics.median(samples[name])
        _print_metric(name, metrics[name], unit, _summary(samples[name]))
    for name, (values, unit) in raw.items():
        _print_metric(name, statistics.median(values), unit, _summary(values) + "; raw")
    loop.report()
    return metrics, len(loop.reps), loop.failed


def trace_layers(args, workload, work: Path) -> tuple:
    """Traced run: per-layer metrics, overhead against untraced repetitions."""
    from tracing import (
        COUNT_METRICS, LAYER_UNITS, Tracer, median_metrics, repetition_metrics, self_times,
    )

    config_path = work / "experiment.cfg"
    config_path.write_text(workload.config_text(args.seed))
    cfg, state0 = workloads.setup(config_path)
    tracer = Tracer()
    loop = Loop(workload, cfg, state0, args.seed, work)
    untraced, traced, serial, setup_spans = [], [], [], []
    is_sweep = cfg.sweep is not None

    def traced_rep() -> dict:
        with tracer.installed():
            first = len(tracer.spans)
            workloads.setup(config_path)
            setup_spans.extend(tracer.spans[first:])
            first = len(tracer.spans)
            rep = loop.once()
        layer = repetition_metrics(tracer.spans[first:])
        if len(traced) + len(serial) >= DUMPED_REPS:
            del tracer.spans[first:]  # bounds memory; this repetition is measured
        layer["wall"] = rep.wall
        layer["harness.cell_s"] = statistics.median(rep.cell_walls) if rep.cell_walls else 0.0
        layer["harness.cell_overlap"] = sum(rep.cell_walls) / rep.wall
        return layer

    start = time.perf_counter()
    cycles = 0
    while cycles < MIN_TRACE_CYCLES or time.perf_counter() - start < args.seconds:
        untraced.append(loop.once().wall)
        traced.append(traced_rep())
        if is_sweep:
            os.environ["NLS_THREADS"] = "1"
            try:
                serial.append(traced_rep())
            finally:
                os.environ["NLS_THREADS"] = str(NLS_THREADS)
        cycles += 1

    counts = [{k: layer[k] for k in COUNT_METRICS} for layer in traced + serial]
    for i, c in enumerate(counts[1:], start=1):
        if c != counts[0]:
            loop.fail(f"traced repetition {i} counts {c} != {counts[0]}")
    if workload.name == "conformal_1d":
        nominal = workload.nominal_steps(cfg)
        if counts[0]["solver.steps_accepted"] != nominal:
            loop.fail(
                f"counted {counts[0]['solver.steps_accepted']} steps, nominal {nominal}"
            )

    metrics = median_metrics(traced)
    metrics.update(counts[0])
    wall = metrics.pop("wall")
    metrics["harness.pool_speedup"] = (
        statistics.median(s["wall"] for s in serial) / wall if serial else 0.0
    )
    metrics["config.load_ms"] = 1e3 * statistics.median(
        s.dur for s in setup_spans if s.name == "config.load_config")
    metrics["field.make_initial_ms"] = 1e3 * statistics.median(
        s.dur for s in setup_spans if s.name == "field.make_initial")
    metrics["trace.overhead_frac"] = wall / statistics.median(untraced) - 1.0
    spans_path = WORK / f"spans_{workload.name}.csv"
    tracer.write_csv(spans_path)
    print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}; "
          f"{len(traced)} traced, {len(untraced)} untraced repetitions"
          + (f", {len(serial)} traced at 1 worker" if serial else ""))
    print("  self time of the dumped spans, by name:")
    for name, sec in sorted(self_times(tracer.spans).items(), key=lambda kv: -kv[1]):
        print(f"    {name:<28} {sec:10.4f} s")
    metrics = {k: metrics[k] for k in LAYER_UNITS}
    for name, unit in LAYER_UNITS.items():
        _print_metric(name, metrics[name], unit, "count, exact" if name in COUNT_METRICS else "")
    loop.report()
    return metrics, len(loop.reps), loop.failed, LAYER_UNITS


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh interpreter."""
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(out.stdout)
            sys.stderr.write(out.stderr)
            lines = out.stdout.strip().splitlines()
            ok = ok and out.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    print("all workloads correct" if ok else "some workload FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nls" / "__init__.py").is_file():
        print(f"perfbench: no nls package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # one thread per process for native libraries; the sweep pool is the
    # only source of parallelism
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["NLS_THREADS"] = str(NLS_THREADS)
    sys.path.insert(0, str(SRC))
    global workloads
    import workloads
    import nls

    if not Path(nls.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported nls from {nls.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    print_environment()
    print(f"workload {workload.name}, seed {args.seed} (default {workloads.DEFAULT_SEED}, "
          f"held-out {workloads.HELD_OUT_SEED}), trace {args.trace}")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.trace:
            metrics, attempted, failed, units = trace_layers(args, workload, work)
        else:
            metrics, attempted, failed = measure(args, workload, work)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
