"""Batch execution: single runs, parameter sweeps, and their artifacts.

Every run writes a trace CSV, optional field checkpoints, and a
summary.json echoing the fully resolved config; reruns with the same
config are byte-for-byte reproducible on one machine, whatever
the number of sweep worker processes (documented caveat: floating-point
determinism is not guaranteed across machines or library builds).

A sweep runs each cell in a worker process of its own pool; a cell that
raises becomes a ``Failed`` row and the other cells still finish.
"""

from __future__ import annotations

import concurrent.futures
import os
import re
import time as _time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, ExperimentKind, resolved_config_dict
from .conformal import equivalence_experiment
from .diagnostics import linear_confinement_check, rate_fit
from .field import FromFile, make_initial, save_checkpoint, write_json
from .solver import RunOutcome, RunStatus, run


def worker_count() -> int:
    """Sweep worker processes: NLS_THREADS clamped to [1, usable CPUs]."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    env = os.environ.get("NLS_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"NLS_THREADS must be an integer, got {env!r}") from None
        return min(max(1, n), cpus)
    return min(8, cpus)


def _checkpoint_index(name: str) -> Optional[int]:
    """i when name is checkpoint_{i:04d}.nlsf or its .meta.json sidecar, else None."""
    m = re.fullmatch(r"checkpoint_([0-9]{4,})\.nlsf(\.meta\.json)?", name)
    return int(m[1]) if m and m[1] == f"{int(m[1]):04d}" else None


def execute_single(cfg: ExperimentConfig, out_dir: Path) -> RunOutcome:
    """One solver run with the configured probes; writes its artifacts to out_dir.

    The n states it stores replace those of an earlier run there: the files
    checkpoint_NNNN.nlsf and their sidecars with NNNN >= n are removed.  An
    initial file that is one of the files the run writes or removes is a
    ConfigError raised before anything runs.
    """
    if isinstance(cfg.initial, FromFile):
        src = Path(cfg.initial.path).resolve()
        if src.parent == out_dir.resolve() and (
            src.name in ("trace.csv", "summary.json") or _checkpoint_index(src.name) is not None
        ):
            raise ConfigError(
                f"initial.path {cfg.initial.path!r} is a file the run writes in {out_dir}"
            )
    state0 = make_initial(cfg.grid, cfg.initial)
    outcome = run(state0, cfg.model, cfg.solver, probes=cfg.probes)
    out_dir.mkdir(parents=True, exist_ok=True)
    outcome.trace.write_csv(out_dir / "trace.csv")
    for i, st in enumerate(outcome.checkpoints):
        save_checkpoint(out_dir / f"checkpoint_{i:04d}.nlsf", st, cfg.model)
    for path in out_dir.iterdir():  # the stale states of an earlier run
        i = _checkpoint_index(path.name)
        if i is not None and i >= len(outcome.checkpoints):
            path.unlink()
    return outcome


def _run_single(cfg: ExperimentConfig, out_dir: Path, point: Optional[dict]) -> dict:
    """Run cfg and write its artifacts and summary.json; returns the summary.

    A sweep cell passes its point, and its summary ends with its verdict row.
    """
    t0 = _time.perf_counter()
    outcome = execute_single(cfg, out_dir)
    wall = _time.perf_counter() - t0
    tr = outcome.trace
    summary = {
        "code_version": __version__,
        "config": resolved_config_dict(cfg),
        "status": outcome.status.value,
        "blowup_time_estimate": outcome.blowup_time_estimate,
        "steps_accepted": outcome.steps_accepted,
        "steps_rejected": outcome.steps_rejected,
        "final_time": outcome.final_state.time,
        "final_mass": float(tr.mass[-1]),
        "final_grad_l2": float(tr.grad_l2[-1]),
        "final_linf": float(tr.linf[-1]),
        "K_T": float(tr.K_t[-1]),
        "wall_seconds": wall,
    }
    if point is not None:
        summary["verdict"] = _sweep_row(point, **_classify_run(cfg, outcome))
    write_json(out_dir / "summary.json", summary)
    return summary


_ROW_KEYS = (
    "alpha", "kappa_im", "status", "fitted_slope", "theoretical_exponent",
    "scatter_first", "scatter_last", "h1_final", "classification",
)


def _sweep_row(point: dict, **fields) -> dict:
    """A sweep row in the one key order: keys not given are None, and a
    Failed row's error comes just before the point."""
    return {**dict.fromkeys(_ROW_KEYS), **fields, "point": point}


def _classify_run(cfg: ExperimentConfig, outcome: RunOutcome) -> dict:
    """Scalar verdicts for one sweep cell of the blowup/scattering dichotomy."""
    tr = outcome.trace
    row: dict = {
        "alpha": cfg.model.alpha,
        "kappa_im": cfg.model.kappa.imag,
        "status": outcome.status.value,
        "h1_final": float(np.hypot(tr.mass[-1], tr.grad_l2[-1])),
        "classification": "Undetermined",
    }
    if outcome.status is RunStatus.BLOWUP_DETECTED:
        row["classification"] = "BlowupDetected"
    elif cfg.model.alpha < 2.0 / cfg.model.dim:
        try:
            fit = rate_fit(tr, cfg.model)
            row["fitted_slope"] = fit.slope
            row["theoretical_exponent"] = fit.theoretical_exponent
            if fit.verdict:
                row["classification"] = "GrowthConfirmed"
        except ValueError:
            pass
    else:
        res = tr.scatter_residual[~np.isnan(tr.scatter_residual)]
        if len(res) >= 2:
            row["scatter_first"] = float(res[0])
            row["scatter_last"] = float(res[-1])
            h1_bounded = tr.grad_l2[-1] <= 10.0 * max(tr.grad_l2[0], 1e-30)
            if res[-1] < res[0] and h1_bounded:
                row["classification"] = "BoundedScattering"
    return row


def dichotomy_table(rows: list, dim: int) -> str:
    """Text table of sweep verdicts; the Fujita column marks alpha vs 2/N.

    Each swept axis other than alpha has a column of its cell values, so
    cells that share alpha print apart.  A Failed row prints with dashes and
    its error on a line below the table.
    """
    fujita = 2.0 / dim
    axes = [a for a in rows[0]["point"] if a != "alpha"]
    lines = [
        f"{'alpha':>8}  {'vs 2/N':>6}  "
        + "".join(f"{a:>10}  " for a in axes)
        + f"{'classification':<18}  {'slope':>8}  {'scat_first':>11}  {'scat_last':>11}"
    ]
    for r in sorted(rows, key=lambda r: (r["alpha"], r.get("kappa_im", 0))):
        mark = "=" if r["alpha"] == fujita else ("<" if r["alpha"] < fujita else ">")
        sl = "-" if r["fitted_slope"] is None else f"{r['fitted_slope']:.3f}"
        sf = "-" if r["scatter_first"] is None else f"{r['scatter_first']:.3e}"
        sls = "-" if r["scatter_last"] is None else f"{r['scatter_last']:.3e}"
        cls = r["classification"] if mark != "=" else r["classification"] + "*"
        lines.append(
            f"{r['alpha']:>8.4g}  {mark:>6}  "
            + "".join(f"{r['point'][a]:>10.6g}  " for a in axes)
            + f"{cls:<18}  {sl:>8}  {sf:>11}  {sls:>11}"
        )
    if any(r["alpha"] == fujita for r in rows):
        lines.append("* alpha = 2/N exactly: threshold case, no theorem-backed verdict")
    for r in rows:
        if r["classification"] == "Failed":
            lines.append(f"Failed cell {r['point']}: {r['error']}")
    return "\n".join(lines)


def _sweep_cell(cfg: ExperimentConfig, point: dict, cell_dir: Path) -> dict:
    """One sweep cell: the single run of its own config; returns its verdict row."""
    return _run_single(cfg.cell(point), cell_dir, point)["verdict"]


def _cell_row(
    cfg: ExperimentConfig, point: dict, fut: concurrent.futures.Future
) -> dict:
    """The cell's verdict row, or a Failed row carrying the exception it raised."""
    try:
        return fut.result()
    except Exception as exc:  # includes BrokenProcessPool: a killed worker
        return _sweep_row(
            point,
            alpha=float(point.get("alpha", cfg.model.alpha)),
            kappa_im=float(point.get("kappa_im", cfg.model.kappa.imag)),
            classification="Failed",
            error=f"{type(exc).__name__}: {exc}",
        )


def execute_sweep(cfg: ExperimentConfig, out_root: Path) -> list:
    """Run every sweep cell in a process pool; returns verdict rows in points order.

    The pool has min(worker_count(), cells) processes started by the
    platform's default method; under fork (Linux) the workers inherit the
    imported numpy, scipy and nls instead of importing them again, which
    costs about as much as a small sweep.  Each cell writes only its own
    run_NNNN/ directory.  A cell that raises, or whose worker dies, gives a
    row with classification "Failed" and an "error" field; the other cells
    finish.
    """
    points = cfg.points()
    workers = min(worker_count(), len(points))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_sweep_cell, cfg, point, out_root / f"run_{i:04d}")
            for i, point in enumerate(points)
        ]
        return [_cell_row(cfg, p, fut) for p, fut in zip(points, futures)]


def run_experiment(cfg: ExperimentConfig) -> bool:
    """Dispatch on experiment kind; returns whether the experiment succeeded.

    An empty output_dir, or one that is, or lies under, an existing
    non-directory, is a ConfigError raised before anything runs.
    """
    if not cfg.output_dir:  # Path("") is the working directory
        raise ConfigError("output_dir must not be empty")
    out_root = Path(cfg.output_dir)  # created only once there is a result to write
    for d in (out_root, *out_root.parents):
        if d.exists() and not d.is_dir():
            raise ConfigError(f"output_dir {cfg.output_dir!r}: {d} is not a directory")
    if cfg.kind is ExperimentKind.SINGLE:
        summary = _run_single(cfg, out_root, None)
        print(f"status: {summary['status']}  final t = {summary['final_time']:.6g}")
        if summary["blowup_time_estimate"] is not None:
            print(f"blowup time estimate: {summary['blowup_time_estimate']:.10g}")
        return True
    if cfg.kind is ExperimentKind.SWEEP:
        rows = execute_sweep(cfg, out_root)
        table = dichotomy_table(rows, cfg.model.dim)
        write_json(out_root / "sweep_rows.json", rows)
        (out_root / "dichotomy.txt").write_text(table + "\n", encoding="utf-8")
        print(table)
        return all(r["classification"] != "Failed" for r in rows)
    if cfg.kind is ExperimentKind.PCT_CHECK:
        report = equivalence_experiment(
            cfg.initial, cfg.grid, cfg.model, cfg.solver, cfg.pct_t_star
        )
        write_json(out_root / "pct_report.json", report.as_dict())
        head = f"pct-check: t*={report.t_star:g} s*={report.s_star:g} "
        if report.l2_discrepancy is None:  # a path that stopped early has no u(s*)
            print(head + f"path A {report.path_a_status}, path B {report.path_b_status}")
            return False
        print(head + f"rel L2 discrepancy {report.l2_discrepancy:.3e}")
        return True
    state0 = make_initial(cfg.grid, cfg.initial)  # the last kind: linear-confinement
    rep = linear_confinement_check(state0, cfg.confinement_times)
    write_json(out_root / "confinement.json", vars(rep))
    print(
        f"confinement: max violation {rep.max_violation:.3e}, "
        f"exterior fraction at t={rep.times[-1]:g}: {rep.exterior_fraction[-1]:.4f}"
    )
    return True
