import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nls.conformal
import nls.solver
from nls.cli import main
from nls.config import (
    SWEEP_AXES,
    TABLE,
    ConfigError,
    ExperimentKind,
    load_config,
    parse_config_text,
    resolved_config_dict,
)
from nls.diagnostics import default_lambdas
from nls.exponents import ModelParams
from nls.field import Gaussian, GridSpec, PlaneWave, make_initial, save_checkpoint
from nls.harness import dichotomy_table, execute_sweep, run_experiment

BASE_CONFIG = """
# minimal single-run experiment
kind = single
output_dir = {out}

model.dim = 1
model.alpha = 1.0
model.kappa_re = 0.0
model.kappa_im = -1.0

grid.box_length = 40.0
grid.points = 256

solver.dt = 1e-2
solver.t_end = 0.2
solver.diagnostics_cadence = 2

initial.kind = gaussian
initial.amplitude_re = 0.5
initial.width = 1.0
"""


def write_config(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------------------
# parsing


def test_parse_values():
    kv = parse_config_text(
        "grid.points = 256\nmodel.alpha = 2\nprobes.scatter = TRUE\n"
        "initial.kind = gaussian\nprobes.lambdas = [1, 2.5, 3]\nsolver.dt = -1e-3\n"
        "kind = sweep\nsweep.points = 64\nconfinement.times = []\n"
    )
    assert kv == {
        "grid.points": 256, "model.alpha": 2.0, "probes.scatter": True,
        "initial.kind": "gaussian", "probes.lambdas": (1.0, 2.5, 3.0), "solver.dt": -1e-3,
        "kind": ExperimentKind.SWEEP, "sweep.points": (64,), "confinement.times": (),
    }
    assert type(kv["model.alpha"]) is float and type(kv["probes.lambdas"][0]) is float


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("model.dim = 1\nnot a pair\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("model.dim = 1\nmodel.dim = 2\n")
    with pytest.raises(ConfigError, match="^line 3: unknown config key 'typo'$"):
        parse_config_text("model.dim = 1\n\ntypo = 2\n")


def test_unknown_keys_are_hard_errors(tmp_path):
    for key in ("typo.key", "seed"):
        p = write_config(tmp_path, BASE_CONFIG.format(out=tmp_path / "o") + f"\n{key} = 7\n")
        with pytest.raises(ConfigError, match=key):
            load_config(p)


def test_missing_required_key(tmp_path):
    p = write_config(tmp_path, "kind = single\nmodel.dim = 1\n")
    with pytest.raises(ConfigError, match="required"):
        load_config(p)


def test_load_config_defaults_and_types(tmp_path):
    p = write_config(tmp_path, BASE_CONFIG.format(out=tmp_path / "o"))
    cfg = load_config(p)
    assert cfg.kind is ExperimentKind.SINGLE
    assert cfg.model.kappa == -1j
    assert cfg.solver.blowup_linf_threshold == 1e6  # default
    assert isinstance(cfg.initial, Gaussian)
    assert cfg.initial.amplitude == 0.5 + 0.0j
    echoed = resolved_config_dict(cfg)
    assert echoed["solver"]["blowup_linf_threshold"] == 1e6
    assert echoed["initial"]["kind"] == "gaussian"  # the file's own value
    assert echoed["probes"]["lambdas"] == ()
    # a list key takes a bare scalar; the echo holds the ladder the run records
    text = "confinement.times = 3\nprobes.localized_mass = true\n"
    cfg = load_config(write_config(tmp_path, BASE_CONFIG.format(out=tmp_path / "o") + text))
    assert cfg.confinement_times == (3.0,)
    assert cfg.probes.cutoffs.lambdas == default_lambdas(40.0, 1.0)
    assert resolved_config_dict(cfg)["probes"]["lambdas"] == cfg.probes.cutoffs.lambdas


@pytest.mark.parametrize("line", [
    "probes.scatter = no",
    "probes.median_radius = off",
    "probes.weighted_l2 = 1",
    "solver.diagnostics_cadence = 2.5",
    "probes.checkpoint_every = 1.9",
    "model.alpha = true",
    "grid.points = [64, 128]",
    "pct.t_star = abc",
    "confinement.times = [1.0, x]",
])
def test_values_are_coerced_by_type(tmp_path, line):
    key = line.split(" = ")[0]
    text = re.sub(rf"^{re.escape(key)} = .*$", "", BASE_CONFIG, flags=re.M)
    p = write_config(tmp_path, text.format(out=tmp_path / "o") + line + "\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: expected"):
        load_config(p)


@pytest.mark.parametrize("command,line", [
    ("simulate", "solver.t_end = inf"),
    ("simulate", "model.kappa_im = nan"),
    ("simulate", "model.kappa_re = inf"),
    ("simulate", "solver.blowup_linf_threshold = nan"),
    ("simulate", "solver.blowup_dt_floor = nan"),
    ("simulate", "confinement.times = [nan]"),
    pytest.param("simulate", "model.alpha = 1" + "0" * 400, id="simulate-alpha-overflow"),
    ("simulate", "sweep.alpha = [1.0, nan]"),
])
def test_cli_rejects_non_finite_floats(tmp_path, capsys, command, line):
    key = line.split(" = ")[0]
    text = re.sub(rf"^{re.escape(key)} = .*$", "", BASE_CONFIG, flags=re.M)
    p = write_config(tmp_path, text.format(out=tmp_path / "o") + line + "\n")
    assert main([command, "--config", str(p)]) == 1
    err = capsys.readouterr().err
    reason = "(expected a finite float|int too large to convert to float)"
    assert re.match(rf"configuration error: {re.escape(key)}: {reason}", err)
    assert not (tmp_path / "o").exists()


def test_zero_data_runs_with_an_empty_median_radius(tmp_path, capsys):
    out = tmp_path / "zero"
    text = BASE_CONFIG.format(out=out).replace(
        "initial.amplitude_re = 0.5", "initial.amplitude_re = 0.0"
    )
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 0
    header, *rows = (out / "trace.csv").read_text().splitlines()
    j = header.split(",").index("R_t")
    assert rows and all(row.split(",")[j] == "" for row in rows)
    capsys.readouterr()


def test_readme_config_block_matches_the_table(tmp_path):
    # every `key =` line of the sample, commented or not, names a TABLE key, and
    # every TABLE key appears (a sweep.<axis> key as its axis name)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Config file format.*?```ini\n(.*?)```", readme, re.S).group(1)
    assert load_config(write_config(tmp_path, block)).kind is ExperimentKind.SINGLE
    listed = re.findall(r"^(?:# )?([a-z_][a-z0-9_.]*) +=", block, re.M)
    assert set(listed) <= set(TABLE), set(listed) - set(TABLE)
    assert {k for k in TABLE if not k.startswith("sweep.")} <= set(listed)
    axes = next(line for line in block.splitlines() if "# axes:" in line)
    for name in SWEEP_AXES:
        assert re.search(rf"\b{name}\b", axes), name


def test_readme_commands_parse(capsys):
    # every `nls ...` line of the README's code blocks, optional [parts] included
    from nls.cli import _build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [
        line.split("#", 1)[0].replace("[", "").replace("]", "").split()
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
    ]
    parser = _build_parser()
    documented = set()
    for argv in (words[1:] for words in lines if words[:1] == ["nls"]):
        try:
            documented.add(parser.parse_args(argv).command)
        except SystemExit as exc:  # --version exits 0; a usage error exits 2
            assert exc.code == 0, argv
    assert documented == {"exponents", "oracle", "simulate", "accept"}
    capsys.readouterr()


def test_plane_wave_and_chirp_initial(tmp_path):
    text = BASE_CONFIG.format(out=tmp_path / "o").replace(
        "initial.kind = gaussian", "initial.kind = plane_wave\ninitial.mode_index = [3]"
    )
    cfg = load_config(write_config(tmp_path, text))
    assert isinstance(cfg.initial, PlaneWave)
    assert cfg.initial.mode_index == (3,)


def test_sweep_config_validation(tmp_path):
    def load(lines):
        text = BASE_CONFIG.format(out=tmp_path / "o").replace("kind = single", "kind = sweep")
        return load_config(write_config(tmp_path, text + lines))

    with pytest.raises(ConfigError, match="sweep axis 'dt' is empty"):
        load("sweep.alpha = [1.0]\nsweep.dt = []\n")
    with pytest.raises(ConfigError, match="sweep of 600 runs exceeds cap 512"):
        load(f"sweep.alpha = {list(range(1, 31))}\nsweep.dt = {[0.01] * 20}\n")
    with pytest.raises(ConfigError, match="unknown config key 'sweep.cap'"):
        load("sweep.alpha = [1.0]\nsweep.cap = 1024\n")


# ---------------------------------------------------------------------------
# experiments


def test_single_run_artifacts_and_determinism(tmp_path):
    out = tmp_path / "runA"
    p = write_config(tmp_path, BASE_CONFIG.format(out=out))
    assert run_experiment(load_config(p)) == 0
    trace1 = (out / "trace.csv").read_bytes()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "ReachedTEnd"
    assert summary["config"]["solver"]["blowup_linf_threshold"] == 1e6  # defaults echoed
    assert summary["code_version"]
    # rerun reproduces the trace byte for byte
    assert run_experiment(load_config(p)) == 0
    assert (out / "trace.csv").read_bytes() == trace1


def test_checkpoints_written(tmp_path):
    out = tmp_path / "runC"
    text = BASE_CONFIG.format(out=out) + "probes.checkpoint_every = 10\n"
    assert run_experiment(load_config(write_config(tmp_path, text))) == 0
    files = sorted(out.glob("checkpoint_*.nlsf"))
    assert len(files) >= 2
    assert all(f.with_suffix(f.suffix + ".meta.json").exists() for f in files)


def flat_echo(echo: dict) -> dict:
    """summary.json's config block as dotted key -> value."""
    flat = {}
    for key, value in echo.items():
        if isinstance(value, dict):
            flat.update({f"{key}.{name}": v for name, v in value.items()})
        else:
            flat[key] = value
    return flat


def test_sweep_runs_and_dichotomy_table(tmp_path):
    out = tmp_path / "sweep"
    text = (
        BASE_CONFIG.format(out=out)
        .replace("kind = single", "kind = sweep")
        + "sweep.alpha = [1.0, 3.0]\nsweep.amplitude = [0.25]\n"
        + "sweep.points = [128]\nsweep.dt = [0.02]\nprobes.scatter = true\n"
    )
    cfg = load_config(write_config(tmp_path, text))
    assert cfg.kind is ExperimentKind.SWEEP
    rows = execute_sweep(cfg, out)
    assert len(rows) == 2
    assert {r["alpha"] for r in rows} == {1.0, 3.0}
    for i, row in enumerate(rows):  # each cell echoes its own values
        echo = json.loads((out / f"run_{i:04d}" / "summary.json").read_text())["config"]
        assert list(flat_echo(echo)) == list(TABLE)  # sectioned by dotted prefix
        assert echo["model"]["alpha"] == row["point"]["alpha"]
        assert echo["initial"]["amplitude_re"] == 0.25
        assert echo["kind"] == "single" and echo["sweep"]["alpha"] is None
        assert echo["grid"]["points"] == 128 and echo["solver"]["dt"] == 0.02
    table = dichotomy_table(rows, dim=1)
    assert "alpha" in table and "classification" in table
    # alpha = 2 = 2/N marker line
    rows2 = rows + [dict(rows[0], alpha=2.0, classification="Undetermined")]
    assert "*" in dichotomy_table(rows2, dim=1)


def test_sweep_amplitude_axis_keeps_the_imaginary_part(tmp_path):
    out = tmp_path / "sweep_im"
    text = (
        BASE_CONFIG.format(out=out).replace("kind = single", "kind = sweep")
        .replace("initial.amplitude_re = 0.5", "initial.amplitude_re = 0.3")
        + "initial.amplitude_im = 0.4\nsweep.amplitude = [0.5]\n"
    )
    execute_sweep(load_config(write_config(tmp_path, text)), out)
    summary = json.loads((out / "run_0000" / "summary.json").read_text())
    assert summary["config"]["initial"]["amplitude_re"] == 0.5
    assert summary["config"]["initial"]["amplitude_im"] == 0.4


def test_echo_reruns_to_the_same_artifacts(tmp_path, capsys):
    # a single run and every cell of a 2x2 sweep, written back as config files
    text = BASE_CONFIG.format(out=tmp_path / "single") + (
        "initial.amplitude_im = 0.1\nprobes.localized_mass = true\n"
        "probes.scatter = true\nprobes.checkpoint_every = 10\n"
    )
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 0
    text = text.replace("single", "sweep") + (
        "sweep.alpha = [1.0, 3.0]\nsweep.amplitude = [0.25, 0.5]\n"
    )
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 0
    runs = [tmp_path / "single", *sorted((tmp_path / "sweep").glob("run_*"))]
    assert len(runs) == 5
    for i, run in enumerate(runs):
        echo = json.loads((run / "summary.json").read_text())["config"]
        keys = {**flat_echo(echo), "output_dir": str(tmp_path / f"rerun{i}")}
        lines = [f"{k} = {v if isinstance(v, str) else json.dumps(v)}"
                 for k, v in keys.items() if v is not None]
        path = write_config(tmp_path, "\n".join(lines) + "\n", name=f"rerun{i}.cfg")
        assert main(["simulate", "--config", str(path)]) == 0
        rerun = tmp_path / f"rerun{i}"
        files = ["trace.csv", *(f.name for f in run.glob("checkpoint_*.nlsf"))]
        assert len(files) == 4
        for name in files:
            assert (rerun / name).read_bytes() == (run / name).read_bytes(), (run, name)
        again = json.loads((rerun / "summary.json").read_text())["config"]
        assert {**again, "output_dir": None} == {**echo, "output_dir": None}
    capsys.readouterr()


def test_sweep_amplitude_needs_gaussian_data(tmp_path, capsys):
    text = (
        BASE_CONFIG.format(out=tmp_path / "o").replace("kind = single", "kind = sweep")
        .replace("initial.kind = gaussian", "initial.kind = plane_wave")
        + "initial.mode_index = [3]\n"
        + "sweep.amplitude = [0.5]\n"
    )
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 1
    err = capsys.readouterr().err
    assert err == "configuration error: sweep.amplitude requires initial.kind = gaussian\n"
    assert not (tmp_path / "o").exists()


def test_sweep_failed_cell_keeps_the_others(tmp_path, capsys):
    out = tmp_path / "sweep_fail"
    text = (
        BASE_CONFIG.format(out=out).replace("kind = single", "kind = sweep")
        + "sweep.points = [64, 100]\n"
    )
    assert run_experiment(load_config(write_config(tmp_path, text))) == 2
    rows = json.loads((out / "sweep_rows.json").read_text())
    assert [r["point"] for r in rows] == [{"points": 64}, {"points": 100}]
    good, bad = rows
    assert good["classification"] != "Failed" and good["status"] == "ReachedTEnd"
    assert (out / "run_0000" / "trace.csv").exists()
    assert (out / "run_0000" / "summary.json").exists()
    assert bad["classification"] == "Failed"
    assert bad["error"] == "ConfigError: grid: points must be a power of two >= 8, got 100"
    assert all(bad[k] is None for k in ("status", "fitted_slope", "h1_final"))
    table = (out / "dichotomy.txt").read_text()
    assert "Failed" in table and "got 100" in table
    capsys.readouterr()


def test_broken_pool_gives_a_failed_row(tmp_path):
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    from nls.harness import _cell_row

    text = BASE_CONFIG.format(out=tmp_path).replace("kind = single", "kind = sweep")
    text += "sweep.alpha = [3.0]\nprobes.scatter = true\n"
    cfg = load_config(write_config(tmp_path, text))
    fut = concurrent.futures.Future()
    fut.set_exception(BrokenProcessPool("worker died"))
    row = _cell_row(cfg, {"alpha": 3.0}, fut)
    assert row["classification"] == "Failed"
    assert row["error"] == "BrokenProcessPool: worker died"
    assert row["alpha"] == 3.0 and row["kappa_im"] == -1.0
    assert row["point"] == {"alpha": 3.0} and row["status"] is None


def test_verdict_and_failed_rows_share_one_key_sequence(tmp_path, capsys):
    # sweep_rows.json and the cell's summary.json hold the same verdict row; a
    # Failed row has the same keys, with its error just before the point
    out = tmp_path / "sweep_rows"
    text = (
        BASE_CONFIG.format(out=out).replace("kind = single", "kind = sweep")
        + "sweep.points = [64, 100]\n"
    )
    assert run_experiment(load_config(write_config(tmp_path, text))) == 2
    good, bad = json.loads((out / "sweep_rows.json").read_text())
    keys = [
        "alpha", "kappa_im", "status", "fitted_slope", "theoretical_exponent",
        "scatter_first", "scatter_last", "h1_final", "classification", "point",
    ]
    assert list(good) == keys and bad["classification"] == "Failed"
    assert list(bad) == keys[:-1] + ["error", "point"]
    summary = json.loads((out / "run_0000" / "summary.json").read_text())
    assert list(summary)[-1] == "verdict" and summary["verdict"] == good
    assert list(summary["verdict"]) == keys
    capsys.readouterr()


def test_sweep_pool_size_leaves_artifacts_unchanged(tmp_path, monkeypatch):
    # cells of 40, 20 and 10 steps: with two workers they finish out of order
    text = (
        BASE_CONFIG.format(out=tmp_path).replace("kind = single", "kind = sweep")
        + "probes.checkpoint_every = 5\nsweep.dt = [0.005, 0.01, 0.02]\n"
    )
    cfg = load_config(write_config(tmp_path, text))
    rows = {}
    for n in ("1", "2"):
        monkeypatch.setenv("NLS_THREADS", n)
        rows[n] = execute_sweep(cfg, tmp_path / f"pool{n}")
    assert rows["1"] == rows["2"]
    assert [r["point"] for r in rows["1"]] == cfg.points()
    for i in range(3):
        one = tmp_path / "pool1" / f"run_{i:04d}"
        two = tmp_path / "pool2" / f"run_{i:04d}"
        names = sorted(f.name for f in one.iterdir())
        assert names == sorted(f.name for f in two.iterdir())
        assert len([n for n in names if n.endswith(".nlsf")]) >= 2
        for name in names:
            if name.startswith("checkpoint_") or name == "trace.csv":
                assert (one / name).read_bytes() == (two / name).read_bytes(), name
        summaries = [json.loads((d / "summary.json").read_text()) for d in (one, two)]
        for s in summaries:
            del s["wall_seconds"]
        assert summaries[0] == summaries[1]


# ---------------------------------------------------------------------------
# CLI


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "nls" in capsys.readouterr().out


def test_cli_exponents_json(capsys):
    assert main(["exponents", "--dim", "3", "--alpha", "1.0", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rho"] == pytest.approx(2.25)
    assert data["flags"]["condition_fDfa_holds"] is True


def test_cli_exponents_table(capsys):
    assert main(["exponents", "--dim", "1"]) == 0
    out = capsys.readouterr().out
    assert "fujita" in out and "inf" in out


def test_cli_exponents_full_chain_at_mass_critical_power(capsys):
    assert main(["exponents", "--dim", "8", "--alpha", "0.5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert None not in data.values() and all(data["flags"].values())


@pytest.mark.parametrize("argv,message", [
    (["--dim", "7", "--alpha", "0.3", "--a", "5"], "alpha=0.3, dim=7 is outside"),
    (["--dim", "7", "--a", "5"], "--a needs --alpha"),
    (["--dim", "3", "--alpha", "1", "--a", "nan"], "a=nan is not a number"),
    (["--dim", "3", "--alpha", "1", "--a", "5"], "a=5.0 below gamma=12"),
])
def test_cli_exponents_never_drops_a_given_a(capsys, argv, message):
    assert main(["exponents", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: {message}")


@pytest.mark.parametrize("argv,message", [
    (["exponents", "--dim", "3", "--alpha", "1", "--kappa-im", "nan"], "kappa must be finite"),
    (["oracle", "--kappa-im", "-1", "--alpha", "1", "--dim", "2", "--t0", "1", "--z0", "nan"],
     "z0 must be finite"),
    (["oracle", "--kappa-im", "-1", "--alpha", "1", "--dim", "2", "--t0", "inf", "--z0", "1"],
     "t0 must be positive and finite, got inf"),
], ids=["exponents", "oracle", "oracle-t0"])
def test_cli_non_finite_model_numbers_are_config_errors(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: {message}")


def test_cli_oracle_with_trace(tmp_path, capsys):
    trace = tmp_path / "z.csv"
    rc = main([
        "oracle", "--kappa-im", "-1", "--alpha", "1", "--dim", "2",
        "--t0", "1", "--z0", "1", "--trace", str(trace),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "FiniteTimeBlowup" in out
    lines = trace.read_text().splitlines()
    assert lines[0] == "t,abs_z,arg_z"
    assert len(lines) == 202


def test_cli_oracle_trace_past_double_range(tmp_path, capsys):
    # the blowup time overflows to inf: the trace spans the global window 10 t0
    trace = tmp_path / "z.csv"
    rc = main([
        "oracle", "--kappa-im", "-1", "--alpha", "1", "--dim", "1",
        "--t0", "1", "--z0", "1e-300", "--trace", str(trace),
    ])
    assert rc == 0
    assert "blowup_time: inf" in capsys.readouterr().out
    lines = trace.read_text().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert rows.shape == (201, 3) and np.isfinite(rows).all()
    assert rows[-1, 0] == 10.0


def test_cli_simulate_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "cli_run"
    p = write_config(tmp_path, BASE_CONFIG.format(out=out))
    assert main(["simulate", "--config", str(p)]) == 0
    assert (out / "summary.json").exists()
    bad = write_config(tmp_path, "kind = nonsense\n", name="bad.cfg")
    assert main(["simulate", "--config", str(bad)]) == 1
    capsys.readouterr()
    # a bad value is a configuration error naming its key, not a traceback
    bad = write_config(tmp_path, BASE_CONFIG.format(out=out) + "probes.scatter = no\n")
    assert main(["simulate", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: probes.scatter") and "Traceback" not in err


def test_cli_pct_check(tmp_path, capsys):
    out = tmp_path / "pct"
    text = (
        BASE_CONFIG.format(out=out)
        .replace("kind = single", "kind = pct-check")
        .replace("model.alpha = 1.0", "model.alpha = 3.0")
        .replace("model.kappa_im = -1.0", "model.kappa_im = 0.0")
        .replace("grid.points = 256", "grid.points = 2048")
        .replace("initial.amplitude_re = 0.5", "initial.amplitude_re = 0.1")
        + "pct.t_star = 0.5\n"
    )
    p = write_config(tmp_path, text)
    assert main(["simulate", "--config", str(p)]) == 0
    report = json.loads((out / "pct_report.json").read_text())
    assert report["l2_discrepancy"] <= 1e-8
    assert report["s_star"] == pytest.approx(1.0)


PCT_CONFIG = (
    BASE_CONFIG.replace("kind = single", "kind = pct-check")
    .replace("model.alpha = 1.0", "model.alpha = 2.0")
    + "pct.t_star = 0.5\n"
)


@pytest.mark.parametrize("kind", ["plane_wave", "file"])
def test_cli_pct_check_needs_gaussian_data(tmp_path, capsys, monkeypatch, kind):
    # path B resamples the data on the box L/(1-t*): a plane wave's mode is
    # tied to its box and a file to its grid, so neither is the same function
    data = tmp_path / "u0.nlsf"
    save_checkpoint(data, make_initial(GridSpec(1, 40.0, 256), Gaussian(0.5, 1.0)),
                    ModelParams(1, 2.0, -1j))
    initial = {
        "plane_wave": "initial.kind = plane_wave\ninitial.mode_index = 2",
        "file": f"initial.kind = file\ninitial.path = {data}",
    }[kind]
    runs = []
    monkeypatch.setattr(nls.conformal, "run", lambda *a, **k: runs.append(a))
    text = PCT_CONFIG.format(out=tmp_path / "o").replace("initial.kind = gaussian", initial)
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 1
    name = {"plane_wave": "PlaneWave", "file": "FromFile"}[kind]
    assert capsys.readouterr().err == (
        "configuration error: pct-check needs Gaussian initial data, "
        f"the same function on both boxes; got {name}\n"
    )
    assert runs == [] and not (tmp_path / "o").exists()


def test_cli_pct_check_checks_the_end_chirp_before_path_a(tmp_path, capsys, monkeypatch):
    # conformal_1d's grid resolves the chirp at t = 0 (scale 1) but not that
    # of the map at t* = 0.6 (scale 0.4): no step runs and nothing is written
    steps = []
    advance = nls.solver._StrangChain.advance

    def counted(self, *args, **kwargs):
        steps.append(self)
        return advance(self, *args, **kwargs)

    monkeypatch.setattr(nls.solver._StrangChain, "advance", counted)
    text = (
        PCT_CONFIG.format(out=tmp_path / "o")
        .replace("grid.box_length = 40.0", "grid.box_length = 80.0")
        .replace("grid.points = 256", "grid.points = 4096")
        .replace("pct.t_star = 0.5", "pct.t_star = 0.6")
    )
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 1
    assert capsys.readouterr().err.startswith(
        "configuration error: quadratic phase under-resolved: "
        "|x| h / (2 scale) = 0.9766 at the box edge"
    )
    assert steps == [] and not (tmp_path / "o").exists()


def test_cli_pct_check_after_a_blowup_reports_no_discrepancy(tmp_path, capsys):
    # alpha = 2 < 4/N, kappa = -i, A = 3: both paths stop long before t*, s*
    out = tmp_path / "o"
    text = (
        PCT_CONFIG.format(out=out)
        .replace("grid.box_length = 40.0", "grid.box_length = 20.0")
        .replace("solver.dt = 1e-2", "solver.dt = 1e-3")
        .replace("solver.t_end = 0.2", "solver.t_end = 1.0")
        .replace("initial.amplitude_re = 0.5", "initial.amplitude_re = 3.0")
        + "solver.blowup_dt_floor = 1e-9\n"
    )
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 2
    assert capsys.readouterr().out == (
        "pct-check: t*=0.5 s*=1 path A BlowupDetected, path B BlowupDetected\n"
    )
    report = json.loads((out / "pct_report.json").read_text())
    assert report["l2_discrepancy"] is None
    assert report["path_a_status"] == report["path_b_status"] == "BlowupDetected"
    assert '"l2_discrepancy": null' in (out / "pct_report.json").read_text()


def test_cli_accept_filter_quick(capsys):
    assert main(["accept", "--filter", "exponent table"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]  1" in out


def test_cli_linear_confinement_kind(tmp_path, capsys):
    out = tmp_path / "conf"
    text = (
        BASE_CONFIG.format(out=out)
        .replace("kind = single", "kind = linear-confinement")
        .replace("grid.box_length = 40.0", "grid.box_length = 400.0")
        .replace("grid.points = 256", "grid.points = 4096")
        .replace("initial.amplitude_re = 0.5", "initial.amplitude_re = 1.0")
        .replace("initial.width = 1.0", "initial.width = 1.4142135623730951")
        + "confinement.times = [1.0, 2.0, 4.0, 8.0]\n"
    )
    p = write_config(tmp_path, text)
    assert main(["simulate", "--config", str(p)]) == 0
    rep = json.loads((out / "confinement.json").read_text())
    assert rep["max_violation"] <= 1e-8
    assert rep["exterior_fraction"][-1] <= 0.25


def test_negative_confinement_time_is_config_error(tmp_path, capsys):
    # the bound holds for t >= 0; a negative t must not pass as the t = 0 case
    text = (
        BASE_CONFIG.format(out=tmp_path / "o")
        .replace("kind = single", "kind = linear-confinement")
        + "confinement.times = [-8.0, -1.0]\n"
    )
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 1
    err = capsys.readouterr().err
    assert err == "configuration error: confinement times must be >= 0, got -8.0\n"
    assert not (tmp_path / "o").exists()


def test_empty_confinement_times_is_config_error(tmp_path, capsys):
    # a sweep may leave the key empty; a linear-confinement run has no time to check
    text = (
        BASE_CONFIG.format(out=tmp_path / "o")
        .replace("kind = single", "kind = linear-confinement")
        + "confinement.times = []\n"
    )
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 1
    err = capsys.readouterr().err
    assert err == "configuration error: confinement times must not be empty\n"
    assert not (tmp_path / "o").exists()


def test_worker_count_env(monkeypatch):
    from nls.harness import worker_count

    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count()
    monkeypatch.setenv("NLS_THREADS", "3")
    assert worker_count() == min(3, cpus)
    monkeypatch.setenv("NLS_THREADS", "1000000")
    assert worker_count() == cpus
    for low in ("0", "-3"):
        monkeypatch.setenv("NLS_THREADS", low)
        assert worker_count() == 1
    monkeypatch.setenv("NLS_THREADS", "abc")
    with pytest.raises(ValueError, match="NLS_THREADS"):
        worker_count()
    monkeypatch.delenv("NLS_THREADS")
    assert 1 <= worker_count() <= cpus


def test_cli_accept_no_match_is_config_error(capsys):
    assert main(["accept", "--filter", "zzz-no-such-criterion"]) == 1
    capsys.readouterr()


def test_gnuplot_script_emitted(tmp_path):
    out = tmp_path / "gp"
    p = write_config(tmp_path, BASE_CONFIG.format(out=out))
    assert main(["simulate", "--config", str(p), "--gnuplot"]) == 0
    script = (out / "plot_trace.gp").read_text()
    assert "trace.csv" in script and "plot" in script


@pytest.mark.parametrize("command", ["sweep", "pct-check"])
def test_simulate_is_the_one_config_command(tmp_path, capsys, command):
    # the file's kind chooses the experiment; no subcommand overrides it
    p = write_config(tmp_path, BASE_CONFIG.format(out=tmp_path / "o"))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(p)])
    assert exc.value.code == 2  # argparse usage error
    assert f"invalid choice: '{command}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "kind,box,extra",
    [
        ("sweep", "40.0", "sweep.alpha = [1.0, 3.0]\n"),
        ("pct-check", "20.0", ""),
        ("linear-confinement", "40.0", "confinement.times = 1.0\n"),
    ],
)
def test_simulate_gnuplot_needs_a_single_run(tmp_path, capsys, kind, box, extra):
    # each config runs and exits 0 without --gnuplot, which it would ignore;
    # the sweep's alpha = 3 cell needs the scatter probe, the other kinds ignore it
    text = (
        BASE_CONFIG.format(out=tmp_path / "o")
        .replace("kind = single", f"kind = {kind}")
        .replace("grid.box_length = 40.0", f"grid.box_length = {box}")
        + extra
        + "probes.scatter = true\n"
    )
    p = write_config(tmp_path, text)
    assert main(["simulate", "--config", str(p), "--gnuplot"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: --gnuplot plots a single run's trace; kind = {kind}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line,new,message", [
    ("initial.kind = gaussian", "initial.kind = quadratic_phase_gaussian",
     "unknown initial.kind 'quadratic_phase_gaussian'"),
    ("initial.width = 1.0", "initial.width = 1.0\ninitial.chirp_sign = -1",
     "line 21: unknown config key 'initial.chirp_sign'"),
], ids=["kind", "key"])
def test_cli_chirped_initial_data_is_not_a_config_input(tmp_path, capsys, line, new, message):
    # the chirped v(0) is built only by the pct-check path, which checks its resolution
    text = BASE_CONFIG.format(out=tmp_path / "o").replace(line, new)
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_cli_dt_below_floor_is_config_error(tmp_path, capsys):
    text = BASE_CONFIG.format(out=tmp_path / "o").replace(
        "solver.dt = 1e-2", "solver.dt = 1e-13"
    )
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: solver: dt=1e-13 is below blowup_dt_floor")
    assert "Traceback" not in err and not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "kind,box,message",
    [
        ("linear-confinement", "40.0", "confinement radius a t = 22.63 exceeds box half-length"),
        ("pct-check", "400.0", "quadratic phase under-resolved"),
    ],
)
def test_cli_run_time_config_error_leaves_no_output(tmp_path, capsys, kind, box, message):
    text = (
        BASE_CONFIG.format(out=tmp_path / "o")
        .replace("kind = single", f"kind = {kind}")
        .replace("grid.box_length = 40.0", f"grid.box_length = {box}")
    )
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}")
    assert "Traceback" not in err and not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind,axis", [("single", ""), ("sweep", "sweep.dt = [0.01, 0.005]\n")])
def test_cli_cutoff_support_beyond_the_box_is_a_config_error(tmp_path, capsys, kind, axis):
    # lambda = 0.01 has support radius 200 on a box of half-length 10; neither
    # lambda nor the box is a sweep axis, so no cell of a sweep could run
    text = (
        BASE_CONFIG.format(out=tmp_path / "o")
        .replace("kind = single", f"kind = {kind}")
        .replace("grid.box_length = 40.0", "grid.box_length = 20.0")
        + "probes.localized_mass = true\nprobes.lambdas = [0.01, 1.0]\n"
        + axis
    )
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 1
    assert capsys.readouterr().err == (
        "configuration error: probes.lambdas: cutoff support radius 200 "
        "exceeds box half-length 10\n"
    )
    assert not (tmp_path / "o").exists()


def test_sweep_dt_below_floor_is_a_failed_row(tmp_path, capsys):
    out = tmp_path / "sweep_floor"
    text = (
        BASE_CONFIG.format(out=out).replace("kind = single", "kind = sweep")
        + "sweep.dt = [0.01, 1e-13]\n"
    )
    assert run_experiment(load_config(write_config(tmp_path, text))) == 2
    good, bad = json.loads((out / "sweep_rows.json").read_text())
    assert good["status"] == "ReachedTEnd"
    assert bad["classification"] == "Failed" and bad["status"] is None
    assert bad["error"] == "ConfigError: solver: dt=1e-13 is below blowup_dt_floor=1e-12"
    capsys.readouterr()


def test_initial_from_file_through_config(tmp_path):
    import numpy as np

    from nls.exponents import ModelParams
    from nls.field import FieldState, GridSpec, save_checkpoint

    g = GridSpec(1, 40.0, 256)
    rng = np.random.default_rng(0)
    st = FieldState(grid=g, values=(0.1 * rng.standard_normal(g.shape)).astype(complex))
    ckpt = tmp_path / "init.nlsf"
    save_checkpoint(ckpt, st, ModelParams(1, 1.0, -1j))
    out = tmp_path / "filerun"
    text = BASE_CONFIG.format(out=out).replace(
        "initial.kind = gaussian",
        f"initial.kind = file\ninitial.path = {ckpt}",
    )
    assert run_experiment(load_config(write_config(tmp_path, text))) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] in ("ReachedTEnd", "BlowupDetected")


def check_sidecar_is_rejected(tmp_path, capsys, edit, message):
    """A checkpoint whose sidecar JSON edit() changes fails to load with
    `<sidecar>: <message>`, and a run from it exits 1 with no output.

    edit() changes the sidecar's dict in place, or returns the text to write
    instead, or IsADirectoryError to put a directory in the sidecar's place."""
    from nls.exponents import ModelParams
    from nls.field import GridSpec, load_checkpoint, make_initial, save_checkpoint

    ckpt = tmp_path / "init.nlsf"
    state = make_initial(GridSpec(1, 40.0, 256), Gaussian(0.5, 1.0))
    save_checkpoint(ckpt, state, ModelParams(1, 1.0, -1j))
    meta = tmp_path / "init.nlsf.meta.json"
    data = json.loads(meta.read_text())
    text = edit(data)
    if text is IsADirectoryError:
        meta.unlink()
        meta.mkdir()
    else:
        meta.write_text(text if isinstance(text, str) else json.dumps(data))
    with pytest.raises(ValueError, match=re.escape(f"{meta}: {message}")):
        load_checkpoint(ckpt)
    out = tmp_path / "o"
    text = BASE_CONFIG.format(out=out).replace(
        "initial.kind = gaussian", f"initial.kind = file\ninitial.path = {ckpt}"
    )
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {meta}: {message}")
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("key", ["time", "kappa_re", "kappa_im"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_checkpoint_sidecar_must_be_finite(tmp_path, capsys, key, value):
    def edit(data):
        (data if key == "time" else data["model"])[key] = value

    name = key if key == "time" else f"model.{key}"
    check_sidecar_is_rejected(tmp_path, capsys, edit, f"{name} must be a finite number")


@pytest.mark.parametrize("edit,message", [
    (lambda d: d.update(time=None), "time must be a finite number, got None"),
    (lambda d: d["model"].update(kappa_re="abc"),
     "model.kappa_re must be a finite number, got 'abc'"),
    (lambda d: d["model"].pop("alpha"), "model.alpha must be a finite number, got None"),
    (lambda d: d.update(model=None), "model.dim must be a finite number, got None"),
    (lambda d: "{not json", "not valid JSON: Expecting property name"),
    (lambda d: "[]", "must hold a JSON object, got list"),
    (lambda d: IsADirectoryError, "Is a directory"),
    # int() would read 1.5 as 1; ModelParams' own errors name the sidecar too
    (lambda d: d["model"].update(dim=1.5), "model.dim must be a positive integer, got 1.5"),
    (lambda d: d["model"].update(dim=0), "model.dim must be a positive integer, got 0"),
    (lambda d: d["model"].update(alpha=-1),
     "model.alpha must be positive and finite, got -1.0"),
], ids=[
    "time-null", "kappa_re-string", "alpha-missing", "model-null", "not-json", "list",
    "directory", "dim-fraction", "dim-zero", "alpha-negative",
])
def test_malformed_checkpoint_sidecar_is_a_config_error(tmp_path, capsys, edit, message):
    check_sidecar_is_rejected(tmp_path, capsys, edit, message)


def test_missing_initial_file_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = BASE_CONFIG.format(out="o").replace(
        "initial.kind = gaussian", "initial.kind = file\ninitial.path = nowhere.nlsf"
    )
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 1
    err = capsys.readouterr().err
    assert err == "configuration error: nowhere.nlsf: No such file or directory\n"
    assert not (tmp_path / "o").exists()
    # a sweep keeps a Failed row per cell, as with a bad header
    text = text.replace("kind = single", "kind = sweep") + "sweep.dt = [0.01, 0.02]\n"
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 2
    rows = json.loads((tmp_path / "o" / "sweep_rows.json").read_text())
    assert [r["error"] for r in rows] == ["ValueError: nowhere.nlsf: No such file or directory"] * 2
    capsys.readouterr()


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_output_dir_under_a_file_is_a_config_error(tmp_path, capsys, monkeypatch, out):
    # rejected before the run, not after it when the artifacts are written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_bytes(b"keep\n")
    path = write_config(tmp_path, BASE_CONFIG.format(out=out))
    assert main(["simulate", "--config", str(path)]) == 1
    assert capsys.readouterr() == (
        "", f"configuration error: output_dir '{out}': afile is not a directory\n"
    )
    assert (tmp_path / "afile").read_bytes() == b"keep\n"


@pytest.mark.parametrize("word", ["1e3", "007", "1_000", "NaN", "Infinity"])
@pytest.mark.parametrize("key", ["output_dir", "initial.path"])
def test_string_keys_keep_their_text(tmp_path, monkeypatch, capsys, key, word):
    from nls.exponents import ModelParams
    from nls.field import GridSpec, make_initial, save_checkpoint

    monkeypatch.chdir(tmp_path)
    text = BASE_CONFIG.format(out=word if key == "output_dir" else "out")
    if key == "initial.path":
        state = make_initial(GridSpec(1, 40.0, 256), Gaussian(0.5, 1.0))
        save_checkpoint(word, state, ModelParams(1, 1.0, -1j))
        text = text.replace(
            "initial.kind = gaussian", f"initial.kind = file\ninitial.path = {word}"
        )
    cfg = load_config(write_config(tmp_path, text))
    assert cfg.keys[key] == word
    assert main(["simulate", "--config", "exp.cfg"]) == 0
    assert (tmp_path / cfg.output_dir / "trace.csv").exists()
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["single", "pct-check", "linear-confinement"])
def test_cfg_sweep_is_none_without_an_axis(tmp_path, kind):
    text = BASE_CONFIG.format(out=tmp_path / "o").replace("kind = single", f"kind = {kind}")
    assert load_config(write_config(tmp_path, text)).sweep is None


def test_cfg_sweep_maps_each_axis_to_its_values_in_axis_order(tmp_path):
    text = (
        BASE_CONFIG.format(out=tmp_path / "o").replace("kind = single", "kind = sweep")
        + "sweep.dt = [0.01, 0.02]\nsweep.amplitude = [0.25]\nsweep.alpha = [1.0, 3.0]\n"
        + "probes.scatter = true\n"
    )
    cfg = load_config(write_config(tmp_path, text))
    assert cfg.sweep == {"alpha": (1.0, 3.0), "amplitude": (0.25,), "dt": (0.01, 0.02)}
    assert list(cfg.sweep) == ["alpha", "amplitude", "dt"]
    assert cfg.points() == [
        {"alpha": a, "amplitude": 0.25, "dt": d} for a in (1.0, 3.0) for d in (0.01, 0.02)
    ]
    assert cfg.cell(cfg.points()[0]).sweep is None


def test_cli_sweep_without_axis_is_config_error(tmp_path, capsys):
    text = BASE_CONFIG.format(out=tmp_path / "o").replace("kind = single", "kind = sweep")
    p = write_config(tmp_path, text)
    assert main(["simulate", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err == "configuration error: kind = sweep requires at least one sweep.<axis>\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("axis", ["sweep.alpha = [1.0, 3.0]", "sweep.dt = [0.01]"])
def test_cli_sweep_above_fujita_needs_the_scatter_probe(tmp_path, capsys, axis):
    # a cell at alpha >= 2/N is classified from its scatter column alone; the
    # second sweep takes alpha = 2 from model.alpha
    text = (
        BASE_CONFIG.format(out=tmp_path / "o").replace("kind = single", "kind = sweep")
        .replace("model.alpha = 1.0", "model.alpha = 2.0")
        + axis + "\n"
    )
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 1
    top = "3.0" if "alpha" in axis else "2.0"
    assert capsys.readouterr().err == (
        "configuration error: probes.scatter = true is needed to classify a sweep cell "
        f"with alpha = {top} >= 2/N = 2\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["single", "pct-check", "linear-confinement"])
def test_sweep_keys_need_kind_sweep(tmp_path, capsys, kind):
    text = (
        BASE_CONFIG.format(out=tmp_path / "o").replace("kind = single", f"kind = {kind}")
        + "sweep.alpha = [1.0, 3.0]\n"
    )
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"configuration error: sweep.alpha needs kind = sweep; kind = {kind} runs no sweep\n"
    )
    assert not (tmp_path / "o").exists()


def test_probes_lambdas_need_localized_mass(tmp_path, capsys):
    # without the probe no loc_mass column is written, so a ladder is an error
    text = BASE_CONFIG.format(out=tmp_path / "o") + "probes.lambdas = [0.5, 1.0]\n"
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 1
    assert capsys.readouterr().err == (
        "configuration error: probes.lambdas needs probes.localized_mass = true\n"
    )
    assert not (tmp_path / "o").exists()


def test_grid_above_the_node_cap_is_config_error(tmp_path, capsys):
    # 1024^3 = 2^30 nodes: rejected before any field is allocated
    text = (
        BASE_CONFIG.format(out=tmp_path / "o")
        .replace("model.dim = 1", "model.dim = 3")
        .replace("grid.points = 256", "grid.points = 1024")
    )
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 1
    assert capsys.readouterr().err == (
        "configuration error: grid: 1024^3 grid nodes exceed the cap of 16777216 (2^24)\n"
    )
    assert not (tmp_path / "o").exists()


def test_negative_checkpoint_cadence_is_config_error(tmp_path, capsys):
    text = BASE_CONFIG.format(out=tmp_path / "o") + "probes.checkpoint_every = -1\n"
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 1
    err = capsys.readouterr().err
    assert err == "configuration error: probes: checkpoint cadence must be >= 0, got -1\n"
    assert not (tmp_path / "o").exists()


def test_cli_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "configuration error" in capsys.readouterr().err


def make_outcome(trace, status):
    from nls.field import FieldState, GridSpec
    from nls.solver import RunOutcome

    g = GridSpec(1, 10.0, 8)
    st = FieldState(grid=g, values=np.ones(g.shape, complex), time=trace.t[-1])
    return RunOutcome(status, st, None, trace, [], 0, 0)


def make_trace(times, K, scatter=None):
    from nls.diagnostics import DiagnosticTrace

    n = len(times)
    K = np.asarray(K, float)
    sc = np.full(n, np.nan) if scatter is None else np.asarray(scatter, float)
    return DiagnosticTrace(
        t=np.asarray(times, float), mass=np.ones(n), lp=np.ones(n),
        grad_l2=K, K_t=np.maximum.accumulate(K), linf=np.ones(n),
        R_t=np.full(n, np.nan), weighted_l2=np.full(n, np.nan),
        scatter_residual=sc,
    )


def classify_with(tmp_path, alpha, trace, status):
    from nls.harness import _classify_run

    cfg = load_config(write_config(tmp_path, f"""
kind = single
model.dim = 1
model.alpha = {alpha}
model.kappa_im = -1.0
grid.box_length = 10.0
grid.points = 8
solver.dt = 0.1
solver.t_end = 1.0
initial.kind = gaussian
"""))
    return _classify_run(cfg, make_outcome(trace, status))


def test_classifier_growth_confirmed(tmp_path):
    from nls.solver import RunStatus

    t = np.geomspace(0.01, 100.0, 80)
    row = classify_with(tmp_path, 1.0, make_trace(t, t**1.05), RunStatus.REACHED_T_END)
    assert row["classification"] == "GrowthConfirmed"
    assert row["fitted_slope"] == pytest.approx(1.05, abs=1e-6)
    assert row["theoretical_exponent"] == pytest.approx(1.0)


def test_classifier_bounded_scattering(tmp_path):
    from nls.solver import RunStatus

    t = np.linspace(0.0, 40.0, 30)
    scatter = np.full(30, np.nan)
    scatter[5], scatter[15], scatter[25] = 1e-3, 5e-4, 1e-4
    row = classify_with(
        tmp_path, 3.0, make_trace(t, np.ones(30), scatter), RunStatus.REACHED_T_END
    )
    assert row["classification"] == "BoundedScattering"
    assert row["scatter_first"] == pytest.approx(1e-3)
    assert row["scatter_last"] == pytest.approx(1e-4)


def test_classifier_blowup_short_circuits(tmp_path):
    from nls.solver import RunStatus

    t = np.linspace(0.0, 1.0, 5)
    row = classify_with(tmp_path, 1.0, make_trace(t, np.ones(5)), RunStatus.BLOWUP_DETECTED)
    assert row["classification"] == "BlowupDetected"


def test_classifier_undetermined_without_signal(tmp_path):
    from nls.solver import RunStatus

    t = np.geomspace(0.01, 100.0, 80)
    # growing too slowly for the sub-Fujita verdict
    row = classify_with(tmp_path, 1.0, make_trace(t, t**0.3), RunStatus.REACHED_T_END)
    assert row["classification"] == "Undetermined"
    # no scattering residuals recorded above Fujita
    row2 = classify_with(tmp_path, 3.0, make_trace(t, np.ones(80)), RunStatus.REACHED_T_END)
    assert row2["classification"] == "Undetermined"


def test_dichotomy_table_prints_each_swept_axis(tmp_path, capsys):
    # cells that share alpha differ only in their kappa_im and amplitude
    out = tmp_path / "kappa_sweep"
    text = (
        BASE_CONFIG.format(out=out).replace("kind = single", "kind = sweep")
        + "sweep.kappa_im = [-1.0, 0.0]\nsweep.amplitude = [0.25, 0.5]\n"
    )
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 0
    header, *lines = (out / "dichotomy.txt").read_text().splitlines()
    assert header.split()[:5] == ["alpha", "vs", "2/N", "kappa_im", "amplitude"]
    assert len(lines) == len(set(lines)) == 4
    cells = [line.split()[2:4] for line in lines]
    assert cells == [["-1", "0.25"], ["-1", "0.5"], ["0", "0.25"], ["0", "0.5"]]
    capsys.readouterr()


def test_cli_bad_kind_lists_the_kinds(tmp_path, capsys):
    out = tmp_path / "o"
    text = BASE_CONFIG.format(out=out).replace("kind = single", "kind = nonsense")
    assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 1
    err = capsys.readouterr().err
    assert err == (
        "configuration error: kind: expected one of single, sweep, pct-check, "
        "linear-confinement, got 'nonsense'\n"
    )
    assert not out.exists()


def test_cli_sweep_end_to_end(tmp_path, capsys):
    out = tmp_path / "cli_sweep"
    text = (
        BASE_CONFIG.format(out=out).replace("kind = single", "kind = sweep")
        + "sweep.alpha = [1.0, 3.0]\nsweep.dt = [0.01]\nprobes.scatter = true\n"
    )
    p = write_config(tmp_path, text)
    assert main(["simulate", "--config", str(p)]) == 0
    table = (out / "dichotomy.txt").read_text()
    assert "classification" in table
    rows = json.loads((out / "sweep_rows.json").read_text())
    assert len(rows) == 2
    capsys.readouterr()


def test_text_io_is_utf8_in_an_ascii_locale(tmp_path):
    # LC_ALL=C with UTF-8 mode off makes the locale's encoding ASCII: the
    # config's comment holds a λ, and the trace header names loc_mass_λ=...
    out = tmp_path / "o"
    text = "# cutoffs φ_λ\n" + BASE_CONFIG.format(out=out) + "probes.localized_mass = true\n"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text, encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "nls.cli", "simulate", "--config", str(cfg)],
        env={**os.environ, "LC_ALL": "C", "PYTHONPATH": str(src)},
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    header = (out / "trace.csv").read_text(encoding="utf-8").splitlines()[0]
    assert ",loc_mass_λ=" in header
