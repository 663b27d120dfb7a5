"""Command-line entry point: `nls <subcommand>`.

Exit codes: 0 success, 1 configuration error, 2 run failure,
3 acceptance failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import __version__
from .exponents import ModelParams, critical_exponents, strichartz_indices
from .oracle import SelfSimilarParams, blowup_time, reduced_trajectory

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUN = 2
EXIT_ACCEPT = 3


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nls",
        description="Pseudospectral NLS simulator and verification suite",
    )
    ap.add_argument("--version", action="version", version=f"nls {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="run the experiment a config file's kind names")
    sp.add_argument("--config", required=True, help="experiment config file")
    sp.add_argument(
        "--gnuplot", action="store_true",
        help="also emit a ready-to-run gnuplot script next to the CSV",
    )

    se = sub.add_parser("exponents", help="print the derived-exponent table")
    se.add_argument("--dim", type=int, required=True)
    se.add_argument("--alpha", type=float, default=None)
    se.add_argument("--a", type=float, default=None, dest="a_index")
    se.add_argument("--kappa-re", type=float, default=0.0)
    se.add_argument("--kappa-im", type=float, default=0.0)
    se.add_argument("--format", choices=("table", "json"), default="table")

    so = sub.add_parser("oracle", help="classify a self-similar reduced flow")
    so.add_argument("--kappa-re", type=float, default=0.0)
    so.add_argument("--kappa-im", type=float, required=True)
    so.add_argument("--alpha", type=float, required=True)
    so.add_argument("--dim", type=int, required=True)
    so.add_argument("--t0", type=float, required=True)
    so.add_argument("--z0", type=float, required=True, help="|z(0)|")
    so.add_argument("--trace", default=None, help="write a CSV trace (t, abs_z, arg_z)")

    sa = sub.add_parser("accept", help="run the acceptance suite")
    sa.add_argument("--filter", default=None, help="substring filter on criterion names")
    return ap


def _cmd_exponents(args) -> int:
    if args.a_index is not None and args.alpha is None:
        raise ValueError("--a needs --alpha")
    alpha = args.alpha if args.alpha is not None else 1.0 / args.dim  # placeholder
    model = ModelParams(
        dim=args.dim, alpha=alpha, kappa=complex(args.kappa_re, args.kappa_im)
    )
    report = critical_exponents(model)
    in_window = args.alpha is not None and report.flags.alpha_in_scattering_window
    if args.a_index is not None or in_window:  # a given --a raises outside the window
        report = strichartz_indices(model, args.a_index)
    d = dataclasses.asdict(report)
    if args.alpha is None:  # thresholds only: alpha-dependent entries are moot
        d["alpha"] = None
        d["flags"]["alpha_in_scattering_window"] = None
        d["flags"]["gradient_monotone_condition"] = None
    if args.format == "json":
        print(json.dumps(d, indent=2))
        return EXIT_OK
    width = max(len(k) for k in d if k != "flags")
    for key, val in d.items():
        if key == "flags":
            continue
        if val is None:
            txt = "-"
        elif isinstance(val, float) and math.isinf(val):
            txt = "inf"
        elif isinstance(val, float):
            txt = f"{val:.10g}"
        else:
            txt = str(val)
        print(f"{key:<{width}}  {txt}")
    for key, val in d["flags"].items():
        print(f"{'flag ' + key:<{width + 5}}  {'-' if val is None else val}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    model = ModelParams(
        dim=args.dim, alpha=args.alpha, kappa=complex(args.kappa_re, args.kappa_im)
    )
    p = SelfSimilarParams(t0=args.t0, z0=complex(args.z0, 0.0), model=model)
    if p.z0 == 0:
        raise ValueError("z0 = 0 is the trivial solution")
    T = blowup_time(p)
    if T is None:
        print("classification: Global")
    else:
        print("classification: FiniteTimeBlowup")
        print(f"blowup_time: {T!r}")
    if args.trace:
        # a time beyond double range (inf) gets the global window too
        t_max = 0.999 * T if T is not None and math.isfinite(T) else 10.0 * args.t0
        ts = [i * t_max / 200 for i in range(201)]
        with open(args.trace, "w", encoding="utf-8") as f:
            f.write("t,abs_z,arg_z\n")
            for t in ts:
                z = reduced_trajectory(p, t)
                f.write(f"{t!r},{abs(z)!r},{math.atan2(z.imag, z.real)!r}\n")
        print(f"trace written to {args.trace}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "exponents":
            return _cmd_exponents(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "accept":
            from .acceptance import run_acceptance_suite

            results = run_acceptance_suite(name_filter=args.filter)
            if not results:
                print(f"no criteria match filter {args.filter!r}", file=sys.stderr)
                return EXIT_CONFIG
            return EXIT_OK if all(r.passed for r in results) else EXIT_ACCEPT
        # simulate runs the kind the config file names
        from .config import ConfigError, ExperimentKind, load_config

        try:
            cfg = load_config(args.config)
        except OSError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if args.gnuplot and cfg.kind is not ExperimentKind.SINGLE:
            raise ConfigError(
                f"--gnuplot plots a single run's trace; kind = {cfg.kind.value} writes none"
            )
        from .diagnostics import DiagnosticTrace
        from .harness import run_experiment

        ok = run_experiment(cfg)
        if args.gnuplot:
            gp = Path(cfg.output_dir) / "plot_trace.gp"
            gp.write_text(DiagnosticTrace.gnuplot_script(), encoding="utf-8")
        return EXIT_OK if ok else EXIT_RUN
    except ValueError as exc:  # ConfigError and InfeasibleExponentError included
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ArithmeticError) as exc:
        print(f"run failure: {exc}", file=sys.stderr)
        return EXIT_RUN


if __name__ == "__main__":
    sys.exit(main())
