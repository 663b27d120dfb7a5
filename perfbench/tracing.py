"""Spans recorded around the package's public functions, from outside it.

The tracer replaces module and class attributes that the package looks up
at call time (``nls.solver.nonlinear_flow``, ``scipy.fft.fftn``, ...) with
wrappers that record one span per call: name, start, end, parent span and
thread id.  Spans stay in memory until the run ends; ``write_csv`` dumps
them and ``repetition_metrics`` derives the per-layer numbers from them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import statistics
import threading
import time
from typing import Callable, NamedTuple, Optional

NO_PARENT = -1


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int
    thread: int
    extra: Optional[dict]

    @property
    def dur(self) -> float:
        return self.end - self.start


def _fft_bytes(args, kwargs, result) -> dict:
    # computed from array sizes: one read of the input, one write of the output
    return {"bytes": args[0].nbytes + result.nbytes}


def _run_counts(args, kwargs, result) -> dict:
    return {"accepted": result.steps_accepted, "rejected": result.steps_rejected}


def _checkpoint_bytes(args, kwargs, result) -> dict:
    path = os.fspath(args[0])
    return {"bytes": os.path.getsize(path) + os.path.getsize(path + ".meta.json")}


# (owner, attribute, span name, annotate).  The owner is the namespace the
# package resolves the name in at call time, so every alias is listed.
TARGETS = (
    ("nls.solver", "run", "solver.run", _run_counts),
    ("nls.harness", "run", "solver.run", _run_counts),
    ("nls.conformal", "run", "solver.run", _run_counts),
    ("nls.solver", "nonlinear_flow", "oracle.nonlinear_flow", None),
    ("nls.diagnostics:TraceRecorder", "record", "diagnostics.record", None),
    ("nls.diagnostics:DiagnosticTrace", "write_csv", "diagnostics.write_csv", None),
    ("nls.field", "save_checkpoint", "field.save_checkpoint", _checkpoint_bytes),
    ("nls.harness", "save_checkpoint", "field.save_checkpoint", _checkpoint_bytes),
    ("nls.harness", "execute_single", "harness.execute_single", None),
    ("nls.conformal", "solve_v_problem", "conformal.solve_v_problem", None),
    ("nls.conformal", "initial_v_data", "conformal.frame_map", None),
    ("nls.conformal", "to_u_frame", "conformal.frame_map", None),
    ("nls.config", "load_config", "config.load_config", None),
    ("nls.field", "make_initial", "field.make_initial", None),
    ("nls.harness", "make_initial", "field.make_initial", None),
    ("nls.conformal", "make_initial", "field.make_initial", None),
    ("scipy.fft", "fftn", "fft", _fft_bytes),
    ("scipy.fft", "ifftn", "fft", _fft_bytes),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Collects spans from wrapped callables; installed() patches TARGETS."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, annotate=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)  # itertools.count is atomic under the GIL
            parent = stack[-1] if stack else NO_PARENT
            stack.append(sid)
            extra = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                extra = {"error": type(exc).__name__}
                raise
            else:
                end = time.perf_counter()
                if annotate is not None:
                    extra = annotate(args, kwargs, result)
            finally:
                stack.pop()
                self.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), extra)
                )
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, annotate in TARGETS:
                obj = _resolve(owner)
                original = getattr(obj, attr)
                saved.append((obj, attr, original))
                setattr(obj, attr, self.wrap(original, name, annotate))
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("id,name,start_s,end_s,parent,thread\n")
            for s in sorted(self.spans, key=lambda s: s.id):
                f.write(f"{s.id},{s.name},{s.start!r},{s.end!r},{s.parent},{s.thread}\n")


# ---------------------------------------------------------------------------
# per-layer metrics

# counts that must repeat exactly across repetitions and runs of one seed
COUNT_METRICS = (
    "solver.fft_calls_per_step",
    "solver.steps_accepted",
    "solver.steps_rejected",
    "oracle.nonlinear_flow_calls",
    "oracle.substep_blowups",
    "diagnostics.record_calls",
    "diagnostics.record_fft_calls",
    "field.checkpoint_writes",
    "field.checkpoint_bytes",
)

# name -> unit; the order is the print order
LAYER_UNITS = {
    "solver.step_us": "us",
    "solver.fft_calls_per_step": "count",
    "solver.fft_us_per_step": "us",
    "solver.fft_bytes_per_step": "bytes_computed",
    "solver.glue_us_per_step": "us",
    "solver.steps_accepted": "count",
    "solver.steps_rejected": "count",
    "solver.accept_ratio": "ratio",
    "oracle.nonlinear_flow_us": "us",
    "oracle.nonlinear_flow_calls": "count",
    "oracle.substep_blowups": "count",
    "diagnostics.record_calls": "count",
    "diagnostics.record_ms": "ms",
    "diagnostics.record_fft_calls": "count",
    "diagnostics.record_share": "ratio",
    "diagnostics.csv_write_ms": "ms",
    "field.checkpoint_writes": "count",
    "field.checkpoint_bytes": "bytes",
    "field.checkpoint_ms": "ms",
    "harness.cell_s": "s",
    "harness.cell_overlap": "ratio",
    "harness.pool_speedup": "ratio",
    "conformal.path_a_s": "s",
    "conformal.path_b_s": "s",
    "conformal.frame_map_ms": "ms",
    "config.load_ms": "ms",
    "field.make_initial_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def _total(spans) -> float:
    return sum(s.dur for s in spans)


def _extra(spans, key: str):
    return sum(s.extra.get(key, 0) for s in spans if s.extra)


def self_times(spans: list) -> dict:
    """Seconds per span name, each span minus the time its children cover."""
    child_time: dict = {}
    for s in spans:
        child_time[s.parent] = child_time.get(s.parent, 0.0) + s.dur
    out: dict = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.dur - child_time.get(s.id, 0.0)
    return out


def repetition_metrics(spans: list) -> dict:
    """Layer numbers of one repetition from its spans (0 where a layer is idle).

    Step time is the solver.run span minus its record children; FFT and
    nonlinear-substep time are the step's direct children, and glue is what
    is left (multiplies, the sup-norm check, Python).
    """
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    get = lambda name: by_name.get(name, [])
    runs = get("solver.run")
    run_ids = {s.id for s in runs}
    records = get("diagnostics.record")
    record_ids = {s.id for s in records}
    nl = get("oracle.nonlinear_flow")
    fft_step = [s for s in get("fft") if s.parent in run_ids]
    fft_record = [s for s in get("fft") if s.parent in record_ids]
    accepted = _extra(runs, "accepted")
    rejected = _extra(runs, "rejected")
    attempted = accepted + rejected
    per_step = lambda x: x / attempted if attempted else 0.0
    step_time = _total(runs) - _total(r for r in records if r.parent in run_ids)
    solve_v = get("conformal.solve_v_problem")
    solve_v_ids = {s.id for s in solve_v}
    checkpoints = get("field.save_checkpoint")
    return {
        "solver.step_us": 1e6 * per_step(step_time),
        "solver.fft_calls_per_step": per_step(len(fft_step)),
        "solver.fft_us_per_step": 1e6 * per_step(_total(fft_step)),
        "solver.fft_bytes_per_step": per_step(_extra(fft_step, "bytes")),
        "solver.glue_us_per_step": 1e6 * per_step(
            step_time - _total(fft_step) - _total(nl)
        ),
        "solver.steps_accepted": accepted,
        "solver.steps_rejected": rejected,
        "solver.accept_ratio": accepted / attempted if attempted else 0.0,
        "oracle.nonlinear_flow_us": 1e6 * _total(nl) / len(nl) if nl else 0.0,
        "oracle.nonlinear_flow_calls": len(nl),
        # a nonlinear_flow span has extra only when the call raised
        "oracle.substep_blowups": sum(1 for s in nl if s.extra),
        "diagnostics.record_calls": len(records),
        "diagnostics.record_ms": 1e3 * _total(records) / len(records) if records else 0.0,
        "diagnostics.record_fft_calls": len(fft_record),
        "diagnostics.record_share": _total(records) / _total(runs) if runs else 0.0,
        "diagnostics.csv_write_ms": 1e3 * _total(get("diagnostics.write_csv")),
        "field.checkpoint_writes": len(checkpoints),
        "field.checkpoint_bytes": _extra(checkpoints, "bytes"),
        "field.checkpoint_ms": 1e3 * _total(checkpoints),
        "conformal.path_a_s": _total(solve_v),
        "conformal.path_b_s": _total(
            s for s in runs if solve_v and s.parent not in solve_v_ids
        ),
        "conformal.frame_map_ms": 1e3 * _total(get("conformal.frame_map")),
    }


def median_metrics(reps: list) -> dict:
    return {k: statistics.median(r[k] for r in reps) for k in reps[0]}
