"""Acceptance gate: every numbered criterion at its pinned tolerance.

Each test prints one pass/fail line (run pytest with -s to see them all, or
use `nls accept` for the standalone report).  Heavy runs are shared between
criteria through the memoized helpers in nls.acceptance.

The failure-report tests patch a library call the criterion makes, so that
a pinned check fails, and assert that the report names that check.
"""

import dataclasses

import pytest

import nls.acceptance
from nls.acceptance import CRITERIA, run_criterion
from nls.cli import EXIT_ACCEPT, main
from nls.solver import RunStatus


@pytest.mark.parametrize(
    "number,name", [(num, name) for num, name, _ in CRITERIA], ids=lambda v: str(v)
)
def test_criterion(number, name):
    result = run_criterion(number)
    print(result.line())
    assert result.passed, f"criterion {number} ({name}): {result.details}"


def test_failed_check_is_reported_before_the_exception_it_causes(monkeypatch):
    # the detail line cannot format T=None; the failed check still comes first
    monkeypatch.setattr(nls.acceptance, "blowup_time", lambda p: None)
    result = run_criterion(2)
    assert not result.passed
    assert result.details.startswith("closed-form T=None")
    assert "exception: TypeError" in result.details


def test_uniform_blowup_failure_names_both_checks(monkeypatch, capsys):
    real_run = nls.acceptance.run

    def no_blowup(*args, **kwargs):
        out = real_run(*args, **kwargs)
        return dataclasses.replace(
            out, status=RunStatus.REACHED_T_END, blowup_time_estimate=None
        )

    monkeypatch.setattr(nls.acceptance, "run", no_blowup)
    result = run_criterion(5)
    assert not result.passed
    assert result.details.startswith(
        "status RunStatus.REACHED_T_END; blowup estimate None"
    )
    assert main(["accept", "--filter", "uniform"]) == EXIT_ACCEPT
    assert "[FAIL]  5 uniform-data blowup: status RunStatus.REACHED_T_END" in (
        capsys.readouterr().out
    )


def test_criterion_raising_before_any_check_reports_the_exception(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(nls.acceptance, "run", boom)
    result = run_criterion(5)
    assert not result.passed
    assert result.details == "exception: RuntimeError('boom')"
