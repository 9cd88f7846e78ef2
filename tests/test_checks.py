"""The check battery: shared work and how failures are reported."""

import os
import sys

import pytest

import lefthull
from lefthull import PositiveCone, UsageError, checks, run_checks
from lefthull.cli import main

CLOSURE_CHECKS = ("ideal-adjunctions", "closure-family", "independence",
                  "folner-bound", "filters", "operator-relations")
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def count_closures(monkeypatch):
    """Count constructible_closure calls from every lefthull module that
    binds the name."""
    calls = []
    real = lefthull.ideals.constructible_closure

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "lefthull" or name.startswith("lefthull."):
            if getattr(mod, "constructible_closure", None) is real:
                monkeypatch.setattr(mod, "constructible_closure", counted)
    return calls


def test_closure_is_built_once_per_run(monkeypatch):
    calls = count_closures(monkeypatch)
    results = run_checks(PositiveCone(1), window=12)
    assert all(r.status != "fail" for r in results)
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["analyze", "matrix"])
def test_closure_is_built_once_per_command(command, monkeypatch, tmp_path,
                                           capsys):
    calls = count_closures(monkeypatch)
    argv = [command, os.path.join(CONFIGS, "cone2.cfg")]
    if command == "matrix":
        argv += ["--out", str(tmp_path)]
    assert main(argv) == 0
    assert "relation" in capsys.readouterr().out
    assert len(calls) == 1


def test_closure_failure_is_reported_by_each_check(monkeypatch):
    def broken(*args):
        raise UsageError("closure broke")

    monkeypatch.setattr(checks, "constructible_closure", broken)
    results = {r.name: r for r in run_checks(PositiveCone(1), window=12)}
    for name in CLOSURE_CHECKS:
        assert results[name].status == "fail"
        assert results[name].detail == "closure broke"


def test_lattice_is_built_once_per_run(monkeypatch):
    calls = []
    real = checks.truncate_semilattice

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(checks, "truncate_semilattice", counted)
    results = run_checks(PositiveCone(1), window=12)
    assert all(r.status != "fail" for r in results)
    assert len(calls) == 1


def test_missing_meet_fails_closure_family_and_filters(monkeypatch):
    sg = PositiveCone(2)
    full = checks.constructible_closure(sg, 2)
    # (1,0)+S and (0,1)+S stay, their meet (1,1)+S goes
    assert {(1, 0), (0, 1), (1, 1)} <= set(full)
    family = tuple(X for X in full if X != (1, 1))
    monkeypatch.setattr(checks, "constructible_closure", lambda *args: family)
    results = run_checks(sg, window=12)
    failed = {r.name: r.detail for r in results if r.status == "fail"}
    assert set(failed) == {"closure-family", "filters"}
    for detail in failed.values():
        assert detail.startswith("family is not intersection closed")
