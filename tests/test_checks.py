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


def count_calls(monkeypatch, module, fname):
    """Count the calls of module.fname from every lefthull module that
    binds the name."""
    calls = []
    real = getattr(module, fname)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "lefthull" or name.startswith("lefthull."):
            if getattr(mod, fname, None) is real:
                monkeypatch.setattr(mod, fname, counted)
    return calls


def test_closure_is_built_once_per_run(monkeypatch):
    calls = count_calls(monkeypatch, lefthull.ideals, "constructible_closure")
    results = run_checks(PositiveCone(1), window=12)
    assert all(r.status != "fail" for r in results)
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["analyze", "matrix"])
def test_closure_is_built_once_per_command(command, monkeypatch, tmp_path,
                                           capsys):
    calls = count_calls(monkeypatch, lefthull.ideals, "constructible_closure")
    argv = [command, os.path.join(CONFIGS, "cone2.cfg")]
    if command == "matrix":
        argv += ["--out", str(tmp_path)]
    assert main(argv) == 0
    assert "relation" in capsys.readouterr().out
    assert len(calls) == 1


@pytest.mark.parametrize("command, length", [
    ("check", 2), ("check", 3), ("analyze", 2), ("hull", 2), ("matrix", 2)])
def test_hull_is_built_once_per_command(command, length, monkeypatch,
                                        tmp_path, capsys):
    calls = count_calls(monkeypatch, lefthull.hull, "hull_graph")
    argv = [command, os.path.join(CONFIGS, "cone2.cfg"),
            "--length", str(length)]
    if command == "matrix":
        argv += ["--out", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert [args[1] for args in calls] == [length]


def test_check_and_analyze_share_the_relation_summary(capsys):
    path = os.path.join(CONFIGS, "axb.cfg")
    summary = {}
    for command, key in (("check", "check.operator-relations"),
                         ("analyze", "relations")):
        assert main([command, path, "--format", "machine"]) == 0
        lines = capsys.readouterr().out.splitlines()
        summary[command] = dict(line.split("=", 1) for line in lines)[key]
    assert summary["check"] == "ok (%s)" % summary["analyze"]


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


@pytest.mark.parametrize("command", ["check", "analyze", "filters",
                                     "matrix"])
def test_lattice_is_built_once_per_command(command, monkeypatch, tmp_path,
                                           capsys):
    calls = count_calls(monkeypatch, lefthull.filters, "truncate_semilattice")
    argv = [command, os.path.join(CONFIGS, "cone2.cfg")]
    if command == "matrix":
        argv += ["--out", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
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
    # a relation suite reads its meets off the lattice, so it fails too
    assert set(failed) == {"closure-family", "filters", "operator-relations"}
    for detail in failed.values():
        assert detail.startswith("family is not intersection closed")
