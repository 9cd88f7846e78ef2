"""The check battery: shared work and how failures are reported."""

import os
import sys

import pytest

import lefthull
from lefthull import (FiniteTable, PositiveCone, UsageError, checks,
                      run_checks)
from lefthull.cli import main
from lefthull.config import build_backend, config_generators, load_config
from lefthull.filters import FiniteSemilattice
from lefthull.ideals import IdealCalculus

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


def test_check_on_a_cyclic_table_keeps_its_hull_work(monkeypatch, tmp_path,
                                                     capsys):
    # the sampled hull checks read atoms, letter rows and element actions
    # from the backend's memos; composing each word's atoms again and
    # multiplying each letter across the window again took 1,406 composes
    # and 5,788 products on this command, the memos 1,021 and 2,344, and
    # normalising each distinct element once 995 composes
    path = tmp_path / "cyc14.cfg"
    path.write_text("kind = table\nparams = cyclic 14\n")
    composes = count_calls(monkeypatch, lefthull.hull, "compose")
    products, mul = [], FiniteTable._mul
    monkeypatch.setattr(FiniteTable, "_mul", lambda self, a, b:
                        products.append(a) or mul(self, a, b))
    assert main(["check", str(path), "--seed", "7"]) == 0
    assert "failures: 0" in capsys.readouterr().out
    assert len(composes) <= 995
    assert len(products) <= 2900


def test_normal_form_runs_once_per_distinct_element(monkeypatch, tmp_path,
                                                    capsys):
    # the normal form is a function of (backend, f), so a repeat verifies
    # nothing new: the 40 sampled words on Z/12 reach 12 distinct nonzero
    # elements, and the detail still counts the words
    path = tmp_path / "cyc12.cfg"
    path.write_text("kind = table\nparams = cyclic 12\n")
    calls = count_calls(monkeypatch, lefthull.hull, "clifford_normal_form")
    assert main(["check", str(path), "--seed", "7"]) == 0
    assert "check.normal-form: ok (40 elements)\n" in capsys.readouterr().out
    assert len(calls) == 12
    assert len({f for _, f in calls}) == 12


def test_check_on_axb_keeps_each_composite_domain(monkeypatch, capsys):
    # compose reads the domain of f h from the backend's memo by (dom f, h),
    # so a repeated pair costs no image: working each domain out afresh
    # took 13,693 images for 6,797 composes on this command, the memo
    # 5,001; normalising each distinct element once takes 6,786 composes
    composes = count_calls(monkeypatch, lefthull.hull, "compose")
    images, image = [], IdealCalculus.image
    monkeypatch.setattr(IdealCalculus, "image", lambda self, g, X:
                        images.append(g) or image(self, g, X))
    assert main(["check", os.path.join(CONFIGS, "axb.cfg"), "--length", "3",
                 "--seed", "7"]) == 0
    assert "failures: 0" in capsys.readouterr().out
    assert len(composes) == 6786
    assert len(images) <= 6000


def test_check_reads_each_row_and_action_once_per_window(monkeypatch,
                                                        capsys):
    # every suite and the oracle read one window's letter rows and element
    # actions: working them out per consumer took 195 _ldiv calls on table5
    # and 5,102 act calls on cone2 at length 3
    ldivs, ldiv = [], FiniteTable._ldiv
    monkeypatch.setattr(FiniteTable, "_ldiv", lambda self, s, t:
                        ldivs.append(s) or ldiv(self, s, t))
    acts, act = [], PositiveCone.act
    monkeypatch.setattr(PositiveCone, "act", lambda self, g, x:
                        acts.append(g) or act(self, g, x))
    assert main(["check", os.path.join(CONFIGS, "table5.cfg")]) == 0
    assert main(["check", os.path.join(CONFIGS, "cone2.cfg"), "--length",
                 "3"]) == 0
    assert capsys.readouterr().out.count("failures: 0") == 2
    assert len(ldivs) <= 60
    assert len(acts) <= 4500


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



@pytest.mark.parametrize("fault", [
    lambda u, j, lat: u | 1 << j,
    lambda u, j, lat: u & ~(1 << lat.top),
    lambda u, j, lat: u | 1 << lat.zero,
], ids=["incomparable-bit", "top-cleared", "zero-set"])
def test_wrong_up_set_fails_the_filters_and_relations_checks(fault,
                                                             monkeypatch):
    # the filters check and the semilattice suite read the up-sets, so a
    # fault in one shows there and nowhere else; (1,0)+S is incomparable
    # with (0,1)+S, so U((0,1)) with it added is no up-set.  The suite's
    # pairs read the meets, which are right, so it names the first window
    # column whose members are not the up-set of their meet
    cfg = load_config(os.path.join(CONFIGS, "cone2.cfg"))
    sg = build_backend(cfg)
    build = FiniteSemilattice._up_sets

    def faulty(self, reachable):
        up = build(self, reachable)
        i, j = self.index((0, 1)), self.index((1, 0))
        assert self.meet(i, j) not in (i, j)
        up[i] = fault(up[i], j, self)
        return up

    monkeypatch.setattr(FiniteSemilattice, "_up_sets", faulty)
    results = run_checks(sg, generators=config_generators(sg, cfg),
                         **cfg.bounds)
    failed = {r.name: (r.status, r.detail) for r in results
              if r.status != "ok"}
    assert failed == {
        "filters": ("fail", "up-set of (0,1)+S is not a filter"),
        "operator-relations": ("fail", "semilattice relation failed at "
                                       "semilattice w=(0,1)")}
