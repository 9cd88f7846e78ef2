"""The check battery: shared work and how failures are reported."""

from lefthull import PositiveCone, UsageError, checks, run_checks

CLOSURE_CHECKS = ("ideal-adjunctions", "closure-family", "independence",
                  "folner-bound", "filters")


def test_closure_is_built_once_per_run(monkeypatch):
    calls = []
    real = checks.constructible_closure

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(checks, "constructible_closure", counted)
    results = run_checks(PositiveCone(1), window=12)
    assert all(r.status != "fail" for r in results)
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
