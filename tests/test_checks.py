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
