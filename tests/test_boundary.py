"""Validation at the boundary: the public backend operations, the
pointwise oracle, the word evaluator and the isometries check what enters
them, and the trusted paths inside give the same results as the validating
ones."""

from collections import Counter, defaultdict
import contextlib
import importlib.util
import io
import os

import pytest

from lefthull import (AxPlusB, FiniteTable, FreeMonoid, NumericalSemigroup,
                      PositiveCone, UsageError, checks, cyclic_table, hull)
from lefthull.cli import main
from lefthull.config import build_backend, config_generators, load_config
from lefthull.hull import (HullElement, compose, evaluate_word, lambda_,
                           materialize_word, star)
from lefthull.ideals import EMPTY, calculus
from lefthull.operators import isometry_matrix, s_window
from lefthull.semigroups import Semigroup

HERE = os.path.dirname(__file__)
CONFIGS = os.path.join(HERE, "..", "configs")
WORKLOADS = os.path.join(HERE, "..", "lhbench", "workloads.py")

BACKEND_CLASSES = (FreeMonoid, PositiveCone, NumericalSemigroup, AxPlusB,
                   FiniteTable)

# a backend, one of its elements, and a value of the right kind outside it
CASES = [
    (FreeMonoid(2), (0, 1), (2,)),
    (PositiveCone(2), (1, 0), (-1, 0)),
    (NumericalSemigroup((2, 3)), 2, 1),
    (AxPlusB(), (1, 2), (1, 0)),
    (FiniteTable(cyclic_table(5)), 3, 5),
]


def ids(case):
    return case.describe() if hasattr(case, "describe") else repr(case)


@pytest.mark.parametrize("sg, good, bad", CASES, ids=ids)
def test_public_operations_reject_non_elements(sg, good, bad):
    sg.multiply(good, good), sg.left_divide(good, good), sg.embed(good)
    for args in ((bad, good), (good, bad), (bad, bad)):
        with pytest.raises(UsageError, match="is not an element of"):
            sg.multiply(*args)
        with pytest.raises(UsageError, match="is not an element of"):
            sg.left_divide(*args)
    with pytest.raises(UsageError, match="is not an element of"):
        sg.embed(bad)


@pytest.mark.parametrize("sg, good, bad", CASES, ids=ids)
def test_oracle_and_isometry_check_their_letters(sg, good, bad):
    win = sg.window_of_size(10)
    one = sg.identity()
    materialize_word(sg, [(one, good), (good, one)], win)
    evaluate_word(sg, [(one, good), (good, one)])
    for pairs in ([(bad, good)], [(good, bad)], [(one, good), (bad, one)]):
        with pytest.raises(UsageError, match="is not an element of"):
            materialize_word(sg, pairs, win)
        with pytest.raises(UsageError, match="is not an element of"):
            evaluate_word(sg, pairs)
    W = s_window(sg, size=10)
    isometry_matrix(sg, good, W)
    with pytest.raises(UsageError, match="is not an element of"):
        isometry_matrix(sg, bad, W)


def test_sampled_checks_check_the_ten_window_once(monkeypatch):
    # hull-vs-oracle, normal-form and estar-unitary draw every letter of
    # their random words from the 10-window: each checks that window once,
    # not each word, and then runs the trusted bodies
    cfg = load_config(os.path.join(CONFIGS, "cone2.cfg"))
    sg = build_backend(cfg)
    window = tuple(sg.window_of_size(10))
    seen, current = defaultdict(list), [None]
    run_check, check = checks._check, Semigroup._check

    def labelled(name, fn):
        current[0] = name
        return run_check(name, fn)

    def counted(self, *xs):
        seen[current[0]].append(xs)
        return check(self, *xs)

    monkeypatch.setattr(checks, "_check", labelled)
    monkeypatch.setattr(Semigroup, "_check", counted)
    generators = config_generators(sg, cfg)
    results = checks.run_checks(sg, length=3, window=cfg.bounds["window"],
                                generators=generators)
    assert all(r.status == "ok" for r in results)
    assert seen["hull-vs-oracle"] == [window]
    # estar-unitary first builds the hull graph, which checks its ends
    ends = (sg.identity(),) + tuple(generators or sg.generators())
    assert seen["estar-unitary"] == [ends, window]
    # normal-form does not check again p and q, the values of act and of
    # the calculus' witness
    assert seen["normal-form"] == [window]


@pytest.mark.parametrize("sg, good, bad", CASES, ids=ids)
def test_hull_elements_are_tuples_and_refuse_the_empty_domain(sg, good, bad):
    g = sg.grading_group().identity()
    with pytest.raises(UsageError, match="use ZERO for the empty map"):
        HullElement(g, EMPTY)
    f = compose(sg, star(sg, lambda_(sg, good)), lambda_(sg, good))
    assert type(f) is HullElement and isinstance(f, tuple)
    assert f == HullElement(g, calculus(sg).full()) == (f.grade, f.dom)
    assert repr(f) == "HullElement(grade=%r, dom=%r)" % (f.grade, f.dom)


def test_semigroup_axioms_catch_a_product_leaving_s(monkeypatch):
    # the trusted products are not re-checked elsewhere, so the check must
    # see the product leave S itself: exit 1, no traceback, not exit 2
    mul = PositiveCone._mul

    def leaky(self, a, b):
        return (-1, 0) if (a, b) == ((1, 0), (0, 1)) else mul(self, a, b)

    monkeypatch.setattr(PositiveCone, "_mul", leaky)
    code, out, err = run(["check", os.path.join(CONFIGS, "cone2.cfg")])
    assert code == 1
    assert "check.semigroup-axioms: fail (product leaves S at ((1,0), " \
        "(0,1)))\n" in out
    assert "Traceback" not in out + err


# ---------------------------------------------------------------------------
# the oracle: the validating paths swapped back in


@pytest.fixture
def validating(monkeypatch):
    """A context in which each backend's trusted ``_mul``, ``_ldiv`` and
    ``_embed`` check their arguments as the public operations do, and
    ``compose`` and ``star`` build their results through ``HullElement``.
    It yields a count of the swapped calls."""

    @contextlib.contextmanager
    def swapped():
        calls = Counter()

        def checked(name, op):
            def run_checked(self, *xs):
                calls[name] += 1
                self._check(*xs)
                return op(self, *xs)
            return run_checked

        def element(pair):
            calls["element"] += 1
            return HullElement(*pair)

        with monkeypatch.context() as m:
            for cls in BACKEND_CLASSES:
                for name in ("_mul", "_ldiv", "_embed"):
                    m.setattr(cls, name, checked(name, vars(cls)[name]))
            m.setattr(hull, "_element", element)
            yield calls

    return swapped


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def bench_configs():
    spec = importlib.util.spec_from_file_location("lhbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CONFIGS


SHIPPED = sorted(name[:-4] for name in os.listdir(CONFIGS)
                 if name.endswith(".cfg"))
BENCH = bench_configs()


@pytest.mark.parametrize("name", SHIPPED + ["bench:" + k for k in BENCH])
def test_check_is_the_same_on_the_validating_paths(name, validating,
                                                   tmp_path):
    if name.startswith("bench:"):
        path = tmp_path / "c.cfg"
        path.write_text(BENCH[name[len("bench:"):]])
    else:
        path = os.path.join(CONFIGS, name + ".cfg")
    argv = ["check", str(path), "--length", "3"]
    trusted = run(argv)
    with validating() as calls:
        checked = run(argv)
    assert checked == trusted
    assert trusted[0] == 0 and "failures: 0\n" in trusted[1]
    # every swapped path ran, so the comparison is not vacuous
    assert all(calls[k] for k in ("_mul", "_ldiv", "_embed", "element"))
