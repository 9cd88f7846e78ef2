"""The two calculus operations behind the hull algebra's domains and window
columns, against the bodies they replace.

``pullback(g, X, D)`` is D n g^-1 X, the domain of f after h = (g, D) with
dom f = X.  On every calculus it must equal the three-call default
g^-1 (X n g . D), and on numerical semigroups also the member walk of
``numerical_oracle``, for every (dom f, h) of the length-2 hull graphs of
the corpus configs (the shipped, lhbench's, the pinned generator configs,
the two with gcd above one and <30,31>).  A grade that takes D out of S
raises the same error on both paths.

``window_positions(X, W)`` must equal the membership scan on the backend's
own windows, and a window that is not a prefix of S takes the scan.
"""

import pytest

import corpus
from lefthull import InvariantViolation, NumericalSemigroup
from lefthull.config import build_backend, config_generators, parse_config
from lefthull.hull import ZERO, hull_graph
from lefthull.ideals import EMPTY, IdealCalculus, calculus
from lefthull.semigroups import Window

from numerical_oracle import TupleLoopIdeals

CONFIGS = corpus.configs()


def ids(gens):
    return "<%s>" % ",".join(map(str, gens))


def backend(name):
    cfg = parse_config(CONFIGS[name])
    sg = build_backend(cfg)
    return sg, config_generators(sg, cfg)


def default_pullback(cal, g, X, D):
    return IdealCalculus.pullback(cal, g, X, D)


def scan(cal, X, W):
    return tuple(j for j, t in enumerate(W) if cal.is_member(t, X))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pullback_is_the_default_and_the_member_walk(name):
    sg, generators = backend(name)
    cal = calculus(sg)
    walk = TupleLoopIdeals(sg.gens) if isinstance(
        sg, NumericalSemigroup) else None
    elements = [f for f in hull_graph(sg, 2, generators).elements
                if f is not ZERO]
    doms = {f.dom for f in elements}
    for X in doms:
        for h in elements:
            got = cal.pullback(h.grade, X, h.dom)
            assert got == default_pullback(cal, h.grade, X, h.dom), (X, h)
            if walk is not None:
                assert got == walk.pullback(h.grade, X, h.dom), (X, h)


@pytest.mark.parametrize("gens, g, message", [
    ((3, 5, 7), -3, "does not map ideal into S"),
    ((4, 6), 1, "does not preserve S"),
    ((6, 9, 15), -6, "does not map ideal into S"),
], ids=["<3,5,7>", "<4,6>", "<6,9,15>"])
def test_a_grade_off_s_raises_on_both_paths(gens, g, message):
    sg = NumericalSemigroup(gens)
    cal = calculus(sg)
    D, X = cal.full(), cal.principal(sg.gens[0])
    assert TupleLoopIdeals(gens).pullback(g, X, D) is None
    for pullback in (cal.pullback, default_pullback.__get__(cal)):
        with pytest.raises(InvariantViolation, match=message):
            pullback(g, X, D)


def test_pullback_of_the_empty_ideal_is_empty_on_both_paths():
    cal = calculus(NumericalSemigroup((3, 5, 7)))
    for X, D in ((EMPTY, cal.full()), (cal.full(), EMPTY)):
        assert cal.pullback(3, X, D) is EMPTY
        assert default_pullback(cal, 3, X, D) is EMPTY


def window_ideals(sg):
    """The domains of the length-2 hull and EMPTY."""
    return {f.dom for f in hull_graph(sg, 2).elements if f is not ZERO} \
        | {EMPTY}


@pytest.mark.parametrize("gens", [(2, 3), (3, 5, 7), (4, 6), (6, 9, 15),
                                  (10, 11)], ids=ids)
@pytest.mark.parametrize("size", [1, 7, 20, 30, 55])
def test_window_positions_is_the_scan_on_own_windows(gens, size):
    sg = NumericalSemigroup(gens)
    cal = calculus(sg)
    W = sg.window_of_size(size)
    for X in window_ideals(sg):
        assert cal.window_positions(X, W) == scan(cal, X, W), X


@pytest.mark.parametrize("points", [
    (0, 5, 7, 3),  # not ascending
    (0, 5, 6, 9),  # skips the member 3
    (0, 3, 5),  # the own window's points, but another object
], ids=["unsorted", "gapped", "copy"])
def test_a_window_not_built_by_the_backend_takes_the_scan(points,
                                                          monkeypatch):
    sg = NumericalSemigroup((3, 5, 7))
    cal = calculus(sg)
    sg.window_of_size(len(points))
    W = Window(points)
    ideals = window_ideals(sg)
    want = {X: scan(cal, X, W) for X in ideals}
    member, calls = cal._member, []

    def counted(x, X):
        calls.append(x)
        return member(x, X)

    # one membership test per point of each nonempty ideal; EMPTY holds none
    monkeypatch.setattr(cal, "_member", counted)
    for X in ideals:
        assert cal.window_positions(X, W) == want[X], X
    assert len(calls) == (len(ideals) - 1) * len(W)
