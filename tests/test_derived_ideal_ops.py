"""Translation, preimage, image, key and rendering of ideals, which follow
from the backend (see ``IdealCalculus``), against the bodies each calculus
stated for itself before.

Each is compared on every constructible ideal at depth 3 (the reachable
ones and their meets), for every letter of the hull graph and of a
12-element window (translate and preimage) and every grade of the hull
graph (image), on the shipped configs, five of the benchmark's and one
ax+b config with a negative slope.  An image must raise exactly where the
oracle's does.  On ax+b the closed-form preimage the calculus keeps must
also equal the meet-then-divide form the base class derives, and its
translation by one product the image under embed(s).
"""

import os
import random

import pytest

from lefthull import (AxPlusB, FiniteTable, FreeMonoid, InvariantViolation,
                      NumericalSemigroup, PositiveCone)
from lefthull.config import (build_backend, config_generators, load_config,
                             parse_config)
from lefthull.hull import ZERO, hull_graph
from lefthull.ideals import (EMPTY, IdealCalculus, calculus,
                             constructible_closure)

import affine_oracle
import tuple_oracle
from numerical_oracle import TupleLoopIdeals
from test_boundary import BENCH, CONFIGS, SHIPPED

TEXTS = {name: BENCH[name] for name in ("axb-i", "axb-c", "num-3-5-7",
                                        "num-10-11", "cyc14")}
# negative slopes, where the canonical form must take |a|
TEXTS["axb-neg"] = "kind = axb\ngenerators = (3,4) (1,-3)\n"


def load(name):
    if name in TEXTS:
        cfg = parse_config(TEXTS[name])
    else:
        cfg = load_config(os.path.join(CONFIGS, name + ".cfg"))
    sg = build_backend(cfg)
    return sg, config_generators(sg, cfg)


def outcome(fn, *args):
    """A call's value, or "raises" where it raises InvariantViolation or,
    as the numerical oracle's image does, answers None."""
    try:
        value = fn(*args)
    except InvariantViolation:
        return "raises"
    return "raises" if value is None else value


def oracles(sg):
    """(translate, preimage, image, key, render) as each calculus stated
    them itself; None where the calculus still states its own."""
    cal = calculus(sg)
    if isinstance(sg, FreeMonoid):
        return (tuple_oracle.free_translate, tuple_oracle.free_preimage,
                tuple_oracle.free_act, tuple_oracle.free_key,
                lambda w: tuple_oracle.free_render(sg, w))
    if isinstance(sg, PositiveCone):
        return (tuple_oracle.cone_translate, tuple_oracle.cone_preimage,
                tuple_oracle.cone_act, tuple_oracle.cone_key, None)
    if isinstance(sg, NumericalSemigroup):
        ora = TupleLoopIdeals(sg.gens)
        return ora.translate, ora.preimage, ora.image, None, None
    if isinstance(sg, AxPlusB):
        def image(g, X):
            triple = outcome(affine_oracle.triple_image, g, X)
            assert outcome(affine_oracle.image, affine_oracle.to_pair(g),
                           X) == triple
            return triple
        return (affine_oracle.triple_translate,
                lambda s, X: IdealCalculus._preimage(cal, s, X), image, None,
                affine_oracle.render)
    assert isinstance(sg, FiniteTable)
    full = cal.full()
    return (lambda s, X: full, lambda s, X: full, lambda g, X: full,
            None, lambda X: "S")


@pytest.mark.parametrize("name", SHIPPED + list(TEXTS))
def test_derived_ideal_operations_match_the_oracles(name):
    sg, generators = load(name)
    cal = calculus(sg)
    translate, preimage, image, key, render = oracles(sg)
    ideals = [X for X in constructible_closure(sg, 3, generators)
              if X is not EMPTY]
    graph = hull_graph(sg, 2, generators)
    letters = dict.fromkeys(graph.ends + sg.window_of_size(12))
    grades = dict.fromkeys(f.grade for f in graph.elements if f is not ZERO)
    raised = 0
    for X in ideals:
        for s in letters:
            assert cal.translate(s, X) == translate(s, X)
            assert cal.preimage(s, X) == preimage(s, X)
        for g in grades:
            got = outcome(cal.image, g, X)
            assert got == outcome(image, g, X)
            raised += got == "raises"
        if key:
            assert cal.key(X) == (0, key(X))
        if render:
            assert cal.render(X) == render(X)
    # the images compared include both outcomes, except in a group
    assert len(ideals) > 1 or isinstance(sg, FiniteTable)
    assert 0 < raised < len(ideals) * len(grades) \
        or isinstance(sg, FiniteTable)


def test_axb_translation_by_the_product_agrees_with_the_image_of_embed():
    # s(qS) = (sq)S: one product in S, against the image of qS under the
    # grade embed(s) that the base class derives, on random pairs with
    # slopes of either sign
    sg = AxPlusB()
    cal = calculus(sg)
    rng = random.Random(20)
    for _ in range(20000):
        s = (rng.randint(-60, 60), rng.choice([-1, 1]) * rng.randint(1, 30))
        X = cal.principal((rng.randint(-60, 60), rng.randint(1, 40)))
        assert cal.translate(s, X) == IdealCalculus._translate(cal, s, X)
