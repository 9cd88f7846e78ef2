"""Int-triple ax+b grades against the Fraction-pair oracle: the group laws,
key and render, the action on S and on ideals, thickness witnesses, and the
whole hull at lengths 2 and 3, each compared element by element."""

from fractions import Fraction
import random

import pytest

from lefthull import (AxPlusB, EMPTY, ZERO, InvariantViolation,
                      RationalAffine, calculus, enumerate_hull)

import affine_oracle as oracle
from affine_oracle import to_pair, to_triple

G = RationalAffine()
OG = oracle.FractionAffine()
AXB = AxPlusB()


def draw(rng, n):
    """Seeded Fraction pairs: offsets over denominators 1-6, slopes +-1..+-6
    over 1-4, and one in three a plain integer pair."""
    out = [OG.identity()]
    for i in range(n):
        if i % 3 == 2:
            out.append((Fraction(rng.randrange(-9, 10)),
                        Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))))
        else:
            out.append((Fraction(rng.randrange(-12, 13), rng.randrange(1, 7)),
                        Fraction(rng.choice([-1, 1]) * rng.randrange(1, 7),
                                 rng.randrange(1, 5))))
    return out


PAIRS = draw(random.Random(8), 48)


def outcome(f, *args):
    """f(*args), or InvariantViolation where it raises one."""
    try:
        return f(*args)
    except InvariantViolation:
        return InvariantViolation


def test_conversions_are_canonical_and_keep_key_and_render():
    assert G.identity() == to_triple(OG.identity())
    for q in PAIRS:
        g = to_triple(q)
        assert G.contains(g) and to_pair(g) == q
        assert G.key(g) == OG.key(q)
        assert G.render(g) == OG.render(q)


def test_mul_and_inv_agree_with_fractions():
    for x in PAIRS:
        gx = to_triple(x)
        assert G.contains(G.inv(gx)) and to_pair(G.inv(gx)) == OG.inv(x)
        for y in PAIRS:
            xy = G.mul(gx, to_triple(y))
            assert G.contains(xy) and to_pair(xy) == OG.mul(x, y)


def test_act_and_group_element_of_agree_with_fractions():
    xs = AXB.window(4) + [(3, -2), (-5, -1), (0, -6)]
    raised = 0
    for q in PAIRS:
        g = to_triple(q)
        assert AXB.group_element_of(g) == oracle.group_element_of(q)
        for x in xs:
            got = outcome(AXB.act, g, x)
            assert got == outcome(oracle.act, q, x), (q, x)
            raised += got is InvariantViolation
    assert 0 < raised < len(PAIRS) * len(xs)


def test_image_on_canonical_ideals_agrees_with_fractions():
    cal = calculus(AXB)
    ideals = [EMPTY] + [(b, a) for a in range(1, 9) for b in range(a)]
    raised = 0
    for q in PAIRS:
        g = to_triple(q)
        for X in ideals:
            got = outcome(cal.image, g, X)
            assert got == outcome(oracle.image, q, X), (q, X)
            raised += got is InvariantViolation
    assert 0 < raised < len(PAIRS) * len(ideals)


def test_thick_witness_agrees_with_fractions():
    cal = calculus(AXB)
    # every single canonical grade of a small box, then seeded lists
    box = [(p, r, d) for d in range(1, 7) for r in range(-6, 7)
           for p in range(-6, 7) if G.contains((p, r, d))]
    for g in box:
        assert cal.thick_witness([g]) == oracle.thick_witness(
            cal, [to_pair(g)]), g
    rng = random.Random(9)
    nonempty = 0
    for _ in range(300):
        qs = rng.sample(PAIRS, rng.randrange(1, 4))
        got = cal.thick_witness([to_triple(q) for q in qs])
        assert got == oracle.thick_witness(cal, qs), qs
        nonempty += got[0] is not None
    assert 0 < nonempty < 300


def test_axb_errors_render_the_grade():
    with pytest.raises(InvariantViolation, match=(
            r"^grade \(1/2,1\) does not map \(0, 1\) into S$")):
        calculus(AXB).image((1, 2, 2), (0, 1))
    with pytest.raises(InvariantViolation, match=(
            r"^grade \(1/2,1\) does not map \(0, 1\) into S$")):
        AXB.act((1, 2, 2), (0, 1))


@pytest.mark.parametrize("generators,length", [
    (None, 3),
    (((0, 2), (0, 3), (0, 5)), 3),
    (((3, 4), (1, -3)), 2),
], ids=["axb-L3", "axb-i-L3", "axb-neg-L2"])
def test_hull_grades_match_the_fraction_hull(generators, length):
    hull = [f for f in enumerate_hull(AXB, length, generators)
            if f is not ZERO]
    assert all(G.contains(f.grade) for f in hull)
    # equal exactly when the oracle pairs are equal, and the same set
    converted = {(to_pair(f.grade), f.dom) for f in hull}
    assert len(converted) == len(set(hull)) == len(hull)
    fractions = {f for f in oracle.enumerate_hull(AXB, length, generators)
                 if f is not ZERO}
    assert converted == fractions
