"""The free and cone tuple kernels against the generator-expression oracle
(tuple_oracle.py), on seeded random inputs: the same values, the same None
answers, and the same InvariantViolation messages."""

import random

import pytest

from lefthull import (FreeGroup, FreeMonoid, Integers, InvariantViolation,
                      PositiveCone, calculus)

import tuple_oracle as oracle


def outcome(fn, *args):
    """What a call does: its value, or the message it raises."""
    try:
        return ("value", fn(*args))
    except InvariantViolation as err:
        return ("raises", str(err))


def reduced(rng, rank, most=6):
    """A random reduced word of the free group of ``rank``."""
    return oracle.reduce_signed(rng.choice((1, -1)) * rng.randint(1, rank)
                                for _ in range(rng.randrange(most + 1)))


def positive(rng, rank, most=5):
    """A random word of the free monoid on ``rank`` letters."""
    return tuple(rng.randrange(rank) for _ in range(rng.randrange(most + 1)))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_free_group_product_cancels_like_full_reduction(rank):
    rng = random.Random(100 + rank)
    G = FreeGroup(rank)
    pairs = []
    for _ in range(300):
        g, u, v = (reduced(rng, rank) for _ in range(3))
        pairs.append((g, reduced(rng, rank)))
        # g u and u^-1 v cancel at their junction, g and g^-1 entirely
        pairs.append((G.mul(g, u), G.mul(oracle.free_inv(u), v)))
        pairs.append((g, oracle.free_inv(g)))
    cancelled = 0
    for g, h in pairs:
        assert G.contains(g) and G.contains(h)
        assert G.mul(g, h) == oracle.free_mul(g, h)
        assert G.inv(g) == oracle.free_inv(g)
        cancelled += bool(g) and not G.mul(g, h)
    assert cancelled >= 200  # the fully cancelling pairs were exercised


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_free_monoid_act_matches_full_reduction(rank):
    rng = random.Random(200 + rank)
    sg = FreeMonoid(rank)
    G = sg.grading_group()
    seen = set()
    for _ in range(400):
        x = positive(rng, rank)
        # a random grade, and one that strips a prefix of x before
        # prepending a word, so both answers and raises come up
        k = rng.randrange(len(x) + 1)
        strip = G.mul(reduced(rng, rank, 3),
                      oracle.free_inv(oracle.free_embed(x[:k])))
        for g in (reduced(rng, rank), strip):
            got = outcome(sg.act, g, x)
            assert got == outcome(oracle.free_act, g, x)
            seen.add(got[0])
        assert sg._embed(x) == oracle.free_embed(x)
        g = reduced(rng, rank)
        assert sg.group_element_of(g) == oracle.free_group_element_of(g)
    assert seen == {"value", "raises"}


def test_free_monoid_act_fixed_cases():
    sg = FreeMonoid(2)
    assert sg.act((1, -2), (1, 1)) == (0, 1)
    assert sg.act((-1,), (0, 1)) == (1,)
    assert sg.act((2, -1), (0,)) == (1,)
    assert sg.act((), ()) == ()
    with pytest.raises(InvariantViolation,
                       match=r"does not map \(1,\) into S"):
        sg.act((-1,), (1,))


def vectors(rng, dim, low, high, n):
    return [tuple(rng.randint(low, high) for _ in range(dim))
            for _ in range(n)]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cone_kernels_match_generator_expressions(dim):
    rng = random.Random(300 + dim)
    sg, Z = PositiveCone(dim), Integers(dim)
    elems = vectors(rng, dim, 0, 5, 40)
    grades = vectors(rng, dim, -4, 4, 40)
    seen_none = seen_raise = False
    for a, b, g, h in zip(elems, elems[1:], grades, grades[1:]):
        assert Z.mul(g, h) == oracle.integers_mul(g, h)
        assert Z.inv(g) == oracle.integers_inv(g)
        assert sg.multiply(a, b) == oracle.cone_mul(a, b)
        for s, t in ((a, b), (b, a), (a, sg.multiply(a, b))):
            q = sg.left_divide(s, t)
            assert q == oracle.cone_ldiv(s, t)
            seen_none |= q is None
        for x in (a, b):
            got = outcome(sg.act, g, x)
            assert got == outcome(oracle.cone_act, g, x)
            seen_raise |= got[0] == "raises"
    assert seen_none and seen_raise


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cone_calculus_matches_generator_expressions(dim):
    rng = random.Random(400 + dim)
    cal = calculus(PositiveCone(dim))
    points = vectors(rng, dim, 0, 5, 40)
    grades = vectors(rng, dim, -4, 4, 40)
    for x, p, s, g in zip(points, points[1:], points[2:], grades):
        assert cal.is_member(x, p) == oracle.cone_member(x, p)
        assert cal.translate(s, p) == oracle.cone_translate(s, p)
        assert cal.preimage(s, p) == oracle.cone_preimage(s, p)
        assert cal.intersect(x, p) == oracle.cone_intersect(x, p)
        assert outcome(cal.image, g, p) == outcome(oracle.cone_act, g, p)
