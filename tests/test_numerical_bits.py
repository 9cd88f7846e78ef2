"""The bitset numerical ideal calculus against the tuple-loop oracle.

Ideals come from seeded random chains of operations and from random
generating sets, over semigroups with small and large conductors, a gcd
above one, a generator far past the others, and a conductor of 0.  Every
operation of the calculus must return the pair the oracle builds member by
member, whether it is given its own values or plain (N, mask) pairs.
"""

import random

import pytest

from lefthull import InvariantViolation, NumericalSemigroup
from lefthull.ideals import EMPTY, calculus

from numerical_oracle import TupleLoopIdeals

# <3> has conductor 0: only there can a shift drop members below 0 without
# moving another onto a gap
GENS = [(2, 3), (3, 5, 7), (4, 6), (10, 11), (2, 49), (3,)]


def ids(gens):
    return "<%s>" % ",".join(map(str, gens))


def random_ideals(sg, ora, rng, count):
    """Seeded (calculus value, oracle pair) couples, built side by side."""
    cal = calculus(sg)
    win = sg.window_of_size(12)
    out = []
    for _ in range(count):
        if rng.random() < 0.3:
            # a union of principal ideals; the calculus has no union, so
            # its value comes from meeting the oracle's pair with S
            Xo = ora.generated(rng.sample(win[1:], rng.randint(1, 3)))
            X = cal.intersect(cal.full(), Xo)
            assert X == Xo
            out.append((X, Xo))
            continue
        X, Xo = cal.full(), (0, ())
        for _ in range(rng.randint(1, 4)):
            s = win[rng.randrange(len(win))]
            op = rng.choice(("principal", "translate", "preimage",
                             "intersect", "image"))
            if op == "principal":
                X, Xo = cal.intersect(X, cal.principal(s)), \
                    ora.intersect(Xo, ora.principal(s))
            elif op == "translate":
                X, Xo = cal.translate(s, X), ora.translate(s, Xo)
            elif op == "preimage":
                X, Xo = cal.preimage(s, X), ora.preimage(s, Xo)
            elif op == "intersect":
                t = win[rng.randrange(len(win))]
                X = cal.intersect(X, cal.translate(t, cal.full()))
                Xo = ora.intersect(Xo, ora.translate(t, (0, ())))
            else:
                # a shift down by the least member, where it stays in S
                g = -cal.min_member(X)
                if ora.image(g, Xo) is None:
                    with pytest.raises(InvariantViolation):
                        cal.image(g, X)
                else:
                    X, Xo = cal.image(g, X), ora.image(g, Xo)
            assert X == Xo
        out.append((X, Xo))
    return out


@pytest.mark.parametrize("gens", GENS, ids=ids)
def test_member_bits_match_a_sieve(gens):
    sg = NumericalSemigroup(gens)
    ora = TupleLoopIdeals(gens)
    assert sg.conductor == ora.conductor
    for bound in range(-3, 3 * sg.conductor + 4 * sg.gcd + 40):
        want = [x for x in range(max(bound, 0)) if ora.contains(x)]
        assert sg.member_bits(bound) == sum(1 << x for x in want), bound
        assert sg.members_below(bound) == want, bound


def assert_sieve_matches(gens):
    """gcd, conductor and member bits, below, at and past the conductor."""
    sg, ora = NumericalSemigroup(gens), TupleLoopIdeals(gens)
    assert (sg.gcd, sg.conductor) == (ora.gcd, ora.conductor), gens
    for bound in (sg.conductor // 2, sg.conductor,
                  sg.conductor + 2 * max(gens)):
        assert sg.member_bits(bound) == sum(
            1 << x for x in ora.members_below(bound)), (gens, bound)


# two generators meet Schur's bound (a - 1)(b - 1) on the conductor; a
# scaled generator of 1 and a single generator leave no gaps
@pytest.mark.parametrize("gens, conductor", [
    ((10, 11), 90), ((30, 31), 870), ((2, 4), 0), ((3,), 0)],
    ids=lambda case: ids(case) if isinstance(case, tuple) else str(case))
def test_sieve_at_the_schur_bound_and_without_gaps(gens, conductor):
    assert NumericalSemigroup(gens).conductor == conductor
    assert_sieve_matches(gens)


def test_sieve_matches_tuple_loops_on_a_sweep():
    rng = random.Random(14)
    for _ in range(300):
        assert_sieve_matches(tuple(rng.sample(range(2, 200),
                                              rng.randint(1, 5))))


@pytest.mark.parametrize("gens", GENS, ids=ids)
def test_bitset_operations_match_tuple_loops(gens):
    sg = NumericalSemigroup(gens)
    cal, ora = calculus(sg), TupleLoopIdeals(gens)
    rng = random.Random(sum(gens))
    win = sg.window_of_size(16)
    ideals = random_ideals(sg, ora, rng, 40)
    for X, Xo in ideals:
        for A in (X, Xo):  # the calculus' own value and the plain pair
            for s in win:
                assert cal.translate(s, A) == ora.translate(s, Xo)
                assert cal.preimage(s, A) == ora.preimage(s, Xo)
                assert cal.is_member(s, A) == ora.is_member(s, Xo)
            for bound in (0, 1, Xo[0], Xo[0] + 1, Xo[0] + sg.conductor + 7):
                assert cal._below(A, bound) == sum(
                    1 << x for x in ora.ideal_members_below(Xo, bound))
            assert cal.render(A) == ora.render(Xo)
            assert cal.min_member(A) == ora.ideal_members_below(
                Xo, Xo[0] + sg.conductor + sg.gcd + 1)[0]
        for Y, Yo in rng.sample(ideals, 8):
            assert cal.intersect(X, Y) == ora.intersect(Xo, Yo)
            assert cal.intersect(Xo, Yo) == ora.intersect(Xo, Yo)
            union = ora.union([Xo, Yo])
            assert cal.union_equals([X, Y], union)
            assert cal.union_equals([X, Y], X) == (union == Xo)


@pytest.mark.parametrize("gens", GENS, ids=ids)
def test_image_matches_and_raises_like_tuple_loops(gens):
    # every grade in a range around zero: negative ones that shift members
    # below 0 or onto gaps must raise, as must grades off the lattice of S
    sg = NumericalSemigroup(gens)
    cal, ora = calculus(sg), TupleLoopIdeals(gens)
    rng = random.Random(7 * sum(gens))
    raised = 0
    for X, Xo in random_ideals(sg, ora, rng, 25):
        for g in range(-Xo[0] - sg.conductor - 3, sg.conductor + 8):
            want = ora.image(g, Xo)
            if want is None:
                raised += 1
                with pytest.raises(InvariantViolation):
                    cal.image(g, X)
            else:
                assert cal.image(g, X) == want, (g, Xo)
    assert raised


def test_values_are_the_plain_pairs():
    sg = NumericalSemigroup((3, 5, 7))
    cal = calculus(sg)
    X = cal.intersect(cal.principal(3), cal.principal(5))
    assert X == (10, (8,)) and (10, (8,)) == X
    assert hash(X) == hash((10, (8,)))
    assert repr(X) == "(10, (8,))" and str(X) == repr(X)
    assert {(10, (8,)): 1}[X] == 1
    assert X.bits == 1 << 8
    assert cal.full() == (0, ()) and cal.full().bits == 0
    assert cal.intersect(X, EMPTY) is EMPTY


@pytest.mark.parametrize("gens", GENS, ids=ids)
def test_folner_figures_match_tuple_loops(gens):
    from fractions import Fraction
    sg = NumericalSemigroup(gens)
    cal, ora = calculus(sg), TupleLoopIdeals(gens)
    rng = random.Random(3 * sum(gens))
    for X, Xo in random_ideals(sg, ora, rng, 15):
        missing = len(ora.members_below(Xo[0])) - len(Xo[1])
        assert cal.folner_constant(X) == 2 * sg.gcd * missing
        for N in (1, 7, 50, 2 * sg.conductor + 3):
            assert cal.folner_mean(X, N) == Fraction(
                len(ora.ideal_members_below(Xo, N)),
                len(ora.members_below(N)))
