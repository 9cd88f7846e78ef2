"""Ideal calculus vs a brute-force oracle built only from multiply/left_divide.

The oracle represents an ideal as a membership predicate and never touches
the canonical forms, so agreement on windows is a genuine dual route.
"""

import math
import random

import pytest

from lefthull import (AxPlusB, EMPTY, FiniteTable, FreeMonoid,
                      NumericalSemigroup, PositiveCone, clifford_check,
                      constructible_closure, cyclic_table,
                      independence_check, preimage, principal, translate)
from lefthull.ideals import calculus, reachable_ideals

BACKENDS = [
    FreeMonoid(2),
    PositiveCone(1),
    PositiveCone(2),
    NumericalSemigroup((2, 3)),
    NumericalSemigroup((3, 5)),
    AxPlusB(),
]


def ids(sg):
    return sg.describe()


# predicate-level mirror of the calculus, defined from scratch

def o_full(sg):
    return lambda x: True


def o_principal(sg, s):
    return lambda x: sg.left_divide(s, x) is not None


def o_translate(sg, s, p):
    def inner(x):
        d = sg.left_divide(s, x)
        return d is not None and p(d)
    return inner


def o_preimage(sg, s, p):
    return lambda x: p(sg.multiply(s, x))


def o_intersect(p, q):
    return lambda x: p(x) and q(x)


def random_ideal(sg, rng, depth=3):
    """Parallel (canonical value, oracle predicate) pair built by random ops."""
    cal = calculus(sg)
    seeds = sg.window_of_size(10)
    X, p = cal.full(), o_full(sg)
    for _ in range(rng.randrange(depth + 1)):
        op = rng.choice(["translate", "preimage", "intersect"])
        s = seeds[rng.randrange(len(seeds))]
        if op == "translate":
            X, p = cal.translate(s, X), o_translate(sg, s, p)
        elif op == "preimage":
            X, p = cal.preimage(s, X), o_preimage(sg, s, p)
        else:
            t = seeds[rng.randrange(len(seeds))]
            X = cal.intersect(X, cal.principal(t))
            p = o_intersect(p, o_principal(sg, t))
    return X, p


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_canonical_matches_oracle_on_windows(sg):
    rng = random.Random(101)
    cal = calculus(sg)
    win = sg.window_of_size(60)
    for _ in range(120):
        X, p = random_ideal(sg, rng)
        for x in win:
            assert cal.is_member(x, X) == p(x), (X, x)


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_canonical_equality_is_set_equality(sg):
    # distinct canonical values must disagree somewhere in a window that
    # is large enough to separate everything the builder can produce
    rng = random.Random(102)
    win = sg.window_of_size(300)
    pairs = [random_ideal(sg, rng) for _ in range(60)]
    for X, p in pairs:
        for Y, q in pairs:
            same_set = all(p(x) == q(x) for x in win)
            assert (X == Y) == same_set, (X, Y)


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_ideals_absorb_right_multiplication(sg):
    rng = random.Random(103)
    cal = calculus(sg)
    win = sg.window_of_size(25)
    for _ in range(25):
        X, _ = random_ideal(sg, rng)
        for x in win[:12]:
            if cal.is_member(x, X):
                for s in win[:12]:
                    assert cal.is_member(sg.multiply(x, s), X)


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_translate_preimage_adjunction(sg):
    rng = random.Random(104)
    cal = calculus(sg)
    win = sg.window_of_size(30)
    for _ in range(40):
        X, _ = random_ideal(sg, rng)
        s = win[rng.randrange(len(win))]
        # membership transport
        pre = cal.preimage(s, X)
        for x in win[:15]:
            assert cal.is_member(x, pre) == cal.is_member(sg.multiply(s, x), X)
        # exact identities on canonical forms
        assert cal.preimage(s, cal.translate(s, X)) == X
        assert cal.translate(s, cal.preimage(s, X)) == \
            cal.intersect(cal.principal(s), X)


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_semilattice_laws(sg):
    rng = random.Random(105)
    cal = calculus(sg)
    ideals = [random_ideal(sg, rng)[0] for _ in range(12)]
    full = cal.full()
    for X in ideals:
        assert cal.intersect(X, X) == X
        assert cal.intersect(full, X) == X
        assert cal.intersect(X, EMPTY if X is EMPTY else EMPTY) is EMPTY
        for Y in ideals:
            assert cal.intersect(X, Y) == cal.intersect(Y, X)
            for Z in ideals:
                assert cal.intersect(cal.intersect(X, Y), Z) == \
                    cal.intersect(X, cal.intersect(Y, Z))


@pytest.mark.parametrize("sg", [FreeMonoid(2), PositiveCone(2),
                                NumericalSemigroup((2, 3))], ids=ids)
def test_principal_meet_is_greatest_lower_bound(sg):
    # when sS n tS = rS, r is the greatest lower bound of s and t in the
    # order where w lies below s when w is in sS
    cal = calculus(sg)

    def below(w, s):
        return sg.left_divide(s, w) is not None

    win = sg.window_of_size(16)
    for s in win:
        for t in win:
            Z = cal.intersect(cal.principal(s), cal.principal(t))
            if Z is EMPTY:
                continue
            r = cal.principal_witness(Z)
            if r is None:
                continue
            assert below(r, s) and below(r, t)
            for w in win:
                if below(w, s) and below(w, t):
                    assert below(w, r)


def test_frozen_principal_forms():
    num = NumericalSemigroup((2, 3))
    assert principal(num, 2) == (4, 1 << 2)
    assert principal(num, 3) == (5, 1 << 3)
    assert principal(num, 0) == (0, 0)
    cone = PositiveCone(1)
    assert principal(cone, (2,)) == (2,)
    axb = AxPlusB()
    assert principal(axb, (3, 2)) == (1, 2)
    assert principal(axb, (-1, -2)) == (1, 2)
    fm = FreeMonoid(2)
    assert principal(fm, (0, 1)) == (0, 1)


def test_frozen_translate_preimage_intersect():
    num = NumericalSemigroup((2, 3))
    assert translate(num, 2, (5, 0)) == (7, 0)
    assert preimage(num, 2, (5, 0)) == (3, 0)
    assert calculus(num).intersect(principal(num, 2),
                                   principal(num, 3)) == (5, 0)
    cone = PositiveCone(2)
    assert calculus(cone).intersect(principal(cone, (1, 0)),
                                    principal(cone, (0, 1))) == (1, 1)
    assert preimage(cone, (2,) * 2, principal(cone, (5, 5))) == (3, 3)
    fm = FreeMonoid(2)
    assert preimage(fm, (0,), principal(fm, (1,))) is EMPTY
    assert preimage(fm, (0,), principal(fm, (0, 1))) == (1,)
    assert preimage(fm, (0, 1), principal(fm, (0,))) == ()
    axb = AxPlusB()
    assert calculus(axb).intersect((0, 2), (1, 2)) is EMPTY
    assert calculus(axb).intersect((0, 2), (0, 3)) == (0, 6)


def test_frozen_membership():
    cone = PositiveCone(1)
    assert calculus(cone).is_member((3,), principal(cone, (2,)))
    num = NumericalSemigroup((2, 3))
    assert calculus(num).is_member(6, (5, 0))
    assert not calculus(num).is_member(4, (5, 0))
    axb = AxPlusB()
    assert calculus(axb).is_member((7, 8), (1, 2))
    assert not calculus(axb).is_member((7, 9), (1, 2))


def test_constructible_closure_frozen_families():
    cone = PositiveCone(1)
    assert constructible_closure(cone, 2, generators=((1,),)) == \
        ((0,), (1,), (2,))
    fm = FreeMonoid(2)
    assert constructible_closure(fm, 1) == ((), (0,), (1,), EMPTY)
    num = NumericalSemigroup((2, 3))
    fam = constructible_closure(num, 3)
    assert (1, 0) in fam  # the set {2,3,4,...}
    two_steps = preimage(num, 2, preimage(num, 2, calculus(num).intersect(
        principal(num, 2), principal(num, 3))))
    assert two_steps == (1, 0)


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_closure_properties(sg):
    fam = constructible_closure(sg, 2)
    cal = calculus(sg)
    assert fam == constructible_closure(sg, 2)  # deterministic
    assert cal.full() in fam
    assert len(set(fam)) == len(fam)
    for X in fam:
        for Y in fam:
            assert cal.intersect(X, Y) in fam
    shallow = set(constructible_closure(sg, 1))
    assert shallow <= set(fam)


def full_pass_closure(sg, depth, generators=None):
    """The earlier closure loop, kept as the oracle: every round meets
    every pair of the whole family again."""
    cal = calculus(sg)
    family = set(reachable_ideals(sg, depth, generators))
    work = sorted(family, key=cal.key)
    while True:
        new = set()
        for i, X in enumerate(work):
            for Y in work[i + 1:]:
                Z = cal.intersect(X, Y)
                if Z not in family:
                    new.add(Z)
        if not new:
            break
        family |= new
        work = sorted(family, key=cal.key)
    return tuple(work)


@pytest.mark.parametrize("depth", (1, 2, 3))
@pytest.mark.parametrize("sg", [FreeMonoid(2), PositiveCone(2),
                                NumericalSemigroup((2, 3)), AxPlusB(),
                                FiniteTable(cyclic_table(5))], ids=ids)
def test_semi_naive_closure_matches_full_passes(sg, depth):
    assert constructible_closure(sg, depth) == full_pass_closure(sg, depth)


def test_semi_naive_closure_matches_full_passes_deeper():
    num = NumericalSemigroup((5, 7, 9))
    assert constructible_closure(num, 4) == full_pass_closure(num, 4)
    axb, gens = AxPlusB(), ((1, 2), (0, 3))
    assert constructible_closure(axb, 3, gens) == \
        full_pass_closure(axb, 3, gens)


def test_clifford_verdicts():
    assert clifford_check(FreeMonoid(2)).holds
    assert clifford_check(PositiveCone(2)).holds
    assert clifford_check(AxPlusB()).holds
    assert clifford_check(NumericalSemigroup((2,))).holds  # a copy of 2Z+
    v23 = clifford_check(NumericalSemigroup((2, 3)))
    assert not v23.holds
    assert v23.witness == (2, 3, (5, 0))
    v46 = clifford_check(NumericalSemigroup((4, 6)))
    assert not v46.holds
    # threshold 9: the set is {10,12,14,...} and 9 is not a member of S
    assert v46.witness == (4, 6, (9, 0))
    v35 = clifford_check(NumericalSemigroup((3, 5)))
    assert not v35.holds
    assert v35.witness[:2] == (3, 5)


def test_clifford_witness_is_honest():
    # the reported intersection really is sS n tS and is not principal
    for gens in [(2, 3), (3, 5), (4, 6)]:
        sg = NumericalSemigroup(gens)
        cal = calculus(sg)
        s, t, X = clifford_check(sg).witness
        assert cal.intersect(cal.principal(s), cal.principal(t)) == X
        assert cal.principal_witness(X) is None


def windowed_clifford(sg, window=24):
    """The earlier windowed search, kept as the oracle: the first pair of a
    window whose meet is nonempty and not principal, or None when the
    window shows none (inconclusive)."""
    cal = calculus(sg)
    win = sg.window_of_size(window)
    for j in range(len(win)):
        for i in range(j):
            s, t = win[i], win[j]
            meet = cal.intersect(cal.principal(s), cal.principal(t))
            if meet is not EMPTY and cal.principal_witness(meet) is None:
                return (s, t, meet)
    return None


def test_clifford_matches_windowed_search():
    # every generator set of one to three integers in [2, 12]
    from itertools import combinations
    inconclusive = 0
    for size in (1, 2, 3):
        for gens in combinations(range(2, 13), size):
            sg = NumericalSemigroup(gens)
            verdict = clifford_check(sg)
            if sg.conductor == 0:
                assert verdict.holds, gens
                continue
            assert not verdict.holds, gens
            found = windowed_clifford(sg)
            if found is None:
                inconclusive += 1
            else:
                assert verdict.witness == found, gens
    assert inconclusive == 0  # the window always reaches n in this range


def test_clifford_decided_beyond_the_window():
    # <2,49>: the least member outside 2Z is 49, the 25th member, so a
    # 24-element window never meets it
    sg = NumericalSemigroup((2, 49))
    assert windowed_clifford(sg) is None
    assert windowed_clifford(sg, window=26) is not None
    cal = calculus(sg)
    s, t, meet = clifford_check(sg).witness
    assert (s, t) == (2, 49)
    assert cal.intersect(cal.principal(2), cal.principal(49)) == meet
    assert cal.principal_witness(meet) is None
    assert (s, t, meet) == windowed_clifford(sg, window=26)


def test_independence_verdicts():
    num = NumericalSemigroup((2, 3))
    fam = constructible_closure(num, 3)
    verdict = independence_check(num, fam)
    assert not verdict.holds
    cover, target = verdict.witness
    assert cover == (principal(num, 2), principal(num, 3))
    assert target == (1, 0)
    for sg in [FreeMonoid(2), PositiveCone(2), AxPlusB()]:
        assert independence_check(sg, constructible_closure(sg, 2)).holds
    assert independence_check(num, ((0, 0),)).holds  # singleton {Full}


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_clifford_implies_independence(sg):
    if clifford_check(sg).holds:
        for depth in (1, 2, 3):
            fam = constructible_closure(sg, depth)
            assert independence_check(sg, fam).holds


def test_independence_witness_union_is_exact():
    num = NumericalSemigroup((2, 3))
    cal = calculus(num)
    cover, target = independence_check(
        num, constructible_closure(num, 3)).witness
    assert cal.union_equals(cover, target)
    for X in cover:
        assert cal.subset(X, target) and X != target
    # pointwise confirmation on a window
    for x in num.window(40):
        covered = any(cal.is_member(x, X) for X in cover)
        assert covered == cal.is_member(x, target)


def test_empty_propagates():
    fm = FreeMonoid(2)
    cal = calculus(fm)
    assert cal.translate((0,), EMPTY) is EMPTY
    assert cal.preimage((0,), EMPTY) is EMPTY
    assert cal.intersect(EMPTY, cal.full()) is EMPTY
    assert not cal.is_member((), EMPTY)
    assert cal.subset(EMPTY, EMPTY)
    assert not cal.subset(cal.full(), EMPTY)


def test_lcm_checks_against_axb_intersections():
    axb = AxPlusB()
    cal = calculus(axb)
    rng = random.Random(106)
    for _ in range(60):
        a = rng.choice([x for x in range(-9, 10) if x])
        b = rng.choice([x for x in range(-9, 10) if x])
        meet = cal.intersect(cal.principal((0, a)), cal.principal((0, b)))
        assert meet == (0, math.lcm(a, b))
