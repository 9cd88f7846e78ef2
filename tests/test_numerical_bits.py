"""The bitset numerical ideal calculus against the tuple-loop oracle.

Ideals come from seeded random chains of operations and from random
generating sets, over semigroups with small and large conductors, a gcd
above one, a generator far past the others, and a conductor of 0.  Every
operation of the calculus must return the value the oracle builds member
by member, and the calculus must sort its values as the oracle's (N,
sorted tuple) pairs sort.
"""

import random

import pytest

import corpus
from lefthull import InvariantViolation, NumericalSemigroup
from lefthull.cli import main
from lefthull.ideals import EMPTY, IdealCalculus, _NumericalIdeals, calculus

from lattice_oracle import fresh_calculus
from numerical_oracle import TupleLoopIdeals, pair

# <3> has conductor 0: only there can a shift drop members below 0 without
# moving another onto a gap
GENS = [(2, 3), (3, 5, 7), (4, 6), (10, 11), (2, 49), (3,)]


def ids(gens):
    return "<%s>" % ",".join(map(str, gens))


def random_ideals(sg, ora, rng, count):
    """Seeded values, each built side by side by the calculus and the
    oracle, which must agree at every step."""
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
            out.append(X)
            continue
        X, Xo = cal.full(), (0, 0)
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
                Xo = ora.intersect(Xo, ora.translate(t, (0, 0)))
            else:
                # a shift down by the least member, where it stays in S
                g = -cal.min_member(X)
                if ora.image(g, Xo) is None:
                    with pytest.raises(InvariantViolation):
                        cal.image(g, X)
                else:
                    X, Xo = cal.image(g, X), ora.image(g, Xo)
            assert X == Xo
        out.append(X)
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
    for X in ideals:
        for s in win:
            assert cal.translate(s, X) == ora.translate(s, X)
            assert cal.preimage(s, X) == ora.preimage(s, X)
            assert cal.is_member(s, X) == ora.is_member(s, X)
        for bound in (0, 1, X[0], X[0] + 1, X[0] + sg.conductor + 7):
            assert cal._below(X, bound) == sum(
                1 << x for x in ora.ideal_members_below(X, bound))
        assert cal.render(X) == ora.render(X)
        assert cal.min_member(X) == ora.ideal_members_below(
            X, X[0] + sg.conductor + sg.gcd + 1)[0]
        for Y in rng.sample(ideals, 8):
            assert cal.intersect(X, Y) == ora.intersect(X, Y)
            union = ora.union([X, Y])
            assert cal.union_equals([X, Y], union)
            assert cal.union_equals([X, Y], X) == (union == X)


@pytest.mark.parametrize("gens", GENS, ids=ids)
def test_key_sorts_as_the_tuple_pairs(gens):
    # the key, not the mask's int value, must order the values: the mask
    # {0, 2} is 5 and {1} is 2, but (0, 2) sorts before (1,)
    sg = NumericalSemigroup(gens)
    cal, ora = calculus(sg), TupleLoopIdeals(gens)
    values = set(random_ideals(sg, ora, random.Random(5 * sum(gens)), 60))
    assert len(values) > 10
    want = sorted(values, key=pair)
    assert sorted(values, key=cal.key) == want
    assert [cal.key(X) for X in want] == [(0, pair(X)) for X in want]


@pytest.mark.parametrize("gens", GENS, ids=ids)
def test_image_matches_and_raises_like_tuple_loops(gens):
    # every grade in a range around zero: negative ones that shift members
    # below 0 or onto gaps must raise, as must grades off the lattice of S
    sg = NumericalSemigroup(gens)
    cal, ora = calculus(sg), TupleLoopIdeals(gens)
    rng = random.Random(7 * sum(gens))
    raised = 0
    for X in random_ideals(sg, ora, rng, 25):
        for g in range(-X[0] - sg.conductor - 3, sg.conductor + 8):
            want = ora.image(g, X)
            if want is None:
                raised += 1
                with pytest.raises(InvariantViolation):
                    cal.image(g, X)
            else:
                assert cal.image(g, X) == want, (g, X)
    assert raised


def test_values_are_the_plain_pairs():
    sg = NumericalSemigroup((3, 5, 7))
    cal = calculus(sg)
    X = cal.intersect(cal.principal(3), cal.principal(5))
    assert X == (10, 1 << 8) and type(X) is tuple
    assert list(map(type, X)) == [int, int]
    assert cal.key(X) == (0, (10, (8,)))
    assert cal.render(X) == "{8,10,11,12,...}"
    assert cal.full() == (0, 0)
    assert cal.intersect(X, EMPTY) is EMPTY


@pytest.mark.parametrize("gens", GENS, ids=ids)
def test_folner_figures_match_tuple_loops(gens):
    from fractions import Fraction
    sg = NumericalSemigroup(gens)
    cal, ora = calculus(sg), TupleLoopIdeals(gens)
    rng = random.Random(3 * sum(gens))
    for X in random_ideals(sg, ora, rng, 15):
        missing = len(ora.members_below(X[0])) - len(pair(X)[1])
        assert cal.folner_constant(X) == 2 * sg.gcd * missing
        for N in (1, 7, 50, 2 * sg.conductor + 3):
            assert cal.folner_mean(X, N) == Fraction(
                len(ora.ideal_members_below(X, N)),
                len(ora.members_below(N)))


# the calculus answers each distinct image once; a conductor of 0 is left
# out, as every grade off the gcd lattice raises there
MEMO_GENS = [(2, 3), (3, 5, 7), (4, 5), (4, 6), (10, 11)]


def asked_twice(memo, ask):
    """The two answers to one query: the first must store one entry, the
    second must find it and return the same object."""
    size = len(memo)
    first = ask()
    assert len(memo) == size + 1
    second = ask()
    assert second is first and len(memo) == size + 1
    return first


@pytest.mark.parametrize("gens", MEMO_GENS, ids=ids)
def test_memo_misses_and_hits_match_tuple_loops(gens):
    sg = NumericalSemigroup(gens)
    ora = TupleLoopIdeals(gens)
    ideals = random_ideals(sg, ora, random.Random(11 * sum(gens)), 20)
    # an empty memo, so that the first asking of each query is a miss
    cal = fresh_calculus(sg)
    images = {(g, X) for X in ideals
              for g in range(-X[0] - sg.conductor - 2, sg.conductor + 6)
              if ora.image(g, X) is not None}
    for g, X in images:
        Y = asked_twice(cal._images, lambda: cal.image(g, X))
        assert Y == ora.image(g, X), (g, X)
    assert images


def test_check_asks_images_again_and_meets_once(monkeypatch, tmp_path):
    """Why images keep a memo and meets none: in ``check`` on lhbench's
    <10,11> at config defaults, 919 of 1,550 image asks repeat (the range
    check of each pullback asks again), and 1 of 274 meets."""
    images, meets, cals = [], [], set()
    image, intersect = _NumericalIdeals._image, IdealCalculus.intersect

    def counted_image(self, g, X):
        images.append((g, X))
        cals.add(self)
        return image(self, g, X)

    def counted_intersect(self, X, Y):
        meets.append((X, Y))
        return intersect(self, X, Y)

    monkeypatch.setattr(_NumericalIdeals, "_image", counted_image)
    monkeypatch.setattr(IdealCalculus, "intersect", counted_intersect)
    path = tmp_path / "num-10-11.cfg"
    path.write_text(corpus.configs()["lhbench/num-10-11"])
    assert main(["check", str(path)]) == 0
    assert (len(images), len(set(images))) == (1550, 631)
    (cal,) = cals
    assert len(cal._images) == 631
    assert (len(meets), len(set(meets))) == (274, 273)


@pytest.mark.parametrize("gens", MEMO_GENS, ids=ids)
def test_a_raising_image_raises_again_and_stores_nothing(gens):
    sg = NumericalSemigroup(gens)
    ora = TupleLoopIdeals(gens)
    cal = calculus(sg)
    raised = 0
    for X in random_ideals(sg, ora, random.Random(13 * sum(gens)), 15):
        for g in range(-X[0] - sg.conductor - 2, 1):
            if ora.image(g, X) is None:
                size = len(cal._images)
                for _ in range(2):
                    with pytest.raises(InvariantViolation):
                        cal.image(g, X)
                    assert len(cal._images) == size
                raised += 1
    assert raised
