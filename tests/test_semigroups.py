"""Backend axioms checked on finite windows, plus frozen window shapes."""

import random

import pytest

from lefthull import (AxPlusB, FiniteGroup, FiniteTable, FreeGroup,
                      FreeMonoid, Integers, IntegerLattice,
                      InvariantViolation, NumericalSemigroup, PositiveCone,
                      RationalAffine, UsageError, calculus, cyclic_table)

from affine_oracle import to_triple

BACKENDS = [
    FreeMonoid(1),
    FreeMonoid(2),
    PositiveCone(1),
    PositiveCone(2),
    NumericalSemigroup((2, 3)),
    NumericalSemigroup((3, 5)),
    NumericalSemigroup((4, 6)),
    AxPlusB(),
    FiniteTable(cyclic_table(5)),
]


def ids(sg):
    return sg.describe()


def sample(sg, rng, n=30):
    win = sg.window_of_size(60)
    return [win[rng.randrange(len(win))] for _ in range(n)]


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_identity_laws(sg):
    rng = random.Random(11)
    e = sg.identity()
    for s in sample(sg, rng):
        assert sg.multiply(e, s) == s
        assert sg.multiply(s, e) == s


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_associativity_samples(sg):
    rng = random.Random(12)
    xs = sample(sg, rng, 12)
    for a in xs:
        for b in xs:
            for c in xs:
                assert sg.multiply(sg.multiply(a, b), c) == \
                    sg.multiply(a, sg.multiply(b, c))


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_left_cancellation(sg):
    # s*x = s*y forces x = y; the dict records the first preimage seen
    rng = random.Random(13)
    xs = sample(sg, rng, 20)
    for s in xs[:8]:
        seen = {}
        for x in xs:
            p = sg.multiply(s, x)
            assert seen.setdefault(p, x) == x


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_left_divide_inverts_multiply(sg):
    rng = random.Random(14)
    xs = sample(sg, rng, 16)
    for s in xs:
        for t in xs:
            assert sg.left_divide(s, sg.multiply(s, t)) == t


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_left_divide_solution_lies_in_s(sg):
    rng = random.Random(15)
    xs = sample(sg, rng, 20)
    for s in xs:
        for x in xs:
            t = sg.left_divide(s, x)
            if t is not None:
                assert sg.contains(t)
                assert sg.multiply(s, t) == x


def test_left_divide_no_solution_cases():
    fm = FreeMonoid(2)
    assert fm.left_divide((0,), (1, 0)) is None          # b.. not in aS
    num = NumericalSemigroup((2, 3))
    assert num.left_divide(2, 3) is None                 # 1 is not in S
    assert num.left_divide(3, 4) is None
    axb = AxPlusB()
    assert axb.left_divide((0, 2), (1, 4)) is None       # parity obstruction
    assert axb.left_divide((0, 2), (2, 3)) is None       # 2 does not divide 3
    assert axb.left_divide((1, 2), (3, 4)) == (1, 2)


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_preceq_matches_ideal_inclusion(sg):
    rng = random.Random(16)
    xs = sample(sg, rng, 14)
    cal = calculus(sg)
    for s in xs:
        for t in xs:
            # s preceq t means s = t*u for some u, that is s in tS
            assert (sg.left_divide(t, s) is not None) == \
                cal.is_member(s, cal.principal(t))
    e = sg.identity()
    for s in xs:
        assert sg.left_divide(e, s) == s


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_embed_is_a_homomorphism(sg):
    rng = random.Random(17)
    G = sg.grading_group()
    assert sg.embed(sg.identity()) == G.identity()
    xs = sample(sg, rng, 14)
    for s in xs:
        for t in xs:
            assert sg.embed(sg.multiply(s, t)) == G.mul(sg.embed(s), sg.embed(t))
            assert G.contains(sg.embed(s))


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_act_agrees_with_multiplication(sg):
    rng = random.Random(18)
    xs = sample(sg, rng, 14)
    for s in xs:
        for x in xs:
            assert sg.act(sg.embed(s), x) == sg.multiply(s, x)


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_group_element_of_recognizes_embeddings(sg):
    rng = random.Random(19)
    for s in sample(sg, rng, 12):
        assert sg.group_element_of(sg.embed(s)) == s


def test_act_rejects_leaving_the_semigroup():
    fm = FreeMonoid(2)
    with pytest.raises(InvariantViolation):
        fm.act((-1,), (1,))          # a' applied to b
    num = NumericalSemigroup((2, 3))
    with pytest.raises(InvariantViolation):
        num.act(-4, 2)
    with pytest.raises(InvariantViolation):
        num.act(-2, 3)               # 1 is not a member
    cone = PositiveCone(2)
    with pytest.raises(InvariantViolation):
        cone.act((-1, 0), (0, 4))


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_windows_are_sorted_and_duplicate_free(sg):
    win = sg.window_of_size(40)
    assert len(win) == len(set(win))
    keys = [sg.key(s) for s in win]
    assert keys == sorted(keys)
    assert win[0] == sg.identity()
    for s in win:
        assert sg.contains(s)


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_window_of_size_hits_request(sg):
    win = sg.window_of_size(25)
    if isinstance(sg, FiniteTable):
        assert len(win) == min(25, len(sg.table))
    else:
        assert len(win) == 25


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_window_of_size_is_built_once_per_backend(sg):
    win = sg.window_of_size(30)
    assert isinstance(win, tuple)
    assert sg.window_of_size(30) is win
    sg.window_of_size(7)
    assert sg.window_of_size(30) is win
    # a window is a function of (backend, size): a fresh instance agrees
    fresh = type(sg)(*(getattr(sg, name) for name in sg._fields))
    assert fresh == sg and fresh is not sg
    assert fresh.window_of_size(30) == win
    assert sg.window_of_size(20) == win[:20]


def test_table_window_stops_at_the_order():
    ft = FiniteTable(cyclic_table(5))
    assert ft.window_of_size(3) == (0, 1, 2)
    assert ft.window_of_size(12) == (0, 1, 2, 3, 4)
    assert ft.window_of_size(12) is ft.window_of_size(5)


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_render_parse_round_trip(sg):
    rng = random.Random(20)
    for s in sample(sg, rng, 16):
        assert sg.parse(sg.render(s)) == s


def test_free_monoid_window_is_length_lex():
    fm = FreeMonoid(2)
    assert [fm.render(w) for w in fm.window(2)] == \
        ["1", "a", "b", "aa", "ab", "ba", "bb"]


def test_free_monoid_rejects_bad_letters():
    fm = FreeMonoid(2)
    with pytest.raises(UsageError):
        fm.multiply((0, 2), (1,))
    with pytest.raises(UsageError):
        fm.multiply((0, -1), (1,))


def test_positive_cone_window_is_graded():
    cone = PositiveCone(2)
    win = cone.window(2)
    assert win == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_numerical_membership_against_subset_sums():
    # independent oracle: all nonnegative generator combinations below bound
    for gens in [(2, 3), (3, 5), (4, 6), (5, 7, 9)]:
        sg = NumericalSemigroup(gens)
        bound = 60
        brute = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = x + g
                if y < bound and y not in brute:
                    brute.add(y)
                    frontier.append(y)
        assert sg.members_below(bound) == sorted(brute)
        for x in range(bound):
            assert sg.contains(x) == (x in brute)


def test_numerical_frozen_values():
    num = NumericalSemigroup((2, 3))
    assert num.gcd == 1
    assert num.conductor == 2
    assert num.members_below(10) == [0, 2, 3, 4, 5, 6, 7, 8, 9]
    n35 = NumericalSemigroup((3, 5))
    assert n35.conductor == 8
    assert n35.members_below(12) == [0, 3, 5, 6, 8, 9, 10, 11]
    n46 = NumericalSemigroup((4, 6))
    assert n46.gcd == 2 and n46.conductor == 4
    assert n46.members_below(14) == [0, 4, 6, 8, 10, 12]


def test_numerical_conductor_is_minimal():
    for gens in [(2, 3), (3, 5), (4, 6), (6, 10, 15)]:
        sg = NumericalSemigroup(gens)
        c, d = sg.conductor, sg.gcd
        for k in range(40):
            assert sg.contains(c + k * d)
        if c > 0:
            assert not sg.contains(c - d)


def test_numerical_validation():
    with pytest.raises(UsageError):
        NumericalSemigroup(())
    with pytest.raises(UsageError):
        NumericalSemigroup((1, 2))
    with pytest.raises(UsageError):
        NumericalSemigroup((0, 3))
    assert NumericalSemigroup((3, 2, 3)).generators() == (2, 3)


def test_axb_multiplication_table_entries():
    axb = AxPlusB()
    assert axb.multiply((1, 2), (3, 4)) == (7, 8)
    assert axb.multiply((0, -1), (0, -1)) == (0, 1)
    assert axb.identity() == (0, 1)
    with pytest.raises(UsageError):
        axb.multiply((1, 0), (0, 1))


def test_axb_group_element_recognition():
    from fractions import Fraction
    axb = AxPlusB()
    assert axb.group_element_of(
        to_triple((Fraction(3), Fraction(2)))) == (3, 2)
    assert axb.group_element_of(
        to_triple((Fraction(1, 2), Fraction(2)))) is None
    assert axb.group_element_of(
        to_triple((Fraction(0), Fraction(1, 3)))) is None


def test_finite_table_validation():
    # row with a repeated entry is not left cancellative
    with pytest.raises(UsageError):
        FiniteTable(((0, 1), (1, 1)))
    # left cancellative but not associative: row/column latin square check
    bad = (
        (0, 1, 2),
        (1, 2, 0),
        (2, 1, 0),
    )
    with pytest.raises(UsageError):
        FiniteTable(bad)
    with pytest.raises(UsageError):
        FiniteTable(((1, 0), (0, 1)))  # identity row mismatch
    ft = FiniteTable(cyclic_table(6))
    assert ft.multiply(4, 5) == 3
    assert ft.left_divide(2, 1) == 5


def test_free_group_reduction():
    fg = FreeGroup(2)
    a, b = (1,), (2,)
    assert fg.mul(a, fg.inv(a)) == ()
    assert fg.mul((1, -2), (2, 2)) == (1, 2)
    assert fg.inv((1, 2)) == (-2, -1)
    assert fg.render((1, -2)) == "ab'"


def test_rational_affine_group_axioms():
    from fractions import Fraction
    g = RationalAffine()
    rng = random.Random(21)
    elems = []
    for _ in range(12):
        q1 = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        q2 = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(1, 4))
        elems.append(to_triple((q1, q2)))
    e = g.identity()
    for x in elems:
        assert g.mul(x, g.inv(x)) == e
        assert g.mul(g.inv(x), x) == e
        for y in elems:
            for z in elems:
                assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))


def test_rational_affine_rejects_noncanonical():
    from fractions import Fraction
    g = RationalAffine()
    assert g.contains((1, 2, 2)) and g.contains(g.identity())
    assert not g.contains((2, 4, 2))  # not reduced
    assert not g.contains((1, 1, -1))  # negative denominator
    assert not g.contains((1, 0, 1))  # slope 0
    assert not g.contains((Fraction(1), Fraction(2)))


def test_integer_groups():
    z2 = Integers(2)
    assert z2.mul((1, 2), (3, -1)) == (4, 1)
    assert z2.inv((1, 2)) == (-1, -2)
    lat = IntegerLattice(2)
    assert lat.contains(4) and not lat.contains(3)
    assert lat.mul(2, -6) == -4


def test_finite_group_inverse_table():
    fg = FiniteGroup(cyclic_table(5), 0)
    for x in range(5):
        assert fg.mul(x, fg.inv(x)) == 0


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_describe_is_stable(sg):
    assert sg.describe() == sg.describe()
    assert isinstance(sg.describe(), str) and sg.describe()


# ---------------------------------------------------------------------------
# per-backend facts


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_calculus_and_grading_group_built_once(sg):
    assert calculus(sg) is calculus(sg)
    assert calculus(sg).sg is sg
    assert sg.grading_group() is sg.grading_group()


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_generator_word_multiplies_back(sg):
    gens = sg.generators()
    if isinstance(sg, AxPlusB):
        with pytest.raises(UsageError):
            sg.generator_word((0, 5))
        return
    for s in sg.window_of_size(40):
        acc = sg.identity()
        for i in sg.generator_word(s):
            acc = sg.multiply(acc, gens[i])
        assert acc == s


REVERSIBLE = [sg for sg in BACKENDS if not isinstance(sg, AxPlusB)
              and sg != FreeMonoid(2)]


@pytest.mark.parametrize("sg", REVERSIBLE, ids=ids)
def test_group_coordinates_spell_fractions(sg):
    # every gamma(s)^-1 gamma(t) is the product of the basis fractions
    # raised to its coordinates
    G = sg.fraction_group
    basis = [G.mul(G.inv(sg.gamma(s)), sg.gamma(t))
             for s, t in sg.fraction_basis()]
    win = sg.window_of_size(12)
    for s in win:
        for t in win:
            g = G.mul(G.inv(sg.gamma(s)), sg.gamma(t))
            acc = G.identity()
            for i, k in sg.group_coordinates(g):
                acc = G.mul(acc, G.power(basis[i], k))
            assert acc == g


@pytest.mark.parametrize("gens", [(2, 3), (4, 6), (3, 5, 7), (10, 11),
                                  (30, 31), (6, 10, 15)])
def test_numerical_fraction_basis_is_least_window_pair(gens):
    # oracle: the first member s of a 30-element window with s + d in S
    sg = NumericalSemigroup(gens)
    d = sg.gcd
    win = sg.window_of_size(30)
    pair = next((s, s + d) for s in win if sg.contains(s + d))
    assert sg.fraction_basis() == (pair,)


def test_free_monoid_parse_checks_the_alphabet():
    big = FreeMonoid(27)
    assert big.parse("g3.g26") == (3, 26)
    for text in ("g99", "g27", "g-1", "g1.g27"):
        with pytest.raises(UsageError):
            big.parse(text)
