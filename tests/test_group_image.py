"""Reversibility, thickness, the enveloping group, and Folner averages."""

from fractions import Fraction

import pytest

from lefthull import (AxPlusB, EMPTY, FreeMonoid, Integers, IntegerLattice,
                      InvariantViolation, NumericalSemigroup, PositiveCone,
                      FiniteTable, UnsupportedOperation, UsageError, calculus,
                      constructible_closure, cyclic_table, principal)
from lefthull.group_image import (ExtendedHomomorphism, Homomorphism,
                                  apply_homomorphism, extend_homomorphism,
                                  folner_constant, folner_mean, gamma,
                                  group_of_S, is_left_reversible,
                                  left_thick_check, validate_homomorphism)

from affine_oracle import to_triple

BACKENDS = [
    FreeMonoid(2),
    PositiveCone(2),
    NumericalSemigroup((2, 3)),
    NumericalSemigroup((4, 6)),
    AxPlusB(),
    FiniteTable(cyclic_table(5)),
]


def ids(sg):
    return sg.describe()


# ---------------------------------------------------------------------------
# left reversibility


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_reversibility_matches_windowed_intersections(sg):
    # oracle: intersect principal ideals pairwise over a window
    cal = calculus(sg)
    verdict = is_left_reversible(sg)
    win = sg.window_of_size(12)
    disjoint = None
    for j in range(len(win)):
        for i in range(j):
            if cal.intersect(principal(sg, win[i]), principal(sg, win[j])) is EMPTY:
                disjoint = (win[i], win[j])
                break
        if disjoint:
            break
    if verdict.holds:
        assert disjoint is None
    else:
        assert disjoint is not None


def test_reversibility_frozen_witnesses():
    v = is_left_reversible(FreeMonoid(2))
    assert not v.holds and v.witness == ((0,), (1,))
    v = is_left_reversible(AxPlusB())
    assert not v.holds and v.witness == ((0, 2), (1, 2))
    # the witness really is disjoint: even vs odd offsets at slope 2
    cal = calculus(AxPlusB())
    assert cal.intersect((0, 2), (1, 2)) is EMPTY
    assert is_left_reversible(FreeMonoid(1)).holds
    assert is_left_reversible(PositiveCone(3)).holds
    assert is_left_reversible(NumericalSemigroup((3, 5))).holds
    assert is_left_reversible(FiniteTable(cyclic_table(4))).holds


# ---------------------------------------------------------------------------
# left thickness


def assert_witness_in_all_translates(sg, gs, x, size=40):
    # oracle: exhibit y in a window with g y = x, for every direction g
    G = sg.grading_group()
    win = sg.window_of_size(size)
    for g in gs:
        hits = [y for y in win if G.mul(g, sg.embed(y)) == sg.embed(x)]
        assert hits, (g, x)


def test_thick_cone_frozen():
    sg = PositiveCone(2)
    gs = [(1, 2), (3, -1)]
    v = left_thick_check(sg, gs)
    assert v.holds and v.witness == (3, 2)
    assert_witness_in_all_translates(sg, gs, v.witness)


def test_thick_numerical():
    sg = NumericalSemigroup((2, 3))
    v = left_thick_check(sg, [5])
    assert v.holds and v.witness == 7
    assert_witness_in_all_translates(sg, [5], v.witness)
    v = left_thick_check(sg, [-3])
    assert v.holds and v.witness == 2
    assert_witness_in_all_translates(sg, [-3], v.witness, size=60)

    even = NumericalSemigroup((4, 6))
    assert not left_thick_check(even, [3]).holds
    v = left_thick_check(even, [2])
    assert v.holds and v.witness == 6
    assert_witness_in_all_translates(even, [2], v.witness)


def test_thick_free_monoid():
    sg = FreeMonoid(2)
    G = sg.grading_group()
    # ab b^-1 = a: positive part is a prefix of itself
    g = G.mul(sg.embed((0, 1)), G.inv(sg.embed((1,))))
    assert g == (1,)
    v = left_thick_check(sg, [g])
    assert v.holds and v.witness == (0,)
    assert_witness_in_all_translates(sg, [g], v.witness)
    # an inverse letter left of a positive one can never be filled
    assert not left_thick_check(sg, [(-1, 2)]).holds
    # incomparable positive parts a and b
    assert not left_thick_check(sg, [(1,), (2,)]).holds
    v = left_thick_check(sg, [(1,), (1, 2)])
    assert v.holds and v.witness == (0, 1)


def test_thick_axb():
    sg = AxPlusB()
    one = Fraction(1)
    v = left_thick_check(sg, [to_triple((Fraction(0), 2 * one))])
    assert v.holds and v.witness == (0, 2)
    assert_witness_in_all_translates(
        sg, [to_triple((Fraction(0), 2 * one))], v.witness)
    # a half-integer offset with integer slope can never land in S
    assert not left_thick_check(
        sg, [to_triple((Fraction(1, 2), one))]).holds
    # even and odd offsets at slope 2 are incompatible
    gs = [to_triple((Fraction(0), 2 * one)), to_triple((one, 2 * one))]
    assert not left_thick_check(sg, gs).holds


def test_thick_axb_rejects_fraction_pairs():
    with pytest.raises(UsageError):
        left_thick_check(AxPlusB(), [(Fraction(0), Fraction(2))])


def test_thick_empty_falsified_on_window():
    # bounded falsification: no window member sits in every translate
    sg = FreeMonoid(2)
    G = sg.grading_group()
    win = sg.window_of_size(30)
    for x in win:
        ok = [any(G.mul(g, sg.embed(y)) == sg.embed(x) for y in win)
              for g in [(1,), (2,)]]
        assert not all(ok)


def test_thick_edge_cases():
    sg = PositiveCone(2)
    v = left_thick_check(sg, [])
    assert v.holds and v.witness == sg.identity()
    with pytest.raises(UsageError):
        left_thick_check(sg, [(1,)])
    tab = FiniteTable(cyclic_table(5))
    v = left_thick_check(tab, [2, 3])
    assert v.holds and v.witness == 0


# ---------------------------------------------------------------------------
# the enveloping group and gamma


def test_group_of_S_shapes():
    assert group_of_S(PositiveCone(2)).describe() == Integers(2).describe()
    assert group_of_S(NumericalSemigroup((2, 3))).describe() == \
        IntegerLattice(1).describe()
    assert group_of_S(NumericalSemigroup((4, 6))).describe() == \
        IntegerLattice(2).describe()
    assert group_of_S(FreeMonoid(1)).describe() == Integers(1).describe()
    tab = FiniteTable(cyclic_table(5))
    assert group_of_S(tab) == tab.grading_group()


def test_group_of_S_refuses_irreversible():
    with pytest.raises(UnsupportedOperation) as info:
        group_of_S(FreeMonoid(2))
    assert info.value.witness == ((0,), (1,))
    with pytest.raises(UnsupportedOperation) as info:
        group_of_S(AxPlusB())
    assert info.value.witness == ((0, 2), (1, 2))


@pytest.mark.parametrize("sg", [PositiveCone(2), NumericalSemigroup((2, 3)),
                                NumericalSemigroup((4, 6)), FreeMonoid(1),
                                FiniteTable(cyclic_table(5))], ids=ids)
def test_gamma_is_an_injective_homomorphism(sg):
    G = group_of_S(sg)
    win = sg.window_of_size(40)
    seen = {}
    for s in win:
        g = gamma(sg, s)
        assert G.contains(g)
        assert g not in seen
        seen[g] = s
    for s in win[:8]:
        for t in win[:8]:
            assert gamma(sg, sg.multiply(s, t)) == G.mul(gamma(sg, s),
                                                         gamma(sg, t))


# ---------------------------------------------------------------------------
# homomorphisms and their extensions


def test_homomorphism_validation():
    cone = PositiveCone(2)
    Z = Integers(1)
    with pytest.raises(UsageError):
        Homomorphism(cone, Z, ((1,),))  # one image short
    with pytest.raises(UsageError):
        Homomorphism(cone, Z, ((1,), (2, 3)))  # image outside the target
    hom = Homomorphism(cone, Z, ((1,), (2,)))
    validate_homomorphism(hom)

    # 2 and 3 generate with the relation 2+2+2 = 3+3; (1, 2) breaks it
    num = NumericalSemigroup((2, 3))
    bad = Homomorphism(num, Z, ((1,), (2,)))
    with pytest.raises(UsageError):
        validate_homomorphism(bad)
    good = Homomorphism(num, Z, ((2,), (3,)))
    validate_homomorphism(good)


def test_apply_homomorphism_values():
    cone = PositiveCone(2)
    Z = Integers(1)
    hom = Homomorphism(cone, Z, ((1,), (2,)))
    assert apply_homomorphism(hom, (3, 1)) == (5,)
    assert apply_homomorphism(hom, (0, 0)) == (0,)

    num = NumericalSemigroup((4, 6))
    half = Homomorphism(num, Z, ((2,), (3,)))
    assert apply_homomorphism(half, 10) == (5,)
    assert apply_homomorphism(half, 0) == (0,)

    free = FreeMonoid(2)
    fh = Homomorphism(free, Z, ((1,), (5,)))
    assert apply_homomorphism(fh, (0, 1, 0)) == (7,)


def test_extend_cone_weighted_sum():
    cone = PositiveCone(2)
    Z = Integers(1)
    hom = Homomorphism(cone, Z, ((1,), (2,)))
    ext = extend_homomorphism(hom)
    assert isinstance(ext, ExtendedHomomorphism)
    assert ext.of((3, -1)) == (1,)
    assert ext.of((-2, 0)) == (-2,)
    for s in cone.window_of_size(30):
        assert ext.of(gamma(cone, s)) == apply_homomorphism(hom, s)


def test_extend_numerical_identity_map():
    num = NumericalSemigroup((2, 3))
    Z = Integers(1)
    hom = Homomorphism(num, Z, ((2,), (3,)))
    ext = extend_homomorphism(hom)
    assert ext.basis_images == ((1,),)
    assert ext.of(7) == (7,)
    assert ext.of(-3) == (-3,)


def test_extend_even_numerical_halving():
    num = NumericalSemigroup((4, 6))
    Z = Integers(1)
    hom = Homomorphism(num, Z, ((2,), (3,)))
    ext = extend_homomorphism(hom)
    assert ext.of(10) == (5,)
    assert ext.of(-4) == (-2,)
    with pytest.raises(UsageError):
        ext.of(3)  # odd numbers are outside the lattice


def test_extend_table_is_plain_application():
    tab = FiniteTable(cyclic_table(5))
    hom = Homomorphism(tab, tab.grading_group(), tab.generators())
    ext = extend_homomorphism(hom, window=5)
    for s in range(5):
        assert ext.of(s) == s


# ---------------------------------------------------------------------------
# Folner averages


def test_folner_mean_frozen():
    line = PositiveCone(1)
    assert folner_mean(line, (2,), 100) == Fraction(98, 100)
    cone = PositiveCone(2)
    assert folner_mean(cone, (1, 2), 100) == Fraction(99 * 98, 10000)
    assert folner_mean(cone, EMPTY, 10) == 0

    num = NumericalSemigroup((2, 3))
    # 2 + S = {2, 4, 5, ...} meets [0, 100) in 97 points; S has 99 there
    assert folner_mean(num, principal(num, 2), 100) == Fraction(97, 99)
    even = NumericalSemigroup((4, 6))
    # {4} u {8, 10, ...} meets [0, 20) in 7 points out of 9
    assert folner_mean(even, principal(even, 4), 20) == Fraction(7, 9)


def test_folner_mean_is_exact_fraction():
    num = NumericalSemigroup((2, 3))
    m = folner_mean(num, principal(num, 3), 7)
    assert isinstance(m, Fraction)
    # members 3, 5, 6 of 3 + S below 7; S below 7 is {0, 2, 3, 4, 5, 6}
    assert m == Fraction(3, 6)


def test_folner_constant_bound():
    cone = PositiveCone(2)
    assert folner_constant(cone, (1, 2)) == 3
    assert calculus(cone).folner_least_n() == 1
    for N in (10, 50, 400):
        assert folner_mean(cone, (1, 2), N) >= 1 - Fraction(3, N)

    num = NumericalSemigroup((2, 3))
    for X in constructible_closure(num, 2):
        if X is EMPTY:
            continue
        c = folner_constant(num, X)
        for N in (8, 40, 1000):
            assert folner_mean(num, X, N) >= 1 - Fraction(c, N)

    even = NumericalSemigroup((4, 6))
    for X in constructible_closure(even, 2):
        if X is EMPTY:
            continue
        c = folner_constant(even, X)
        for N in (16, 64, 1024):
            assert folner_mean(even, X, N) >= 1 - Fraction(c, N)


@pytest.mark.parametrize("gens", [(10, 11), (4, 5), (3, 5, 7), (5, 7, 9)],
                         ids=str)
def test_folner_bound_holds_from_least_n(gens):
    # the bound of folner_constant holds from twice the conductor on, and
    # the range is needed: below it the bound fails for some ideal
    sg = NumericalSemigroup(gens)
    least = calculus(sg).folner_least_n()
    assert least == 2 * sg.conductor
    family = [X for X in constructible_closure(sg, 2) if X is not EMPTY]

    def holds(X, N):
        return folner_mean(sg, X, N) >= 1 - Fraction(folner_constant(sg, X), N)

    for N in range(least, 4 * least + 1, max(1, least // 3)):
        assert all(holds(X, N) for X in family), N
    assert any(not holds(X, N) for N in range(1, least) for X in family)


def test_folner_unsupported():
    with pytest.raises(UnsupportedOperation):
        folner_mean(FreeMonoid(2), EMPTY, 10)
    with pytest.raises(UnsupportedOperation):
        folner_mean(AxPlusB(), EMPTY, 10)
    with pytest.raises(UnsupportedOperation):
        calculus(AxPlusB()).folner_least_n()
    with pytest.raises(UsageError):
        folner_constant(PositiveCone(2), EMPTY)
    with pytest.raises(UsageError):
        folner_mean(PositiveCone(2), (1, 1), 0)
