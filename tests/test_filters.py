"""Semilattice truncations, filters, and the maximality correspondence."""

import itertools

import pytest

from lefthull import (AxPlusB, EMPTY, FiniteTable, FreeMonoid,
                      NumericalSemigroup, PositiveCone, UsageError, calculus,
                      constructible_closure, cyclic_table, principal)
from lefthull.filters import (Filter, FiniteSemilattice, enumerate_filters,
                              is_filter, maximal_representation_check,
                              truncate_semilattice)
from lefthull.semigroups import set_bits

from lattice_oracle import leq, maximality

BACKENDS = [
    FreeMonoid(2),
    PositiveCone(2),
    NumericalSemigroup((2, 3)),
    NumericalSemigroup((3, 5)),
    AxPlusB(),
    FiniteTable(cyclic_table(5)),
]


def ids(sg):
    return sg.describe()


def chain_lattice(depth):
    line = PositiveCone(1)
    return line, truncate_semilattice(line, constructible_closure(line, depth))


# ---------------------------------------------------------------------------
# truncation build


def test_chain_truncation_shape():
    line, lat = chain_lattice(3)
    # S > 1+S > 2+S > 3+S with an adjoined zero
    assert len(lat) == 5
    assert lat.elements[0] == calculus(line).full()
    assert lat.elements[-1] is EMPTY
    assert lat.elements[1:4] == ((1,), (2,), (3,))
    for i in range(5):
        for j in range(5):
            assert leq(lat, i, j) == (i >= j) or lat.elements[i] is EMPTY


def test_trivial_truncation():
    line = PositiveCone(1)
    lat = truncate_semilattice(line, (calculus(line).full(),))
    assert len(lat) == 2
    fs = enumerate_filters(lat)
    assert len(fs) == 1 and fs[0].members == 1 << lat.top
    assert type(fs[0].members) is int


def test_free_monoid_truncation():
    free = FreeMonoid(2)
    lat = truncate_semilattice(free, constructible_closure(free, 1))
    assert len(lat) == 4
    a, b = lat.index((0,)), lat.index((1,))
    assert lat.meet(a, b) == lat.zero


def test_truncation_rejects_bad_families():
    cone = PositiveCone(2)
    cal = calculus(cone)
    with pytest.raises(UsageError):
        truncate_semilattice(cone, (principal(cone, (1, 0)),))  # no top
    with pytest.raises(UsageError):
        # e1 and e2 corners without their meet corner
        truncate_semilattice(cone, (cal.full(), (1, 0), (0, 1)))


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_truncation_builds_for_every_backend(sg):
    lat = truncate_semilattice(sg, constructible_closure(sg, 2))
    assert lat.meet(lat.top, lat.zero) == lat.zero
    assert lat.elements[lat.top] == calculus(sg).full()


# ---------------------------------------------------------------------------
# filters


def test_chain_filter_counts():
    for depth in (1, 2, 3, 4):
        line, lat = chain_lattice(depth)
        fs = enumerate_filters(lat)
        assert len(fs) == depth + 1
        for f in fs:
            assert is_filter(f, lat)
            assert f.members is lat.up[f.minimal]
            # the chain's up-set of i is {0, ..., i}
            assert f.members == (1 << f.minimal + 1) - 1


def test_free_monoid_filters_frozen():
    free = FreeMonoid(2)
    lat = truncate_semilattice(free, constructible_closure(free, 1))
    fs = enumerate_filters(lat)
    assert len(fs) == 3
    rendered = [sorted(lat.render(i) for i in set_bits(f.members))
                for f in fs]
    full = lat.render(lat.top)
    assert rendered[0] == [full]
    # each nontrivial filter joins the top with exactly one letter ideal
    assert {frozenset(r) for r in rendered[1:]} == {
        frozenset({full, lat.render(lat.index((0,)))}),
        frozenset({full, lat.render(lat.index((1,)))})}


def test_is_filter_axioms():
    free = FreeMonoid(2)
    lat = truncate_semilattice(free, constructible_closure(free, 1))
    a, b = lat.index((0,)), lat.index((1,))
    assert is_filter(1 << lat.top, lat)
    assert not is_filter(1 << lat.zero, lat)
    assert not is_filter(0, lat)
    assert not is_filter(1 << a, lat)  # misses the top
    # upward closed but not meet closed: the letter ideals meet in zero
    assert not is_filter(1 << lat.top | 1 << a | 1 << b, lat)


@pytest.mark.parametrize("members", [
    {0, 1000}, -1, 1 | 1 << 1000, "a", 1 << 4,
], ids=["set", "negative", "bit-1000", "str", "bit-n"])
def test_is_filter_takes_only_a_bitset_of_the_lattice(members):
    free = FreeMonoid(2)
    lat = truncate_semilattice(free, constructible_closure(free, 1))
    assert len(lat) == 4
    with pytest.raises(UsageError) as err:
        is_filter(members, lat)
    assert len(str(err.value)) < 60
    with pytest.raises(UsageError):
        is_filter(Filter(members, 0), lat)


def test_filter_iff_zero_one_homomorphism():
    # truth-table route: indicator multiplicative, 1 at top, 0 at zero
    cases = [chain_lattice(3)[1]]
    free = FreeMonoid(2)
    cases.append(truncate_semilattice(free, constructible_closure(free, 1)))
    for lat in cases:
        n = len(lat)
        for bits in itertools.product((0, 1), repeat=n):
            subset = sum(bit << i for i, bit in enumerate(bits))
            hom = (bits[lat.top] == 1 and bits[lat.zero] == 0 and
                   all(bits[lat.meet(i, j)] == bits[i] * bits[j]
                       for i in range(n) for j in range(n)))
            assert is_filter(subset, lat) == hom


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_enumerated_filters_pass_is_filter(sg):
    lat = truncate_semilattice(sg, constructible_closure(sg, 2))
    fs = enumerate_filters(lat)
    assert len(fs) == len(lat) - 1
    for f in fs:
        assert is_filter(f, lat)


def test_filters_survive_deeper_truncation():
    line = PositiveCone(1)
    shallow = truncate_semilattice(line, constructible_closure(line, 2))
    deep = truncate_semilattice(line, constructible_closure(line, 4))
    for f in enumerate_filters(shallow):
        seed = shallow.elements[f.minimal]
        grown = deep.up[deep.index(seed)]
        assert is_filter(grown, deep)
        # the grown filter is the old one plus deeper ideals containing seed
        old = {shallow.elements[i] for i in set_bits(f.members)}
        assert old <= {deep.elements[i] for i in set_bits(grown)}


# ---------------------------------------------------------------------------
# maximal representation vs independence


def test_chain_is_maximal():
    _, lat = chain_lattice(3)
    v = maximal_representation_check(lat)
    assert v.holds


def test_numerical_fails_maximality_with_union_witness():
    num = NumericalSemigroup((2, 3))
    lat = truncate_semilattice(num, constructible_closure(num, 3))
    v = maximal_representation_check(lat)
    assert not v.holds
    parts, target = v.witness
    # the covered ideal is {2,3,4,...}; check the union pointwise
    cal = calculus(num)
    assert target == (1, 0)
    win = num.window_of_size(60)
    for x in win:
        assert cal.is_member(x, target) == any(cal.is_member(x, p)
                                               for p in parts)


def test_trivial_family_is_maximal():
    line = PositiveCone(1)
    lat = truncate_semilattice(line, (calculus(line).full(),))
    assert maximal_representation_check(lat).holds


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_maximality_equals_independence(sg):
    # against the down-set search, which reads the table, not the family
    for depth in (1, 2):
        lat = truncate_semilattice(sg, constructible_closure(sg, depth))
        assert maximal_representation_check(lat).holds == \
            maximality(lat)[0]
