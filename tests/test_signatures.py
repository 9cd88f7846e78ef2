"""Meets read off the ideals' signatures, against the pairwise table and
the pairwise semi-naive closure of ``lattice_oracle``."""

import os
import random

import pytest

from lefthull import (EMPTY, AxPlusB, FreeMonoid, InvariantViolation,
                      NumericalSemigroup, PositiveCone, UsageError, calculus,
                      constructible_closure, cyclic_table, FiniteTable,
                      reachable_ideals)
from lefthull.cli import main
from lefthull.filters import truncate_semilattice

import lattice_oracle as oracle
from test_lattice_oracle import SHIPPED, bench_cases, shipped

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
PRIMES = ((0, 2), (0, 3), (0, 5), (0, 7))
# (backend, depth, generators) past the shipped bounds: the inputs whose
# lattice build dominates their `check`, and one whose determining set
# is too large, so that meets are taken pairwise
STRESSED = {
    "num-10-11-depth3": (NumericalSemigroup((10, 11)), 3, None),
    "axb-depth4": (AxPlusB(), 4, None),
    "cone6-depth2": (PositiveCone(6), 2, None),
    "axb-primes-depth3": (AxPlusB(), 3, PRIMES),
}
AGREEMENT_CASES = {**{name: shipped(name) for name in SHIPPED},
                   **bench_cases(), **STRESSED}
# backends whose calculus states a determining set; the closures of
# PositiveCone(1) are chains, where no member is a meet of two others
SIGNED = [NumericalSemigroup((2, 3)), NumericalSemigroup((3, 5, 7)),
          NumericalSemigroup((4, 6)), AxPlusB(), PositiveCone(2),
          PositiveCone(3)]


def lattice_table(sg, family):
    return truncate_semilattice(sg, family).table


def outcome(build, sg, family):
    """The meet table a build gives, or the text of its UsageError."""
    try:
        return build(sg, family)
    except UsageError as err:
        return str(err)


def assert_table_agrees(sg, family):
    assert outcome(lattice_table, sg, family) == \
        outcome(oracle.pairwise_table, sg, family)


def meet_closed(cal, members):
    family = set(members)
    while True:
        new = {cal.intersect(X, Y) for X in family for Y in family} - family
        if not new:
            return family
        family |= new


def random_family(sg, rng, closure, size):
    """The full ideal with ``size`` ideals drawn from a closure and from the
    principal ideals of a window, closed under meets."""
    cal = calculus(sg)
    pool = sorted(set(closure) | {cal.principal(s)
                                  for s in sg.window_of_size(30)},
                  key=cal.key)
    return meet_closed(cal, [cal.full(), *rng.sample(pool, size)])


def drop_point(monkeypatch, sg, point):
    """Patch the calculus' signatures to forget one point of D."""
    cls = type(calculus(sg))
    real = cls.signatures
    monkeypatch.setattr(cls, "signatures", lambda self, family: [
        s & ~(1 << point) for s in real(self, family)])


def count_intersects(monkeypatch, sg):
    cls = type(calculus(sg))
    real = cls.intersect
    calls = []

    def counted(self, X, Y):
        calls.append((X, Y))
        return real(self, X, Y)

    monkeypatch.setattr(cls, "intersect", counted)
    return calls


@pytest.mark.parametrize("case", AGREEMENT_CASES.values(),
                         ids=AGREEMENT_CASES)
def test_closure_and_table_agree_with_pairwise_oracle(case):
    sg, depth, generators = case
    fam = constructible_closure(sg, depth, generators)
    assert fam == oracle.pairwise_closure(sg, depth, generators)
    assert lattice_table(sg, fam) == oracle.pairwise_table(sg, fam)


def test_cone6_depth3_closure_and_sampled_meets():
    # 4,096 ideals: the closure in full, and the table's meets on sampled
    # pairs, as the whole table takes seconds on either path
    sg = PositiveCone(6)
    cal = calculus(sg)
    fam = constructible_closure(sg, 3)
    assert fam == oracle.pairwise_closure(sg, 3)
    keys = cal.signatures(fam)
    by_key = dict(zip(keys, fam))
    assert len(by_key) == len(fam) == 4096
    rng = random.Random(6)
    for _ in range(20000):
        i, j = rng.randrange(len(fam)), rng.randrange(len(fam))
        assert by_key[keys[i] & keys[j]] == cal.intersect(fam[i], fam[j])


@pytest.mark.parametrize("sg", SIGNED, ids=lambda sg: sg.describe())
def test_random_subfamilies_agree_and_missing_meets_raise(sg):
    # meet-closed families that no closure built give the oracle's table;
    # with one meet taken out both raise the same UsageError
    cal = calculus(sg)
    closure = constructible_closure(sg, 2)
    rng = random.Random(sg.describe())
    missing = 0
    for _ in range(25):
        fam = random_family(sg, rng, closure, rng.randrange(1, 6))
        assert_table_agrees(sg, fam)
        for Z in sorted(fam - {cal.full(), EMPTY}, key=cal.key):
            broken = fam - {Z}
            if isinstance(outcome(oracle.pairwise_table, sg, broken), str):
                missing += 1
            assert_table_agrees(sg, broken)
    assert missing


@pytest.mark.parametrize("sg", SIGNED, ids=lambda sg: sg.describe())
def test_a_dropped_point_ties_or_changes_nothing_on_closed_families(
        sg, monkeypatch):
    # forgetting a point of D commutes with &, so on a meet-closed family
    # it either ties two members, which raises InvariantViolation, or
    # leaves the table as it was
    cal = calculus(sg)
    real = type(cal).signatures
    closure = constructible_closure(sg, 2)
    rng = random.Random(sg.describe())
    ties = 0
    for _ in range(10):
        fam = random_family(sg, rng, closure, 3)
        expected = lattice_table(sg, fam)
        points = max(real(cal, sorted(fam, key=cal.key))).bit_length()
        for point in range(points):
            drop_point(monkeypatch, sg, point)
            try:
                assert lattice_table(sg, fam) == expected
            except InvariantViolation as err:
                assert "signatures tie" in str(err)
                ties += 1
            finally:
                monkeypatch.undo()
    assert ties


@pytest.mark.parametrize("sg, family, point", [
    (NumericalSemigroup((2, 3)), [(0, ()), (4, ()), (5, (3,)), (7, (5,))], 3),
    (AxPlusB(), [(0, 1), (2, 6), (2, 12), (8, 18)], 8),
    (PositiveCone(2), [(0, 0), (0, 1), (1, 2), (2, 1)], 5),
], ids=["num23", "axb", "cone2"])
def test_a_dropped_point_that_hides_a_missing_meet_is_caught(
        sg, family, point, monkeypatch):
    # the family misses one meet; without the point that meet signs like
    # a member, so the build makes a table where it should raise, and only
    # the comparison with the oracle sees it
    error = outcome(oracle.pairwise_table, sg, family)
    assert error.startswith("family is not intersection closed")
    assert_table_agrees(sg, family)
    drop_point(monkeypatch, sg, point)
    assert not isinstance(outcome(lattice_table, sg, family), str)
    with pytest.raises(AssertionError):
        assert_table_agrees(sg, family)


@pytest.mark.parametrize("sg", SIGNED + [PositiveCone(1)],
                         ids=lambda sg: sg.describe())
def test_empty_signs_zero_and_nonempty_never(sg):
    cal = calculus(sg)
    for depth in (1, 2, 3):
        fam = sorted(set(constructible_closure(sg, depth)) | {EMPTY},
                     key=cal.key)
        keys = cal.signatures(fam)
        assert keys[fam.index(EMPTY)] == 0
        assert all(k for X, k in zip(fam, keys) if X is not EMPTY)
        assert len(set(keys)) == len(fam)


@pytest.mark.parametrize("gens", [(2, 3), (4, 6)])
def test_numerical_tail_ideal_is_the_greatest_threshold(gens):
    # {S, S n [N, oo)}: the tail ideal has an empty mask, so its only
    # points in D lie at or past the family's greatest threshold
    sg = NumericalSemigroup(gens)
    cal = calculus(sg)
    for n in range(1, sg.conductor + 4 * sg.gcd):
        tail = cal._canonical(0, n)  # S n [n, oo) in canonical form
        assert tail[1] == ()
        fam = [cal.full(), tail, EMPTY]
        keys = cal.signatures(fam)
        assert keys[2] == 0 and keys[0] and keys[1]
        assert len(set(keys)) == 3
        assert lattice_table(sg, fam) == oracle.pairwise_table(sg, fam)


def test_tied_signatures_raise_invariant_violation(monkeypatch, capsys):
    sg = NumericalSemigroup((2, 3))
    fam = constructible_closure(sg, 2)
    cls = type(calculus(sg))
    real = cls.signatures
    # the full ideal, first in canonical order, signs like the next one
    monkeypatch.setattr(cls, "signatures", lambda self, family: (
        lambda keys: keys[1:2] + keys[1:])(real(self, family)))
    with pytest.raises(InvariantViolation, match="signatures tie"):
        truncate_semilattice(sg, fam)
    with pytest.raises(InvariantViolation, match="signatures tie"):
        constructible_closure(sg, 2)
    assert main(["ideals", os.path.join(CONFIGS, "num23.cfg")]) == 1
    assert "signatures tie" in capsys.readouterr().err


@pytest.mark.parametrize("sg, generators", [
    (NumericalSemigroup((10, 11)), None),
    (AxPlusB(), ((1, 2), (0, 3))),
], ids=["num-10-11", "axb-c"])
def test_signature_path_intersects_once_per_new_member(sg, generators,
                                                       monkeypatch):
    reach = reachable_ideals(sg, 3, generators)
    calls = count_intersects(monkeypatch, sg)
    fam = constructible_closure(sg, 3, generators)
    assert len(calls) == len(fam) - len(reach) > 0
    calls.clear()
    truncate_semilattice(sg, fam)
    assert calls == []


def wide_cone():
    # a corner at 128 puts 129^2 > SIGNATURE_POINTS points in the box
    sg = PositiveCone(2)
    return sg, [(0, 0), (128, 0), (0, 128), (128, 128)]


def closed(sg, depth, generators=None):
    return sg, constructible_closure(sg, depth, generators)


@pytest.mark.parametrize("sg, family", [
    closed(AxPlusB(), 3, PRIMES), closed(FreeMonoid(2), 3),
    closed(FiniteTable(cyclic_table(5)), 3), wide_cone(),
], ids=["axb-primes", "free2", "table5", "wide-cone2"])
def test_pairwise_path_when_there_is_no_determining_set(sg, family,
                                                        monkeypatch):
    assert calculus(sg).signatures(family) is None
    calls = count_intersects(monkeypatch, sg)
    assert lattice_table(sg, family) == oracle.pairwise_table(sg, family)
    n = len(set(family) | {EMPTY})
    assert len(calls) == 2 * n * n  # the build's and the oracle's
