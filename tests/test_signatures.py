"""Meets read off the ideals' signatures, against the pairwise table and
the pairwise and keyed semi-naive closures of ``lattice_oracle``, and the
same build where ax+b meets come from intersect."""

import os
import random

import pytest

from lefthull import (EMPTY, AxPlusB, FreeMonoid, InvariantViolation,
                      NumericalSemigroup, PositiveCone, UsageError, calculus,
                      constructible_closure, cyclic_table, FiniteTable,
                      reachable_ideals)
from lefthull import checks, ideals
from lefthull.cli import main
from lefthull.filters import truncate_semilattice
from lefthull.ideals import SIGNATURE_POINTS

import lattice_oracle as oracle
from test_lattice_oracle import SHIPPED, bench_cases, shipped

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
PRIMES = ((0, 2), (0, 3), (0, 5), (0, 7))
LONG_WORDS = ((0, 1, 1), (1, 0), (0,), (1, 1, 1, 0))
WIDE = ((128, 0), (0, 128))
# (backend, depth, generators) on every calculus with a signature: free
# monoids with letters and with long generator words, a table, cones of
# dimension 1 to 6 and a cone whose corners reach 256
SIGNED_CASES = {
    "free1-depth6": (FreeMonoid(1), 6, None),
    "free2-depth6": (FreeMonoid(2), 6, None),
    "free3-depth3": (FreeMonoid(3), 3, None),
    "free2-long-depth3": (FreeMonoid(2), 3, LONG_WORDS),
    "cyc12-depth2": (FiniteTable(cyclic_table(12)), 2, None),
    **{"cone%d-depth2" % d: (PositiveCone(d), 2, None) for d in (3, 4, 5)},
    "wide-cone2-depth2": (PositiveCone(2), 2, WIDE),
}
# (backend, depth, generators) past the shipped bounds: the inputs whose
# lattice build dominates their `check`, and one whose determining set
# is too large, so that the keys are the members, met by intersect
STRESSED = {
    "num-10-11-depth3": (NumericalSemigroup((10, 11)), 3, None),
    "axb-depth4": (AxPlusB(), 4, None),
    "cone6-depth2": (PositiveCone(6), 2, None),
    "axb-primes-depth3": (AxPlusB(), 3, PRIMES),
}
AGREEMENT_CASES = {**{name: shipped(name) for name in SHIPPED},
                   **bench_cases(), **STRESSED, **SIGNED_CASES}
# closures past STRESSED, each of thousands of ideals, for the keyed
# semi-naive oracle alone: the pairwise one takes seconds on them
KEYED_STRESSED = {
    "num-10-11-depth4": (NumericalSemigroup((10, 11)), 4, None),
    "cone6-depth3": (PositiveCone(6), 3, None),
    "cone8-depth2": (PositiveCone(8), 2, None),
}
# backends whose calculus states a determining set; the closures of
# PositiveCone(1) are chains, where no member is a meet of two others
SIGNED = [NumericalSemigroup((2, 3)), NumericalSemigroup((3, 5, 7)),
          NumericalSemigroup((4, 6)), AxPlusB(), PositiveCone(2),
          PositiveCone(3)]


def lattice_table(sg, family):
    """The lattice's meets of every ordered pair, read one at a time."""
    lat = truncate_semilattice(sg, family)
    return tuple(tuple(lat.meets(i, range(len(lat))))
                 for i in range(len(lat)))


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


@pytest.mark.parametrize("case", {**AGREEMENT_CASES,
                                  **KEYED_STRESSED}.values(),
                         ids={**AGREEMENT_CASES, **KEYED_STRESSED})
def test_closure_agrees_with_the_keyed_semi_naive_closure(case):
    sg, depth, generators = case
    assert constructible_closure(sg, depth, generators) == \
        oracle.keyed_closure(sg, depth, generators)


def count_meets(monkeypatch):
    """Patch ``meet_keys`` so that each meet of two keys is recorded."""
    real = ideals.meet_keys
    calls = []

    def counted(cal, members):
        keys, meet = real(cal, members)
        return keys, lambda a, b: calls.append(None) or meet(a, b)

    monkeypatch.setattr(ideals, "meet_keys", counted)
    return calls


def test_closure_meets_each_reachable_ideal_with_the_closure_so_far(
        monkeypatch):
    # ax+b with generators (1,2) (0,3) at depth 4: 787 ideals, 99 of them
    # reachable.  Meeting each new member with every reachable ideal took
    # 72,963 meets of keys; one reachable ideal at a time takes sum |F|,
    # 17,175
    sg, generators = AxPlusB(), ((1, 2), (0, 3))
    calls = count_meets(monkeypatch)
    fam = constructible_closure(sg, 4, generators)
    assert len(fam) == 787
    assert 0 < len(calls) <= 20000


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
    (NumericalSemigroup((2, 3)), [(0, 0), (4, 0), (5, 1 << 3), (7, 1 << 5)], 3),
    (AxPlusB(), [(0, 1), (2, 6), (2, 12), (8, 18)], 8),
    (PositiveCone(2), [(0, 0), (0, 1), (1, 2), (2, 1)], 4),
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


# (backend, generators, depths): the backends of SIGNED by their own names,
# then free monoids, long generator words, a table, cones and a wide cone
SIGN_LAWS = {
    **{sg.describe(): (sg, None, (1, 2, 3))
       for sg in SIGNED + [PositiveCone(1)]},
    **{"free%d" % k: (FreeMonoid(k), None, (1, 2, 4, 6)) for k in (1, 2)},
    "free3": (FreeMonoid(3), None, (1, 2, 3)),
    "free2-long": (FreeMonoid(2), LONG_WORDS, (1, 2, 3)),
    "table5": (FiniteTable(cyclic_table(5)), None, (1, 2)),
    **{"cone%d" % d: (PositiveCone(d), None, (1, 2)) for d in (4, 5, 6)},
    "wide-cone2": (PositiveCone(2), WIDE, (1, 2, 3)),
}


def signed_closures(case):
    """(calculus, members with EMPTY in canonical order, signatures) of the
    closure at each depth of a SIGN_LAWS case."""
    sg, generators, depths = case
    cal = calculus(sg)
    for depth in depths:
        fam = sorted(set(constructible_closure(sg, depth, generators))
                     | {EMPTY}, key=cal.key)
        yield cal, fam, cal.signatures(fam)


@pytest.mark.parametrize("case", SIGN_LAWS.values(), ids=SIGN_LAWS)
def test_empty_signs_zero_and_nonempty_never(case):
    for cal, fam, keys in signed_closures(case):
        assert keys[fam.index(EMPTY)] == 0
        assert all(k for X, k in zip(fam, keys) if X is not EMPTY)
        assert len(set(keys)) == len(fam)


@pytest.mark.parametrize("case", SIGN_LAWS.values(), ids=SIGN_LAWS)
def test_the_full_ideal_signs_every_point_of_every_member(case):
    # the top law of the lattice: S n X = X, so sig(S) & sig(X) = sig(X)
    for cal, fam, keys in signed_closures(case):
        top = keys[fam.index(cal.full())]
        assert all(k & top == k for k in keys)


@pytest.mark.parametrize("gens", [(2, 3), (4, 6)])
def test_numerical_tail_ideal_is_the_greatest_threshold(gens):
    # {S, S n [N, oo)}: the tail ideal has an empty mask, so its only
    # points in D lie at or past the family's greatest threshold
    sg = NumericalSemigroup(gens)
    cal = calculus(sg)
    for n in range(1, sg.conductor + 4 * sg.gcd):
        tail = cal._canonical(0, n)  # S n [n, oo) in canonical form
        assert tail[1] == 0
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


@pytest.mark.parametrize("sg, generators, new", [
    (NumericalSemigroup((10, 11)), None, 1091),
    (AxPlusB(), ((1, 2), (0, 3)), 117),
    (FreeMonoid(2), None, 0),
    (PositiveCone(3), None, 44),
], ids=["num-10-11", "axb-c", "free2", "cone3"])
def test_signature_path_intersects_once_per_new_member(sg, generators, new,
                                                       monkeypatch):
    # a meet on the key of a reachable ideal takes that ideal: in the free
    # monoid every meet is reachable, and none is built
    reach = reachable_ideals(sg, 3, generators)
    calls = count_intersects(monkeypatch, sg)
    fam = constructible_closure(sg, 3, generators)
    assert len(calls) == len(fam) - len(reach) == new
    calls.clear()
    truncate_semilattice(sg, fam)
    assert calls == []


def wide_cone():
    # a corner at 128: the runs take 2 * 129 points, where the box
    # [0, 128]^2 would take 129^2 > SIGNATURE_POINTS
    sg = PositiveCone(2)
    return sg, [(0, 0), (128, 0), (0, 128), (128, 128)]


def closed(sg, depth, generators=None):
    return sg, constructible_closure(sg, depth, generators)


def test_member_keys_take_the_reachable_pass(monkeypatch):
    # L past SIGNATURE_POINTS: the keys are the members, met by intersect,
    # in the pass the signatures take, 36 rows of 257 meets and the meets of
    # each RX(i); the row scan and law test it replaced made 2 n^2, 132,098
    sg = AxPlusB()
    reach = reachable_ideals(sg, 3, PRIMES)
    family = constructible_closure(sg, 3, PRIMES, reach)
    assert calculus(sg).signatures(family) is None
    calls = count_intersects(monkeypatch, sg)
    lat = truncate_semilattice(sg, family, reach)
    assert (len(lat), len(reach), len(calls)) == (257, 35, 13236)
    monkeypatch.undo()
    assert tuple(tuple(lat.meets(i, range(len(lat))))
                 for i in range(len(lat))) == \
        oracle.pairwise_table(sg, family)


@pytest.mark.parametrize("sg, family", [
    closed(FreeMonoid(2), 3), closed(FiniteTable(cyclic_table(5)), 3),
    wide_cone(),
], ids=["free2", "table5", "wide-cone2"])
def test_signature_path_without_intersect(sg, family, monkeypatch):
    # free monoids, tables and wide cones have signatures linear in the
    # family, and their lattices are built by & alone
    assert calculus(sg).signatures(family) is not None
    calls = count_intersects(monkeypatch, sg)
    lat = truncate_semilattice(sg, family)
    assert calls == []
    assert lattice_table(sg, family) == oracle.pairwise_table(sg, family)
    assert max(lat.keys).bit_length() < SIGNATURE_POINTS


# ---------------------------------------------------------------------------
# injected faults: each is caught by the build or by the oracle


def caught(sg, depth, generators=None):
    """How a fault shows: the text of the error the closure or lattice
    build raises, "closure" or "table" where it differs from the pairwise
    oracle, or None where nothing shows."""
    try:
        fam = constructible_closure(sg, depth, generators)
        if fam != oracle.pairwise_closure(sg, depth, generators):
            return "closure"
        if lattice_table(sg, fam) != oracle.pairwise_table(sg, fam):
            return "table"
    except (UsageError, InvariantViolation) as err:
        return str(err)
    return None


def test_a_cone_run_off_by_one_bit_is_caught(monkeypatch):
    # coordinate k's run of corner p starts at p_k + 1 where p_k is 1:
    # (1, 0) then signs like (2, 0) and the two tie
    sg = PositiveCone(2)
    cls = type(calculus(sg))
    real = cls.signatures
    assert caught(sg, 2) is None

    def shifted(self, family):
        keys = real(self, family)
        side = max(keys).bit_length() // 2
        return [k & ~sum(1 << i * side + 1 for i, a in enumerate(p)
                         if a == 1)
                if p is not EMPTY else k for p, k in zip(family, keys)]

    monkeypatch.setattr(cls, "signatures", shifted)
    assert caught(sg, 2) == "signatures tie two distinct ideals"


def test_a_full_ideal_signature_missing_a_point_breaks_the_top_law(
        monkeypatch):
    # on N, sig(S) without the point 1 meets sig(1 + S) in sig(2 + S): no
    # key is missing and none ties, but S n (1 + S) reads as 2 + S
    sg = PositiveCone(1)
    cls = type(calculus(sg))
    real = cls.signatures
    fam = constructible_closure(sg, 3)
    assert {(0,), (1,), (2,)} <= set(fam)
    assert caught(sg, 3) is None

    def holed(self, family):
        return [k & ~2 if p == (0,) else k
                for p, k in zip(family, real(self, family))]

    monkeypatch.setattr(cls, "signatures", holed)
    with pytest.raises(UsageError, match="violates the top or zero law"):
        truncate_semilattice(sg, fam)


def test_a_free_monoid_run_shifted_by_one_is_caught(monkeypatch):
    # the run of the word (0,) starts and ends one word later: it leaves
    # out (0,) and takes in (1,), so the meet of (0,) and (1,) reads as
    # (1,) where it is empty
    sg = FreeMonoid(2)
    cls = type(calculus(sg))
    real = cls.signatures
    assert caught(sg, 2) is None

    def shifted(self, family):
        return [k << 1 if w == (0,) else k
                for w, k in zip(family, real(self, family))]

    monkeypatch.setattr(cls, "signatures", shifted)
    assert caught(sg, 2) in ("closure", "table")


@pytest.mark.parametrize("sg, generators", [
    (PositiveCone(2), None), (NumericalSemigroup((2, 3)), None),
    (AxPlusB(), None), (AxPlusB(), PRIMES),
], ids=["cone2", "num23", "axb", "axb-primes"])
def test_a_dropped_reachable_ideal_fails_closure_family_as_before(
        sg, generators, monkeypatch):
    # the first reachable ideal that is the meet of two others is left
    # out; closure-family names the missing meet of the first pair in
    # row-major order, in the pairwise table's words
    depth = 2
    cal = calculus(sg)
    reach = reachable_ideals(sg, depth, generators)
    fam = constructible_closure(sg, depth, generators)
    Z = next(Z for Z in reach if any(
        cal.intersect(X, Y) == Z for X in fam for Y in fam
        if Z not in (X, Y)))
    broken = tuple(X for X in fam if X != Z)
    expected = outcome(oracle.pairwise_table, sg, broken)
    assert expected.startswith("family is not intersection closed")
    monkeypatch.setattr(checks, "constructible_closure",
                        lambda *args: broken)
    results = checks.run_checks(sg, depth=depth, window=12,
                                generators=generators)
    detail = {r.name: (r.status, r.detail) for r in results}
    assert detail["closure-family"] == ("fail", expected)


def test_a_member_that_is_no_meet_of_reachable_ideals_fails_the_lattice():
    # (5,5)+S lies inside every other member, so the family stays closed
    # and the row scan names no pair; as its own reachable set it passes,
    # but no reachable ideal at depth 1 lies above it but S
    sg = PositiveCone(2)
    reach = reachable_ideals(sg, 1)
    fam = constructible_closure(sg, 1, None, reach) + ((5, 5),)
    assert truncate_semilattice(sg, fam).up
    with pytest.raises(UsageError) as err:
        truncate_semilattice(sg, fam, reach)
    assert str(err.value) == \
        "family is not the meet closure of its reachable ideals"


@pytest.mark.parametrize("sg, generators", [
    (PositiveCone(2), None), (NumericalSemigroup((2, 3)), None),
    (AxPlusB(), None)], ids=["cone2", "num23", "axb"])
def test_a_reachable_ideal_left_out_of_a_closed_family_fails_the_lattice(
        sg, generators):
    # the first reachable ideal that is no meet of the others is left out
    # with the meets only it brings: what is left is closed, so the row
    # scan names no pair
    reach = reachable_ideals(sg, 2, generators)
    for R in reach[1:]:
        rest = tuple(X for X in reach if X != R)
        fam = constructible_closure(sg, 2, generators, rest)
        if R not in fam:
            break
    assert R not in fam and truncate_semilattice(sg, fam, rest).up
    with pytest.raises(UsageError) as err:
        truncate_semilattice(sg, fam, reach)
    assert str(err.value) == \
        "family is not the meet closure of its reachable ideals"


def test_an_asymmetric_intersect_on_the_axb_fallback_is_caught(monkeypatch):
    # past SIGNATURE_POINTS meets come from intersect; one that answers one
    # pair with its first argument in one order only is not commutative.
    # The lattice build takes intersect's laws as theorems and passes, and
    # three later checks see the fault, each as a grade off S
    sg = AxPlusB()
    cal = calculus(sg)
    family = constructible_closure(sg, 3, PRIMES)
    assert cal.signatures(family) is None
    X, Y = (0, 2), (0, 3)
    assert {X, Y, cal.intersect(X, Y)} <= set(family)
    assert cal.intersect(X, Y) == (0, 6)
    real = type(cal)._intersect
    monkeypatch.setattr(type(cal), "_intersect", lambda self, A, B: (
        A if (A, B) == (X, Y) else real(self, A, B)))
    results = checks.run_checks(sg, depth=3, generators=PRIMES)
    failed = [r.name for r in results if r.status == "fail"]
    assert failed == ["estar-unitary", "operator-relations",
                      "expectation-loop"]
