"""Acceptance gate: ten pinned end-to-end criteria.

Each test prints a PASS line so a verbose run doubles as the sign-off
report.  Values are exact; there are no tolerances anywhere."""

import os
import random
import time
from fractions import Fraction

import pytest

from lefthull import (EMPTY, ZERO, AxPlusB, FiniteTable, FreeMonoid,
                      Homomorphism, Integers, NumericalSemigroup,
                      PositiveCone, UnsupportedOperation, apply_homomorphism,
                      calculus, clifford_check, clifford_normal_form,
                      compose, constructible_closure, cyclic_table,
                      enumerate_filters, enumerate_hull, evaluate_word,
                      extend_homomorphism, folner_constant, folner_mean,
                      gamma, group_of_S, identity_element,
                      independence_check, is_filter, is_idempotent,
                      is_left_reversible, lambda_, maps_agree,
                      materialize_element, materialize_word,
                      maximal_representation_check, random_word, recompose,
                      s_window, star, truncate_semilattice, verify_relation)
from lefthull.hull import hull_graph
from lefthull.operators import expectation_loop
from lefthull.cli import main as cli_main

from lattice_oracle import maximality

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

ALL_BACKENDS = [PositiveCone(1), PositiveCone(2), FreeMonoid(2),
                NumericalSemigroup((2, 3)), AxPlusB(),
                FiniteTable(cyclic_table(5))]

# window prescriptions for the operator criteria: at least 30 basis
# vectors each, cut along natural grade bounds
OPERATOR_WINDOWS = [
    (PositiveCone(1), dict(size=30)),
    (PositiveCone(2), dict(bound=7)),
    (FreeMonoid(2), dict(bound=4)),
    (NumericalSemigroup((2, 3)), dict(bound=30)),
]


def test_criterion_01_algebra_agrees_with_pointwise_oracle():
    t0 = time.time()
    for sg in ALL_BACKENDS:
        rng = random.Random(11)
        win = sg.window_of_size(50)
        mismatches = 0
        for _ in range(1000):
            word = random_word(sg, rng, 1 + rng.randrange(6))
            f = evaluate_word(sg, word)
            if not maps_agree(materialize_element(sg, f, win),
                              materialize_word(sg, word, win)):
                mismatches += 1
        assert mismatches == 0, sg.describe()
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print("PASS criterion 1: 6000 random words match the pointwise oracle "
          "on 50-element windows (%.1fs)" % elapsed)


def test_criterion_02_verdict_table():
    fm = FreeMonoid(2)
    assert clifford_check(fm).holds
    rev = is_left_reversible(fm)
    assert not rev.holds and rev.witness == ((0,), (1,))

    cone2 = PositiveCone(2)
    assert clifford_check(cone2).holds
    assert is_left_reversible(cone2).holds
    fam2 = constructible_closure(cone2, 2)
    assert independence_check(cone2, fam2).holds

    axb = AxPlusB()
    assert clifford_check(axb).holds
    rev = is_left_reversible(axb)
    assert not rev.holds and rev.witness == ((0, 2), (1, 2))

    num = NumericalSemigroup((2, 3))
    cal = calculus(num)
    cliff = clifford_check(num)
    assert not cliff.holds and cliff.witness[:2] == (2, 3)
    indep = independence_check(num, constructible_closure(num, 2))
    assert not indep.holds
    parts, target = indep.witness
    assert set(parts) == {cal.principal(2), cal.principal(3)}
    assert cal.render(target) == "{2,3,4,5,...}"
    print("PASS criterion 2: verdict table with pinned witnesses")


def test_criterion_03_star_cancellation_characterizes_equality():
    for sg in ALL_BACKENDS:
        rng = random.Random(23)
        win = sg.window_of_size(20)
        one = identity_element(sg)
        for i in range(500):
            s = win[rng.randrange(len(win))]
            t = s if i % 5 == 0 else win[rng.randrange(len(win))]
            lhs = compose(sg, star(sg, lambda_(sg, t)), lambda_(sg, s))
            assert (lhs == one) == (s == t), (sg.describe(), s, t)
    print("PASS criterion 3: star(V_t) V_s = 1 exactly when s = t, "
          "500 pairs per backend")


def test_criterion_04_normal_form_roundtrips():
    clifford_backends = [PositiveCone(1), PositiveCone(2), FreeMonoid(2),
                         AxPlusB(), FiniteTable(cyclic_table(5))]
    for sg in clifford_backends:
        rng = random.Random(31)
        win = sg.window_of_size(50)
        done = 0
        while done < 500:
            word = random_word(sg, rng, 1 + rng.randrange(3))
            f = evaluate_word(sg, word)
            if f is ZERO:
                continue
            p, q = clifford_normal_form(sg, f, window_size=50)
            back = recompose(sg, p, q)
            assert back == f
            assert maps_agree(materialize_element(sg, back, win),
                              materialize_element(sg, f, win))
            done += 1
    with pytest.raises(UnsupportedOperation):
        num = NumericalSemigroup((2, 3))
        clifford_normal_form(num, lambda_(num, 2))
    print("PASS criterion 4: 2500 normal form roundtrips verified "
          "pointwise on 50-element windows")


def test_criterion_05_relation_suites_and_expectation_loop():
    for sg, cut in OPERATOR_WINDOWS:
        W = s_window(sg, **cut)
        assert len(W) >= 30
        lattice = truncate_semilattice(sg, constructible_closure(sg, 2))
        for kind in ("covariance", "semilattice", "isometry",
                     "cs-grade-one"):
            rep = verify_relation(sg, kind, W, lattice=lattice,
                                  graph=hull_graph(sg, 2))
            assert rep.count > 0, (sg.describe(), kind)
        total, fixed, skipped = expectation_loop(sg, W, hull_graph(sg, 3))
        assert total == len(enumerate_hull(sg, 3))
        assert fixed == sum(1 for f in enumerate_hull(sg, 3)
                            if is_idempotent(sg, f))
        assert skipped == 0
    print("PASS criterion 5: relation suites exact on safe cores; "
          "expectation fixes exactly the idempotents at length 3")


def test_criterion_06_intertwiner_exact_on_every_element():
    for sg, cut in OPERATOR_WINDOWS:
        W = s_window(sg, **cut)
        rep = verify_relation(sg, "intertwiner", W, graph=hull_graph(sg, 3))
        assert rep.count == len(enumerate_hull(sg, 3))
    print("PASS criterion 6: T* Lambda(f) T = omega(f) exactly for every "
          "hull element at length 3")


def test_criterion_07_group_image_and_extension():
    for sg in [PositiveCone(1), PositiveCone(2), PositiveCone(3),
               NumericalSemigroup((2, 3))]:
        win = sg.window_of_size(200)
        images = [gamma(sg, s) for s in win]
        assert len(set(images)) == len(images), sg.describe()

    line = PositiveCone(1)
    G = group_of_S(line)
    assert isinstance(G, Integers) and G.describe() == "Z"

    cone2 = PositiveCone(2)
    hom = Homomorphism(cone2, Integers(1), ((1,), (2,)))
    ext = extend_homomorphism(hom, pairs=100, seed=7, window=12)
    assert ext.basis_images == ((1,), (2,))
    for s in cone2.window_of_size(200):
        assert ext.of(gamma(cone2, s)) == apply_homomorphism(hom, s)
    print("PASS criterion 7: gamma injective on 200-element windows; "
          "G(Z+) = Z; (m,n) -> m+2n extends with images (1, 2)")


def test_criterion_08_exact_densities():
    line = PositiveCone(1)
    X = calculus(line).principal((2,))
    assert folner_mean(line, X, 100) == Fraction(98, 100)

    cone2 = PositiveCone(2)
    family = constructible_closure(cone2, 2)
    assert EMPTY not in family
    for X in family:
        c = folner_constant(cone2, X)
        mean = folner_mean(cone2, X, 1000)
        assert mean >= Fraction(999, 1000) - Fraction(c, 1000), (X, c, mean)
    print("PASS criterion 8: exact rational densities, "
          "%d depth-2 ideals bounded by their reported constants"
          % len(family))


def test_criterion_09_filter_counts_and_maximality():
    line = PositiveCone(1)
    for L in (1, 2, 3, 4):
        fam = constructible_closure(line, L)
        lat = truncate_semilattice(line, fam)
        fs = enumerate_filters(lat)
        assert len(fs) == L + 1
        assert all(is_filter(f, lat) for f in fs)
        assert (maximal_representation_check(lat).holds
                == maximality(lat)[0])

    fm = FreeMonoid(2)
    fam = constructible_closure(fm, 1)
    lat = truncate_semilattice(fm, fam)
    fs = enumerate_filters(lat)
    assert len(fs) == 3
    assert all(is_filter(f, lat) for f in fs)
    assert (maximal_representation_check(lat).holds
            == maximality(lat)[0])
    print("PASS criterion 9: chain truncations give L+1 filters, "
          "the free pair gives 3, maximality matches independence")


def test_criterion_10_check_is_deterministic(capsys):
    t0 = time.time()
    for name in ("zplus", "cone2", "free2", "num23", "axb", "table5"):
        path = os.path.join(CONFIGS, name + ".cfg")
        code1 = cli_main(["check", path])
        first = capsys.readouterr().out
        code2 = cli_main(["check", path])
        second = capsys.readouterr().out
        assert code1 == code2 == 0, name
        assert first == second, name
    elapsed = time.time() - t0
    assert elapsed < 300.0
    with capsys.disabled():
        print("\nPASS criterion 10: check byte-identical across runs on six "
              "configs (%.1fs)" % elapsed)
