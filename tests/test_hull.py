"""Inverse-hull algebra vs the pointwise materialization oracle."""

import os
import random

import pytest

from lefthull import hull
from lefthull import (AxPlusB, EMPTY, FiniteTable, FreeMonoid,
                      InvariantViolation, NumericalSemigroup, PositiveCone,
                      UnsupportedOperation, UsageError, Verdict,
                      constructible_closure, reachable_ideals, cyclic_table)
from lefthull.hull import (ZERO, HullElement, PartialMap,
                           clifford_normal_form,
                           compose, enumerate_hull, estar_unitary_report,
                           evaluate_word, hull_graph,
                           identity_element, is_idempotent, lambda_,
                           maps_agree, materialize_element, materialize_word,
                           random_word, recompose, star)
from lefthull.config import (build_backend, config_generators, load_config,
                             parse_config)

from hull_oracle import apply_element, frontier_hull

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
SHIPPED = sorted(n[:-4] for n in os.listdir(CONFIGS) if n.endswith(".cfg"))
TEXTS = {
    "axb-i": "kind = axb\ngenerators = (0,2) (0,3) (0,5)\n",
    "cyc12": "kind = table\nparams = cyclic 12\n",
    "cyc14": "kind = table\nparams = cyclic 14\n",
}

BACKENDS = [
    FreeMonoid(2),
    PositiveCone(1),
    PositiveCone(2),
    NumericalSemigroup((2, 3)),
    NumericalSemigroup((3, 5)),
    AxPlusB(),
    FiniteTable(cyclic_table(5)),
]


def ids(sg):
    return sg.describe()


def test_frozen_lambda_and_star():
    cone = PositiveCone(1)
    two = lambda_(cone, (2,))
    assert two == HullElement((2,), (0,))
    assert star(cone, two) == HullElement((-2,), (2,))
    assert star(cone, star(cone, two)) == two
    assert star(cone, ZERO) is ZERO
    assert lambda_(cone, (0,)) == identity_element(cone)


def test_frozen_compositions():
    cone = PositiveCone(1)
    one = lambda_(cone, (1,))
    assert compose(cone, star(cone, one), one) == identity_element(cone)
    assert compose(cone, lambda_(cone, (2,)), star(cone, one)) == \
        HullElement((1,), (1,))
    fm = FreeMonoid(2)
    assert compose(fm, star(fm, lambda_(fm, (0,))), lambda_(fm, (1,))) is ZERO
    assert compose(fm, ZERO, lambda_(fm, (1,))) is ZERO


def test_frozen_word_values():
    cone = PositiveCone(1)
    assert evaluate_word(cone, [((1,), (1,))]) == identity_element(cone)
    assert evaluate_word(cone, [((1,), (2,))]) == HullElement((1,), (0,))
    num = NumericalSemigroup((2, 3))
    f = evaluate_word(num, [(2, 3)])
    assert f == HullElement(1, (1, 0))  # grade +1 on {2,3,4,...}


def test_zero_dom_is_rejected():
    with pytest.raises(UsageError):
        HullElement(0, EMPTY)


def test_materialize_frozen():
    cone = PositiveCone(1)
    win = [(i,) for i in range(5)]
    ident = materialize_element(cone, identity_element(cone), win)
    assert ident.mapping == {(i,): (i,) for i in range(5)}
    assert not ident.boundary
    assert materialize_element(cone, ZERO, win).mapping == {}

    num = NumericalSemigroup((2, 3))
    win = num.window(12)
    oracle = materialize_word(num, [(2, 3)], win)
    for x, y in [(2, 3), (3, 4), (4, 5), (5, 6)]:
        assert oracle.mapping[x] == y
    assert 0 not in oracle.mapping and 0 not in oracle.boundary  # undefined
    assert 12 in oracle.boundary  # lands on 13, oob


def test_partial_map_injectivity_guard():
    with pytest.raises(InvariantViolation):
        PartialMap({1: 5, 2: 5}, frozenset())


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_algebra_matches_oracle(sg):
    rng = random.Random(201)
    win = sg.window_of_size(40)
    for _ in range(120):
        w = random_word(sg, rng, rng.randrange(1, 5))
        f = evaluate_word(sg, w)
        assert maps_agree(materialize_element(sg, f, win),
                          materialize_word(sg, w, win)), w


def test_choice_draws_the_stream_of_randrange():
    # rng.choice(seq) and seq[rng.randrange(len(seq))] both draw
    # _randbelow(len(seq)), so the seeded samples of random_word,
    # star_cancellation and estar_unitary_report stay where they were
    sizes = (1, 2, 3, 7, 10, 20, 49, 64, 100, 285, 1 << 40)
    for seed in range(300):
        a, b = random.Random(seed), random.Random(seed)
        for n in sizes:
            seq = range(n)
            assert [a.choice(seq) for _ in range(4)] == \
                [seq[b.randrange(n)] for _ in range(4)]
        assert a.getstate() == b.getstate()
    for sg in BACKENDS:
        win = sg.window_of_size(10)
        for seed in range(50):
            a, b = random.Random(seed), random.Random(seed)
            for k in (1, 2, 4):
                assert random_word(sg, a, k) == [
                    (win[b.randrange(len(win))], win[b.randrange(len(win))])
                    for _ in range(k)]


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_inverse_semigroup_axioms(sg):
    rng = random.Random(202)
    fs = [evaluate_word(sg, random_word(sg, rng, rng.randrange(1, 4)))
          for _ in range(40)]
    for f in fs:
        assert star(sg, star(sg, f)) == f
        assert compose(sg, f, compose(sg, star(sg, f), f)) == f
        assert is_idempotent(sg, compose(sg, f, star(sg, f)))
        assert is_idempotent(sg, compose(sg, star(sg, f), f))
    idems = [compose(sg, star(sg, f), f) for f in fs[:12]]
    for e in idems:
        for d in idems:
            assert compose(sg, e, d) == compose(sg, d, e)
    for f in fs[:10]:
        for h in fs[:10]:
            assert star(sg, compose(sg, f, h)) == \
                compose(sg, star(sg, h), star(sg, f))


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_star_lambda_pairs_detect_equality(sg):
    rng = random.Random(203)
    win = sg.window_of_size(30)
    ident = identity_element(sg)
    for _ in range(200):
        s = win[rng.randrange(len(win))]
        t = win[rng.randrange(len(win))]
        value = compose(sg, star(sg, lambda_(sg, t)), lambda_(sg, s))
        assert (value == ident) == (s == t)


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_idempotent_iff_trivial_grade(sg):
    G = sg.grading_group()
    for f in enumerate_hull(sg, 2):
        if f is ZERO:
            assert is_idempotent(sg, f)
            continue
        assert is_idempotent(sg, f) == (f.grade == G.identity())


def test_enumerate_hull_frozen():
    cone = PositiveCone(1)
    got = enumerate_hull(cone, 1)
    assert set(got) == {identity_element(cone), HullElement((1,), (0,)),
                        HullElement((-1,), (1,))}
    fm = FreeMonoid(2)
    assert ZERO in enumerate_hull(fm, 1)
    num = NumericalSemigroup((2, 3))
    cal_principal = lambda X: __import__(
        "lefthull").ideals.calculus(num).principal_witness(X)
    assert any(f is not ZERO and cal_principal(f.dom) is None
               for f in enumerate_hull(num, 2))


def test_enumerate_hull_deterministic_and_growing():
    for sg in BACKENDS:
        a = enumerate_hull(sg, 2)
        assert a == enumerate_hull(sg, 2)
        assert set(enumerate_hull(sg, 1)) <= set(a)


@pytest.mark.parametrize("name, length", [
    (n, L) for n in SHIPPED for L in range(4)] + [
    (n, L) for n in TEXTS for L in (2, 3)])
def test_hull_graph_matches_frontier_search(name, length, monkeypatch):
    cfg = parse_config(TEXTS[name]) if name in TEXTS else \
        load_config(os.path.join(CONFIGS, name + ".cfg"))
    sg = build_backend(cfg)
    generators = config_generators(sg, cfg)
    calls = []
    with monkeypatch.context() as m:
        m.setattr(hull, "compose", lambda *a: calls.append(1) or compose(*a))
        graph = hull_graph(sg, length, generators)
    atoms, levels, ordered = frontier_hull(sg, length, generators)
    assert graph.atoms == tuple(atoms)
    assert graph.elements == tuple(f for level in levels for f in level)
    assert graph.index == {f: i for i, f in enumerate(graph.elements)}
    # a full row for each element first reached below length, and no more
    assert len(graph.succ) == sum(map(len, levels[:length]))
    # one compose per atom and per (nonzero row element, distinct atom)
    rows = sum(f is not ZERO for f in graph.elements[:len(graph.succ)])
    assert len(calls) == len(atoms) + rows * len(set(atoms))
    if name in ("cyc12", "cyc14"):
        # every element a letter: n^2 pairs give the n atoms lambda(t^-1 s)
        assert len(set(atoms)) == len(set(graph.ends)) < len(atoms)
    for i, row in enumerate(graph.succ):
        f = graph.elements[i]
        assert [graph.elements[j] for j in row] == \
            [compose(sg, f, a) for a in atoms]
    assert enumerate_hull(sg, length, generators) == ordered


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_zero_presence_matches_reversibility(sg):
    from lefthull.group_image import is_left_reversible
    rev = is_left_reversible(sg).holds
    present = any(ZERO in enumerate_hull(sg, L) for L in (1, 2))
    assert present == (not rev)


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_idempotents_mirror_ideal_family(sg):
    # domains of length <= L words are exactly the depth-L reachable ideals,
    # and every reachable ideal is realised by an idempotent w*w by length 2L
    for L in (1, 2):
        fam = set(reachable_ideals(sg, L))
        small = {f.dom for f in enumerate_hull(sg, L)
                 if f is not ZERO and is_idempotent(sg, f)}
        assert small <= fam
        big = {f.dom for f in enumerate_hull(sg, 2 * L)
               if f is not ZERO and is_idempotent(sg, f)}
        assert fam - {EMPTY} <= big
        assert big <= set(reachable_ideals(sg, 2 * L)) - {EMPTY}
        # the closure only adds meets, each realised by some longer word
        assert fam <= set(constructible_closure(sg, L))


def test_clifford_normal_form_frozen():
    cone = PositiveCone(2)
    f = compose(cone, star(cone, lambda_(cone, (1, 0))),
                lambda_(cone, (0, 1)))
    assert clifford_normal_form(cone, f) == ((0, 1), (1, 0))
    cone1 = PositiveCone(1)
    assert clifford_normal_form(cone1, identity_element(cone1)) == ((0,), (0,))
    assert clifford_normal_form(cone1, lambda_(cone1, (3,))) == ((3,), (0,))


def test_clifford_normal_form_errors():
    num = NumericalSemigroup((2, 3))
    with pytest.raises(UnsupportedOperation,
                       match=r"counterexample 2, 3: meet \{5,6,7,8,\.\.\.\}$"):
        clifford_normal_form(num, identity_element(num))
    cone = PositiveCone(1)
    with pytest.raises(UsageError):
        clifford_normal_form(cone, ZERO)


@pytest.mark.parametrize("sg", [FreeMonoid(2), PositiveCone(2), AxPlusB(),
                                NumericalSemigroup((2,)),
                                FiniteTable(cyclic_table(5))], ids=ids)
def test_clifford_normal_form_roundtrip(sg):
    rng = random.Random(204)
    done = 0
    while done < 120:
        f = evaluate_word(sg, random_word(sg, rng, rng.randrange(1, 4)))
        if f is ZERO:
            continue
        p, q = clifford_normal_form(sg, f)
        assert sg.contains(p) and sg.contains(q)
        assert recompose(sg, p, q) == f
        done += 1


def lifts(sg, f, s):
    """f lambda(s) = lambda(f(s)) for s in dom(f), in the algebra and
    pointwise on a window."""
    lhs = compose(sg, f, lambda_(sg, s))
    rhs = lambda_(sg, apply_element(sg, f, s))
    win = sg.window_of_size(20)
    return lhs == rhs and maps_agree(materialize_element(sg, lhs, win),
                                     materialize_element(sg, rhs, win))


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_lift_relation(sg):
    rng = random.Random(205)
    win = sg.window_of_size(25)
    ident = identity_element(sg)
    for s in win[:6]:
        assert lifts(sg, ident, s)
    done = 0
    while done < 60:
        f = evaluate_word(sg, random_word(sg, rng, rng.randrange(1, 4)))
        if f is ZERO:
            continue
        inside = [s for s in win if apply_element(sg, f, s) is not None]
        if not inside:
            continue
        s = inside[rng.randrange(len(inside))]
        assert lifts(sg, f, s)
        done += 1


def test_lift_relation_frozen_and_errors():
    cone = PositiveCone(1)
    f = HullElement((-1,), (1,))  # star of lambda(1)
    assert lifts(cone, f, (3,))
    assert compose(cone, f, lambda_(cone, (3,))) == lambda_(cone, (2,))
    assert apply_element(cone, f, (0,)) is None  # 0 outside dom


def estar_at(sg, sample, length=2, generators=None):
    return estar_unitary_report(sg, hull_graph(sg, length, generators),
                                sample=sample)


def test_estar_reports():
    r = estar_at(PositiveCone(1), 80)
    assert r.mode == "E-unitary" and not r.zero_present
    assert r.premise_hits > 0
    r = estar_at(NumericalSemigroup((2, 3)), 80)
    assert r.mode == "E-unitary" and not r.zero_present
    r = estar_at(FreeMonoid(2), 80, length=1)
    assert r.mode == "strongly E*-unitary" and r.zero_present
    r = estar_at(AxPlusB(), 60)
    assert r.mode == "strongly E*-unitary" and r.zero_present
    # on the letter a alone the free monoid's hull never reaches ZERO
    r = estar_at(FreeMonoid(2), 40, generators=((0,),))
    assert r.mode == "strongly E*-unitary" and not r.zero_present


def idempotents_blind_compose(sg, f, h):
    """compose with a fault: h for any two nonzero idempotents f and h,
    whatever f's domain."""
    if f is not ZERO and h is not ZERO and is_idempotent(sg, f) \
            and is_idempotent(sg, h):
        return h
    return compose(sg, f, h)


@pytest.mark.parametrize("sg", [FreeMonoid(2), NumericalSemigroup((2, 3)),
                                AxPlusB()], ids=ids)
def test_estar_catches_a_compose_blind_to_domains(sg, monkeypatch):
    # the fault makes compose(f, e) = e for an idempotent f whose domain
    # misses part of e's: f is idempotent, and compose(f, e) materializes
    # like e, so only f's own action on e's domain shows the fault
    graph = hull_graph(sg, 2)
    assert estar_at(sg, 60).premise_hits
    monkeypatch.setattr(hull, "compose", idempotents_blind_compose)
    with pytest.raises(InvariantViolation, match="E\\*-unitarity"):
        estar_unitary_report(sg, graph, sample=60)


def test_normal_form_replay_catches_a_wrong_q(monkeypatch):
    # principal_witness answers q (0,2) for the ideal qS, a generator of a
    # smaller ideal, and compose shares the fault, answering f whatever it
    # is given: only the pointwise replay of lambda(p) lambda(q)* sees q
    sg = AxPlusB()
    f = compose(sg, lambda_(sg, (1, 3)), star(sg, lambda_(sg, (0, 2))))
    assert clifford_normal_form(sg, f) == ((1, 3), (0, 2))
    cal = hull.calculus(sg)
    witness = cal.principal_witness
    monkeypatch.setattr(cal, "principal_witness",
                        lambda X: sg.multiply(witness(X), (0, 2)))
    monkeypatch.setattr(hull, "compose", lambda sg, a, b: f)
    with pytest.raises(InvariantViolation, match="does not recompose"):
        clifford_normal_form(sg, f)
    # both failures render their values: on <2,3>, with the principality
    # test passed by fiat, the domain 2S is the pair of ints (4, 4), which
    # prints as {2,4,5,6,...}, and the grade 1 as +1
    num = NumericalSemigroup((2, 3))
    g = HullElement(1, hull.calculus(num).principal(2))
    monkeypatch.setattr(hull, "clifford_check", lambda sg: Verdict(True))
    ncal = hull.calculus(num)
    monkeypatch.setattr(ncal, "principal_witness", lambda X: None)
    with pytest.raises(InvariantViolation, match=r"^domain \{2,4,5,6,\.\.\.\} "
                                                 r"is not principal on"):
        clifford_normal_form(num, g)
    monkeypatch.setattr(ncal, "principal_witness", lambda X: 4)
    with pytest.raises(InvariantViolation,
                       match=r"^normal form \(5, 4\) does not recompose to "
                             r"\+1 \| \{2,4,5,6,\.\.\.\}$"):
        clifford_normal_form(num, g)
