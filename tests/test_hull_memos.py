"""The hull memos a backend keeps (composite domains and atoms, and the
letter rows, element actions and ideal columns its windows keep) against
the bodies in ``hull_oracle`` that keep nothing, and the faults a memo
must never hide."""

from itertools import product
import os
import random

import pytest

from lefthull import (AxPlusB, FiniteTable, FreeMonoid, InvariantViolation,
                      NumericalSemigroup, PositiveCone, UsageError,
                      cyclic_table, hull, operators, run_checks)
from lefthull.config import (build_backend, config_generators, load_config,
                             parse_config)
from lefthull.hull import (OUT, ZERO, compose, evaluate_word, hull_graph,
                           identity_element, lambda_, materialize_element,
                           materialize_word, star, window_row)
from lefthull.ideals import calculus
from lefthull.operators import isometry_matrix, s_window, verify_relation

import hull_oracle as oracle

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
SHIPPED = sorted(n[:-4] for n in os.listdir(CONFIGS) if n.endswith(".cfg"))
# the lhbench inputs of the groups, conductor and intertwiner workloads
TEXTS = {
    "cyc12": "kind = table\nparams = cyclic 12\n",
    "cyc14": "kind = table\nparams = cyclic 14\n",
    "cyc48-g1": "kind = table\nparams = cyclic 48\ngenerators = 1\n",
    "num-10-11": "kind = numerical\nparams = 10 11\n",
    "axb-i": "kind = axb\ngenerators = (0,2) (0,3) (0,5)\n",
}
# the other lhbench inputs; free2, cone2 and axb are the shipped configs
MORE = {
    "axb-c": "kind = axb\ngenerators = (1,2) (0,3)\n",
    "num-3-5-7": "kind = numerical\nparams = 3 5 7\n",
    "num-4-5": "kind = numerical\nparams = 4 5\n",
}
SIZES = (1, 20, 30, 80)


def kept(sg):
    """What the backend keeps of atoms, and of letter rows and element
    actions on each of its windows."""
    windows = vars(sg).get("_windows", {}).values()
    return [vars(sg).get("_atoms")] + [w.rows for w in windows] + \
        [w.actions for w in windows]


def config(name):
    texts = dict(TEXTS, **MORE)
    return parse_config(texts[name]) if name in texts else \
        load_config(os.path.join(CONFIGS, name + ".cfg"))


def backend(name):
    cfg = config(name)
    sg = build_backend(cfg)
    return sg, config_generators(sg, cfg)


def sample_words(sg, generators, rng):
    """Three words of each length 1 to 4 over the window letters that are
    not generators; in a cyclic table every letter but the identity is
    one, so there the words run over the whole window."""
    gens = set(generators if generators is not None else sg.generators())
    pool = [x for x in sg.window_of_size(30) if x not in gens]
    if len(pool) < 2:
        pool = sg.window_of_size(30)
    return [[(rng.choice(pool), rng.choice(pool)) for _ in range(n)]
            for n in (1, 2, 3, 4) for _ in range(3)]


def assert_agrees(sg, words):
    for pairs in words:
        f = evaluate_word(sg, pairs)
        assert f == oracle.evaluate_word(sg, pairs)
        for size in SIZES:
            win = sg.window_of_size(size)
            element = oracle.materialize_element(sg, f, win)
            word = oracle.materialize_word(sg, pairs, win)
            for window in (win, list(win)):
                assert materialize_element(sg, f, window) == element
                assert materialize_word(sg, pairs, window) == word
            # both forms of the window read one kept map
            assert materialize_element(sg, f, list(win)) is \
                materialize_element(sg, f, win)


@pytest.mark.parametrize("name", SHIPPED + list(TEXTS))
def test_memos_agree_with_the_bodies_that_keep_nothing(name):
    sg, generators = backend(name)
    words = sample_words(sg, generators, random.Random(name))
    assert not any(kept(sg))
    assert_agrees(sg, words)
    assert all(kept(sg))
    # warm: the check battery fills every memo, then the same words again
    run_checks(sg, generators=generators)
    assert_agrees(sg, words)


BAD_LETTERS = [
    (FreeMonoid(2), (0,), (2,)),
    (PositiveCone(2), (1, 0), (-1, 0)),
    (NumericalSemigroup((2, 3)), 2, 1),
    (AxPlusB(), (1, 2), (0, 0)),
    (FiniteTable(cyclic_table(5)), 1, 5),
]


@pytest.mark.parametrize("sg, good, bad", BAD_LETTERS,
                         ids=[c[0].describe() for c in BAD_LETTERS])
def test_a_non_element_letter_is_refused_before_any_memo(sg, good, bad):
    sg = type(sg)(*sg._values())  # a fresh instance, no memos
    win = sg.window_of_size(20)
    for call in (lambda: evaluate_word(sg, [(good, good), (good, bad)]),
                 lambda: materialize_word(sg, [(good, good), (bad, good)],
                                          win),
                 lambda: hull_graph(sg, 2, generators=[good, bad])):
        with pytest.raises(UsageError, match="is not an element"):
            call()
        assert not any(kept(sg))


def test_a_non_injective_action_is_never_kept(monkeypatch):
    # act sends every point to the identity: the map is refused on every
    # call, so no later call can read it as a kept answer
    sg = PositiveCone(2)
    monkeypatch.setattr(PositiveCone, "act", lambda self, g, x: (0, 0))
    win = sg.window_of_size(20)
    for _ in range(2):
        with pytest.raises(InvariantViolation, match="not injective"):
            materialize_element(sg, identity_element(sg), win)
    assert win.actions == {}


def test_a_compose_fault_inside_an_atom_fails_hull_vs_oracle(monkeypatch):
    # compose answers star(lambda(1,0)) h with h: every atom whose first
    # letter is (1,0) is kept wrong, and the words that use one disagree
    # with the pointwise replay
    sg, generators = backend("cone2")
    bad = star(sg, lambda_(sg, (1, 0)))
    real = hull.compose
    monkeypatch.setattr(hull, "compose", lambda sg, f, h: h if f == bad
                        else real(sg, f, h))
    results = {r.name: r for r in run_checks(sg, generators=generators)}
    assert results["hull-vs-oracle"].status == "fail"
    assert "materialization mismatches" in results["hull-vs-oracle"].detail
    assert sg._atoms[(1, 0), (0, 1)] == lambda_(sg, (0, 1))


def assert_composes_agree(sg, generators, window, monkeypatch):
    """compose against the oracle on every (element, atom) pair of the
    length-3 hull graph, every (atom, element) pair, where elements of one
    grade differ in their domains, and every pair the intertwiner suite
    composes; the results of the suite's composes, ZERO among them where
    it occurs."""
    graph = hull_graph(sg, 3, generators)
    for f, row in zip(graph.elements, graph.succ):
        for a, j in zip(graph.atoms, row):
            assert compose(sg, f, a) == oracle.compose(sg, f, a) == \
                graph.elements[j]
    for f, a in product(graph.elements, dict.fromkeys(graph.atoms)):
        assert compose(sg, a, f) == oracle.compose(sg, a, f)
    results = []

    def checked(sg, f, h):
        g = compose(sg, f, h)
        assert g == oracle.compose(sg, f, h)
        results.append(g)
        return g

    with monkeypatch.context() as m:
        m.setattr(operators, "compose", checked)
        verify_relation(sg, "intertwiner", s_window(sg, size=window),
                        graph=graph)
    assert results
    return results


@pytest.mark.parametrize("name", SHIPPED + list(TEXTS) + list(MORE))
def test_compose_agrees_with_the_body_that_keeps_nothing(name, monkeypatch):
    cfg = config(name)
    sg, generators = backend(name)
    window = cfg.bounds.get("window", 20)
    assert not vars(sg).get("_domains")
    cold = assert_composes_agree(sg, generators, window, monkeypatch)
    assert sg._domains
    # warm: one whole check at length 3 fills the memo, then the same pairs
    run_checks(sg, length=3, window=window, generators=generators)
    assert assert_composes_agree(sg, generators, window, monkeypatch) == cold
    if name in ("free2", "axb", "axb-i", "axb-c"):
        assert ZERO in cold  # the suite's ZERO results are compared too


# a config, the letters of f = lambda(s) and h = star(lambda(t)), and the
# grade whose action raises: h's (the range g . dom h, which every pullback
# proves lies in S) or its inverse (the back-image of the meet, which only
# the default pullback of ax+b computes)
BROKEN_IMAGES = [("cone2", (0, 3), (2, 1), "range"),
                 ("axb", (1, 2), (1, 3), "range"),
                 ("axb", (1, 2), (1, 3), "preimage")]


@pytest.mark.parametrize("name, s, t, broken", BROKEN_IMAGES,
                         ids=["range", "axb-range", "preimage"])
def test_an_image_that_raises_stores_no_domain(name, s, t, broken,
                                               monkeypatch):
    # the action raises inside the pullback: the memo is left as it was,
    # and the next call works the domain out
    sg, generators = backend(name)
    hull_graph(sg, 2, generators)
    f, h = lambda_(sg, s), star(sg, lambda_(sg, t))
    kept = dict(sg._domains)
    assert kept and (f.dom, h) not in kept
    bad = h.grade if broken == "range" else sg.grading_group().inv(h.grade)
    real, calls = type(sg).act, []

    def act(self, g, x):
        calls.append(g)
        if g == bad:
            raise InvariantViolation("image broke")
        return real(self, g, x)

    with monkeypatch.context() as m:
        m.setattr(type(sg), "act", act)
        for _ in range(2):
            with pytest.raises(InvariantViolation, match="image broke"):
                compose(sg, f, h)
            assert sg._domains == kept
    assert calls[-1] == bad
    assert compose(sg, f, h) == oracle.compose(sg, f, h) != ZERO
    assert len(sg._domains) == len(kept) + 1


def assert_window_answers_agree(sg, generators, monkeypatch):
    """On windows of 20 and 30: every letter row of the identity and the
    letters, the isometries, covariance safe sets and cs-grade-one
    annihilated sets read off them, and the one-pair words; and the action
    and matrix of every element of the length-3 hull graph.  The covariance
    suite's safe set of a letter is the set of columns at which it catches
    a right side with that column flipped."""
    graph = hull_graph(sg, 3, generators)
    for size in (20, 30):
        W = sg.window_of_size(size)
        at = dict(zip(W, range(len(W))))
        ldiv = {}
        for a in graph.ends:
            assert window_row(sg, "_mul", a, W) == tuple(
                at.get(sg._mul(a, x), OUT) for x in W)
            ldiv[a] = window_row(sg, "_ldiv", a, W)
            assert ldiv[a] == tuple(None if (u := sg._ldiv(a, x)) is None
                                    else at.get(u, OUT) for x in W)
            assert isometry_matrix(sg, a, W) == \
                oracle.isometry_matrix(sg, a, W)
        for t, s in product(graph.ends, repeat=2):
            V = isometry_matrix(sg, s, W).matrix
            assert frozenset(j for j, i in V.entries.items()
                             if ldiv[t][i] is None) == \
                oracle.annihilated(sg, t, s, W)
            assert materialize_word(sg, [(t, s)], W) == \
                oracle.materialize_word(sg, [(t, s)], W)
        # the covariance suite on a one-member family: one safe set a letter
        full = calculus(sg).full()
        assert [oracle.covariance_compared(sg, s, full, W, monkeypatch)
                for s in graph.ends[1:]] == \
            [oracle.covariance_safe(sg, s, W) for s in graph.ends[1:]]
        for f in graph.elements:
            assert materialize_element(sg, f, W) == \
                oracle.materialize_element(sg, f, W)
            assert oracle.element_matrix(sg, f, W) == \
                oracle.hull_matrix(sg, f, W)


@pytest.mark.parametrize("name", SHIPPED + list(TEXTS) + list(MORE))
def test_window_answers_agree_with_the_bodies_that_keep_nothing(
        name, monkeypatch):
    cfg = config(name)
    sg, generators = backend(name)
    assert not vars(sg).get("_windows")
    assert_window_answers_agree(sg, generators, monkeypatch)
    # warm: one whole check at length 3 reads and fills the same windows
    run_checks(sg, length=3, window=cfg.bounds.get("window", 20),
               generators=generators)
    assert_window_answers_agree(sg, generators, monkeypatch)


def relabelled_z5():
    """Z/5 as a table, and the same group with the labels 1 and 2 swapped:
    equal windows and equal hull values, different maps."""
    swap = (0, 2, 1, 3, 4)
    t1 = FiniteTable(cyclic_table(5))
    t2 = FiniteTable(tuple(tuple(swap[t1.table[swap[a]][swap[b]]]
                                 for b in range(5)) for a in range(5)))
    return t1, t2


def test_a_window_answers_only_for_the_backend_that_built_it():
    # t1's window keeps t1's rows and actions; read through it, t2 still
    # gets its own, whether or not t2 has built an equal window
    t1, t2 = relabelled_z5()
    W1 = s_window(t1, size=5)
    word, f = [(0, 1)], lambda_(t1, 1)
    assert lambda_(t2, 1) == f

    def agrees(sg, W):
        assert materialize_word(sg, word, W) == \
            oracle.materialize_word(sg, word, W)
        assert materialize_element(sg, f, W) == \
            oracle.materialize_element(sg, f, W)
        assert isometry_matrix(sg, 1, W) == oracle.isometry_matrix(sg, 1, W)

    agrees(t1, W1)
    agrees(t2, W1)
    agrees(t2, s_window(t2, size=5))
    agrees(t2, W1)
    assert materialize_word(t1, word, W1).mapping[1] == 2
    assert materialize_word(t2, word, W1).mapping[1] == 4
