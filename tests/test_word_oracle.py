"""The walks of the cs-grade-one suite against each other.  The level walk
against the word-by-word oracle: the same instances, the same checked
columns and the same safe set for every word.  The suite's state walk
against the level walk: the same instances and checked columns, and one
comparison per distinct state of a level, in order of first occurrence.
Under a fault injected into the window's kept columns or letter rows every
walk names the same first failing word.  The covariance suite's per-letter
safe core against the step interpreter."""

import os

import pytest

from lefthull import InvariantViolation, calculus, constructible_closure
from lefthull import operators
from lefthull.cli import DEFAULTS
from lefthull.config import (build_backend, config_generators, load_config,
                             parse_config)
from lefthull.filters import truncate_semilattice
from lefthull.hull import ZERO, hull_graph, window_columns, window_row
from lefthull.matrices import Matrix
from lefthull.operators import s_window, verify_relation

from hull_oracle import covariance_compared
from word_oracle import _safe_columns, level_walk, word_by_word

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
SHIPPED = sorted(n[:-4] for n in os.listdir(CONFIGS) if n.endswith(".cfg"))
TEXTS = {
    "axb-i": "kind = axb\ngenerators = (0,2) (0,3) (0,5)\n",
    "cyc12": "kind = table\nparams = cyclic 12\n",
    "cyc14": "kind = table\nparams = cyclic 14\n",
    "cyc48-g1": "kind = table\nparams = cyclic 48\ngenerators = 1\n",
    "cyc9": "kind = table\nparams = cyclic 9\n",
    # free2 and cone2 at length 3
    "free2-l3": "kind = free\nparams = 2\n"
                "bounds = depth:2 length:3 window:20 seed:7\n",
    "cone2-l3": "kind = cone\nparams = 2\n"
                "bounds = depth:2 length:3 window:25 seed:7\n",
    "axb-c": "kind = axb\ngenerators = (1,2) (0,3)\n",
    "num-10-11": "kind = numerical\nparams = 10 11\n",
}


def config_bounds(name):
    """Backend, generators and bounds of a config."""
    if name in TEXTS:
        cfg = parse_config(TEXTS[name])
    else:
        cfg = load_config(os.path.join(CONFIGS, name + ".cfg"))
    sg = build_backend(cfg)
    return sg, config_generators(sg, cfg), dict(DEFAULTS, **cfg.bounds)


def suite_inputs(name, length=None):
    """Backend, generators, window and length of a config at its bounds."""
    sg, generators, bounds = config_bounds(name)
    return (sg, generators, s_window(sg, size=bounds["window"]),
            bounds["length"] if length is None else length)


def spied_safe_sets(monkeypatch, walk, *args, **kwargs):
    """What ``walk`` returns and the column set of each comparison it
    makes."""
    seen = []
    agree = Matrix.columns_agree

    def spy(self, other, cols):
        seen.append(frozenset(cols))
        return agree(self, other, cols)

    with monkeypatch.context() as m:
        m.setattr(Matrix, "columns_agree", spy)
        out = walk(*args, **kwargs)
    return out, seen


PREFIX_CASES = [(n, None) for n in SHIPPED] + [
    ("free2", 1), ("free2", 3), ("cone2", 3), ("axb", 3),
    ("axb-i", 2), ("axb-i", 3), ("cyc12", 2), ("cyc14", 2),
    ("cyc48-g1", 2)]


@pytest.mark.parametrize("name, length", PREFIX_CASES)
def test_prefix_walk_matches_word_by_word(name, length, monkeypatch):
    sg, generators, W, length = suite_inputs(name, length)
    (rep, _), seen = spied_safe_sets(monkeypatch, level_walk, sg, W,
                                     hull_graph(sg, length, generators))
    count, checked, safes = word_by_word(sg, W, length, generators)
    assert (rep.count, rep.checked_columns) == (count, checked)
    assert seen == safes
    assert count > 0


# cyclic 9 at length 3 has 1,010,100 words, 59,787 of grade one
@pytest.mark.parametrize("name, length", PREFIX_CASES + [("cyc9", 3)])
def test_merged_walk_matches_level_walk(name, length, monkeypatch):
    sg, generators, W, length = suite_inputs(name, length)
    graph = hull_graph(sg, length, generators)
    seen = []
    agrees = operators._agrees

    def spy(P, X, S):
        # the product tuple as matrix entries, the safe bitset as columns
        n = len(P) - 1
        seen.append((frozenset((c, P[c]) for c in range(n) if P[c] != n),
                     frozenset(c for c in range(n) if S >> c & 1)))
        return agrees(P, X, S)

    with monkeypatch.context() as m:
        m.setattr(operators, "_agrees", spy)
        rep = verify_relation(sg, "cs-grade-one", W, graph=graph,
                              generators=generators)
    want, states = level_walk(sg, W, graph)
    assert (rep.count, rep.checked_columns) == \
        (want.count, want.checked_columns)
    # every repeat of a (level, state) is dropped; the rest keep their order
    first = list(dict.fromkeys(states))
    assert [S for _, S in seen] == [S for *_, S in first]
    assert seen == [(P, S) for _, _, P, S in first]
    if name == "cyc9":
        assert (want.count, len(states)) == (59787, 59787)
        assert len(first) < len(states) // 100


def test_prefix_walk_of_length_zero_checks_nothing(monkeypatch):
    sg, generators, W, _ = suite_inputs("free2")
    seen = []
    monkeypatch.setattr(operators, "_agrees",
                        lambda *args: seen.append(args) or True)
    rep = verify_relation(sg, "cs-grade-one", W,
                          graph=hull_graph(sg, 0, generators),
                          generators=generators)
    assert (rep.count, rep.checked_columns, seen) == (0, 0, [])
    assert word_by_word(sg, W, 0, generators) == (0, 0, [])


@pytest.mark.parametrize("text, count", [
    # a repeated letter keeps its own atoms: the ends 0 2 2 give 9 + 81
    # words, 38 of grade one; with the identity as the letter, the two
    # ends give 4 + 16 words, all of grade one
    ("kind = numerical\nparams = 2 3\ngenerators = 2 2\n", 38),
    ("kind = axb\ngenerators = (0,1)\n", 20),
    ("kind = table\nparams = cyclic 6\ngenerators = 0\n", 20)])
def test_repeated_letters_keep_their_words(text, count):
    cfg = parse_config(text)
    sg = build_backend(cfg)
    generators = config_generators(sg, cfg)
    W = s_window(sg, size=DEFAULTS["window"])
    rep = verify_relation(sg, "cs-grade-one", W,
                          graph=hull_graph(sg, 2, generators),
                          generators=generators)
    assert rep.count == count
    assert (rep.count, rep.checked_columns) == \
        word_by_word(sg, W, 2, generators)[:2]


@pytest.mark.parametrize("name, depth", [(n, None) for n in SHIPPED] + [
    ("axb-c", 3), ("num-10-11", None)])
def test_covariance_safe_core_matches_step_interpreter(name, depth,
                                                       monkeypatch):
    # the safe core of V_s e_X V_s* = e_{sX} is one column set per letter
    sg, generators, bounds = config_bounds(name)
    W = s_window(sg, size=bounds["window"])
    family = constructible_closure(sg, depth or bounds["depth"], generators)
    letters = generators if generators is not None else sg.generators()
    want = [_safe_columns(sg, W, (("div", s), ("proj", X), ("mul", s)))
            for s in letters for X in family]
    # the columns compared at each instance: those where a flipped column
    # of e_{sX} is caught
    seen = [covariance_compared(sg, s, X, W, monkeypatch)
            for s in letters for X in family]
    assert seen == want
    rep = verify_relation(sg, "covariance", W,
                          lattice=truncate_semilattice(sg, family),
                          generators=generators)
    assert (rep.count, rep.checked_columns) == \
        (len(want), sum(map(len, want)))
    assert rep.count > 0


def inject(sg, W, graph, fault):
    """Write ``fault`` into the answers the window W keeps, which the suite
    and every walk read.  A domain rendering drops the last member column
    of that domain of an element of ``graph``, and None that of every
    proper domain.  A letter pair (g, h) gives g the ``_mul`` and ``_ldiv``
    rows of h, so V_g and V_g* are those of h: in a group every domain is
    S, so only the letter rows can carry a fault."""
    if isinstance(fault, tuple):
        g, h = fault
        for op in ("_mul", "_ldiv"):
            W.rows[op, g] = window_row(sg, op, h, W)
        return
    cal = calculus(sg)
    for f in graph.elements:
        X = None if f is ZERO else f.dom
        if X is not None and (X != cal.full() if fault is None
                              else cal.render(X) == fault):
            W.columns[X] = window_columns(sg, X, W)[:-1]


# name -> (length, the first failing word, the fault), None for the
# config's own length, for no word in particular and for every proper domain
FAULT_CASES = {
    "free2": (None, None, None), "cone2": (None, None, None),
    # the successor of this word is shared by several prefixes
    "axb-i": (3, "(0,1)*.(0,2) (0,2)*.(0,1)", None),
    # a word of two pairs fails first, and the walk goes on to length 3
    "free2-l3": (None, "1*.a a*.1", None),
    "cone2-l3": (None, "(0,0)*.(1,0) (1,0)*.(0,0)", None),
    # V_1 built as V_7: the pairs 0*.1 and 1*.2 form one class of atom
    # lambda(1) with product V_7, apart from the pairs of atom lambda(7),
    # and 0*.11 is the first of ten pairs in its class
    "cyc12": (2, "0*.1 0*.11", (1, 7))}


@pytest.mark.parametrize("name", FAULT_CASES)
def test_fault_names_the_same_first_word(name, monkeypatch):
    length, word, fault = FAULT_CASES[name]
    sg, generators, W, length = suite_inputs(name, length)
    graph = hull_graph(sg, length, generators)
    inject(sg, W, graph, fault)
    with pytest.raises(InvariantViolation) as walked:
        verify_relation(sg, "cs-grade-one", W, graph=graph,
                        generators=generators)
    with pytest.raises(InvariantViolation) as oracle:
        word_by_word(sg, W, length, generators)
    assert str(walked.value) == str(oracle.value)
    # the fault is not caught by the first word checked
    first = "%s*.%s" % (sg.render(sg.identity()), sg.render(sg.identity()))
    assert not str(oracle.value).endswith("word " + first)
    if word is not None:
        assert str(oracle.value).endswith("word " + word)


# name, length, the fault (see inject) and the first failing word: a word
# whose state a later word of its level reaches
SHARED_FAULTS = [
    ("cone2", 3, "(1,1)+S", "(0,0)*.(1,0) (1,0)*.(0,1) (0,1)*.(0,0)"),
    ("num23", 3, "{5,6,7,8,...}", "0*.2 2*.3 3*.0"),
    # 0*.1 3*.2 reaches the state of 0*.1 0*.11 through the class of 0*.11
    ("cyc12", 2, (1, 7), "0*.1 0*.11")]


@pytest.mark.parametrize("name, length, fault, word", SHARED_FAULTS)
def test_fault_on_a_shared_state_names_the_same_first_word(
        name, length, fault, word, monkeypatch):
    sg, generators, W, length = suite_inputs(name, length)
    graph = hull_graph(sg, length, generators)
    inject(sg, W, graph, fault)
    with monkeypatch.context() as m:
        # the states of the faulty walk, every comparison passed
        m.setattr(Matrix, "columns_agree", lambda *args: True)
        _, states = level_walk(sg, W, graph)
    messages = []
    for walk in (lambda: verify_relation(sg, "cs-grade-one", W, graph=graph,
                                         generators=generators),
                 lambda: level_walk(sg, W, graph),
                 lambda: word_by_word(sg, W, length, generators)):
        with pytest.raises(InvariantViolation) as failed:
            walk()
        messages.append(str(failed.value))
    assert messages == [messages[0]] * 3
    assert messages[0].endswith("word " + word)
    # the level walk fails at its k-th check, on the first of several words
    # of its level with that state
    seen = []
    agree = Matrix.columns_agree

    def spy(self, other, cols):
        seen.append(cols)
        return agree(self, other, cols)

    with monkeypatch.context() as m:
        m.setattr(Matrix, "columns_agree", spy)
        with pytest.raises(InvariantViolation):
            level_walk(sg, W, graph)
    k = len(seen) - 1
    assert states.index(states[k]) == k
    assert states[k][0] == len(word.split()) and states[k] in states[k + 1:]
