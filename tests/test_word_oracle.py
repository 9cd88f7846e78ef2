"""The prefix walk of the cs-grade-one suite against the word-by-word
oracle: the same instances, the same checked columns, the same safe set for
every word, and the same first failing word under an injected fault.  The
covariance suite's per-letter safe core against the step interpreter."""

import os

import pytest

from lefthull import InvariantViolation, calculus, constructible_closure
from lefthull import operators
from lefthull.cli import DEFAULTS
from lefthull.config import (build_backend, config_generators, load_config,
                             parse_config)
from lefthull.filters import truncate_semilattice
from lefthull.hull import hull_graph
from lefthull.matrices import Matrix
from lefthull.operators import s_window, verify_relation

from word_oracle import _safe_columns, word_by_word

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
SHIPPED = sorted(n[:-4] for n in os.listdir(CONFIGS) if n.endswith(".cfg"))
TEXTS = {
    "axb-i": "kind = axb\ngenerators = (0,2) (0,3) (0,5)\n",
    "cyc12": "kind = table\nparams = cyclic 12\n",
    "cyc14": "kind = table\nparams = cyclic 14\n",
    "cyc48-g1": "kind = table\nparams = cyclic 48\ngenerators = 1\n",
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


def suite_safe_sets(monkeypatch, sg, kind, W, **bounds):
    """The report of a suite and the column set of each comparison."""
    seen = []
    agree = Matrix.columns_agree

    def spy(self, other, cols):
        seen.append(frozenset(cols))
        return agree(self, other, cols)

    with monkeypatch.context() as m:
        m.setattr(Matrix, "columns_agree", spy)
        rep = verify_relation(sg, kind, W, **bounds)
    return rep, seen


@pytest.mark.parametrize("name, length", [(n, None) for n in SHIPPED] + [
    ("free2", 1), ("free2", 3), ("cone2", 3), ("axb", 3),
    ("axb-i", 2), ("axb-i", 3), ("cyc12", 2), ("cyc14", 2),
    ("cyc48-g1", 2)])
def test_prefix_walk_matches_word_by_word(name, length, monkeypatch):
    sg, generators, W, length = suite_inputs(name, length)
    rep, seen = suite_safe_sets(monkeypatch, sg, "cs-grade-one", W,
                                graph=hull_graph(sg, length, generators),
                                generators=generators)
    count, checked, safes = word_by_word(sg, W, length, generators)
    assert (rep.count, rep.checked_columns) == (count, checked)
    assert seen == safes
    assert count > 0


def test_prefix_walk_of_length_zero_checks_nothing(monkeypatch):
    sg, generators, W, _ = suite_inputs("free2")
    rep, seen = suite_safe_sets(monkeypatch, sg, "cs-grade-one", W,
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
    rep, seen = suite_safe_sets(monkeypatch, sg, "covariance", W,
                                lattice=truncate_semilattice(sg, family),
                                generators=generators)
    assert seen == want
    assert (rep.count, rep.checked_columns) == \
        (len(want), sum(map(len, want)))
    assert rep.count > 0


# name -> (length, the first failing word), None for the config's own
FAULT_CASES = {
    "free2": (None, None), "cone2": (None, None),
    # the successor of this word is shared by several prefixes
    "axb-i": (3, "(0,1)*.(0,2) (0,2)*.(0,1)")}


@pytest.mark.parametrize("name", FAULT_CASES)
def test_fault_names_the_same_first_word(name, monkeypatch):
    length, word = FAULT_CASES[name]
    sg, generators, W, length = suite_inputs(name, length)
    full = calculus(sg).full()
    projection = operators.char_projection

    def faulty(sg, X, W):
        # the last member column of each proper domain is dropped
        op = projection(sg, X, W)
        entries = dict(op.matrix.entries)
        if X != full and entries:
            del entries[max(entries)]
        return operators.TruncatedOperator(
            Matrix(len(W), len(W), entries), op.safe)

    monkeypatch.setattr(operators, "char_projection", faulty)
    with pytest.raises(InvariantViolation) as walked:
        verify_relation(sg, "cs-grade-one", W,
                        graph=hull_graph(sg, length, generators),
                        generators=generators)
    with pytest.raises(InvariantViolation) as oracle:
        word_by_word(sg, W, length, generators)
    assert str(walked.value) == str(oracle.value)
    # the fault is not caught by the first word checked
    first = "%s*.%s" % (sg.render(sg.identity()), sg.render(sg.identity()))
    assert not str(oracle.value).endswith("word " + first)
    if word is not None:
        assert str(oracle.value).endswith("word " + word)
