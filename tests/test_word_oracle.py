"""The prefix walk of the cs-grade-one suite against the word-by-word
oracle: the same instances, the same checked columns, the same safe set for
every word, and the same first failing word under an injected fault."""

import os

import pytest

from lefthull import InvariantViolation, calculus
from lefthull import operators
from lefthull.cli import DEFAULTS
from lefthull.config import (build_backend, config_generators, load_config,
                             parse_config)
from lefthull.matrices import Matrix
from lefthull.operators import s_window, verify_relation

from word_oracle import word_by_word

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
SHIPPED = sorted(n[:-4] for n in os.listdir(CONFIGS) if n.endswith(".cfg"))
TEXTS = {
    "axb-i": "kind = axb\ngenerators = (0,2) (0,3) (0,5)\n",
    "cyc12": "kind = table\nparams = cyclic 12\n",
    "cyc48-g1": "kind = table\nparams = cyclic 48\ngenerators = 1\n",
}


def suite_inputs(name, length=None):
    """Backend, generators, window and length of a config at its bounds."""
    if name in TEXTS:
        cfg = parse_config(TEXTS[name])
    else:
        cfg = load_config(os.path.join(CONFIGS, name + ".cfg"))
    sg = build_backend(cfg)
    bounds = dict(DEFAULTS, **cfg.bounds)
    return (sg, config_generators(sg, cfg), s_window(sg, size=bounds["window"]),
            bounds["length"] if length is None else length)


def suite_safe_sets(monkeypatch, sg, W, length, generators):
    """The report of the suite and the column set of each comparison."""
    seen = []
    agree = Matrix.columns_agree

    def spy(self, other, cols):
        seen.append(frozenset(cols))
        return agree(self, other, cols)

    with monkeypatch.context() as m:
        m.setattr(Matrix, "columns_agree", spy)
        rep = verify_relation(sg, "cs-grade-one", W, length=length,
                              generators=generators)
    return rep, seen


@pytest.mark.parametrize("name, length", [(n, None) for n in SHIPPED] + [
    ("free2", 3), ("cone2", 3), ("axb", 3),
    ("axb-i", 2), ("cyc12", 2), ("cyc48-g1", 2)])
def test_prefix_walk_matches_word_by_word(name, length, monkeypatch):
    sg, generators, W, length = suite_inputs(name, length)
    rep, seen = suite_safe_sets(monkeypatch, sg, W, length, generators)
    count, checked, safes = word_by_word(sg, W, length, generators)
    assert (rep.count, rep.checked_columns) == (count, checked)
    assert seen == safes
    assert count > 0


@pytest.mark.parametrize("name", ["free2", "cone2"])
def test_fault_names_the_same_first_word(name, monkeypatch):
    sg, generators, W, length = suite_inputs(name)
    full = calculus(sg).full()
    projection = operators.char_projection

    def faulty(sg, X, W):
        # the last member column of each proper domain is dropped
        op = projection(sg, X, W)
        entries = dict(op.matrix.entries)
        if X != full and entries:
            del entries[max(entries)]
        return operators.TruncatedOperator(
            Matrix(len(W), len(W), entries), W, W, op.safe)

    monkeypatch.setattr(operators, "char_projection", faulty)
    with pytest.raises(InvariantViolation) as walked:
        verify_relation(sg, "cs-grade-one", W, length=length,
                        generators=generators)
    with pytest.raises(InvariantViolation) as oracle:
        word_by_word(sg, W, length, generators)
    assert str(walked.value) == str(oracle.value)
    # the fault is not caught by the first word checked
    first = "%s*.%s" % (sg.render(sg.identity()), sg.render(sg.identity()))
    assert not str(oracle.value).endswith("word " + first)
