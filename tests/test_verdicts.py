"""One answer shape for every decision procedure, and one answer for every
presentation of the same semigroup."""

import pytest

from lefthull import (FreeMonoid, NumericalSemigroup, PositiveCone, Verdict,
                      clifford_check, constructible_closure,
                      independence_check, is_left_reversible,
                      maximal_representation_check, truncate_semilattice)
from lefthull.cli import main
from lefthull.group_image import left_thick_check

CONE2 = PositiveCone(2)
NUM23 = NumericalSemigroup((2, 3))

# (decision, semigroup, arguments, expected answer)
DECISIONS = [
    ("reversibility", CONE2, (), True),
    ("reversibility", FreeMonoid(2), (), False),
    ("clifford", CONE2, (), True),
    ("clifford", NUM23, (), False),
    ("independence", CONE2, (3,), True),
    ("independence", NUM23, (3,), False),
    ("maximality", CONE2, (3,), True),
    ("maximality", NUM23, (3,), False),
    ("thickness", CONE2, ([(1, -1), (0, 2)],), True),
    ("thickness", NumericalSemigroup((2, 4)), ([3],), False),
]


def decide(name, sg, args):
    if name == "reversibility":
        return is_left_reversible(sg)
    if name == "clifford":
        return clifford_check(sg)
    if name == "thickness":
        return left_thick_check(sg, *args)
    fam = constructible_closure(sg, *args)
    if name == "independence":
        return independence_check(sg, fam)
    return maximal_representation_check(truncate_semilattice(sg, fam))


@pytest.mark.parametrize("name, sg, args, expected", DECISIONS,
                         ids=["%s-%s" % (d[0], d[1].describe())
                              for d in DECISIONS])
def test_every_decision_answers_with_a_verdict(name, sg, args, expected):
    v = decide(name, sg, args)
    assert type(v) is Verdict
    assert type(v.holds) is bool
    assert v.holds is expected
    # every answer says why: a witness, or the exact argument
    assert v.witness is not None or v.proof


# four presentations of the additive monoid N: the lattice, the hull and the
# relation counts are invariants of the semigroup, not of its presentation
PRESENTATIONS = {
    "cone1": "kind = cone\nparams = 1\n",
    "free1": "kind = free\nparams = 1\n",
    "num24": "kind = numerical\nparams = 2 4\ngenerators = 2\n",
    "num36": "kind = numerical\nparams = 3 6\ngenerators = 3\n",
}
INVARIANT_KEYS = ("reversible", "clifford", "independent", "estar.mode",
                  "ideals.count", "hull.count", "filters.count", "relations")


def analyze_pairs(path, capsys):
    code = main(["analyze", path, "--format", "machine", "--depth", "3",
                 "--length", "3"])
    out = capsys.readouterr().out
    assert code == 0
    return dict(line.split("=", 1) for line in out.splitlines())


def test_presentations_of_n_agree(tmp_path, capsys):
    views = {}
    for name, text in PRESENTATIONS.items():
        path = tmp_path / (name + ".cfg")
        path.write_text(text)
        pairs = analyze_pairs(str(path), capsys)
        views[name] = {k: pairs[k] for k in INVARIANT_KEYS}
    cone = views["cone1"]
    assert (cone["ideals.count"], cone["hull.count"],
            cone["filters.count"]) == ("4", "10", "4")
    for name, view in views.items():
        assert view == cone, name
