"""The derived backend facts against the bodies each backend once stated for
itself (backend_oracle.py): ``Semigroup.parse`` on texts in and out of the
render syntax, ``Semigroup.group_element_of`` on grades in and out of S,
the derived ``render`` of elements and grades, the ax+b, free and cone
windows, and the ideals of a group on the principal defaults."""

import pytest

from lefthull import (EMPTY, AxPlusB, FiniteTable, FreeMonoid,
                      NumericalSemigroup, PositiveCone, UsageError, calculus,
                      cyclic_table)

import backend_oracle as oracle

TEXTS = ["5", " 5 ", "+5", "5_0", "(5)", "-3", "0", "2", "3", "4", "7", "49",
         "1,2", "(1,2)", " ( 1 , 2 ) ", "((1,2))", "(1,2", "(1,-2)",
         "(-1,-2)", "(0,0)", "(3,0)", "(1,2,3)", "(1)", "()", "", "abc",
         "1.5", "(a,b)"]

PARSED = [
    PositiveCone(2),
    PositiveCone(1),
    AxPlusB(),
    NumericalSemigroup((2, 3)),
    NumericalSemigroup((4, 6)),
    FiniteTable(cyclic_table(5)),
]


def outcome(fn, *args):
    """What a call does: its value, or that it raises UsageError."""
    try:
        return ("value", fn(*args))
    except UsageError:
        return ("raises",)


def ids(sg):
    return sg.describe()


def rendered(sg, text, result):
    """What parse must do with ``text`` where a stated body did ``result``:
    keep a value that renders as the text, whitespace aside, else raise."""
    kind, *value = result
    if kind == "value" and sg.render(*value) == "".join(text.split()):
        return result
    return ("raises",)


@pytest.mark.parametrize("sg", PARSED, ids=ids)
def test_parse_accepts_what_the_stated_bodies_accepted(sg):
    # of what the stated bodies accepted, exactly the texts render prints
    body = oracle.PARSE[type(sg)]
    got = {text: outcome(sg.parse, text) for text in TEXTS}
    assert got == {text: rendered(sg, text, outcome(body, sg, text))
                   for text in TEXTS}
    # the accepted values are elements, and render reads back to them
    for text, (kind, *value) in got.items():
        if kind == "value":
            assert sg.contains(*value)
            assert sg.parse(sg.render(*value)) == value[0]


REFUSED = [
    (PositiveCone(2), ["1,2", "((1,2))", "(1,2", "(1,2))", "+1,2"]),
    (AxPlusB(), ["1,2", "((1,2))", "(1,2", "(+1,2)", "(1,02)"]),
    (NumericalSemigroup((2, 3)), ["+5", "5_0", "05", " 5_0 "]),
    (PositiveCone(1), ["5", "(5", "((5))", "(5_0)"]),
    (FiniteTable(cyclic_table(5)), ["+1", "01", "-0"]),
]


@pytest.mark.parametrize("sg, texts", REFUSED,
                         ids=[ids(c[0]) for c in REFUSED])
def test_parse_refuses_text_that_render_never_prints(sg, texts):
    # each of these once read as an element: now only render's text does
    for text in texts:
        assert outcome(oracle.PARSE[type(sg)], sg, text)[0] == "value"
        with pytest.raises(UsageError, match="bad element"):
            sg.parse(text)


def grades(sg):
    """Grades around the window of ``sg``, most of them outside S, and the
    embeddings of its first 20 window elements."""
    if isinstance(sg, PositiveCone):
        span = range(-3, 4)
        if sg.dimension == 1:
            near = [(a,) for a in span]
        else:
            near = [(a, b) for a in span for b in span]
    elif isinstance(sg, NumericalSemigroup):
        near = list(range(-10, 30))
    else:
        near = list(range(len(sg.table)))
    embedded = [sg.embed(s) for s in sg.window_of_size(20)]
    return near + [g for g in embedded if g not in near]


GRADED = [
    PositiveCone(2),
    PositiveCone(1),
    NumericalSemigroup((3, 5)),
    NumericalSemigroup((4, 6)),
    FiniteTable(cyclic_table(6)),
]


@pytest.mark.parametrize("sg", GRADED, ids=ids)
def test_group_element_of_agrees_with_the_stated_bodies(sg):
    body = oracle.GROUP_ELEMENT_OF[type(sg)]
    for g in grades(sg):
        assert sg.group_element_of(g) == body(sg, g), g
        s = sg.group_element_of(g)
        assert s is None or sg.embed(s) == g


@pytest.mark.parametrize("bound", range(13))
def test_axb_window_is_the_stated_order(bound):
    assert AxPlusB().window(bound) == oracle.axb_window(bound)


@pytest.mark.parametrize("k, bound", [(k, b) for k in (1, 2, 3)
                                      for b in range(6)]
                         + [(27, b) for b in range(3)])
def test_free_window_is_the_level_loop(k, bound):
    assert FreeMonoid(k).window(bound) == oracle.free_window(k, bound)


@pytest.mark.parametrize("d, bound", [(d, b) for d in (1, 2, 3, 4, 5, 6, 12)
                                      for b in range(6)]
                         + [(27, b) for b in range(3)])
def test_cone_window_is_the_recursive_compositions(d, bound):
    assert PositiveCone(d).window(bound) == oracle.cone_window(d, bound)


RENDERED = [
    FreeMonoid(2),
    PositiveCone(1),
    PositiveCone(3),
    NumericalSemigroup((3, 5)),
    AxPlusB(),
    FiniteTable(cyclic_table(6)),
]


@pytest.mark.parametrize("sg", RENDERED, ids=ids)
def test_render_agrees_with_the_stated_bodies(sg):
    # each window element, and its grade and gamma image in each group whose
    # rendering is derived: Z^n (the cone's grades, the free monoid's word
    # lengths) and a table's group
    seen = 0
    for x in sg.window_of_size(60):
        for where, value in ((sg, x), (sg.grading_group(), sg.embed(x)),
                             (sg.fraction_group, sg.gamma(x))):
            body = oracle.RENDER.get(type(where))
            if body:
                assert where.render(value) == body(where, value), value
                seen += 1
    assert seen >= len(sg.window_of_size(60))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_a_group_has_one_ideal_the_identity(n):
    # every nonempty right ideal of a group is S = eS: each operation on a
    # nonempty ideal answers e, which sorts and prints as the full ideal did
    sg = FiniteTable(cyclic_table(n))
    cal, e = calculus(sg), sg.identity()
    X = cal.full()
    assert X == e
    for s in sg.window_of_size(n):
        assert cal.principal(s) == e
        assert cal.translate(s, X) == cal.preimage(s, X) == e
        assert cal.image(sg.embed(s), X) == e
        assert cal.principal_witness(X) == e
    assert cal.intersect(X, X) == e
    assert cal.intersect(X, EMPTY) is EMPTY
    assert cal.key(X) == (0, 0) and cal.key(EMPTY) == (1,)
    assert cal.render(X) == "S"
