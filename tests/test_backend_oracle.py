"""The derived backend facts against the bodies each backend once stated for
itself (backend_oracle.py): ``Semigroup.parse`` on texts in and out of the
render syntax, ``Semigroup.group_element_of`` on grades in and out of S,
and the ax+b and free windows."""

import pytest

from lefthull import (AxPlusB, FiniteTable, FreeMonoid, NumericalSemigroup,
                      PositiveCone, UsageError, cyclic_table)

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
