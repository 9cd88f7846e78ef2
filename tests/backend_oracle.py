"""The backend bodies that ``Semigroup`` now derives: the oracle for its
default ``parse``, ``group_element_of`` and ``render``, and for the ax+b,
free and cone windows.

Each ``parse`` below is the body its backend stated for itself, with its own
checks in place of ``contains``; each ``group_element_of`` re-checks
membership in its own way; each ``render`` is the body its class stated
before ``Group`` and ``Semigroup`` rendered int tuples; the ax+b window
spells out its order grade by grade, the free window builds each length
from the one before, and the cone window recurses on the first coordinate.
Every function takes the backend (or its parameter) as its first argument.
"""

from lefthull import (AxPlusB, FiniteGroup, FiniteTable, Integers,
                      NumericalSemigroup, PositiveCone, UsageError)


# -- parse ------------------------------------------------------------------

def cone_parse(sg, text):
    parts = text.strip().strip("()").split(",")
    try:
        vec = tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError("bad vector %r" % text) from None
    if len(vec) != sg.dimension or any(a < 0 for a in vec):
        raise UsageError("bad vector %r for %s" % (text, sg.describe()))
    return vec


def numerical_parse(sg, text):
    try:
        v = int(text.strip())
    except ValueError:
        raise UsageError("bad integer %r" % text) from None
    if not sg.contains(v):
        raise UsageError("%d is not a member of %s" % (v, sg.describe()))
    return v


def axb_parse(sg, text):
    parts = text.strip().strip("()").split(",")
    try:
        b, a = (int(p) for p in parts)
    except ValueError:
        raise UsageError("bad pair %r" % text) from None
    if a == 0:
        raise UsageError("multiplier must be nonzero in %r" % text)
    return (b, a)


def table_parse(sg, text):
    try:
        v = int(text.strip())
    except ValueError:
        raise UsageError("bad index %r" % text) from None
    if not sg.contains(v):
        raise UsageError("index %d out of range" % v)
    return v


PARSE = {
    PositiveCone: cone_parse,
    NumericalSemigroup: numerical_parse,
    AxPlusB: axb_parse,
    FiniteTable: table_parse,
}


# -- group_element_of -------------------------------------------------------

def cone_group_element_of(sg, g):
    return g if all(a >= 0 for a in g) else None


def numerical_group_element_of(sg, g):
    return g if sg.contains(g) else None


def table_group_element_of(sg, g):
    return g


GROUP_ELEMENT_OF = {
    PositiveCone: cone_group_element_of,
    NumericalSemigroup: numerical_group_element_of,
    FiniteTable: table_group_element_of,
}


# -- render -----------------------------------------------------------------

def integers_render(G, g):
    return "(" + ",".join(str(a) for a in g) + ")"


def cone_render(sg, x):
    return "(" + ",".join(str(a) for a in x) + ")"


def axb_render(sg, x):
    return "(%d,%d)" % x


def str_render(sg, x):
    return str(x)


RENDER = {
    PositiveCone: cone_render,
    NumericalSemigroup: str_render,
    AxPlusB: axb_render,
    FiniteTable: str_render,
    Integers: integers_render,
    FiniteGroup: str_render,
}


# -- windows ----------------------------------------------------------------

def axb_window(bound):
    # pairs with |b| <= bound and 1 <= a <= bound, graded by max(|b|, a);
    # inside a grade the offsets go 0, 1, -1, 2, -2, ... so the identity
    # leads the window
    out = []
    for grade in range(1, bound + 1):
        for a in range(1, grade + 1):
            if a == grade:
                bs = [0]
                for m in range(1, grade + 1):
                    bs.extend((m, -m))
            else:
                bs = (grade, -grade)
            for b in bs:
                out.append((b, a))
    return out


def free_window(alphabet_size, bound):
    out = [()]
    level = [()]
    for _ in range(bound):
        level = [w + (l,) for w in level for l in range(alphabet_size)]
        out.extend(level)
    return out


def compositions(total, parts):
    """The tuples of ``parts`` nonnegative ints summing to ``total``, the
    first coordinate slowest."""
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def cone_window(dimension, bound):
    out = []
    for total in range(bound + 1):
        out.extend(compositions(total, dimension))
    return out
