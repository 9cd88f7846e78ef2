"""The hull enumerated as a frontier breadth-first search: the oracle for
``hull.hull_graph``.

This is how ``enumerate_hull`` walked the hull before it read the vertices
of the Cayley graph: the atoms star(lambda t) lambda s are listed t-major
over the identity plus the letters, and each level composes every new
nonzero element of the previous level with every atom.  ZERO is absorbing,
so it is never extended.

``apply_element`` evaluates a hull element pointwise, the oracle for the
partial maps the hull elements stand for.
"""

from lefthull.hull import (ZERO, compose, hull_sort_key, identity_element,
                           lambda_, star)
from lefthull.ideals import calculus


def apply_element(sg, f, x):
    """f(x), or None where undefined."""
    sg._check(x)
    if f is ZERO or not calculus(sg).is_member(x, f.dom):
        return None
    return sg.act(f.grade, x)


def word_atoms(sg, letters):
    """The one-pair words star(lambda(t)) lambda(s), t-major over the
    letters."""
    return [compose(sg, star(sg, lambda_(sg, t)), lambda_(sg, s))
            for t in letters for s in letters]


def frontier_hull(sg, length, generators=None):
    """(atoms, levels, sorted hull): levels[d] lists the elements first
    reached by a word of d pairs, in order of discovery."""
    atoms = word_atoms(sg, (sg.identity(),) + tuple(
        generators if generators is not None else sg.generators()))
    seen = {identity_element(sg)}
    level = [identity_element(sg)]
    levels = [level]
    for _ in range(length):
        nxt = []
        for f in level:
            if f is ZERO:
                continue  # absorbing
            for a in atoms:
                g = compose(sg, f, a)
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
        level = nxt
        levels.append(level)
    return atoms, levels, tuple(sorted(seen, key=hull_sort_key(sg)))
