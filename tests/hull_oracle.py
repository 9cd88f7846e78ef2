"""The hull enumerated as a frontier breadth-first search: the oracle for
``hull.hull_graph``.

This is how ``enumerate_hull`` walked the hull before it read the vertices
of the Cayley graph: the atoms star(lambda t) lambda s are listed t-major
over the identity plus the letters, and each level composes every new
nonzero element of the previous level with every atom.  ZERO is absorbing,
so it is never extended.

``apply_element`` evaluates a hull element pointwise, the oracle for the
partial maps the hull elements stand for.

``compose``, ``evaluate_word``, ``materialize_element`` and
``materialize_word`` are the bodies ``hull`` had before it kept composite
domains, atoms, element actions and letter rows: an image, a meet and an
image back per product, two composes and a star per pair, a membership
test and an action per point, and a replay that calls ``_mul`` and
``_ldiv`` for every point.  They keep nothing, so they are the oracles for
those memos; the walks above compose with this ``compose`` too.

``isometry_matrix``, ``hull_matrix``, ``covariance_safe`` and
``annihilated`` are what ``operators`` computed before it read the
window's letter rows and element actions: one ``_mul``, ``act`` or
``_ldiv`` per window point.
"""

from lefthull.hull import (ZERO, PartialMap, _element, hull_sort_key,
                           identity_element, lambda_, star)
from lefthull.ideals import EMPTY, calculus
from lefthull.matrices import Matrix
from lefthull.operators import TruncatedOperator


def compose(sg, f, h):
    """f after h, its domain h^-1(dom f n ran h) worked out afresh."""
    if f is ZERO or h is ZERO:
        return ZERO
    cal = calculus(sg)
    G = sg.grading_group()
    ran_h = cal.image(h.grade, h.dom)
    meet = cal.intersect(f.dom, ran_h)
    if meet is EMPTY:
        return ZERO
    dom = cal.image(G.inv(h.grade), meet)
    return _element((G.mul(f.grade, h.grade), dom))


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


def evaluate_word(sg, pairs):
    """Left-to-right product of star(lambda(t)) lambda(s) over the pairs,
    composed afresh."""
    acc = identity_element(sg)
    for t, s in pairs:
        acc = compose(sg, acc, star(sg, lambda_(sg, t)))
        acc = compose(sg, acc, lambda_(sg, s))
    return acc


def materialize_element(sg, f, window):
    wset = set(window)
    mapping, boundary = {}, set()
    if f is not ZERO:
        cal = calculus(sg)
        for x in window:
            if not cal.is_member(x, f.dom):
                continue
            y = sg.act(f.grade, x)
            if y in wset:
                mapping[x] = y
            else:
                boundary.add(x)
    return PartialMap(mapping, frozenset(boundary))


def materialize_word(sg, pairs, window):
    """Pointwise replay of the word, one multiply and one left_divide per
    point and pair."""
    pairs = list(pairs)[::-1]
    sg._check(*[x for pair in pairs for x in pair])
    wset = set(window)
    mapping, boundary = {}, set()
    for x in window:
        state = x
        verdict = "ok"
        for t, s in pairs:
            state = sg._mul(s, state)
            if state not in wset:
                verdict = "boundary"
                break
            state = sg._ldiv(t, state)
            if state is None:
                verdict = "undefined"
                break
            if state not in wset:
                verdict = "boundary"
                break
        if verdict == "ok":
            mapping[x] = state
        elif verdict == "boundary":
            boundary.add(x)
    return PartialMap(mapping, frozenset(boundary))


def _positions(window):
    return {x: j for j, x in enumerate(window)}


def isometry_matrix(sg, s, window):
    """V_s, one multiply per window point."""
    index = _positions(window)
    entries, safe = {}, set()
    for j, t in enumerate(window):
        st = sg._mul(s, t)
        if st in index:
            entries[j] = index[st]
            safe.add(j)
    n = len(window)
    return TruncatedOperator(Matrix(n, n, entries), frozenset(safe))


def hull_matrix(sg, f, window):
    """f on the window: a membership test per point and an action per point
    of the domain; the columns outside the domain are safe."""
    index = _positions(window)
    cols = [] if f is ZERO else [j for j, t in enumerate(window)
                                 if calculus(sg).is_member(t, f.dom)]
    n = len(window)
    entries, safe = {}, set(range(n)).difference(cols)
    for j in cols:
        ft = sg.act(f.grade, window[j])
        if ft in index:
            entries[j] = index[ft]
            safe.add(j)
    return TruncatedOperator(Matrix(n, n, entries), frozenset(safe))


def covariance_safe(sg, s, window):
    """The covariance suite's safe columns for the letter s: s does not
    divide t, or its quotient lies in the window."""
    index = _positions(window)
    return frozenset(j for j, t in enumerate(window)
                     if (u := sg._ldiv(s, t)) is None or u in index)


def annihilated(sg, t, s, window):
    """The cs-grade-one columns the pair (t, s) annihilates: s x lies in
    the window and t does not divide it."""
    V = isometry_matrix(sg, s, window).matrix
    return frozenset(j for j, i in V.entries.items()
                     if sg._ldiv(t, window[i]) is None)
