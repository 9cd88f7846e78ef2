"""The left inverse hull: partial bijections x -> g.x with constructible
domains, represented exactly as (grade, domain) pairs.

A nonzero element is the pair (g, X): the map with domain X sending x to
g.x computed in the grading group and re-read in S.  The pair determines
the map and vice versa, so tuple equality is semantic equality.  ZERO is
the empty map; ``compose`` and ``star`` build their results unchecked.

``materialize_word`` is the independent oracle: it replays an alternating
word pointwise on a finite window using only multiply and left_divide,
never consulting the (g, X) algebra.  It and ``evaluate_word`` check the
letters, then run the trusted bodies ``_replay`` and ``_evaluate``, which a
caller whose letters are checked already calls directly.  It reads each
point's step from the window rows of the two operations.  Window exits are
tracked as boundary points and excluded from comparisons; a failed
left_divide inside the window is genuine undefinedness.  A backend's own
windows keep their ideal columns, letter rows and element actions, shared
by every suite and the oracle; any other window is answered afresh.  The
atoms star(lambda t) lambda s and the domains of composites are kept once
per backend; an operation that raises stores nothing.  The domain of f
after h is h^-1(dom f n ran h), a function of (dom f, h) alone: composites
that share dom f and h share it.  The calculus answers it (``pullback``)
and the window columns of an ideal (``window_positions``).
"""

from collections import namedtuple
from functools import partial
import random

from .group_image import is_left_reversible
from .ideals import EMPTY, calculus, clifford_check
from .semigroups import (InvariantViolation, UnsupportedOperation, UsageError)


class _Zero:
    __slots__ = ()

    def __repr__(self):
        return "ZERO"


ZERO = _Zero()


class HullElement(namedtuple("HullElement", "grade dom")):
    __slots__ = ()

    def __new__(cls, grade, dom):
        if dom is EMPTY:
            raise UsageError("use ZERO for the empty map")
        return tuple.__new__(cls, (grade, dom))


_element = partial(tuple.__new__, HullElement)


def identity_element(sg):
    return HullElement(sg.grading_group().identity(), calculus(sg).full())


def lambda_(sg, s):
    """Left translation by s, defined on all of S."""
    sg._check(s)
    return _lambda(sg, s)


def _lambda(sg, s):
    # lambda_ on an s already checked
    return _element((sg._embed(s), calculus(sg).full()))


def star(sg, f):
    if f is ZERO:
        return ZERO
    return _element((sg._grading_group.inv(f.grade),
                     calculus(sg).image(f.grade, f.dom)))


def compose(sg, f, h):
    """f after h as partial maps; ZERO when the domain collapses.  The
    domain h^-1(dom f n ran h) depends on f only through dom f, so it is
    kept once per backend by (dom f, h), EMPTY where the meet is empty."""
    if f is ZERO or h is ZERO:
        return ZERO
    dom = sg._domains.get((f.dom, h))
    if dom is None:
        cal = calculus(sg)
        dom = sg._domains[f.dom, h] = cal.pullback(h.grade, f.dom, h.dom)
    if dom is EMPTY:
        return ZERO
    return _element((sg._grading_group.mul(f.grade, h.grade), dom))


def domain(f):
    """The domain of a hull element: EMPTY for ZERO."""
    return EMPTY if f is ZERO else f.dom


def is_idempotent(sg, f):
    return f is ZERO or f.grade == sg.grading_group().identity()


def atom(sg, t, s, star_t=None):
    """star(lambda(t)) lambda(s) for letters already checked, composed once
    per backend and pair; star_t, if given, is star(lambda(t))."""
    a = sg._atoms.get((t, s))
    if a is None:
        star_t = star_t or star(sg, _lambda(sg, t))
        a = sg._atoms[t, s] = compose(sg, star_t, _lambda(sg, s))
    return a


def evaluate_word(sg, pairs):
    """Left-to-right product of the atoms star(lambda(t)) lambda(s) over the
    pairs: one compose per pair."""
    pairs = list(pairs)
    sg._check(*[x for pair in pairs for x in pair])  # the letters, once
    return _evaluate(sg, pairs)


def _evaluate(sg, pairs):
    # evaluate_word on letters already checked
    acc = identity_element(sg)
    for t, s in pairs:
        acc = compose(sg, acc, atom(sg, t, s))
    return acc


def recompose(sg, p, q):
    """lambda(p) lambda(q)*, the Clifford-condition normal shape."""
    return compose(sg, lambda_(sg, p), star(sg, lambda_(sg, q)))


def hull_sort_key(sg):
    G = sg.grading_group()
    cal = calculus(sg)

    def key(f):
        if f is ZERO:
            return (2,)
        return (1, G.key(f.grade), cal.key(f.dom))

    return key


# ends the identity then the letters, atoms star(lambda t) lambda s t-major,
# elements breadth-first from the identity, index element -> id, succ[i][k]
# the id of elements[i] atoms[k], ordered the elements by hull_sort_key
HullGraph = namedtuple("HullGraph",
                       "length ends atoms elements index succ ordered")


def hull_graph(sg, length, generators=None):
    """The right Cayley graph of the hull over the atoms star(lambda t)
    lambda s, t and s running over the identity plus the letters (a
    repeated letter keeps its own atoms).  Every element first reached
    below ``length`` has a successor row, one id per atom; ZERO is
    absorbing and maps to itself without a compose.  Pairs can share an
    atom (in a group it is lambda(t^-1 s)): a row composes each distinct
    atom once and a repeat copies the id its first occurrence got earlier
    in the row, the numbering of a row that composes every atom.  A command
    builds it once and hands it to every consumer."""
    if length < 0:
        raise UsageError("length must be >= 0")
    ends = (sg.identity(),) + tuple(
        generators if generators is not None else sg.generators())
    sg._check(*ends)
    atoms = ()
    for t in ends:  # star(lambda t) once, and only if an atom is not kept
        new = [s for s in ends if (t, s) not in sg._atoms]
        star_t = star(sg, _lambda(sg, t)) if new else None
        atoms += tuple(atom(sg, t, s, star_t) for s in ends)
    first = {}  # each distinct atom, in order of first occurrence
    slot = [first.setdefault(a, len(first)) for a in atoms]
    elements = [identity_element(sg)]
    index = {elements[0]: 0}
    succ = []
    for _ in range(length):
        for i in range(len(succ), len(elements)):
            f = elements[i]
            if f is ZERO:
                succ.append((i,) * len(atoms))
                continue
            row = []
            for a in first:
                g = compose(sg, f, a)
                j = index.setdefault(g, len(elements))
                if j == len(elements):
                    elements.append(g)
                row.append(j)
            succ.append(tuple(map(row.__getitem__, slot)))
    ordered = tuple(sorted(elements, key=hull_sort_key(sg)))
    return HullGraph(length, ends, atoms, tuple(elements), index,
                     tuple(succ), ordered)


def enumerate_hull(sg, length, generators=None):
    """The values of the alternating words with at most ``length`` pairs
    whose letters run over the generators plus the identity: the vertices
    of ``hull_graph`` in deterministic order."""
    return hull_graph(sg, length, generators).ordered


def render_element(sg, f):
    if f is ZERO:
        return "0"
    G = sg.grading_group()
    return "%s | %s" % (G.render(f.grade), calculus(sg).render(f.dom))


# ---------------------------------------------------------------------------
# materialization oracle


class PartialMap(namedtuple("PartialMap", "mapping boundary")):
    __slots__ = ()

    def __new__(cls, mapping, boundary):
        if len(set(mapping.values())) != len(mapping):
            raise InvariantViolation("partial map is not injective")
        return tuple.__new__(cls, (mapping, boundary))


OUT = object()  # a row's entry where the step leaves the window


def window_row(sg, op, a, W):
    """x -> op(a, x) over the window W by position: the position of the
    value, None where ``_ldiv`` is undefined, or OUT where the value leaves
    the window; once per window, operation and letter."""
    W = sg.own_window(W)
    row = W.rows.get((op, a))
    if row is None:
        at = W.index.get
        row = W.rows[op, a] = tuple(
            None if y is None else at(y, OUT)
            for y in map(partial(getattr(sg, op), a), W))
    return row


def window_columns(sg, X, W):
    """The positions j with W[j] in X, once per window and ideal."""
    W = sg.own_window(W)
    cols = W.columns.get(X)
    if cols is None:
        cols = W.columns[X] = calculus(sg).window_positions(X, W)
    return cols


def materialize_element(sg, f, window):
    """f's action on the window columns of its domain, points sent outside
    the window as the boundary; kept once per window, so read it only."""
    W = sg.own_window(window)
    known = W.actions.get(f)
    if known is None:
        mapping, boundary = {}, set()
        if f is not ZERO:
            act, g, at = sg.act, f.grade, W.index.get
            for j in window_columns(sg, f.dom, W):
                i = at(act(g, W[j]))
                if i is None:
                    boundary.add(W[j])
                else:
                    mapping[W[j]] = W[i]
        known = W.actions[f] = PartialMap(mapping, frozenset(boundary))
    return known


def materialize_word(sg, pairs, window):
    """Pointwise replay of the word by trusted multiply and left_divide,
    each point's step read off the window rows of its letters."""
    pairs = list(pairs)
    sg._check(*[x for pair in pairs for x in pair])  # the letters, once
    return _replay(sg, pairs, window)


def _replay(sg, pairs, window):
    # materialize_word on letters already checked; the last pair acts first
    W = sg.own_window(window)
    steps = [(window_row(sg, "_mul", s, W), window_row(sg, "_ldiv", t, W))
             for t, s in reversed(pairs)]
    mapping, boundary = {}, set()
    for j, x in enumerate(W):
        state = j
        for mul, ldiv in steps:
            state = mul[state]  # multiply is total
            if state is not OUT:
                state = ldiv[state]
            if state is None or state is OUT:  # undefined, or left
                break
        else:
            mapping[x] = W[state]
            continue
        if state is OUT:
            boundary.add(x)
    return PartialMap(mapping, frozenset(boundary))


def maps_agree(a, b):
    """Equality of partial maps away from either boundary."""
    excluded = a.boundary | b.boundary
    za = {k: v for k, v in a.mapping.items() if k not in excluded}
    zb = {k: v for k, v in b.mapping.items() if k not in excluded}
    return za == zb


def random_word(sg, rng, pairs):
    """A word of ``pairs`` pairs over the first ten window elements."""
    win = sg.window_of_size(10)
    return [(rng.choice(win), rng.choice(win)) for _ in range(pairs)]


# ---------------------------------------------------------------------------
# decision procedures on top of the algebra


def clifford_normal_form(sg, f, window_size=30):
    """Write f as lambda(p) lambda(q)* on backends where every nonempty
    intersection of principal ideals is principal.  Verified twice before
    returning: in the algebra, lambda(p) lambda(q)* must recompose to f,
    and pointwise, f's action on the window must agree with the replay of
    the word lambda(p) lambda(q)* through multiply and left_divide alone.
    """
    verdict = clifford_check(sg)
    if not verdict.holds:
        s, t, meet = verdict.witness
        raise UnsupportedOperation(
            "normal form needs principal intersections; counterexample %s, "
            "%s: meet %s" % (sg.render(s), sg.render(t),
                             calculus(sg).render(meet)),
            witness=verdict.witness)
    if f is ZERO:
        raise UsageError("ZERO has no normal form")
    cal = calculus(sg)
    q = cal.principal_witness(f.dom)
    if q is None:
        raise InvariantViolation(
            "domain %s is not principal on a backend passing the "
            "principality test" % cal.render(f.dom))
    p = sg.act(f.grade, q)  # in S, as q is: neither is checked again
    win = sg.window_of_size(window_size)
    one = sg.identity()
    if compose(sg, _lambda(sg, p), star(sg, _lambda(sg, q))) != f or \
            not maps_agree(materialize_element(sg, f, win),
                           _replay(sg, [(one, p), (q, one)], win)):
        raise InvariantViolation(
            "normal form (%s, %s) does not recompose to %s"
            % (sg.render(p), sg.render(q), render_element(sg, f)))
    return (p, q)


class EStarReport(namedtuple("EStarReport", "mode zero_present premise_hits")):
    """mode is "E-unitary" or "strongly E*-unitary"."""

    __slots__ = ()


def estar_unitary_report(sg, graph, sample=200, seed=7):
    """Idempotent purity of the grading, plus a sampled check that
    compose(f, e) = e forces f idempotent, f and e drawn from the built
    hull ``graph`` and f also from random words.  Every sampled compose(f, e)
    is materialized on a 20-element window, which raises on an action that
    leaves S or is not injective.  Where compose(f, e) = e, f is also
    checked pointwise: its own window action must fix every point of e's
    domain that it keeps visible.  Counterexamples are hard failures since
    they would contradict the grading.
    """
    rng = random.Random(seed)
    zero_present = ZERO in graph.index
    reversible = is_left_reversible(sg).holds
    if zero_present and reversible:
        raise InvariantViolation("ZERO reachable in a left reversible hull")
    win = sg.window_of_size(20)
    sg._check(*sg.window_of_size(10))  # the letters of random_word, once
    pool = [f for f in graph.ordered if f is not ZERO]
    idems = [f for f in pool if is_idempotent(sg, f)]
    hits = 0
    bad = 0
    for i in range(sample):
        if i % 2:
            f = rng.choice(pool)
        else:
            w = random_word(sg, rng, rng.randrange(1, 3))
            f = _evaluate(sg, w)
            if f is ZERO:
                f = rng.choice(idems)
        e = rng.choice(idems)
        fe = compose(sg, f, e)
        materialize_element(sg, fe, win)  # raises on a broken action
        if fe == e:
            hits += 1
            fm = materialize_element(sg, f, win)
            dom = {win[j] for j in window_columns(sg, e.dom, win)}
            fixed = all(fm.mapping.get(x) == x for x in dom - fm.boundary)
            if not (is_idempotent(sg, f) and fixed):
                bad += 1
    if bad:
        raise InvariantViolation("%d counterexamples to E*-unitarity" % bad)
    mode = "E-unitary" if reversible else "strongly E*-unitary"
    return EStarReport(mode=mode, zero_present=zero_present, premise_hits=hits)
