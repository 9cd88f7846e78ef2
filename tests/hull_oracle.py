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

``hull_window`` is the hull window of ``lefthull matrix``, as the
function ``operators`` kept for it: the built hull, then the lambda(s) it
misses, for s in the semigroup window.

``semilattice_pair`` is the pairwise semilattice suite, the oracle for
the suite that decides the relation one window column at a time.

``pair_classes`` is the cs-grade-one class build as ``operators`` ran it
before it read V_t* and its undefined points once per letter: each pair
reads the ``_ldiv`` row of t through V_s, and builds its class's entry,
which ``setdefault`` keeps only when the class is new.

``verify_relation`` and ``expectation_loop`` are the relation suites and
the expectation loop as ``operators`` ran them on ``Matrix`` values, before
they read window rows, column bitsets and kept actions directly: V_s the
matrix of the ``_mul`` row, V_s* its transpose, e_X ``char_projection``
and the element's matrix ``element_matrix``, compared column by column
with ``Matrix.columns_agree``.  They read the same kept rows, columns and
actions, so a fault injected into one reaches both paths, and they are the
oracles for the reports and first failures of the suites.  Their
intertwiner composes with the ``compose`` that ``operators`` calls.
"""

from functools import cache
from itertools import product, repeat
from operator import and_, ne
from types import SimpleNamespace

from lefthull import hull, operators
from lefthull.hull import (OUT, ZERO, PartialMap, _element, domain,
                           hull_sort_key, identity_element, is_idempotent,
                           lambda_, render_element, star, window_columns,
                           window_row)
from lefthull.ideals import EMPTY, calculus
from lefthull.matrices import Matrix
from lefthull.operators import RelationReport, TruncatedOperator, _mismatch
from lefthull.semigroups import InvariantViolation, UsageError, Window


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


def hull_window(sg, graph, include):
    """The elements of the built hull ``graph``, then the lambda(s) for s
    in the semigroup window ``include`` that it misses."""
    extra = [lambda_(sg, s) for s in include]
    return Window(list(graph.ordered) + sorted(
        (f for f in extra if f not in graph.index), key=hull_sort_key(sg)))


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


# ---------------------------------------------------------------------------
# the relation suites and the expectation loop on Matrix values


def char_projection(sg, X, W):
    """e_X: the diagonal matrix of the window columns in X, all safe."""
    n = len(W)
    return TruncatedOperator(
        Matrix(n, n, {j: j for j in window_columns(sg, X, W)}),
        frozenset(range(n)))


def element_matrix(sg, f, W):
    """The pointwise action of a hull element on the semigroup window, read
    off its kept action (``hull.materialize_element``).  A column outside
    its domain is genuinely annihilated, no truncation involved, so only
    the boundary is unsafe."""
    action, at, n = hull.materialize_element(sg, f, W), W.index, len(W)
    return TruncatedOperator(
        Matrix(n, n, {at[x]: at[y] for x, y in action.mapping.items()}),
        frozenset(range(n)).difference(map(at.__getitem__, action.boundary)))


def semilattice_pair(sg, W, lattice):
    """The pairwise semilattice suite, as ``operators`` ran it before it
    decided the relation one window column at a time: B(X) & B(Y) against
    B(X meet Y) for every pair of family members, a row of pairs at a time,
    the meets read off the lattice's keys.  The instance text of the first
    pair in row-major order that fails, or None."""
    bits = [sum(1 << j for j in window_columns(sg, X, W))
            for X in lattice.elements]
    at = [lattice.index(X) for X in lattice.family]
    member_bits = [bits[i] for i in at]
    for a, i in enumerate(at):
        lhs = list(map(and_, repeat(bits[i]), member_bits[a:]))
        rhs = list(map(bits.__getitem__, lattice.meets(i, at[a:])))
        if lhs != rhs:
            k = at[a + list(map(ne, lhs, rhs)).index(True)]
            return "semilattice X=%s Y=%s" % (lattice.render(i),
                                             lattice.render(k))
    return None


def pair_classes(sg, W, graph):
    """The classes (atom, product, annihilated set) of the t-major pairs,
    each as [atom slot, first pair, product, (bit, position) of each
    nonzero column, annihilated set, size], built pair by pair."""
    n = len(W)
    up = {s: tuple(n if i is OUT else i
                   for i in operators._letter_row(sg, s, W)) + (n,)
          for s in graph.ends}
    classes = {}
    for k, (t, s) in enumerate(product(graph.ends, repeat=2)):
        ldiv = window_row(sg, "_ldiv", t, W) + (OUT,)
        A = tuple(n if (u := ldiv[i]) is None or u is OUT else u
                  for i in up[s])
        zero = sum(1 << j for j, i in enumerate(up[s]) if ldiv[i] is None)
        classes.setdefault((graph.atoms[k], A, zero), [
            k, (t, s), A, [(1 << c, a) for c, a in enumerate(A[:n])
                           if a < n], zero, 0])[5] += 1
    return list(classes.values())


def verify_relation(sg, kind, W, lattice=None, graph=None, generators=None):
    """The suite of ``operators.verify_relation`` on matrices: the same
    instances, columns, order and failure texts."""
    if kind in ("covariance", "semilattice") and lattice is None:
        raise UsageError("the %s relation needs an ideal lattice" % kind)
    if kind in ("cs-grade-one", "intertwiner") and graph is None:
        raise UsageError("the %s relation needs a hull graph" % kind)
    cal = calculus(sg)
    letters = tuple(generators if generators is not None else sg.generators())
    count = checked = 0
    e = cache(lambda X: char_projection(sg, X, W).matrix)  # once per call
    isometry_matrix = operators.isometry_matrix

    if kind == "covariance":
        # V_s e_X V_s* = e_{sX}
        for s in letters:
            V = isometry_matrix(sg, s, W).matrix
            Vt = V.transpose()
            safe = frozenset(j for j, u in enumerate(
                window_row(sg, "_ldiv", s, W)) if u is not OUT)
            for X in lattice.family:
                lhs = V * e(X) * Vt
                if not lhs.columns_agree(e(cal.translate(s, X)), safe):
                    _mismatch(kind, "covariance s=%s X=%s"
                              % (sg.render(s), cal.render(X)))
                count += 1
                checked += len(safe)

    elif kind == "semilattice":
        # B(X) & B(Y) == B(X meet Y) over the family's pairs; all safe
        pair = semilattice_pair(sg, W, lattice)
        if pair is not None:
            _mismatch(kind, pair)
        count = len(lattice.family) * (len(lattice.family) + 1) // 2
        checked = count * len(W)

    elif kind == "isometry":
        # V_s* V_s = 1 wherever the shift stays visible
        for s in letters:
            V = isometry_matrix(sg, s, W)
            prod = V.matrix.transpose() * V.matrix
            eye = Matrix(len(W), len(W), {i: i for i in range(len(W))})
            if not prod.columns_agree(eye, V.safe):
                _mismatch(kind, "isometry s=%s" % sg.render(s))
            count += 1
            checked += len(V.safe)

    elif kind == "cs-grade-one":
        # the state walk, each state keyed by its product's entries and its
        # safe set as frozensets
        graded = [is_idempotent(sg, f) for f in graph.elements]
        V = {s: isometry_matrix(sg, s, W).matrix for s in graph.ends}
        Vt = {t: V[t].transpose() for t in graph.ends}
        classes = {}
        for k, (t, s) in enumerate(product(graph.ends, repeat=2)):
            A = Vt[t] * V[s]
            ldiv = window_row(sg, "_ldiv", t, W)
            zero = frozenset(j for j, i in V[s].entries.items()
                             if ldiv[i] is None)
            classes.setdefault((graph.atoms[k], frozenset(A.entries.items()),
                                zero), [k, (t, s), A, zero, 0])[4] += 1
        pool = list(classes.values())
        n = len(W)
        eye = Matrix(n, n, {i: i for i in range(n)})
        level = {(0, None, frozenset(range(n))): [(), eye, 1]}
        last = [[x for x in pool if graded[row[x[0]]]] for row in graph.succ]
        for left in range(graph.length - 1, -1, -1):
            nxt = {}
            for (i, _, safe), (pairs, prod, m) in level.items():
                row = graph.succ[i]
                for k, p, A, zero, size in pool if left else last[i]:
                    j, mult = row[k], m * size
                    P = prod * A
                    S = zero.union(c for c, r in A.entries.items() if r in safe)
                    key = (j, frozenset(P.entries.items()), S)
                    if key not in nxt:
                        nxt[key] = [pairs + (p,), P, 0]
                        if graded[j] and not P.columns_agree(
                                e(domain(graph.elements[j])), S):
                            _mismatch(kind, "word %s" % " ".join(
                                "%s*.%s" % (sg.render(t), sg.render(s))
                                for t, s in pairs + (p,)))
                    nxt[key][2] += mult
                    if graded[j]:
                        count += mult
                        checked += mult * len(S)
            level = nxt

    elif kind == "intertwiner":
        # T* L(f) T = w(f) for every element of the hull graph; compose is
        # the one operators calls, so a fault patched there reaches both
        compose = operators.compose
        at = {lambda_(sg, s): j for j, s in enumerate(W)}
        kept = cache(lambda ff: [(ls, j) for ls, j in at.items()
                                 if compose(sg, ff, ls) == ls])
        n = len(W)
        for f in graph.ordered:
            ff = compose(sg, star(sg, f), f)
            lhs = Matrix(n, n, {j: at[fq] for ls, j in kept(ff)
                                if (fq := compose(sg, f, ls)) in at})
            rep = element_matrix(sg, f, W)
            if not lhs.columns_agree(rep.matrix, rep.safe):
                _mismatch(kind, "intertwiner f=%s" % render_element(sg, f))
            count += 1
            checked += len(rep.safe)

    else:
        raise UsageError("unknown relation kind %r" % (kind,))

    return RelationReport(kind, count, checked)


def expectation_loop(sg, W, graph):
    """``operators.expectation_loop`` on element matrices: (total, fixed,
    skipped)."""
    total = fixed = skipped = 0
    for f in graph.ordered:
        op = element_matrix(sg, f, W)
        isfixed = all(i == j for j, i in op.matrix.entries.items())
        expected = is_idempotent(sg, f)
        if f is not ZERO and not expected and not op.matrix.entries:
            skipped += 1
            continue
        if isfixed != expected:
            raise InvariantViolation(
                "expectation loop failed at %s" % render_element(sg, f))
        total += 1
        fixed += isfixed
    return total, fixed, skipped


def covariance_compared(sg, s, X, W, monkeypatch,
                        suite=operators.verify_relation):
    """The columns the covariance suite compares at the instance (s, X):
    those at which a right side e_{sX} with that one column flipped is
    caught.  The flipped column tuple is kept by the window for a stand-in
    ideal, which the calculus's ``translate`` answers for sX alone."""
    cal = calculus(sg)
    W = sg.own_window(W)
    cols = set(window_columns(sg, cal.translate(s, X), W))
    real = cal.translate
    caught = set()
    for c in range(len(W)):
        probe = ("flipped", c)
        with monkeypatch.context() as m:
            m.setitem(W.columns, probe, tuple(sorted(cols ^ {c})))
            m.setattr(cal, "translate", lambda t, Y: probe
                      if (t, Y) == (s, X) else real(t, Y))
            try:
                suite(sg, "covariance", W, generators=(s,),
                      lattice=SimpleNamespace(family=(X,)))
            except InvariantViolation:
                caught.add(c)
    return frozenset(caught)
