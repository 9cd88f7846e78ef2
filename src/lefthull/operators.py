"""Finite window compressions of the regular representations.

Every operator here is a 0/1 partial permutation of a finite basis window.
Truncation can only lose information at the boundary, so every relation is
asserted on a safe core: the columns whose full trajectory through both
sides provably stays inside the window.  A relation failing on its safe
core is a genuine counterexample, never an artifact.

The suites build no matrix; each reads the answers the backend's own window
(``s_window``) keeps (see hull.py).  V_s is the ``_mul`` row of s, tested
injective once per letter and suite, and V_s* the ``_ldiv`` row.  e_X is
the int bitset B(X) of the columns j with W_j in X, and L(f) is read off
f's kept action.  ``Matrix`` (matrices.py) serves the exports alone.  The
covariance and semilattice suites check the ideal lattice their caller
passes, the cs-grade-one and intertwiner suites the hull graph.
e_X e_Y = e_{X meet Y} over the family's pairs is decided one window point
w at a time: with C_w the elements X with w in B(X) and m_w their meet (and
the top's), every pair holds at w iff C_w = U(m_w), the up-set the lattice
proved.  If so, X, Y are in C_w iff m_w <= X Y iff X Y is in C_w.
Conversely, as S holds w and the empty ideal does not, C_w is meet closed,
so holds m_w, and each Y >= m_w as m_w Y = m_w.  A failing column names the
first failing pair in row-major order, or itself where no pair fails.
V_s e_X V_s* = e_{sX} says the ``_mul`` row of s carries B(X) onto B(sX);
on the basis vector at t the left side divides by s, projects and
multiplies by s again, which gives back t, so the column is safe when s
does not divide t (annihilated) or its quotient lies in the window.

The cs-grade-one suite walks the words of the hull's right Cayley graph
over the atoms a_p = star(lambda t) lambda s, level by level and t-major
over the pairs.  A word w p extends its prefix w: its element is the
successor of f_w along a_p, its product is P_w A_p with A_p = V_t* V_s
(the last pair acts first), and its safe columns are Z_p, where p
annihilates (s x is visible and t does not divide it), and the columns
A_p sends into safe(w).  A product is a tuple of window positions plus a
zero slot mapping to itself, so P_w A_p is P_w read along A_p; a safe set
is a column bitset.  This state (element, product, safe set) decides the
word's check and every child's state, so a level keeps each distinct
state once, in order of first occurrence, with its first word and a
multiplicity; a word reaching a held state adds its multiplicity to the
counts and is neither checked nor extended.  The first failing word w p
is the first word with its state: the first word w0 with the state of w
fails as w0 p, no later, so w = w0, the word a word-by-word walk names.
Pairs with one atom (one successor from every element), one A_p and one
Z_p make one transition from every state, so such a class is walked once,
by its first pair, with its size as a multiplicity.  Words off grade 1 at
the last level are dropped unformed.

The intertwiner suite builds T* L(f) T from the columns of L(f) at the
lambda(s) that T hits.  L(f) keeps lambda(s) when star(f) f lambda(s) =
lambda(s), decided once per call for each distinct star(f) f, and then
composes f lambda(s).  That left side, a map of window points tested
injective, must be f's kept action off the points f sends out of W.
"""

from collections import namedtuple
from functools import cache, reduce
from itertools import product, repeat
from operator import and_, eq, ne

from .hull import (OUT, ZERO, compose, domain, is_idempotent, lambda_,
                   materialize_element, render_element, star,
                   window_columns, window_row)
from .ideals import calculus
from .matrices import Matrix
from .semigroups import InvariantViolation, UsageError, set_bits


def s_window(sg, size=None, bound=None):
    """The backend's basis window, by element count or by grade bound: the
    window of one size, as windows are prefix-monotone in the bound."""
    if (size is None) == (bound is None):
        raise UsageError("give exactly one of size and bound")
    return sg.window_of_size(size if size is not None
                             else len(sg.window(bound)))


class TruncatedOperator(namedtuple("TruncatedOperator", "matrix safe")):
    """A window compression together with its exact column set: safe holds
    the column indices whose action is fully visible."""

    __slots__ = ()


def _letter_row(sg, s, W):
    """V_s: the window's ``_mul`` row of s, tested injective."""
    sg._check(s)  # once; the window's elements are the backend's own
    row = window_row(sg, "_mul", s, W)
    hit = [i for i in row if i is not OUT]
    if len(set(hit)) != len(hit):
        raise InvariantViolation("partial permutation is not injective")
    return row


def _bits(columns):
    """The int bitset of window positions."""
    return sum(map((1).__lshift__, columns))


def _agrees(P, X, S):
    """Whether the product P is e_X, X a column bitset, on the columns of S."""
    n = len(P) - 1  # the zero slot
    return all(P[c] == (c if X >> c & 1 else n) for c in range(n) if S >> c & 1)


def isometry_matrix(sg, s, W):
    """V_s: the window's ``_mul`` row of s, safe where it stays inside."""
    entries = {j: i for j, i in enumerate(_letter_row(sg, s, W))
               if i is not OUT}
    n = len(W)
    return TruncatedOperator(Matrix(n, n, entries), frozenset(entries))


def regular_rep_matrix(sg, f, HW):
    """L(f) on the hull window: the basis vector at q goes to f q when
    star(f) f q = q, and to zero otherwise.  A column whose image f q falls
    outside the window is left out of the safe core."""
    n = len(HW)
    ff = compose(sg, star(sg, f), f)
    entries, safe = {}, set()
    for j, q in enumerate(HW):
        if compose(sg, ff, q) != q:
            safe.add(j)
        elif (fq := compose(sg, f, q)) in HW.index:
            entries[j] = HW.index[fq]
            safe.add(j)
    return TruncatedOperator(Matrix(n, n, entries), frozenset(safe))


def intertwiner_matrix(sg, W, HW):
    """The isometry sending the semigroup basis vector at s to the hull
    basis vector at lambda(s)."""
    entries = {}
    for j, s in enumerate(W):
        ls = lambda_(sg, s)
        if ls not in HW.index:
            raise UsageError("hull window misses lambda of %s" % sg.render(s))
        entries[j] = HW.index[ls]
    return TruncatedOperator(Matrix(len(HW), len(W), entries),
                             frozenset(range(len(W))))


RELATION_KINDS = ("covariance", "semilattice", "isometry", "cs-grade-one",
                  "intertwiner")


class RelationReport(namedtuple("RelationReport",
                                "kind count checked_columns")):
    """count is the number of instances verified, checked_columns the safe
    columns compared, summed over the instances."""

    __slots__ = ()


def _first_pair(sg, W, lattice):
    """The instance of the first failing pair in row-major order, or None."""
    bits = [_bits(window_columns(sg, X, W)) for X in lattice.elements]
    at = [lattice.index(X) for X in lattice.family]
    for a, i in enumerate(at):
        lhs = list(map(and_, repeat(bits[i]), map(bits.__getitem__, at[a:])))
        rhs = list(map(bits.__getitem__, lattice.meets(i, at[a:])))
        if lhs != rhs:
            k = at[a + list(map(ne, lhs, rhs)).index(True)]
            return "semilattice X=%s Y=%s" % (lattice.render(i),
                                             lattice.render(k))
    return None


def _mismatch(kind, instance):
    raise InvariantViolation("%s relation failed at %s" % (kind, instance))


def verify_relation(sg, kind, W, lattice=None, graph=None, generators=None):
    """Exact verification of one relation suite on its safe cores.

    kind is one of RELATION_KINDS; covariance and semilattice check the
    given ideal lattice, cs-grade-one and intertwiner the given hull graph,
    covariance and isometry the generators.  Any mismatch on a safe column
    raises, naming the instance; the report counts the instances checked
    and the columns that amounted to.
    """
    if kind in ("covariance", "semilattice") and lattice is None:
        raise UsageError("the %s relation needs an ideal lattice" % kind)
    if kind in ("cs-grade-one", "intertwiner") and graph is None:
        raise UsageError("the %s relation needs a hull graph" % kind)
    cal = calculus(sg)
    letters = tuple(generators if generators is not None else sg.generators())
    count = checked = 0
    n = len(W)
    e = cache(lambda X: _bits(window_columns(sg, X, W)))  # once per call

    if kind == "covariance":
        # V_s e_X V_s* = e_{sX}: the _mul row of s carries B(X) onto B(sX)
        for s in letters:
            shift = [0 if i is OUT else 1 << i for i in _letter_row(sg, s, W)]
            safe = _bits(j for j, u in enumerate(window_row(sg, "_ldiv", s, W))
                         if u is not OUT)
            for X in lattice.family:
                image = sum(map(shift.__getitem__, window_columns(sg, X, W)))
                if (image ^ e(cal.translate(s, X))) & safe:
                    _mismatch(kind, "covariance s=%s X=%s"
                              % (sg.render(s), cal.render(X)))
                count += 1
                checked += safe.bit_count()

    elif kind == "semilattice":
        # B(X) & B(Y) == B(X meet Y) over the family's pairs, decided one
        # window column at a time (see above); all safe
        cols = [0] * n  # C_w, the elements holding W[w], as a bitset
        for i, X in enumerate(lattice.elements):
            for w in window_columns(sg, X, W):
                cols[w] |= 1 << i
        keys, top = lattice.keys, lattice.keys[lattice.top]
        for w, C in enumerate(cols):
            m = lattice.by_key.get(reduce(lattice.key_meet, map(
                keys.__getitem__, set_bits(C)), top))
            if m is None or lattice.up[m] != C:
                _mismatch(kind, _first_pair(sg, W, lattice)
                          or "semilattice w=%s" % sg.render(W[w]))
        count = len(lattice.family) * (len(lattice.family) + 1) // 2
        checked = count * n

    elif kind == "isometry":
        # V_s* V_s = 1 wherever the shift stays visible
        for s in letters:
            row, back = _letter_row(sg, s, W), window_row(sg, "_ldiv", s, W)
            safe = [j for j, i in enumerate(row) if i is not OUT]
            if [back[row[j]] for j in safe] != safe:
                _mismatch(kind, "isometry s=%s" % sg.render(s))
            count += 1
            checked += len(safe)

    elif kind == "cs-grade-one":
        # identity-graded words act as the projection onto their domain;
        # each word extends a word of the previous level by one pair.  n is
        # the zero slot of a product, so V_s and V_t* are read as products
        graded = [is_idempotent(sg, f) for f in graph.elements]
        up = {s: tuple(n if i is OUT else i for i in _letter_row(sg, s, W))
              + (n,) for s in graph.ends}
        # the t-major pairs by class (atom, product, annihilated set): the
        # atom slot, first pair, product, the (bit, position) of each of
        # its nonzero columns, annihilated set and size of each
        classes = {}
        for k, (t, s) in enumerate(product(graph.ends, repeat=2)):
            ldiv = window_row(sg, "_ldiv", t, W) + (OUT,)
            A = tuple(n if (u := ldiv[i]) is None or u is OUT else u
                      for i in up[s])
            zero = _bits(j for j, i in enumerate(up[s]) if ldiv[i] is None)
            classes.setdefault((graph.atoms[k], A, zero), [
                k, (t, s), A, [(1 << c, a) for c, a in enumerate(A[:n])
                               if a < n], zero, 0])[5] += 1
        pool = list(classes.values())
        # a level maps each distinct state (id, product, safe set) to [its
        # first word, its multiplicity], in order of first occurrence
        level = {(0, tuple(range(n + 1)), (1 << n) - 1): [(), 1]}
        pre = {}  # (class, safe set) -> the child's safe set
        # the last level checks only the words of grade one
        last = [[x for x in pool if graded[row[x[0]]]] for row in graph.succ]
        for left in range(graph.length - 1, -1, -1):
            nxt = {}
            for (i, prod, safe), (pairs, m) in level.items():
                row = graph.succ[i]
                for k, p, A, pull, zero, size in pool if left else last[i]:
                    j, mult = row[k], m * size
                    P = tuple(map(prod.__getitem__, A))
                    S = pre.get((k, safe))
                    if S is None:
                        S = pre[k, safe] = zero | sum(
                            [b for b, a in pull if safe >> a & 1])
                    key = (j, P, S)
                    state = nxt.get(key)
                    if state is None:
                        state = nxt[key] = [pairs + (p,), 0]
                        if graded[j] and not _agrees(
                                P, e(domain(graph.elements[j])), S):
                            _mismatch(kind, "word %s" % " ".join(
                                "%s*.%s" % (sg.render(t), sg.render(s))
                                for t, s in pairs + (p,)))
                    state[1] += mult
                    if graded[j]:
                        count += mult
                        checked += mult * S.bit_count()
            level = nxt

    elif kind == "intertwiner":
        # T* L(f) T = w(f) for every element of the hull graph.  T e_s is
        # the hull basis vector at lambda(s), so column s of T* L(f) T is
        # e_s' when L(f) keeps lambda(s) and sends it to lambda(s') with s'
        # in W, else zero: a map of window points, as f's kept action is.
        at = {lambda_(sg, s): s for s in W}
        kept = cache(lambda ff: [(ls, s) for ls, s in at.items()
                                 if compose(sg, ff, ls) == ls])
        for f in graph.ordered:
            ff = compose(sg, star(sg, f), f)
            lhs = {s: t for ls, s in kept(ff)
                   if (t := at.get(compose(sg, f, ls))) is not None}
            if len(set(lhs.values())) != len(lhs):
                raise InvariantViolation("partial permutation is not injective")
            action = materialize_element(sg, f, W)
            out = action.boundary  # the columns left out of the safe core
            if {x: y for x, y in lhs.items() if x not in out} != action.mapping:
                _mismatch(kind, "intertwiner f=%s" % render_element(sg, f))
            count += 1
            checked += n - len(out)

    else:
        raise UsageError("unknown relation kind %r" % (kind,))

    return RelationReport(kind, count, checked)


def relation_summary(sg, W, lattice, graph, generators=None):
    """Every relation suite, in RELATION_KINDS order, as kind:count."""
    return " ".join(
        "%s:%d" % (kind, verify_relation(sg, kind, W, lattice, graph,
                                         generators).count)
        for kind in RELATION_KINDS)


def expectation_loop(sg, W, graph):
    """E fixes the compression of a hull element exactly when the element
    is idempotent.  Verified for every element of the built hull
    ``graph``; a non-idempotent whose action misses the window entirely
    proves nothing, so it is counted as invisible and left out.  Returns
    (total, fixed, skipped).  An element with no window column acts as
    the empty map, which fixes every point it keeps: it is fixed if
    idempotent and invisible if not, and no action is kept for it."""
    total = fixed = skipped = 0
    for f in graph.ordered:
        expected = is_idempotent(sg, f)
        mapping = {} if f is ZERO or not window_columns(sg, f.dom, W) \
            else materialize_element(sg, f, W).mapping
        isfixed = all(map(eq, mapping, mapping.values()))
        if f is not ZERO and not expected and not mapping:
            skipped += 1
            continue
        if isfixed != expected:
            raise InvariantViolation(
                "expectation loop failed at %s" % render_element(sg, f))
        total += 1
        fixed += isfixed
    return total, fixed, skipped
