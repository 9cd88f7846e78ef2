"""Finite window compressions of the regular representations.

Every operator here is a 0/1 partial permutation of a finite basis window
(see matrices.py): a basis vector goes to one basis vector or to zero.
Truncation can only lose information at the boundary, so every relation
is asserted on a safe core: the columns whose full trajectory through
both sides of the relation provably stays inside the window.  A relation
failing on its safe core is a genuine counterexample, never an artifact.
The intertwiner suite builds T* L(f) T directly on the semigroup window,
from the columns of L(f) at the basis vectors lambda(s) that T hits.
L(f) keeps lambda(s) when star(f) f lambda(s) = lambda(s), decided once
per call for each distinct idempotent star(f) f; f lambda(s) is composed if
kept.

Every suite reads the backend's own window (``s_window``), which keeps its
ideal columns, letter rows and element actions (see hull.py): V_s is the
``_mul`` row of s, L(f) is f's kept action, and the safe and annihilated
columns below read ``_ldiv`` rows.

The covariance and semilattice suites check the ideal lattice their caller
passes (``truncate_semilattice``), and the cs-grade-one and intertwiner
suites the hull graph (``hull_graph``), so a command builds each once.
e_X is diagonal, the int bitset B(X) of the columns j with W_j in X, so
e_X e_Y = e_{X meet Y} is one AND, the meet read off the lattice's keys.
The safe core of covariance, V_s e_X V_s* = e_{sX}, does not depend on X:
on the basis vector at t the left side divides by s, projects, and
multiplies by s again, which gives back t.  So the column is safe when s
does not divide t (annihilated) or its quotient lies in the window.

The cs-grade-one suite walks the words of the hull's right Cayley graph
over the atoms a_p = star(lambda t) lambda s, up to the graph's length and
over its letters, level by level and t-major over the pairs.  A word w p
of n pairs extends its prefix w: its element is the successor of f_w along
a_p, its product is P_w A_p with A_p = V_t* V_s, and its safe columns are
Z_p, where p itself annihilates (s x is visible and t does not divide it),
together with the columns that A_p sends into safe(w); on a column the
last pair acts first.  This state (element, product, safe set) decides
everything below the word: its check and every child's state.  So a level
keeps each distinct state once, in order of first occurrence, with the
first word that reached it and a multiplicity; a word reaching a held
state adds its multiplicity and is neither checked nor extended, and the
counts add multiplicity times the per-state figures.  The first failing
word in level order, w p, is the first word with its state: the first
word w0 with the state of w fails as w0 p, which comes no later, so
w = w0, and the suite names the word a word-by-word walk names.  Words
off grade 1 at the last level are dropped before any matrix is built.
The pairs merge the same way: pairs with one atom (so one successor from
every element; equal products can belong to different atoms), one A_p and
one Z_p make the same transition from every state, so each class is
walked once, by its first pair, with its size as a further multiplicity.
The states, their order and the first failing word are those of a walk
that extends every state by every pair.
"""

from collections import namedtuple
from functools import cache
from itertools import product, repeat
from operator import and_, ne

from .hull import (OUT, ZERO, compose, domain, hull_sort_key, is_idempotent,
                   lambda_, materialize_element, render_element, star,
                   window_columns, window_row)
from .ideals import calculus
from .matrices import Matrix
from .semigroups import InvariantViolation, UsageError, Window


def s_window(sg, size=None, bound=None):
    """The backend's basis window, by element count or by grade bound: the
    window of one size, as windows are prefix-monotone in the bound."""
    if (size is None) == (bound is None):
        raise UsageError("give exactly one of size and bound")
    return sg.window_of_size(size if size is not None
                             else len(sg.window(bound)))


def hull_window(sg, graph, include):
    """The elements of the built hull ``graph``, then the lambda(s) for s
    in the semigroup window ``include`` that it misses, so the intertwiner
    always has its targets."""
    extra = [lambda_(sg, s) for s in include]
    return Window(list(graph.ordered) + sorted(
        (f for f in extra if f not in graph.index), key=hull_sort_key(sg)))


class TruncatedOperator(namedtuple("TruncatedOperator", "matrix safe")):
    """A window compression together with its exact column set: safe holds
    the column indices whose action is fully visible."""

    __slots__ = ()


def isometry_matrix(sg, s, W):
    """V_s: the window's ``_mul`` row of s, safe where it stays inside."""
    sg._check(s)  # once; the window's elements are the backend's own
    entries = {j: i for j, i in enumerate(window_row(sg, "_mul", s, W))
               if i is not OUT}
    n = len(W)
    return TruncatedOperator(Matrix(n, n, entries), frozenset(entries))


def char_projection(sg, X, W):
    n = len(W)
    return TruncatedOperator(
        Matrix(n, n, {j: j for j in window_columns(sg, X, W)}),
        frozenset(range(n)))


def hull_matrix(sg, f, W):
    """The pointwise action of a hull element on the semigroup window, read
    off ``materialize_element``.  A column outside its domain is genuinely
    annihilated, no truncation involved, so only the boundary is unsafe."""
    action, at, n = materialize_element(sg, f, W), W.index, len(W)
    return TruncatedOperator(
        Matrix(n, n, {at[x]: at[y] for x, y in action.mapping.items()}),
        frozenset(range(n)).difference(map(at.__getitem__, action.boundary)))


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


def _mismatch(kind, instance, detail=""):
    raise InvariantViolation("%s relation failed at %s%s"
                             % (kind, instance, detail))


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
    e = cache(lambda X: char_projection(sg, X, W).matrix)  # once per call

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
        bits = [sum(1 << j for j in window_columns(sg, X, W))
                for X in lattice.elements]
        at = [lattice.index(X) for X in lattice.family]
        member_bits = [bits[i] for i in at]
        for a, i in enumerate(at):
            # the row of i with each later member, meets by the key map
            lhs = list(map(and_, repeat(bits[i]), member_bits[a:]))
            rhs = list(map(bits.__getitem__, lattice.meets(i, at[a:])))
            if lhs != rhs:
                k = at[a + list(map(ne, lhs, rhs)).index(True)]
                _mismatch(kind, "semilattice X=%s Y=%s"
                          % (lattice.render(i), lattice.render(k)))
        count = len(at) * (len(at) + 1) // 2
        checked = count * len(W)

    elif kind == "isometry":
        # V_s* V_s = 1 wherever the shift stays visible
        for s in letters:
            V = isometry_matrix(sg, s, W)
            prod = V.matrix.transpose() * V.matrix
            eye = Matrix.identity(len(W))
            if not prod.columns_agree(eye, V.safe):
                _mismatch(kind, "isometry s=%s" % sg.render(s))
            count += 1
            checked += len(V.safe)

    elif kind == "cs-grade-one":
        # identity-graded words act as the projection onto their domain;
        # each word extends a word of the previous level by one pair
        graded = [is_idempotent(sg, f) for f in graph.elements]
        V = {s: isometry_matrix(sg, s, W).matrix for s in graph.ends}
        Vt = {t: V[t].transpose() for t in graph.ends}
        # the t-major pairs by class (atom, product, annihilated set): the
        # atom slot, first pair, product, annihilated set and size of each
        classes = {}
        for k, (t, s) in enumerate(product(graph.ends, repeat=2)):
            A = Vt[t] * V[s]
            ldiv = window_row(sg, "_ldiv", t, W)
            zero = frozenset(j for j, i in V[s].entries.items()
                             if ldiv[i] is None)
            classes.setdefault((graph.atoms[k], frozenset(A.entries.items()),
                                zero), [k, (t, s), A, zero, 0])[4] += 1
        pool = list(classes.values())
        # a level maps each distinct state (id, product entries, safe set)
        # to [its first word, its product, its multiplicity], in order of
        # first occurrence
        n = len(W)
        level = {(0, None, frozenset(range(n))): [(), Matrix.identity(n), 1]}
        # the last level checks only the words of grade one
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
        # T* L(f) T = w(f) for every element of the hull graph.  T e_s is
        # the hull basis vector at lambda(s), so column s of T* L(f) T is
        # e_s' when L(f) keeps lambda(s) and sends it to lambda(s') with s'
        # in W, else zero.
        at = {lambda_(sg, s): j for j, s in enumerate(W)}
        kept = cache(lambda ff: [(ls, j) for ls, j in at.items()
                                 if compose(sg, ff, ls) == ls])
        n = len(W)
        for f in graph.ordered:
            ff = compose(sg, star(sg, f), f)
            lhs = Matrix(n, n, {j: at[fq] for ls, j in kept(ff)
                                if (fq := compose(sg, f, ls)) in at})
            rep = hull_matrix(sg, f, W)
            if not lhs.columns_agree(rep.matrix, rep.safe):
                _mismatch(kind, "intertwiner f=%s" % render_element(sg, f))
            count += 1
            checked += len(rep.safe)

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
    (total, fixed, skipped)."""
    total = fixed = skipped = 0
    for f in graph.ordered:
        op = hull_matrix(sg, f, W)
        isfixed = op.matrix.diagonal() == op.matrix
        expected = is_idempotent(sg, f)
        if f is not ZERO and not expected and op.matrix.is_zero():
            skipped += 1
            continue
        if isfixed != expected:
            raise InvariantViolation(
                "expectation loop failed at %s" % render_element(sg, f))
        total += 1
        fixed += isfixed
    return total, fixed, skipped
