"""Finite window compressions of the regular representations.

Every operator here is a 0/1 partial permutation of a finite basis window
(see matrices.py): a basis vector goes to one basis vector or to zero.
Truncation can only lose information at the boundary, so every relation
is asserted on a safe core: the columns whose full trajectory through
both sides of the relation provably stays inside the window.  A relation
failing on its safe core is a genuine counterexample, never an artifact.
The intertwiner suite builds T* L(f) T directly on the semigroup window,
from the columns of L(f) at the basis vectors lambda(s) that T hits.

The covariance and semilattice suites check the ideal family their caller
passes, and the cs-grade-one and intertwiner suites the hull graph
(``hull_graph``) it passes, so a command builds the constructible closure
and the hull once and hands them to every consumer.  The safe core of
covariance, V_s e_X V_s* = e_{sX}, does not depend on X: on the basis
vector at t the left side divides by s, projects, and multiplies by s
again, which gives back t.  So the column is safe when s does not divide
t (annihilated) or its quotient lies in the window.

The cs-grade-one suite walks its words level by level, in the order of the
word list t-major over the pairs, so the first failing word is the one a
word-by-word walk names.  Its words are paths in the hull's right Cayley
graph over the atoms a_p = star(lambda t) lambda s, up to the graph's
length and over its letters.  A word w p of n pairs keeps the state of
its prefix w: its element is the successor of f_w along a_p, read from
the graph, its product is P_w A_p with A_p = V_t* V_s, and its safe
columns are Z_p, where p itself annihilates (s x is visible and t does
not divide it), together with the columns that A_p sends into safe(w).
This is exact: on a column the last pair acts first, so a trajectory of
w p is the trajectory of p followed by the trajectory of w from where p
ends.  Only the previous level is kept, and words off grade 1 at the last
level are dropped before any matrix is built.
"""

from dataclasses import dataclass

from .hull import (ZERO, compose, hull_sort_key, is_idempotent, lambda_,
                   render_element, star)
from .ideals import EMPTY, calculus
from .matrices import Matrix
from .semigroups import InvariantViolation, UsageError


class Window:
    """Ordered duplicate-free basis with an index map."""

    def __init__(self, elements):
        elements = tuple(elements)
        index = {}
        for i, x in enumerate(elements):
            if x in index:
                raise UsageError("duplicate window element %r" % (x,))
            index[x] = i
        self.elements = elements
        self.index = index

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x):
        return x in self.index

    def position(self, x):
        if x not in self.index:
            raise UsageError("%r is not in the window" % (x,))
        return self.index[x]


def s_window(sg, size=None, bound=None):
    """Basis window over the semigroup, by element count or by grade bound."""
    if (size is None) == (bound is None):
        raise UsageError("give exactly one of size and bound")
    elements = sg.window_of_size(size) if size is not None else sg.window(bound)
    return Window(elements)


def hull_window(sg, graph, include=None):
    """The elements of the built hull ``graph``; when a semigroup window
    is passed, the missing lambda(s) are appended so the intertwiner
    always has its targets."""
    elems = list(graph.ordered)
    if include is not None:
        extra = [lambda_(sg, s) for s in include]
        elems.extend(sorted((f for f in extra if f not in graph.index),
                            key=hull_sort_key(sg)))
    return Window(elems)


@dataclass(frozen=True)
class TruncatedOperator:
    """A window compression together with its exact column set."""

    matrix: Matrix
    safe: frozenset  # column indices whose action is fully visible


def isometry_matrix(sg, s, W):
    entries, safe = {}, set()
    for j, t in enumerate(W.elements):
        st = sg.multiply(s, t)
        if st in W.index:
            entries[j] = W.index[st]
            safe.add(j)
    n = len(W)
    return TruncatedOperator(Matrix(n, n, entries), frozenset(safe))


def char_projection(sg, X, W):
    cal = calculus(sg)
    entries = {j: j for j, t in enumerate(W.elements)
               if cal.is_member(t, X)}
    n = len(W)
    return TruncatedOperator(Matrix(n, n, entries), frozenset(range(n)))


def hull_matrix(sg, f, W):
    """The pointwise action of a hull element on the semigroup window."""
    n = len(W)
    if f is ZERO:
        return TruncatedOperator(Matrix(n, n), frozenset(range(n)))
    cal = calculus(sg)
    entries, safe = {}, set()
    for j, t in enumerate(W.elements):
        if cal.is_member(t, f.dom):
            ft = sg.act(f.grade, t)
            if ft in W.index:
                entries[j] = W.index[ft]
                safe.add(j)
        else:
            safe.add(j)  # genuinely annihilated, no truncation involved
    return TruncatedOperator(Matrix(n, n, entries), frozenset(safe))


def _regular_rule(sg, f):
    """The column rule of the left regular representation L(f): the hull
    basis vector at q goes to f q when star(f) f q = q, and to zero (None)
    otherwise."""
    ff = ZERO if f is ZERO else compose(sg, star(sg, f), f)

    def image(q):
        return compose(sg, f, q) if compose(sg, ff, q) == q else None
    return image


def regular_rep_matrix(sg, f, HW):
    """L(f) on the hull window; a column whose image f q falls outside the
    window is left out of the safe core."""
    n = len(HW)
    image = _regular_rule(sg, f)
    entries, safe = {}, set()
    for j, q in enumerate(HW.elements):
        fq = image(q)
        if fq in HW.index:
            entries[j] = HW.index[fq]
        if fq is None or fq in HW.index:
            safe.add(j)
    return TruncatedOperator(Matrix(n, n, entries), frozenset(safe))


def intertwiner_matrix(sg, W, HW):
    """The isometry sending the semigroup basis vector at s to the hull
    basis vector at lambda(s)."""
    entries = {}
    for j, s in enumerate(W.elements):
        ls = lambda_(sg, s)
        if ls not in HW.index:
            raise UsageError("hull window misses lambda of %s" % sg.render(s))
        entries[j] = HW.index[ls]
    return TruncatedOperator(Matrix(len(HW), len(W), entries),
                             frozenset(range(len(W))))


def conditional_expectation(op):
    """Diagonal part; the compression of the expectation onto the
    commutative corner."""
    if op.matrix.rows != op.matrix.cols:
        raise UsageError("expectation needs a square operator")
    return TruncatedOperator(op.matrix.diagonal(), op.safe)


RELATION_KINDS = ("covariance", "semilattice", "isometry", "cs-grade-one",
                  "intertwiner")


@dataclass(frozen=True)
class RelationReport:
    kind: str
    count: int             # instances verified
    checked_columns: int   # safe columns compared, summed over instances


def _mismatch(kind, instance, detail=""):
    raise InvariantViolation("%s relation failed at %s%s"
                             % (kind, instance, detail))


def verify_relation(sg, kind, W, family=None, graph=None, generators=None):
    """Exact verification of one relation suite on its safe cores.

    kind is one of RELATION_KINDS; covariance and semilattice check the
    given ideal family, cs-grade-one and intertwiner the given hull graph,
    covariance and isometry the generators.  Any mismatch on a safe column
    raises, naming the instance; the report counts the instances checked
    and the columns that amounted to.
    """
    if kind in ("covariance", "semilattice") and family is None:
        raise UsageError("the %s relation needs an ideal family" % kind)
    if kind in ("cs-grade-one", "intertwiner") and graph is None:
        raise UsageError("the %s relation needs a hull graph" % kind)
    cal = calculus(sg)
    letters = tuple(generators if generators is not None else sg.generators())
    count = checked = 0

    if kind == "covariance":
        # V_s e_X V_s* = e_{sX}
        for s in letters:
            V = isometry_matrix(sg, s, W)
            safe = frozenset(j for j, t in enumerate(W.elements)
                             if (u := sg.left_divide(s, t)) is None
                             or u in W.index)
            for X in family:
                lhs = V.matrix * char_projection(sg, X, W).matrix \
                    * V.matrix.transpose()
                rhs = char_projection(sg, cal.translate(s, X), W).matrix
                if not lhs.columns_agree(rhs, safe):
                    _mismatch(kind, "covariance s=%s X=%s"
                              % (sg.render(s), cal.render(X)))
                count += 1
                checked += len(safe)

    elif kind == "semilattice":
        # e_X e_Y = e_{X meet Y}; diagonal, so every column is safe
        n = len(W)
        proj = {X: char_projection(sg, X, W).matrix for X in family}
        for i, X in enumerate(family):
            for Y in family[i:]:
                lhs = proj[X] * proj[Y]
                Z = cal.intersect(X, Y)
                rhs = proj[Z] if Z in proj else \
                    char_projection(sg, Z, W).matrix
                if lhs != rhs:
                    _mismatch(kind, "semilattice X=%s Y=%s"
                              % (cal.render(X), cal.render(Y)))
                count += 1
                checked += n

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
        one = sg.grading_group().identity()
        graded = [f is ZERO or f.grade == one for f in graph.elements]
        V = {s: isometry_matrix(sg, s, W).matrix for s in graph.ends}
        pool = []
        for t in graph.ends:
            for s in graph.ends:
                A = V[t].transpose() * V[s]
                zero = frozenset(j for j, i in V[s].entries.items()
                                 if sg.left_divide(t, W.elements[i]) is None)
                pool.append(((t, s), A, zero))
        proj = {}
        level = [((), 0, Matrix.identity(len(W)), frozenset(range(len(W))))]
        # the last level checks only the words of grade one
        last = [[(j, x) for j, x in zip(row, pool) if graded[j]]
                for row in graph.succ]
        for left in range(graph.length - 1, -1, -1):
            nxt = []
            for pairs, i, prod, safe in level:
                row = zip(graph.succ[i], pool) if left else last[i]
                for j, (p, A, zero) in row:
                    word, P = pairs + (p,), prod * A
                    S = zero.union(c for c, r in A.entries.items() if r in safe)
                    if graded[j]:
                        g = graph.elements[j]
                        X = EMPTY if g is ZERO else g.dom
                        if X not in proj:
                            proj[X] = char_projection(sg, X, W).matrix
                        if not P.columns_agree(proj[X], S):
                            _mismatch(kind, "word %s" % " ".join(
                                "%s*.%s" % (sg.render(t), sg.render(s))
                                for t, s in word))
                        count += 1
                        checked += len(S)
                    if left:
                        nxt.append((word, j, P, S))
            level = nxt

    elif kind == "intertwiner":
        # T* L(f) T = w(f) for every enumerated hull element.  T e_s is the
        # hull basis vector at lambda(s), so column s of T* L(f) T is e_s'
        # when L(f) sends lambda(s) to lambda(s') with s' in W, else zero.
        at = {lambda_(sg, s): j for j, s in enumerate(W.elements)}
        n = len(W)
        for f in graph.ordered:
            image = _regular_rule(sg, f)
            lhs = Matrix(n, n, {j: at[fq] for ls, j in at.items()
                                if (fq := image(ls)) in at})
            rep = hull_matrix(sg, f, W)
            if not lhs.columns_agree(rep.matrix, rep.safe):
                _mismatch(kind, "intertwiner f=%s" % render_element(sg, f))
            count += 1
            checked += len(rep.safe)

    else:
        raise UsageError("unknown relation kind %r" % (kind,))

    return RelationReport(kind, count, checked)


def relation_summary(sg, W, family, graph, generators=None):
    """Every relation suite, in RELATION_KINDS order, as kind:count."""
    return " ".join(
        "%s:%d" % (kind, verify_relation(sg, kind, W, family, graph,
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
        isfixed = conditional_expectation(op).matrix == op.matrix
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
