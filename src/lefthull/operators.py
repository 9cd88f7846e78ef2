"""Finite window compressions of the regular representations.

Every operator here is a 0/1 partial permutation of a finite basis window
(see matrices.py): a basis vector goes to one basis vector or to zero.
Truncation can only lose information at the boundary, so every relation
is asserted on a safe core: the columns whose full trajectory through
both sides of the relation provably stays inside the window.  A relation
failing on its safe core is a genuine counterexample, never an artifact.
The intertwiner suite builds T* L(f) T directly on the semigroup window,
from the columns of L(f) at the basis vectors lambda(s) that T hits.
L(f) keeps lambda(s) when star(f) f lambda(s) = lambda(s): that test and
the window columns in dom f are decided once per call for each distinct
idempotent star(f) f and domain, and f lambda(s) is composed if kept.

The covariance and semilattice suites check the ideal lattice their caller
passes (``truncate_semilattice``), and the cs-grade-one and intertwiner
suites the hull graph (``hull_graph``), so a command builds each once.
e_X is diagonal, the int bitset B(X) of the columns j with W_j in X, so
e_X e_Y = e_{X meet Y} is one AND, the meet read off the lattice's table.
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
"""

from dataclasses import dataclass
from functools import cache

from .hull import (ZERO, compose, domain, hull_sort_key, is_idempotent,
                   lambda_, render_element, star)
from .ideals import calculus
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
    sg._check(s)  # once; the window's elements are the backend's own
    entries, safe = {}, set()
    for j, t in enumerate(W.elements):
        st = sg._mul(s, t)
        if st in W.index:
            entries[j] = W.index[st]
            safe.add(j)
    n = len(W)
    return TruncatedOperator(Matrix(n, n, entries), frozenset(safe))


def window_columns(sg, X, W):
    """The columns j with W_j in X, in window order."""
    cal = calculus(sg)
    return tuple(j for j, t in enumerate(W.elements) if cal.is_member(t, X))


def char_projection(sg, X, W):
    n = len(W)
    return TruncatedOperator(
        Matrix(n, n, {j: j for j in window_columns(sg, X, W)}),
        frozenset(range(n)))


def hull_matrix(sg, f, W, cols):
    """The pointwise action of a hull element on the semigroup window;
    ``cols`` are the window columns in its domain.  Every other column is
    genuinely annihilated, no truncation involved, so it is safe."""
    n = len(W)
    entries, safe = {}, set(range(n)).difference(cols)
    for j in cols:
        ft = sg.act(f.grade, W.elements[j])
        if ft in W.index:
            entries[j] = W.index[ft]
            safe.add(j)
    return TruncatedOperator(Matrix(n, n, entries), frozenset(safe))


def regular_rep_matrix(sg, f, HW):
    """L(f) on the hull window: the basis vector at q goes to f q when
    star(f) f q = q, and to zero otherwise.  A column whose image f q falls
    outside the window is left out of the safe core."""
    n = len(HW)
    ff = compose(sg, star(sg, f), f)
    entries, safe = {}, set()
    for j, q in enumerate(HW.elements):
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
    for j, s in enumerate(W.elements):
        ls = lambda_(sg, s)
        if ls not in HW.index:
            raise UsageError("hull window misses lambda of %s" % sg.render(s))
        entries[j] = HW.index[ls]
    return TruncatedOperator(Matrix(len(HW), len(W), entries),
                             frozenset(range(len(W))))


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
            safe = frozenset(j for j, t in enumerate(W.elements)
                             if (u := sg._ldiv(s, t)) is None
                             or u in W.index)
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
        for a, i in enumerate(at):
            row, b = lattice.table[i], bits[i]
            for k in at[a:]:
                if b & bits[k] != bits[row[k]]:
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
        pool = []
        for t in graph.ends:
            for s in graph.ends:
                A = V[t].transpose() * V[s]
                zero = frozenset(j for j, i in V[s].entries.items()
                                 if sg._ldiv(t, W.elements[i]) is None)
                pool.append(((t, s), A, zero))
        # a level maps each distinct state (id, product entries, safe set)
        # to [its first word, its product, its multiplicity], in order of
        # first occurrence
        n = len(W)
        level = {(0, None, frozenset(range(n))): [(), Matrix.identity(n), 1]}
        # the last level checks only the words of grade one
        last = [[(j, x) for j, x in zip(row, pool) if graded[j]]
                for row in graph.succ]
        for left in range(graph.length - 1, -1, -1):
            nxt = {}
            for (i, _, safe), (pairs, prod, m) in level.items():
                row = zip(graph.succ[i], pool) if left else last[i]
                for j, (p, A, zero) in row:
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
                    nxt[key][2] += m
                    if graded[j]:
                        count += m
                        checked += m * len(S)
            level = nxt

    elif kind == "intertwiner":
        # T* L(f) T = w(f) for every element of the hull graph.  T e_s is
        # the hull basis vector at lambda(s), so column s of T* L(f) T is
        # e_s' when L(f) keeps lambda(s) and sends it to lambda(s') with s'
        # in W, else zero.
        at = {lambda_(sg, s): j for j, s in enumerate(W.elements)}
        kept = cache(lambda ff: [(ls, j) for ls, j in at.items()
                                 if compose(sg, ff, ls) == ls])
        columns = cache(lambda X: window_columns(sg, X, W))
        n = len(W)
        for f in graph.ordered:
            ff = compose(sg, star(sg, f), f)
            lhs = Matrix(n, n, {j: at[fq] for ls, j in kept(ff)
                                if (fq := compose(sg, f, ls)) in at})
            rep = hull_matrix(sg, f, W, columns(domain(f)))
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
    columns = cache(lambda X: window_columns(sg, X, W))
    for f in graph.ordered:
        op = hull_matrix(sg, f, W, columns(domain(f)))
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
