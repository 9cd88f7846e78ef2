"""Finite truncations of the ideal semilattice and their filters.

A truncation keeps the canonical ideal values as element semantics, so
order questions are answered twice over: once through the meet table and
once through the ideal calculus.  The two must agree; the build validates
the table laws outright.
"""

from dataclasses import dataclass

from .ideals import EMPTY, calculus
from .semigroups import UsageError


class FiniteSemilattice:
    """A finite meet-semilattice of canonical right ideals with an
    adjoined zero.  Elements are indexed; index 0 is the top (the whole
    semigroup) and the last index is the zero (the empty set)."""

    def __init__(self, sg, family):
        cal = calculus(sg)
        elements = sorted(set(family) | {EMPTY}, key=cal.key)
        if not elements or elements[0] != cal.full():
            raise UsageError("the family must contain the full ideal")
        self.sg = sg
        self.elements = tuple(elements)
        self.top = 0
        self.zero = len(elements) - 1
        index = {X: i for i, X in enumerate(elements)}
        table = []
        for X in elements:
            row = []
            for Y in elements:
                Z = cal.intersect(X, Y)
                if Z not in index:
                    raise UsageError("family is not intersection closed: "
                                     "missing %s" % cal.render(Z))
                row.append(index[Z])
            table.append(tuple(row))
        self.table = tuple(table)
        self._index = index
        self._validate()

    def _validate(self):
        # Idempotence, the top and zero laws and commutativity are read off
        # the table.  Associativity then takes O(n^2) whole-int operations
        # instead of n^3 lookups.  Write i <= j when i j = i and let D(j) =
        # {i : i <= j}.  On a commutative idempotent table, associativity is
        # equivalent to D(i j) = D(i) n D(j) for all i and j, which needs
        # testing only for indices i < j.
        # If the table is associative, k (i j) = k iff k i = k and k j = k.
        # Conversely, assume the law.  <= is reflexive (i i = i) and
        # antisymmetric (i j = i and j i = j give i = j).  It is transitive:
        # j k = j gives D(j) = D(j k) = D(j) n D(k), so i <= j <= k puts i
        # in D(k).  And i j is the greatest lower bound of i and j: it lies
        # in D(i j) = D(i) n D(j), and so does every lower bound.  So
        # D((i j) k) = D(i) n D(j) n D(k) = D(i (j k)), and equal down-sets
        # name one element, since a is in D(a) and D(a) = D(b) gives
        # a <= b <= a.
        n = len(self.elements)
        table = self.table
        for i in range(n):
            if table[i][i] != i:
                raise UsageError("meet table is not idempotent")
            if table[self.top][i] != i or table[self.zero][i] != self.zero:
                raise UsageError("meet table violates the top or zero law")
            for j in range(i + 1, n):
                if table[i][j] != table[j][i]:
                    raise UsageError("meet table is not commutative")
        # D(j) read off row j, the table being commutative
        down = [sum(1 << i for i, m in enumerate(row) if m == i)
                for row in table]
        for i, row in enumerate(table):
            for j in range(i + 1, n):
                if down[row[j]] != down[i] & down[j]:
                    raise UsageError("meet table is not associative")

    def __len__(self):
        return len(self.elements)

    def meet(self, i, j):
        return self.table[i][j]

    def leq(self, i, j):
        # a <= b exactly when b a = a
        return self.meet(i, j) == i

    def index(self, X):
        if X not in self._index:
            raise UsageError("%r is not an element of the truncation" % (X,))
        return self._index[X]

    def up_set(self, i):
        return frozenset(j for j in range(len(self.elements)) if self.leq(i, j))

    def render(self, i):
        return calculus(self.sg).render(self.elements[i])

    def describe(self):
        return "semilattice on %d ideals over %s" % (len(self.elements),
                                                     self.sg.describe())


def truncate_semilattice(sg, family):
    """Wrap an intersection-closed ideal family as a finite semilattice."""
    return FiniteSemilattice(sg, family)


@dataclass(frozen=True)
class Filter:
    """An upward-closed, meet-closed set of indices containing the top
    and excluding the zero.  Finiteness forces a least member."""

    members: frozenset
    minimal: int


def is_filter(subset, lattice):
    members = subset.members if isinstance(subset, Filter) else frozenset(subset)
    if lattice.top not in members or lattice.zero in members:
        return False
    for i in members:
        for j in members:
            if lattice.meet(i, j) not in members:
                return False
        for j in range(len(lattice)):
            if lattice.leq(i, j) and j not in members:
                return False
    return True


def enumerate_filters(lattice):
    """All filters, in the canonical element order of their least members.

    Meet-closure collapses a filter's minimal antichain to a single
    element, so the search walks nonzero elements and takes up-sets.
    """
    out = []
    for i in range(len(lattice)):
        if i == lattice.zero:
            continue
        f = Filter(lattice.up_set(i), i)
        if not is_filter(f, lattice):
            raise UsageError("up-set of %s is not a filter" % lattice.render(i))
        out.append(f)
    return tuple(out)


def render_filter(f, lattice):
    return "{%s}" % ", ".join(lattice.render(i) for i in sorted(f.members))


@dataclass(frozen=True)
class MaximalityVerdict:
    holds: bool
    witness: tuple = None  # (parts, target) ideals when a union collapses
    proof: str = None


def maximal_representation_check(lattice):
    """Whether the inclusion of the truncation into subsets of S is a
    maximal representation: no element may be the union of strictly
    smaller nonzero elements.  Decided through the meet table for the
    order and the ideal calculus for set semantics, independently of
    the cover search used on raw families.
    """
    cal = calculus(lattice.sg)
    for b in range(len(lattice)):
        if b == lattice.zero:
            continue
        below = [a for a in range(len(lattice))
                 if a not in (b, lattice.zero) and lattice.leq(a, b)]
        if not below:
            continue
        parts = [lattice.elements[a] for a in below]
        target = lattice.elements[b]
        if cal.union_equals(parts, target):
            return MaximalityVerdict(
                False, witness=(tuple(parts), target),
                proof="strictly smaller ideals cover %s" % cal.render(target))
    return MaximalityVerdict(True, proof="no element is a union of "
                                         "strictly smaller ones")
