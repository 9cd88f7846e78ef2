"""Finite truncations of the ideal semilattice and their filters.

A truncation keeps the canonical ideal values as element semantics and
validates the meet table laws outright.  Every order question is then read
off the validated table: the build keeps each element's down-set
D(j) = {i : i <= j} and up-set U(i) = {j : i <= j} as int bitsets, and
up-sets, filters and the elements strictly below an element are a few
whole-int operations on them.  Only set semantics, whether a union of
elements is another one, goes to the ideal calculus.
"""

from dataclasses import dataclass
from functools import reduce

from .ideals import EMPTY, calculus
from .semigroups import UsageError, set_bits


class FiniteSemilattice:
    """A finite meet-semilattice of canonical right ideals with an
    adjoined zero.  Elements are indexed; index 0 is the top (the whole
    semigroup) and the last index is the zero (the empty set).  ``family``
    is the family it was built from, in the caller's order."""

    def __init__(self, sg, family):
        cal = calculus(sg)
        self.sg, self.family = sg, tuple(family)
        elements = sorted(set(self.family) | {EMPTY}, key=cal.key)
        if not elements or elements[0] != cal.full():
            raise UsageError("the family must contain the full ideal")
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
        # D(j) read off row j, the table being commutative, and U(i) the
        # entries of row i that equal i
        self.down = down = [sum(1 << i for i, m in enumerate(row) if m == i)
                            for row in table]
        self.up = [sum(1 << j for j, m in enumerate(row) if m == i)
                   for i, row in enumerate(table)]
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
        return frozenset(set_bits(self.up[i]))

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
    """A set with the top and without the zero is a filter exactly when it
    is the up-set of the meet m of its members: a filter holds m and so
    U(m), and lies in U(m); conversely U(m) is upward closed and meet
    closed, the table being a validated semilattice."""
    members = subset.members if isinstance(subset, Filter) else frozenset(subset)
    if lattice.top not in members or lattice.zero in members:
        return False
    least = reduce(lattice.meet, members)
    return lattice.up[least] == sum(1 << i for i in members)


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


@dataclass(frozen=True)
class MaximalityVerdict:
    holds: bool
    witness: tuple = None  # (parts, target) ideals when a union collapses
    proof: str = None


def maximal_representation_check(lattice):
    """Whether the inclusion of the truncation into subsets of S is a
    maximal representation: no element may be the union of strictly
    smaller nonzero elements.  The elements below b are read off D(b),
    and the ideal calculus decides whether their union is b.
    """
    cal = calculus(lattice.sg)
    zero = 1 << lattice.zero
    for b in range(len(lattice)):
        if b == lattice.zero:
            continue
        below = set_bits(lattice.down[b] & ~(1 << b | zero))
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
