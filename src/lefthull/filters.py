"""Finite truncations of the ideal semilattice and their filters.

A truncation keeps the canonical ideal values as element semantics and
validates the meet table laws outright.  Every order question is then read
off the validated table: the build keeps each element's up-set
U(i) = {j : i <= j} as an int bitset, and up-sets and filters are a few
whole-int operations on it.  Set semantics, whether some element is a union
of strictly smaller ones, is the independence of the family the truncation
was built from, which the ideal calculus decides.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import repeat

from .ideals import EMPTY, calculus, independence_check, meet_keys
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
        # keys separate every meet, so a missing key is a missing meet
        keys, meet = meet_keys(cal, self.elements)
        by_key = {k: i for i, k in enumerate(keys)}
        table = []
        for i, a in enumerate(keys):
            row = tuple(map(by_key.get, map(meet, repeat(a), keys)))
            if None in row:
                Z = cal.intersect(elements[i], elements[row.index(None)])
                raise UsageError("family is not intersection closed: "
                                 "missing %s" % cal.render(Z))
            table.append(row)
        self.table = tuple(table)
        self._index = {X: i for i, X in enumerate(elements)}
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
        down = [sum(1 << i for i, m in enumerate(row) if m == i)
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

    def index(self, X):
        if X not in self._index:
            raise UsageError("%r is not an element of the truncation" % (X,))
        return self._index[X]

    def up_set(self, i):
        return frozenset(set_bits(self.up[i]))

    def render(self, i):
        return calculus(self.sg).render(self.elements[i])


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


def maximal_representation_check(lattice):
    """Whether the inclusion of the truncation into subsets of S is a
    maximal representation: no element is the union of strictly smaller
    nonzero elements.  That is the independence of the family the
    truncation was built from, so this is the calculus' verdict on it."""
    return independence_check(lattice.sg, lattice.family)
