"""Finite truncations of the ideal semilattice and their filters.

A truncation keeps the canonical ideals as elements, each with its meet key
(``meet_keys``): its signature, met by &, or on ax+b past SIGNATURE_POINTS
the member itself, met by intersect.  It reads a meet when asked as the
element whose key is the meet of two keys, so it keeps nothing with n^2
entries.  The build checks what can fail, and keeps each element's up-set
U(i) = {j : i <= j} as an int bitset, bit j for index j, the one format here
for a set of elements; a filter is the up-set of its least element.  Set
semantics, whether some element is a union of strictly smaller ones, is the
independence of the family the truncation was built from, which the ideal
calculus decides.

On either kind of key the build meets each of the r reachable ideals R the
family closes (the family itself by default), the top and the zero with all
n elements: In_R = {i : X_i <= R}, and RX(i) is the R with i in In_R.  It
checks that each meet is a key, each nonzero X_i is the meet of RX(i), and
the top and zero laws.  Then X_i X_j = (..(X_i R_1)..) R_k for RX(j) = {R_1
.. R_k} is a member by induction on k, and for nonzero i and j, X_i <= X_j
iff RX(j) lies in RX(i).  So U(i) is the AND of the complements of In_R
over R not in RX(i): for i nonzero the zero's row is among them.

The semilattice laws are not tested, as they cannot fail: & on ints is
idempotent, commutative and associative, and intersect returns the
canonical form of the set intersection, so each law is a theorem of each
calculus.  What can fail is what the build checks: a missing meet, a member
that is no meet of the reachable ideals, and the top and zero laws.  Where
it fails, the row scan names the first missing meet in row-major order or
the law that fails.  The semilattice suite of ``check`` tests the meets
pointwise, independently of both.
"""

from collections import namedtuple
from functools import reduce
from itertools import compress, repeat
from operator import and_, eq, not_

from .ideals import EMPTY, calculus, independence_check, meet_keys
from .semigroups import UsageError, set_bits

_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _bitset(flags):
    # the booleans as an int, flag j at bit j, read at C level
    return int(bytes(flags).translate(_DIGITS)[::-1], 2)


class FiniteSemilattice:
    """A finite meet-semilattice of canonical right ideals with an
    adjoined zero.  Elements are indexed; index 0 is the top (the whole
    semigroup) and the last index is the zero (the empty set).  ``family``
    is the family it was built from, in the caller's order, and ``keys``,
    ``key_meet`` and ``by_key`` the elements' meet keys."""

    def __init__(self, sg, family, reachable=None):
        cal = calculus(sg)
        self.sg, self.family = sg, tuple(family)
        elements = sorted(set(self.family) | {EMPTY}, key=cal.key)
        if elements[0] != cal.full():
            raise UsageError("the family must contain the full ideal")
        self.elements = tuple(elements)
        self.top = 0
        self.zero = len(elements) - 1
        self._index = {X: i for i, X in enumerate(elements)}
        self.keys, self.key_meet = meet_keys(cal, self.elements)
        self.by_key = {k: i for i, k in enumerate(self.keys)}
        self.up = self._up_sets(self.family if reachable is None
                                else reachable)

    def _up_sets(self, reachable):
        # see above, on either kind of key; on a failed check the row scan
        # names what fails, if any
        keys, by_key, meet = self.keys, self.by_key, self.key_meet
        n = len(keys)
        full = (1 << n) - 1
        rows = dict.fromkeys([self.top, *map(self._index.get, reachable),
                              self.zero])
        rkeys = [] if None in rows else list(map(keys.__getitem__, rows))
        flags, outs, up = [], [], []
        for R, a in zip(rows, rkeys):
            row = list(map(meet, repeat(a), keys))
            if not all(map(by_key.__contains__, row)) or \
                    R == self.zero and row.count(a) != n:
                break
            flags.append(bytes(map(eq, row, keys)))
            outs.append(full ^ _bitset(flags[-1]))
        if len(flags) == len(rows) and 0 not in flags[0]:  # the top law
            for i, rx in enumerate(zip(*flags)):
                if i != self.zero and reduce(meet, compress(rkeys, rx)) \
                        != keys[i]:
                    break
                up.append(reduce(and_, compress(outs, map(not_, rx)), full))
        if len(up) < n:
            self._row_scan()
            raise UsageError("family is not the meet closure of its "
                             "reachable ideals")
        return up

    def _row_scan(self):
        # after a failed build: the first missing meet in row-major order,
        # or the top or zero law where its row fails first
        keys, by_key, meet = self.keys, self.by_key, self.key_meet
        n = len(keys)
        for i, a in enumerate(keys):
            row = list(map(meet, repeat(a), keys))
            if not all(map(by_key.__contains__, row)):
                j = next(j for j in range(n) if row[j] not in by_key)
                cal = calculus(self.sg)
                Z = cal.intersect(self.elements[i], self.elements[j])
                raise UsageError("family is not intersection closed: "
                                 "missing %s" % cal.render(Z))
            if i == self.top and row != list(keys) or \
                    i == self.zero and row.count(a) != n:
                raise UsageError("meet table violates the top or zero law")

    def __len__(self):
        return len(self.elements)

    def meet(self, i, j):
        return self.by_key[self.key_meet(self.keys[i], self.keys[j])]

    def meets(self, i, js):
        """The meets of i with each of the indices js, in order."""
        return map(self.by_key.__getitem__, map(self.key_meet, repeat(
            self.keys[i]), map(self.keys.__getitem__, js)))

    def index(self, X):
        if X not in self._index:
            raise UsageError("%r is not an element of the truncation" % (X,))
        return self._index[X]

    def render(self, i):
        return calculus(self.sg).render(self.elements[i])


def truncate_semilattice(sg, family, reachable=None):
    """Wrap an intersection-closed ideal family as a finite semilattice, its
    order read off the ``reachable`` ideals it closes, by default itself."""
    return FiniteSemilattice(sg, family, reachable)


class Filter(namedtuple("Filter", "members minimal")):
    """A set of indices with the top, without the zero, upward and meet
    closed.  ``members`` is the up-set of its least member ``minimal``, the
    int bitset ``lattice.up[minimal]`` with bit i for index i."""

    __slots__ = ()


def is_filter(subset, lattice):
    """Whether ``subset``, an int bitset of indices (bit i for index i) or a
    Filter, is a filter.  A set with the top and without the zero is a
    filter exactly when it is the up-set of the meet m of its members: a
    filter holds m and so U(m), and lies in U(m); conversely U(m) is upward
    closed and meet closed, the meets being those of a semilattice."""
    members = subset.members if isinstance(subset, Filter) else subset
    if type(members) is not int or members < 0 or members >> len(lattice):
        raise UsageError("not an int bitset of at most %d bits" % len(lattice))
    if not members >> lattice.top & 1 or members >> lattice.zero & 1:
        return False
    least = lattice.by_key[reduce(lattice.key_meet, map(
        lattice.keys.__getitem__, set_bits(members)))]
    return lattice.up[least] == members


def enumerate_filters(lattice):
    """All filters, in the canonical element order of their least members.

    Meet-closure collapses a filter's minimal antichain to a single
    element, so the search walks nonzero elements and takes up-sets.
    """
    out = []
    for i in range(lattice.zero):
        f = Filter(lattice.up[i], i)
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
