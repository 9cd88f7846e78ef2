"""Order questions of a finite semilattice walked through ``leq``, the
down-set maximality search and the pairwise independence search, kept as
the oracle for the up-set bitsets of ``lefthull.filters``, for
``maximal_representation_check`` and for the independence verdict each
ideal calculus states.  The pairwise meet table and the pairwise
semi-naive closure are the oracle for the meets ``lefthull`` reads off the
ideals' signatures, and the row build, one row of key meets per element,
the oracle for the order the lattice reads off the reachable ideals; the
row scan is the oracle for the text of a failed build.

Every function here reads only the meet table (through ``meet``, and
``leq`` on top of it) and the ideal calculus' ``intersect``, ``subset``
and ``union_equals``.  It asks them of a fresh calculus instance
(``fresh_calculus``), never of the backend's own: the numerical calculus
keeps every meet it has answered, so a meet the fast path stored, right or
wrong, would otherwise be read back by its oracle and agree with itself.
"""

from itertools import combinations, repeat

from lefthull import EMPTY, UsageError, calculus, reachable_ideals
from lefthull.ideals import meet_keys


def fresh_calculus(sg):
    """A new calculus of the backend's kind, with empty memos."""
    return type(calculus(sg))(sg)


def pairwise_table(sg, family):
    """The meet table of the family and EMPTY in canonical order, one
    ``intersect`` call per ordered pair; UsageError at the first missing
    meet in row-major order."""
    cal = fresh_calculus(sg)
    elements = sorted(set(family) | {EMPTY}, key=cal.key)
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
    return tuple(table)


def row_build(lattice):
    """The meet table and the up-sets of a lattice as ``lefthull.filters``
    built them before it read the order off the reachable ideals: row i
    holds the key meets of i with every element, U(i) the j whose meet with
    i is i, and a key that no element has is a missing meet, named at the
    first pair (i, j) with j >= i in row-major order, as & commutes."""
    keys, by_key, meet = lattice.keys, lattice.by_key, lattice.key_meet
    table, up = [], []
    for i, a in enumerate(keys):
        row = [meet(a, b) for b in keys]
        j = next((j for j in range(i, len(keys)) if row[j] not in by_key),
                 None)
        if j is not None:
            cal = fresh_calculus(lattice.sg)
            Z = cal.intersect(lattice.elements[i], lattice.elements[j])
            raise UsageError("family is not intersection closed: missing %s"
                             % cal.render(Z))
        table.append(tuple(map(by_key.get, row)))
        up.append(sum(1 << j for j, c in enumerate(row) if c == a))
    return tuple(table), up


def row_scan_failure(lattice):
    """The text a failed lattice build gave while it named its failures by a
    second scan: the first missing meet in row-major order, or the top or
    zero law where its row fails first; None where every row passes.  It
    reads only the lattice's elements, keys and key meet, so the lattice may
    be one whose up-sets were never built."""
    keys, by_key, meet = lattice.keys, lattice.by_key, lattice.key_meet
    n = len(keys)
    for i, a in enumerate(keys):
        row = [meet(a, b) for b in keys]
        j = next((j for j in range(n) if row[j] not in by_key), None)
        if j is not None:
            cal = fresh_calculus(lattice.sg)
            Z = cal.intersect(lattice.elements[i], lattice.elements[j])
            return "family is not intersection closed: missing %s" \
                % cal.render(Z)
        if i == lattice.top and row != list(keys) or \
                i == lattice.zero and row.count(a) != n:
            return "meet table violates the top or zero law"
    return None


def pairwise_closure(sg, depth, generators=None):
    """The reachable ideals closed under intersection: every pair of
    reachable ideals, then the meets each pass found with the reachable
    ones, until a pass finds nothing new.  Sorted canonically."""
    cal = fresh_calculus(sg)
    reach = reachable_ideals(sg, depth, generators)
    family = set(reach)
    fresh = {Z for i, X in enumerate(reach) for Y in reach[i + 1:]
             if (Z := cal.intersect(X, Y)) not in family}
    while fresh:
        family |= fresh
        fresh = {Z for X in fresh for Y in reach
                 if (Z := cal.intersect(X, Y)) not in family}
    return tuple(sorted(family, key=cal.key))


def keyed_closure(sg, depth, generators=None):
    """The reachable ideals closed under intersection on their keys
    (``meet_keys``): every pair of reachable ideals, then the keys each
    pass found met with every reachable one, until a pass finds nothing
    new.  A key not seen before is built by one intersect.  Sorted
    canonically."""
    cal = fresh_calculus(sg)
    reach = reachable_ideals(sg, depth, generators)
    keys, meet = meet_keys(cal, reach)
    family = dict(zip(keys, reach))
    rows = [(a, X, i + 1) for i, (a, X) in enumerate(family.items())]
    while rows:
        fresh = {}
        for a, X, start in rows:
            row = dict(zip(map(meet, repeat(a), keys[start:]), reach[start:]))
            for c in set(row).difference(family):
                family[c] = fresh[c] = cal.intersect(X, row[c])
        rows = [(a, X, 0) for a, X in fresh.items()]
    return tuple(sorted(family.values(), key=cal.key))


def leq(lattice, i, j):
    """i <= j in the lattice: exactly when the meet of i and j is i."""
    return lattice.meet(i, j) == i


def up_set(lattice, i):
    return frozenset(j for j in range(len(lattice)) if leq(lattice, i, j))


def is_filter(subset, lattice):
    """Holds the top, not the zero, and is meet closed and upward closed."""
    members = frozenset(subset)
    if lattice.top not in members or lattice.zero in members:
        return False
    for i in members:
        for j in members:
            if lattice.meet(i, j) not in members:
                return False
        for j in range(len(lattice)):
            if leq(lattice, i, j) and j not in members:
                return False
    return True


def maximality(lattice):
    """(holds, witness): whether no element is the union of the nonzero
    elements strictly below it, with the first (parts, target) that is."""
    cal = fresh_calculus(lattice.sg)
    for b in range(len(lattice)):
        if b == lattice.zero:
            continue
        below = [a for a in range(len(lattice))
                 if a not in (b, lattice.zero) and leq(lattice, a, b)]
        if not below:
            continue
        parts = [lattice.elements[a] for a in below]
        target = lattice.elements[b]
        if cal.union_equals(parts, target):
            return False, (tuple(parts), target)
    return True, None


def independence(sg, family):
    """(holds, witness): whether no member is the union of the members
    strictly inside it, with the least cover found of the first that is.
    Covers prefer principal members, then the canonical order."""
    cal = fresh_calculus(sg)
    members = [X for X in family if X is not EMPTY]
    for Y in members:
        below = [X for X in members if X != Y and cal.subset(X, Y)]
        if below and cal.union_equals(below, Y):
            below.sort(key=lambda X: (cal.principal_witness(X) is None,
                                      cal.key(X)))
            for size in range(2, min(3, len(below)) + 1):
                for combo in combinations(below, size):
                    if cal.union_equals(combo, Y):
                        return False, (combo, Y)
            return False, (tuple(below), Y)
    return True, None
