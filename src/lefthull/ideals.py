"""Constructible right ideals in canonical form, and decisions about them.

Each backend gets a small calculus object that knows its canonical ideal
values and implements translate / preimage / intersection exactly:

* FreeMonoid:          a word w, denoting wS          (Full is the empty word)
* PositiveCone:        a corner p, denoting p + (Z+)^n
* NumericalSemigroup:  a pair (N, mask) denoting mask u (S n [N, oo)),
                       threshold minimal, mask a sorted tuple of members < N
* AxPlusB:             a pair (b, a) with a >= 1, 0 <= b < a, denoting
                       (b + aZ) x aZ^x
* FiniteTable:         only the full ideal (every right ideal of a group is S)

The shared EMPTY sentinel denotes the empty ideal for every backend.

All closure properties here are theorems about the backends; the calculus
never approximates.  ``image`` computes the forward translate g . X of an
ideal by a grading-group element and is the workhorse for the hull algebra;
it raises when the result would leave S, which honest callers never trigger.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

from .semigroups import (AxPlusB, FiniteTable, FreeMonoid, InvariantViolation,
                         NumericalSemigroup, PositiveCone, UsageError)


class _EmptyIdeal:
    __slots__ = ()

    def __repr__(self):
        return "EMPTY"


EMPTY = _EmptyIdeal()


class _TableFull:
    __slots__ = ()

    def __repr__(self):
        return "FULL"


_TABLE_FULL = _TableFull()


def lcm_integer(a, b):
    """Positive least common multiple of two nonzero integers."""
    if a == 0 or b == 0:
        raise UsageError("lcm of zero is undefined here")
    return math.lcm(a, b)


class IdealCalculus:
    """Per-backend canonical arithmetic on constructible right ideals."""

    def __init__(self, sg):
        self.sg = sg

    def full(self):
        raise NotImplementedError

    def is_member(self, x, X):
        if X is EMPTY:
            return False
        return self._member(x, X)

    def principal(self, s):
        raise NotImplementedError

    def translate(self, s, X):
        if X is EMPTY:
            return EMPTY
        return self._translate(s, X)

    def preimage(self, s, X):
        if X is EMPTY:
            return EMPTY
        return self._preimage(s, X)

    def intersect(self, X, Y):
        if X is EMPTY or Y is EMPTY:
            return EMPTY
        return self._intersect(X, Y)

    def subset(self, X, Y):
        if X is EMPTY:
            return True
        if Y is EMPTY:
            return False
        return self.intersect(X, Y) == X

    def image(self, g, X):
        """g . X for a grading-group element g with g . X contained in S."""
        if X is EMPTY:
            return EMPTY
        return self._image(g, X)

    def principal_witness(self, X):
        """q with X == qS, or None when X is not principal."""
        raise NotImplementedError

    def union_equals(self, members, Y):
        """Exact decision of union(members) == Y."""
        raise NotImplementedError

    def key(self, X):
        if X is EMPTY:
            return (1,)
        return (0, self._key(X))

    def render(self, X):
        if X is EMPTY:
            return "empty"
        return self._render(X)


class _FreeMonoidIdeals(IdealCalculus):
    # prefix combinatorics throughout: wS n vS is the longer word's ideal
    # when one extends the other and empty otherwise

    def full(self):
        return ()

    def _member(self, x, w):
        return x[:len(w)] == w

    def principal(self, s):
        return s

    def _translate(self, s, w):
        return s + w

    def _preimage(self, s, w):
        if s[:len(w)] == w:
            return ()
        if w[:len(s)] == s:
            return w[len(s):]
        return EMPTY

    def _intersect(self, w, v):
        if w[:len(v)] == v:
            return w
        if v[:len(w)] == w:
            return v
        return EMPTY

    def _image(self, g, w):
        return self.sg.act(g, w)

    def principal_witness(self, X):
        return X

    def union_equals(self, members, Y):
        words = [m for m in members if m is not EMPTY]
        if Y is EMPTY:
            return not words
        if not all(w[:len(Y)] == Y for w in words):
            return False
        return any(w == Y for w in words)

    def _key(self, w):
        return (len(w), w)

    def _render(self, w):
        return "S" if not w else self.sg.render(w) + "S"


class _ConeIdeals(IdealCalculus):
    # corner combinatorics: p + cone determines and is determined by p

    def full(self):
        return self.sg.identity()

    def _member(self, x, p):
        return all(a >= b for a, b in zip(x, p))

    def principal(self, s):
        return s

    def _translate(self, s, p):
        return tuple(a + b for a, b in zip(s, p))

    def _preimage(self, s, p):
        return tuple(max(b - a, 0) for a, b in zip(s, p))

    def _intersect(self, p, q):
        return tuple(max(a, b) for a, b in zip(p, q))

    def _image(self, g, p):
        return self.sg.act(g, p)

    def principal_witness(self, X):
        return X

    def union_equals(self, members, Y):
        corners = [m for m in members if m is not EMPTY]
        if Y is EMPTY:
            return not corners
        if not all(self._member(p, Y) for p in corners):
            return False
        return any(p == Y for p in corners)

    def _key(self, p):
        return (sum(p), p)

    def _render(self, p):
        return "S" if not any(p) else self.sg.render(p) + "+S"


class _NumericalIdeals(IdealCalculus):
    """Cofinite descriptions (threshold, mask) with exact set arithmetic.

    Every nonempty constructible ideal contains S n [N, oo) for some N
    because it contains a translate x0 + S, which is eventually all of S.
    """

    def full(self):
        return (0, ())

    def _canonical(self, members, bound):
        # ideal = set(members) u (S n [bound, oo)); minimize the threshold
        mask = set(members)
        n = bound
        while n > 0:
            x = n - 1
            if self.sg.contains(x):
                if x not in mask:
                    break
                mask.discard(x)
            n = x
        return (n, tuple(sorted(mask)))

    def members_below(self, X, bound):
        n, mask = X
        out = [m for m in mask if m < bound]
        if bound > n:
            out.extend(x for x in self.sg.members_below(bound) if x >= n)
        return sorted(set(out))

    def _member(self, x, X):
        n, mask = X
        return x in mask or (x >= n and self.sg.contains(x))

    def min_member(self, X):
        n, mask = X
        if mask:
            return mask[0]
        for x in self.sg.members_below(n + self.sg.conductor + self.sg.gcd + 1):
            if x >= n:
                return x
        raise InvariantViolation("nonempty ideal with no member found")

    def principal(self, s):
        c = self.sg.conductor
        members = [s + x for x in self.sg.members_below(c)]
        return self._canonical(members, s + c)

    def _translate(self, s, X):
        n, _ = X
        cut = n + self.sg.conductor
        members = [s + x for x in self.members_below(X, cut)]
        return self._canonical(members, s + cut)

    def _preimage(self, s, X):
        n, _ = X
        bound = max(0, n - s)
        members = [t for t in self.sg.members_below(bound)
                   if self._member(s + t, X)]
        return self._canonical(members, bound)

    def _intersect(self, X, Y):
        bound = max(X[0], Y[0])
        members = [x for x in self.members_below(X, bound)
                   if self._member(x, Y)]
        return self._canonical(members, bound)

    def _image(self, g, X):
        if g % self.sg.gcd:
            raise InvariantViolation("grade %r does not preserve S" % (g,))
        n, _ = X
        c = self.sg.conductor
        # beyond the cut, g + x >= conductor, so the tail shifts safely
        cut = max(n + c, c - g)
        members = []
        for x in self.members_below(X, cut):
            y = g + x
            if y < 0 or not self.sg.contains(y):
                raise InvariantViolation("grade %r does not map ideal into S" % (g,))
            members.append(y)
        return self._canonical(members, g + cut)

    def principal_witness(self, X):
        m = self.min_member(X)
        return m if self.principal(m) == X else None

    def union_equals(self, members, Y):
        parts = [m for m in members if m is not EMPTY]
        if not parts:
            return Y is EMPTY
        if Y is EMPTY:
            return False
        bound = max(p[0] for p in parts)
        below = set()
        for p in parts:
            below.update(self.members_below(p, bound))
        return self._canonical(sorted(below), bound) == Y

    def _key(self, X):
        return X

    def _render(self, X):
        n, _ = X
        lead = self.members_below(X, n + self.sg.conductor + 4 * self.sg.gcd + 1)
        return "{%s,...}" % ",".join(str(m) for m in lead[:4])


def _crt(b, a, d, c):
    # x == b mod a, x == d mod c; moduli positive; returns residue mod lcm
    g = math.gcd(a, c)
    if (d - b) % g:
        return None
    l = a // g * c
    k = ((d - b) // g * pow(a // g, -1, c // g)) % (c // g) if c != g else 0
    return (b + a * k) % l, l


class _AxbIdeals(IdealCalculus):
    """Canonical pairs (b, a), a >= 1, 0 <= b < a for (b + aZ) x aZ^x.

    The family {EMPTY} u {principal ideals} is closed under the three
    operations because Z is a GCD domain; each operation lands back in the
    family by direct congruence arithmetic, which is the runtime shape
    assertion the representation relies on.
    """

    def full(self):
        return (0, 1)

    def _member(self, x, X):
        b, a = X
        return (x[0] - b) % a == 0 and x[1] % a == 0

    def principal(self, s):
        b, a = s
        a = abs(a)
        return (b % a, a)

    def _translate(self, s, X):
        d, c = s
        b, a = X
        m = abs(c * a)
        return ((d + c * b) % m, m)

    def _preimage(self, s, X):
        d, c = s
        b, a = X
        g = math.gcd(c, a)
        if (b - d) % g:
            return EMPTY
        m = a // g
        if m == 1:
            return (0, 1)
        x0 = ((b - d) // g * pow(c // g, -1, m)) % m
        return (x0, m)

    def _intersect(self, X, Y):
        b, a = X
        d, c = Y
        res = _crt(b, a, d, c)
        if res is None:
            return EMPTY
        e, l = res
        return (e, l)

    def _image(self, g, X):
        q1, q2 = g
        b, a = X
        bb = q1 + q2 * b
        aa = q2 * a
        if bb.denominator != 1 or aa.denominator != 1 or aa == 0:
            raise InvariantViolation("grade %r does not map ideal into S" % (g,))
        m = abs(int(aa))
        return (int(bb) % m, m)

    def principal_witness(self, X):
        return X  # (b, a) with a >= 1 is itself an element generating X

    def union_equals(self, members, Y):
        # principal-ideal shortcut: a union of principal ideals equals the
        # principal Y only if one of them is Y and the rest sit inside it
        parts = [m for m in members if m is not EMPTY]
        if Y is EMPTY:
            return not parts
        if not all(self.subset(p, Y) for p in parts):
            return False
        return any(p == Y for p in parts)

    def _key(self, X):
        return (X[1], X[0])

    def _render(self, X):
        return "S" if X == (0, 1) else "(%d,%d)S" % X


class _TableIdeals(IdealCalculus):
    # in a group every nonempty right ideal is all of S

    def full(self):
        return _TABLE_FULL

    def _member(self, x, X):
        return True

    def principal(self, s):
        return _TABLE_FULL

    def _translate(self, s, X):
        return _TABLE_FULL

    def _preimage(self, s, X):
        return _TABLE_FULL

    def _intersect(self, X, Y):
        return _TABLE_FULL

    def _image(self, g, X):
        return _TABLE_FULL

    def principal_witness(self, X):
        return self.sg.identity()

    def union_equals(self, members, Y):
        parts = [m for m in members if m is not EMPTY]
        if Y is EMPTY:
            return not parts
        return bool(parts)

    def _key(self, X):
        return 0

    def _render(self, X):
        return "S"


_CALCULUS_TYPES = {
    FreeMonoid: _FreeMonoidIdeals,
    PositiveCone: _ConeIdeals,
    NumericalSemigroup: _NumericalIdeals,
    AxPlusB: _AxbIdeals,
    FiniteTable: _TableIdeals,
}


@lru_cache(maxsize=None)
def calculus(sg):
    try:
        cls = _CALCULUS_TYPES[type(sg)]
    except KeyError:
        raise UsageError("no ideal calculus for %r" % (sg,)) from None
    return cls(sg)


# ---------------------------------------------------------------------------
# module-level operation surface


def principal(sg, s):
    sg._check(s)
    return calculus(sg).principal(s)


def translate(sg, s, X):
    sg._check(s)
    return calculus(sg).translate(s, X)


def preimage(sg, s, X):
    sg._check(s)
    return calculus(sg).preimage(s, X)


def intersect(sg, X, Y):
    return calculus(sg).intersect(X, Y)


def membership(sg, x, X):
    sg._check(x)
    return calculus(sg).is_member(x, X)


def render_ideal(sg, X):
    return calculus(sg).render(X)


def reachable_ideals(sg, depth, generators=None):
    """Ideals reachable from S by at most ``depth`` alternations t^-1(s X)
    over the generator letters (identity allowed in either slot).  These are
    exactly the domains of hull words of that many letter pairs.  Sorted
    canonically, Full first.
    """
    cal = calculus(sg)
    if depth < 0:
        raise UsageError("depth must be >= 0")
    letters = (sg.identity(),) + tuple(generators if generators is not None
                                       else sg.generators())
    family = {cal.full()}
    level = [cal.full()]
    for _ in range(depth):
        nxt = set()
        for X in level:
            for s in letters:
                sX = cal.translate(s, X)
                for t in letters:
                    nxt.add(cal.preimage(t, sX))
        level = sorted(nxt - family, key=cal.key)
        family |= nxt
    return tuple(sorted(family, key=cal.key))


def constructible_closure(sg, depth, generators=None):
    """The reachable ideals at ``depth``, closed under pairwise intersection.
    Sorted canonically, Full first.
    """
    cal = calculus(sg)
    family = set(reachable_ideals(sg, depth, generators))
    work = sorted(family, key=cal.key)
    while True:
        new = set()
        for i, X in enumerate(work):
            for Y in work[i + 1:]:
                Z = cal.intersect(X, Y)
                if Z not in family and Z not in new:
                    new.add(Z)
        if not new:
            break
        family |= new
        work = sorted(family, key=cal.key)
    return tuple(work)


@dataclass(frozen=True)
class CliffordVerdict:
    """Outcome of the pairwise-intersection principality test."""

    status: str            # "holds" | "fails" | "inconclusive"
    proof: str = None      # exact argument tag when status == "holds"
    witness: tuple = None  # (s, t, intersection) when status == "fails"
    window: int = None     # search bound when the search was windowed

    @property
    def holds(self):
        return self.status == "holds"


@lru_cache(maxsize=None)
def clifford_check(sg, window=24):
    """Decide whether sS n tS is always empty or principal."""
    cal = calculus(sg)
    if isinstance(sg, FreeMonoid):
        return CliffordVerdict("holds", proof="prefix-comparable intersections")
    if isinstance(sg, PositiveCone):
        return CliffordVerdict("holds", proof="coordinatewise-max intersections")
    if isinstance(sg, AxPlusB):
        return CliffordVerdict("holds", proof="gcd-domain coefficients (Z is a PID)")
    if isinstance(sg, FiniteTable):
        return CliffordVerdict("holds", proof="group: every principal ideal is S")
    if isinstance(sg, NumericalSemigroup):
        if sg.conductor == 0:
            return CliffordVerdict(
                "holds", proof="rescaled copy of Z+ (gcd %d)" % sg.gcd)
        win = sg.window_of_size(window)
        for j in range(len(win)):
            for i in range(j):
                s, t = win[i], win[j]
                meet = cal.intersect(cal.principal(s), cal.principal(t))
                if meet is not EMPTY and cal.principal_witness(meet) is None:
                    return CliffordVerdict("fails", witness=(s, t, meet))
        return CliffordVerdict("inconclusive", window=window)
    raise UsageError("unknown backend %r" % (sg,))


@dataclass(frozen=True)
class IndependenceVerdict:
    """Whether no family member is a union of other members."""

    independent: bool
    proof: str = None
    witness: tuple = None  # (members tuple, Y) with union(members) == Y

    @property
    def holds(self):
        return self.independent


def _minimal_cover(cal, below, Y, limit=3):
    # smallest sub-family of strictly-below members whose union is Y
    from itertools import combinations
    for size in range(2, min(limit, len(below)) + 1):
        for combo in combinations(below, size):
            if cal.union_equals(combo, Y):
                return combo
    return tuple(below)


def independence_check(sg, family):
    """Exact union-equality search over an intersection-closed family.

    A union of members equals Y without containing Y as a member iff the
    union of all members strictly inside Y is already Y, so one pass over
    candidates suffices.  Witness covers prefer principal ideals, which is
    what makes the reported violation legible.
    """
    cal = calculus(sg)
    members = [X for X in family if X is not EMPTY]
    for Y in members:
        below = [X for X in members if X != Y and cal.subset(X, Y)]
        if below and cal.union_equals(below, Y):
            below.sort(key=lambda X: (cal.principal_witness(X) is None,
                                      cal.key(X)))
            cover = _minimal_cover(cal, below, Y)
            return IndependenceVerdict(False, witness=(cover, Y))
    proof = "pairwise union check"
    if clifford_check(sg).holds:
        proof = "all members principal; unions of principal ideals collapse"
    return IndependenceVerdict(True, proof=proof)
