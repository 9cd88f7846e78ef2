"""Constructible right ideals in canonical form, and decisions about them.

Each backend gets a small calculus object that knows its canonical ideal
values and implements translate / preimage / intersection exactly:

* FreeMonoid:          a word w, denoting wS          (Full is the empty word)
* PositiveCone:        a corner p, denoting p + (Z+)^n
* NumericalSemigroup:  a pair (N, mask) denoting mask u (S n [N, oo)),
                       threshold minimal, mask a sorted tuple of members < N;
                       each pair the calculus builds also carries its mask
                       as a Python-int bitset, and every operation runs on
                       these bits and the semigroup's ``member_bits``;
                       each distinct image and meet is computed once
* AxPlusB:             a pair (b, a) with a >= 1, 0 <= b < a, denoting
                       (b + aZ) x aZ^x
* FiniteTable:         only the full ideal (every right ideal of a group is S)

The shared EMPTY sentinel denotes the empty ideal for every backend.

All closure properties here are theorems about the backends; the calculus
never approximates.  ``image`` computes the forward translate g . X of an
ideal by a grading-group element and is the workhorse for the hull algebra;
it raises when the result would leave S, which honest callers never trigger.

Each calculus class also answers, exactly, the questions about ideals asked
of every left cancellative S: left reversibility, the Clifford condition,
independence of a family, left thickness and Folner densities.  A subclass
names the backend it serves, which builds it once per instance.
Independence is such a per-calculus fact: where every nonempty
constructible ideal is principal it holds by one argument, and only the
numerical calculus searches a family for a union that collapses.

``signatures`` gives an ideal's points on a set D that separates meets:
* numerical: [0, M), M past the conductor and thresholds: all agree from M
* axb: Z/L, L the lcm of the moduli, which divides every meet's modulus
* cone: the box [0, B]^d, B the top coordinate: x in p + S iff min(x, B) is
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
import math
from operator import and_

from .semigroups import (AxPlusB, FiniteTable, FreeMonoid, InvariantViolation,
                         NumericalSemigroup, PositiveCone,
                         UnsupportedOperation, UsageError, set_bits)


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

# near this many points, building the closure and table by & costs what
# it does by intersect on ax+b; cones cross later
SIGNATURE_POINTS = 7000


@dataclass(frozen=True)
class Verdict:
    """The answer of every decision procedure: whether the property holds,
    a witness (e.g. (s, t) with sS and tS disjoint, or the parts and target
    of a union that collapses), and the exact argument behind it."""

    holds: bool
    witness: object = None
    proof: str = None


class IdealCalculus:
    """Per-backend canonical arithmetic on constructible right ideals."""

    def __init_subclass__(cls, backend):
        backend.calculus_type = cls

    def __init__(self, sg):
        self.sg = sg

    # The facts about ideals that each subclass states: reversible_proof and
    # clifford_proof, why two principal right ideals always meet and why
    # their meet is empty or principal (unless it overrides left_reversible
    # or clifford, and independence and union_equals where not every
    # nonempty ideal is principal); thick_witness(gs), an x in S and in g.S
    # for every g of the nonempty gs, with its proof, or (None, proof) when
    # there is none; and where S has Folner boxes, folner_mean(X, N), the
    # exact density of X in the N-th box, and folner_constant(X), a c with
    # folner_mean(X, N) >= 1 - c/N for every N >= folner_least_n().

    def left_reversible(self):
        return Verdict(True, proof=self.reversible_proof)

    def clifford(self):
        return Verdict(True, proof=self.clifford_proof)

    def independence(self, members):
        """Whether no member of an intersection-closed family of nonempty
        ideals is the union of other members.  This default holds where
        every nonempty constructible ideal is principal."""
        return Verdict(
            True, proof="a union of members strictly inside qS must cover q, "
                        "which puts qS inside one of them")

    def signatures(self, family):
        """Each member's points on D as an int, 0 for EMPTY only, so that &
        is the meet; None for no D, or D past SIGNATURE_POINTS points."""
        return None

    def _no_folner_boxes(self, *args):
        raise UnsupportedOperation("no Folner boxes for %s"
                                   % self.sg.describe())

    folner_mean = folner_constant = folner_least_n = _no_folner_boxes

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
        """Exact decision of union(members) == Y.  This default holds where
        every nonempty constructible ideal is principal: a union of principal
        ideals is the principal Y only if Y is one of them and the rest lie
        inside it."""
        parts = [m for m in members if m is not EMPTY]
        if Y is EMPTY:
            return not parts
        return Y in parts and all(self.subset(p, Y) for p in parts)

    def key(self, X):
        if X is EMPTY:
            return (1,)
        return (0, self._key(X))

    def render(self, X):
        if X is EMPTY:
            return "empty"
        return self._render(X)


class _FreeMonoidIdeals(IdealCalculus, backend=FreeMonoid):
    # prefix combinatorics throughout: wS n vS is the longer word's ideal
    # when one extends the other and empty otherwise

    def left_reversible(self):
        if self.sg.alphabet_size == 1:
            return Verdict(True, proof="principal ideals chain")
        return Verdict(False, witness=((0,), (1,)),
                       proof="distinct letters give disjoint prefix ideals")

    clifford_proof = "prefix-comparable intersections"

    def thick_witness(self, gs):
        # g.S meets S iff the reduced word g is w v^-1 with w, v positive,
        # and then wS lies in g.S n S
        words = []
        for g in gs:
            signs = [x > 0 for x in g]
            if any(signs[i] and not signs[i - 1] for i in range(1, len(g))):
                return None, ("reduced word %r has an inverse letter left of "
                              "a positive one" % (g,))
            words.append(tuple(x - 1 for x in g if x > 0))
        words.sort(key=len)
        for v, w in zip(words, words[1:]):
            if w[:len(v)] != v:
                return None, ("positive parts %r and %r are prefix "
                              "incomparable" % (v, w))
        return words[-1], "prefix chain"

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

    def _key(self, w):
        return (len(w), w)

    def _render(self, w):
        return "S" if not w else self.sg.render(w) + "S"


class _ConeIdeals(IdealCalculus, backend=PositiveCone):
    # corner combinatorics: p + cone determines and is determined by p

    reversible_proof = "coordinatewise max is a common right multiple"
    clifford_proof = "coordinatewise-max intersections"

    def thick_witness(self, gs):
        return (tuple(max(0, *(g[i] for g in gs))
                      for i in range(self.sg.dimension)), "coordinatewise max")

    def folner_mean(self, X, N):
        num = 0 if X is EMPTY else math.prod(max(0, N - p) for p in X)
        return Fraction(num, N ** self.sg.dimension)

    def folner_constant(self, X):
        return sum(X)

    def folner_least_n(self):
        return 1

    def signatures(self, family):
        # x in the box is bit sum x_k side^k, and p + S is the product of
        # the stripes [p_k, B]: an int product of one repunit per coordinate
        side = 1 + max((max(p) for p in family if p is not EMPTY), default=0)
        if side ** self.sg.dimension > SIGNATURE_POINTS:
            return None
        runs = [[((1 << (side - a) * w) - 1) // ((1 << w) - 1) << a * w
                 for a in range(side)]
                for w in (side ** k for k in range(self.sg.dimension))]
        return [0 if p is EMPTY else math.prod(r[a] for r, a in zip(runs, p))
                for p in family]

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

    def _key(self, p):
        return (sum(p), p)

    def _render(self, p):
        return "S" if not any(p) else self.sg.render(p) + "+S"


class _NumIdeal(tuple):
    """The canonical pair (N, mask) of a numerical ideal, carrying ``bits``,
    the mask as a bitset.  It is equal to, hashes like and prints like the
    plain pair."""

    def __new__(cls, n, bits):
        self = super().__new__(cls, (n, tuple(set_bits(bits))))
        self.bits = bits
        return self


_NUMERICAL_FULL = _NumIdeal(0, 0)


def _mask_bits(X):
    try:
        return X.bits
    except AttributeError:  # a plain (N, mask) pair
        return sum(1 << m for m in X[1])


class _NumericalIdeals(IdealCalculus, backend=NumericalSemigroup):
    """Cofinite descriptions (threshold, mask) with exact set arithmetic.

    Every nonempty constructible ideal contains S n [N, oo) for some N
    because it contains a translate x0 + S, which is eventually all of S.

    The value stays the pair (N, mask), N minimal and mask the sorted tuple
    of the ideal's members below N, but each pair this calculus builds also
    carries its mask as a Python-int bitset (bit x set when x is in the
    mask).  Every operation is a few whole-int operations on these bits and
    on the semigroup's ``member_bits``: intersection is &, translation by s
    a shift left by s, a preimage under s a shift right by s masked by the
    members, and the threshold of a result the bit length of the members
    below its bound that it misses.

    ``_image`` and ``_intersect`` keep each answer, keyed by the grade and
    the (threshold, mask bits) of their arguments, so a plain pair shares
    the entry of the calculus' own value: the hull algebra asks the same
    few thousands of times per command.  This is exact, as both are pure
    functions of canonical values; an image that raises stores nothing.
    """

    reversible_proof = "principal ideals are cofinite"

    def __init__(self, sg):
        super().__init__(sg)
        # by (threshold, mask bits), every ideal built so far; by their
        # arguments, every image and meet answered so far
        self._built, self._images, self._meets = {}, {}, {}

    def clifford(self):
        sg = self.sg
        if sg.conductor == 0:
            return Verdict(True, proof="rescaled copy of Z+ (gcd %d)" % sg.gcd)
        # m the least nonzero member, n the least member outside mZ (the
        # least such generator; S is not mZ+).  The least member of mS n nS
        # is n + m, as n - m is not in S; but the least multiple jm with
        # jm - n in S lies in mS n nS and not in (n + m) + S
        m = sg.gens[0]
        n = next(g for g in sg.gens if g % m)
        meet = self.intersect(self.principal(m), self.principal(n))
        return Verdict(False, witness=(m, n, meet))

    def thick_witness(self, gs):
        d, c = self.sg.gcd, self.sg.conductor
        if any(g % d for g in gs):
            return None, "direction outside the lattice of S"
        return max([c] + [g + c for g in gs]), "conductor threshold"

    def folner_mean(self, X, N):
        inside = 0 if X is EMPTY else self._below(X, N).bit_count()
        return Fraction(inside, self.sg.member_bits(N).bit_count())

    def folner_constant(self, X):
        missing = self.sg.member_bits(X[0]).bit_count() \
            - _mask_bits(X).bit_count()
        return 2 * self.sg.gcd * missing

    def folner_least_n(self):
        # the bound of folner_constant holds from twice the conductor on
        return max(1, 2 * self.sg.conductor)

    def full(self):
        return _NUMERICAL_FULL

    def signatures(self, family):
        # the first multiple of the gcd from top on is a member below the
        # bound; no cap, as intersect builds bitsets of this size itself
        sg = self.sg
        top = max([sg.conductor] + [X[0] for X in family if X is not EMPTY])
        return [0 if X is EMPTY else self._below(X, top + sg.gcd)
                for X in family]

    def _canonical(self, bits, bound):
        # the ideal bits u (S n [bound, oo)), bits a set of members below
        # bound; the threshold is one past the greatest member below bound
        # that bits misses
        n = (self.sg.member_bits(bound) & ~bits).bit_length()
        key = (n, bits & ((1 << n) - 1))
        X = self._built.get(key)
        if X is None:
            X = self._built[key] = _NumIdeal(*key)
        return X

    def _below(self, X, bound):
        # the members of X in [0, bound) as a bitset
        n = X[0]
        if bound <= n:
            return _mask_bits(X) & ((1 << max(bound, 0)) - 1)
        return _mask_bits(X) | self.sg.member_bits(bound) >> n << n

    def _member(self, x, X):
        if x >= X[0]:
            return self.sg.contains(x)
        return x >= 0 and _mask_bits(X) >> x & 1 == 1

    def min_member(self, X):
        cut = X[0] + self.sg.conductor + self.sg.gcd + 1
        least = set_bits(self._below(X, cut))[:1]
        if not least:
            raise InvariantViolation("nonempty ideal with no member found")
        return least[0]

    def principal(self, s):
        c = self.sg.conductor
        return self._canonical(self.sg.member_bits(c) << s, s + c)

    def _translate(self, s, X):
        cut = X[0] + self.sg.conductor
        return self._canonical(self._below(X, cut) << s, s + cut)

    def _preimage(self, s, X):
        # t below the bound is in s^-1 X exactly when s + t is in the mask
        bound = max(0, X[0] - s)
        return self._canonical(self.sg.member_bits(bound) & _mask_bits(X) >> s,
                               bound)

    def _intersect(self, X, Y):
        key = (X[0], _mask_bits(X), Y[0], _mask_bits(Y))
        if (Z := self._meets.get(key)) is None:
            bound = max(X[0], Y[0])
            Z = self._meets[key] = self._canonical(
                self._below(X, bound) & self._below(Y, bound), bound)
        return Z

    def _image(self, g, X):
        key = (g, X[0], _mask_bits(X))
        if (Y := self._images.get(key)) is not None:
            return Y
        if g % self.sg.gcd:
            raise InvariantViolation("grade %r does not preserve S" % (g,))
        c = self.sg.conductor
        # beyond the cut, g + x >= conductor, so the tail shifts safely
        cut = max(X[0] + c, c - g)
        bits = self._below(X, cut)
        # every shifted member must land on a member of S, none below 0
        below_zero = g < 0 and bits & ((1 << -g) - 1)
        bits = bits << g if g >= 0 else bits >> -g
        if below_zero or bits & ~self.sg.member_bits(g + cut):
            raise InvariantViolation("grade %r does not map ideal into S" % (g,))
        Y = self._images[key] = self._canonical(bits, g + cut)
        return Y

    def principal_witness(self, X):
        m = self.min_member(X)
        return m if self.principal(m) == X else None

    def independence(self, members):
        # a union of members equals Y without containing Y as a member iff
        # the union of all members strictly inside Y is already Y, so one
        # pass over candidates suffices.  Witness covers prefer principal
        # ideals, which is what makes the reported violation legible
        for Y in members:
            below = [X for X in members if X != Y and self.subset(X, Y)]
            if below and self.union_equals(below, Y):
                below.sort(key=lambda X: (self.principal_witness(X) is None,
                                          self.key(X)))
                return Verdict(False,
                               witness=(_minimal_cover(self, below, Y), Y))
        return Verdict(True, proof="pairwise union check")

    def union_equals(self, members, Y):
        parts = [m for m in members if m is not EMPTY]
        if not parts:
            return Y is EMPTY
        if Y is EMPTY:
            return False
        bound = max(p[0] for p in parts)
        bits = 0
        for p in parts:
            bits |= self._below(p, bound)
        return self._canonical(bits, bound) == Y

    def _key(self, X):
        return X

    def _render(self, X):
        sg = self.sg
        cut = X[0] + sg.conductor + 4 * sg.gcd + 1
        lead = set_bits(self._below(X, cut))[:4]
        return "{%s,...}" % ",".join(str(m) for m in lead)


def _minimal_cover(cal, below, Y):
    # smallest sub-family of at most three strictly-below members whose
    # union is Y, else all of them
    for size in range(2, min(3, len(below)) + 1):
        for combo in combinations(below, size):
            if cal.union_equals(combo, Y):
                return combo
    return tuple(below)


def _crt(b, a, d, c):
    # x == b mod a, x == d mod c; moduli positive; returns residue mod lcm
    g = math.gcd(a, c)
    if (d - b) % g:
        return None
    l = a // g * c
    k = ((d - b) // g * pow(a // g, -1, c // g)) % (c // g) if c != g else 0
    return (b + a * k) % l, l


class _AxbIdeals(IdealCalculus, backend=AxPlusB):
    """Canonical pairs (b, a), a >= 1, 0 <= b < a for (b + aZ) x aZ^x.

    The family {EMPTY} u {principal ideals} is closed under the three
    operations because Z is a GCD domain; each operation lands back in the
    family by direct congruence arithmetic, which is the runtime shape
    assertion the representation relies on.
    """

    def left_reversible(self):
        # (0,2)S and (1,2)S are the even and the odd offsets at slope 2
        return Verdict(
            False, witness=((0, 2), (1, 2)),
            proof="residue classes with a common modulus are disjoint")

    clifford_proof = "gcd-domain coefficients (Z is a PID)"

    def thick_witness(self, gs):
        meet = self.full()
        for g in gs:
            meet = self.intersect(meet, self._shift_ideal(g))
            if meet is EMPTY:
                return None, "incompatible congruences"
        return meet, "congruence intersection"

    def _shift_ideal(self, g):
        """g.S n S as a canonical ideal, for g in the rational affine group."""
        p, r, d = g
        if math.gcd(r, d) != 1:
            # d | p + r*b would put each prime of gcd(r, d) into p, against
            # gcd(p, r, d) == 1: the offset can never be made integral
            return EMPTY
        b0 = -p * pow(r, -1, d) % d  # so d divides p + r*b0
        shifted = p + r * b0
        if shifted % d:
            raise InvariantViolation("congruence solution %d/%d is not integral"
                                     % (shifted, d))
        mod = abs(r)
        return (shifted // d % mod, mod)

    def full(self):
        return (0, 1)

    def signatures(self, family):
        # (b, a) is the class b + aZ: in Z/L its points b, b + a, ...
        modulus = math.lcm(*(X[1] for X in family if X is not EMPTY))
        if modulus > SIGNATURE_POINTS:
            return None
        every = (1 << modulus) - 1
        return [0 if X is EMPTY else every // ((1 << X[1]) - 1) << X[0]
                for X in family]

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
        p, r, d = g
        b, a = X
        bb, aa = p + r * b, r * a
        if bb % d or aa % d or aa == 0:
            raise InvariantViolation("grade %s does not map ideal into S"
                                     % self.sg.grading_group().render(g))
        m = abs(aa // d)
        return (bb // d % m, m)

    def principal_witness(self, X):
        return X  # (b, a) with a >= 1 is itself an element generating X

    def _key(self, X):
        return (X[1], X[0])

    def _render(self, X):
        return "S" if X == (0, 1) else "(%d,%d)S" % X


class _TableIdeals(IdealCalculus, backend=FiniteTable):
    # in a group every nonempty right ideal is all of S

    reversible_proof = "every ideal of a group is the whole group"
    clifford_proof = "group: every principal ideal is S"

    def thick_witness(self, gs):
        return self.sg.identity(), "group translates cover everything"

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

    def _key(self, X):
        return 0

    def _render(self, X):
        return "S"


def calculus(sg):
    """The ideal calculus of a backend, built once per backend instance."""
    return sg.calculus


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


def meet_keys(cal, members):
    """Keys for distinct members and their meet: signatures and &, else
    the members and intersect."""
    keys = cal.signatures(members)
    if keys is None:
        return members, cal.intersect
    if len(set(keys)) < len(members):
        raise InvariantViolation("signatures tie two distinct ideals")
    return keys, and_


def constructible_closure(sg, depth, generators=None):
    """The reachable ideals at ``depth``, closed under pairwise intersection.
    Sorted canonically, Full first.
    """
    cal = calculus(sg)
    reach = reachable_ideals(sg, depth, generators)
    keys, meet = meet_keys(cal, reach)
    family = dict(zip(keys, reach))
    # semi-naive: every member of the closure is a meet X1 n ... n Xk of
    # reachable ideals, and meets associate, so it is found by meeting
    # X1 n ... n X(k-1) with Xk.  The first pass meets every pair of
    # reachable ideals; each later pass meets only the ideals the pass
    # before it found with the reachable ones.  A key not seen before is
    # built once, by intersecting one pair whose keys meet in it
    rows = [(a, X, i + 1) for i, (a, X) in enumerate(family.items())]
    while rows:
        fresh = {}
        for a, X, start in rows:
            row = dict(zip(map(meet, repeat(a), keys[start:]), reach[start:]))
            for c in set(row).difference(family):
                family[c] = fresh[c] = cal.intersect(X, row[c])
        rows = [(a, X, 0) for a, X in fresh.items()]
    return tuple(sorted(family.values(), key=cal.key))


def clifford_check(sg):
    """Decide whether sS n tS is always empty or principal."""
    return calculus(sg).clifford()


def independence_check(sg, family):
    """Whether no member of an intersection-closed family is a union of
    other members, decided by the backend's calculus."""
    return calculus(sg).independence([X for X in family if X is not EMPTY])
