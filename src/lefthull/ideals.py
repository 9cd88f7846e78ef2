"""Constructible right ideals in canonical form, and decisions about them.

Each backend gets a small calculus object.  It states the canonical ideal
values, membership and meets.  Translation follows from the backend, and
where every value is a principal ideal so do, by default, image,
preimage, key and rendering (see IdealCalculus):

* FreeMonoid:          a word w, denoting wS          (Full is the empty word)
* PositiveCone:        a corner p, denoting p + (Z+)^n
* NumericalSemigroup:  a pair of ints (N, mask) denoting mask u (S n [N, oo)),
                       threshold minimal, mask the bitset of members < N;
                       every operation runs on these bits and the
                       semigroup's ``member_bits``
* AxPlusB:             a pair (b, a) with a >= 1, 0 <= b < a, denoting
                       (b + aZ) x aZ^x
* FiniteTable:         the identity e alone, denoting eS = S (every
                       nonempty right ideal of a group is S)

The shared EMPTY sentinel denotes the empty ideal for every backend.

All closure properties here are theorems about the backends; the calculus
never approximates.  ``image`` computes the forward translate g . X of an
ideal by a grading-group element and is the workhorse for the hull algebra;
it raises when the result would leave S, which honest callers never trigger.
``pullback(g, X, D)``, D n g^-1 X, is by default g^-1 (X n g . D), as
on ax+b; the free monoid and the cone answer it in one step after the
action g . D, the numerical calculus on bits.  ``window_positions(X, W)``
is one membership test per point of W, or the bits of X on a numerical
semigroup's own windows.

Each calculus class also answers, exactly, the questions about ideals asked
of every left cancellative S: left reversibility, the Clifford condition,
independence of a family, left thickness and Folner densities.  A subclass
names the backend it serves, which builds it once per instance.
Independence is such a per-calculus fact: where every nonempty
constructible ideal is principal it holds by one argument, and only the
numerical calculus searches a family for a union that collapses.

``signatures`` gives an ideal's points on a set D that separates meets:
* free monoid: the family's own words; wS holds the words w prefixes
* cone: d copies of [0, B], B the top coordinate; p + S holds [p_k, B] in
  the k-th, and the max of two corners takes the later start in each
* numerical: [0, M), M past the conductor and thresholds: all agree from M
* axb: Z/L, L the lcm of the moduli, which divides every meet's modulus
* finite table: the identity alone
"""

from bisect import bisect_left
from collections import namedtuple
from itertools import combinations, compress, repeat
import math
from operator import and_, ge, sub

from .semigroups import (AxPlusB, FiniteTable, FreeMonoid, InvariantViolation,
                         NumericalSemigroup, PositiveCone,
                         UnsupportedOperation, UsageError, set_bits)


class _EmptyIdeal:
    __slots__ = ()

    def __repr__(self):
        return "EMPTY"


EMPTY = _EmptyIdeal()


# the kind of meet key alone: past this many points of Z/L, ax+b keys its
# members by themselves, met by intersect, as the lattice build, the same on
# either kind, is no faster on signatures there (it is at L = 1,296 and is
# not at L = 7,776)
SIGNATURE_POINTS = 7000


class Verdict(namedtuple("Verdict", "holds witness proof",
                         defaults=(None, None))):
    """The answer of every decision procedure: whether the property holds,
    a witness (e.g. (s, t) with sS and tS disjoint, or the parts and target
    of a union that collapses), and the exact argument behind it."""

    __slots__ = ()


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
        """An injective map of the family into ints, each member's points
        on D as bits: & is the meet on the family's meet closure, and 0
        means exactly EMPTY.  None only on ax+b, where D = Z/L would pass
        SIGNATURE_POINTS points."""
        raise NotImplementedError

    def _no_folner_boxes(self, *args):
        raise UnsupportedOperation("no Folner boxes for %s"
                                   % self.sg.describe())

    folner_mean = folner_constant = folner_least_n = _no_folner_boxes

    # Translation follows from the backend on every calculus.  The other
    # defaults hold where each nonempty value is an element q denoting qS,
    # and principal(q) is its canonical form.  For s in S, g in the
    # grading group with g.X in S, and left cancellation:
    # * sX = embed(s).X, as s.x is embed(s).x read back in S;
    # * g.(qS) = (g.q)S, as g.(q t) = (g.q) t, and g.q is in g.X;
    # * s^-1(qS) = (s\r)S where sS n qS = rS, and EMPTY where they are
    #   disjoint: st is in rS = s (s\r) S iff t is in (s\r)S.
    # An ideal qS sorts and prints as the backend sorts and prints q.

    def _translate(self, s, X):
        return self._image(self.sg._embed(s), X)

    def _image(self, g, X):
        return self.principal(self.sg.act(g, X))

    def _preimage(self, s, X):
        r = self._intersect(self.principal(s), X)
        return r if r is EMPTY else self.principal(self.sg._ldiv(s, r))

    def _key(self, X):
        return self.sg.key(X)

    def _render(self, X):
        return "S" if X == self.full() else self.sg.render(X) + "S"

    def full(self):
        return self.sg.identity()

    def is_member(self, x, X):
        if X is EMPTY:
            return False
        return self._member(x, X)

    def principal(self, s):
        return s

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
        return self.intersect(X, Y) == X

    def image(self, g, X):
        """g . X for a grading-group element g with g . X contained in S."""
        if X is EMPTY:
            return EMPTY
        return self._image(g, X)

    def pullback(self, g, X, D):
        """D n g^-1 X, the domain of f after h = (g, D) with dom f = X:
        g^-1 (X n g . D), which raises where g . D leaves S."""
        return self.image(self.sg.grading_group().inv(g),
                          self.intersect(X, self.image(g, D)))

    def window_positions(self, X, W):
        """The positions j with W[j] in X, one membership test each."""
        return () if X is EMPTY else tuple(compress(range(len(W)), map(
            self._member, W, repeat(X))))

    def principal_witness(self, X):
        """q with X == qS, or None when X is not principal."""
        return X

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

    def _member(self, x, w):
        return x[:len(w)] == w

    def _intersect(self, w, v):
        if w[:len(v)] == v:
            return w
        if v[:len(w)] == w:
            return v
        return EMPTY

    def pullback(self, g, X, D):
        # g.(D u) = y u for y = g.D, and y u is in XS iff X prefixes y u:
        # for u in zS when X = y z, every u when X prefixes y, else none
        if X is EMPTY or D is EMPTY:
            return EMPTY
        y = self.sg.act(g, D)  # raises where g.D leaves S
        if X[:len(y)] == y:
            return D + X[len(y):]
        return D if y[:len(X)] == X else EMPTY

    def signatures(self, family):
        # in lexicographic order the words w prefixes run from w up to,
        # not including, w followed by a letter past the alphabet
        words = sorted(w for w in family if w is not EMPTY)
        past = (self.sg.alphabet_size,)
        return [0 if w is EMPTY else (1 << bisect_left(words, w + past))
                - (1 << bisect_left(words, w)) for w in family]


class _ConeIdeals(IdealCalculus, backend=PositiveCone):
    # corner combinatorics: p + cone determines and is determined by p

    reversible_proof = "coordinatewise max is a common right multiple"
    clifford_proof = "coordinatewise-max intersections"

    def thick_witness(self, gs):
        return (tuple(max(0, *(g[i] for g in gs))
                      for i in range(self.sg.dimension)), "coordinatewise max")

    def folner_mean(self, X, N):
        from fractions import Fraction  # not at import: it costs start-up
        num = 0 if X is EMPTY else math.prod(max(0, N - p) for p in X)
        return Fraction(num, N ** self.sg.dimension)

    def folner_constant(self, X):
        return sum(X)

    def folner_least_n(self):
        return 1

    def signatures(self, family):
        # coordinate k holds bits [k side, (k + 1) side), and p + S the run
        # [p_k, B] of them; no run is empty, so no meet is
        side = 1 + max((max(p) for p in family if p is not EMPTY), default=0)
        full = (1 << side) - 1
        return [0 if p is EMPTY else
                sum((full >> a << a) << k * side for k, a in enumerate(p))
                for p in family]

    def _member(self, x, p):
        return all(map(ge, x, p))

    def _intersect(self, p, q):
        return tuple(map(max, p, q))

    def pullback(self, g, X, D):
        # D + u is in g^-1 (X + S) iff g + D + u >= X, so the meet is the
        # corner max(D, X - g), in S as it is >= D
        if X is EMPTY or D is EMPTY:
            return EMPTY
        self.sg.act(g, D)  # raises where g + D leaves S
        return tuple(map(max, D, map(sub, X, g)))

    def _render(self, p):
        return "S" if not any(p) else self.sg.render(p) + "+S"


class _NumericalIdeals(IdealCalculus, backend=NumericalSemigroup):
    """Cofinite descriptions (threshold, mask) with exact set arithmetic.

    Every nonempty constructible ideal contains S n [N, oo) for some N
    because it contains a translate x0 + S, which is eventually all of S.

    The value is the plain pair of ints (N, mask): N minimal, and mask the
    ideal's members below N as a bitset (bit x set when x is a member).
    Every operation is a few whole-int operations on masks and on the
    semigroup's ``member_bits``: intersection is &, translation by s a
    shift left by s, a preimage under s a shift right by s masked by the
    members, and the threshold of a result the bit length of the members
    below its bound that it misses.  The key is N and the mask's members
    as a sorted tuple.

    ``_image`` keeps each answer by grade and value, as the range check of
    each ``pullback`` asks it again (919 of 1,550 asks repeat in ``check``
    on <10,11>).  This is exact, as the image is a pure function of
    canonical values; an image that raises stores nothing.
    """

    reversible_proof = "principal ideals are cofinite"

    def __init__(self, sg):
        super().__init__(sg)
        self._images = {}  # by (grade, value), every image answered so far

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
        from fractions import Fraction
        inside = 0 if X is EMPTY else self._below(X, N).bit_count()
        return Fraction(inside, self.sg.member_bits(N).bit_count())

    def folner_constant(self, X):
        missing = self.sg.member_bits(X[0]).bit_count() - X[1].bit_count()
        return 2 * self.sg.gcd * missing

    def folner_least_n(self):
        # the bound of folner_constant holds from twice the conductor on
        return max(1, 2 * self.sg.conductor)

    def full(self):
        return (0, 0)

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
        return n, bits & ((1 << n) - 1)

    def _below(self, X, bound):
        # the members of X in [0, bound) as a bitset
        n, mask = X
        if bound <= n:
            return mask & ((1 << max(bound, 0)) - 1)
        return mask | self.sg.member_bits(bound) >> n << n

    def _member(self, x, X):
        if x >= X[0]:
            return self.sg.contains(x)
        return x >= 0 and X[1] >> x & 1 == 1

    def min_member(self, X):
        cut = X[0] + self.sg.conductor + self.sg.gcd + 1
        least = set_bits(self._below(X, cut))[:1]
        if not least:
            raise InvariantViolation("nonempty ideal with no member found")
        return least[0]

    def principal(self, s):
        c = self.sg.conductor
        return self._canonical(self.sg.member_bits(c) << s, s + c)

    def _preimage(self, s, X):
        # t below the bound is in s^-1 X exactly when s + t is in the mask
        bound = max(0, X[0] - s)
        return self._canonical(self.sg.member_bits(bound) & X[1] >> s, bound)

    def _intersect(self, X, Y):
        bound = max(X[0], Y[0])
        return self._canonical(self._below(X, bound) & self._below(Y, bound),
                               bound)

    def _image(self, g, X):
        key = (g, X)
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

    def pullback(self, g, X, D):
        # t in D with t + g in X, by bits below b; from b on every member t
        # is in D and t + g in X, as g . D lies in S, which _image checks
        if X is EMPTY or D is EMPTY:
            return EMPTY
        self._image(g, D)
        b = max(D[0], X[0] - g, 0)
        xb = self._below(X, b + g) >> g if g >= 0 \
            else self._below(X, max(b + g, 0)) << -g
        return self._canonical(self._below(D, b) & xb, b)

    def window_positions(self, X, W):
        # the backend's own windows hold the least members of S, so every
        # member of X up to the last point is a point
        if X is EMPTY or not W or W is not self.sg._windows.get(len(W)):
            return super().window_positions(X, W)
        return tuple(map(W.index.__getitem__,
                         set_bits(self._below(X, W[-1] + 1))))

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
        return X[0], tuple(set_bits(X[1]))

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

    The pair (b, a) is its own generator: (b + aZ) x aZ^x = (b, a)S, and
    principal reduces any element to this form.  The family {EMPTY} u
    {principal ideals} is closed under the meet because Z is a GCD domain,
    which this calculus states by congruence arithmetic, with membership,
    a closed-form preimage (a meet and a division cost more), s(qS) = (sq)S
    and a key by modulus; image and rendering follow from AxPlusB.
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

    def _translate(self, s, X):
        return self.principal(self.sg._mul(s, X))

    def _intersect(self, X, Y):
        return _crt(*X, *Y) or EMPTY

    def _key(self, X):
        return (X[1], X[0])


class _TableIdeals(IdealCalculus, backend=FiniteTable):
    # in a group every nonempty right ideal is all of S = eS, so every
    # operation on a nonempty ideal answers the identity, with no division

    reversible_proof = "every ideal of a group is the whole group"
    clifford_proof = "group: every principal ideal is S"

    def thick_witness(self, gs):
        return self.sg.identity(), "group translates cover everything"

    def _identity(self, *args):
        return self.sg.identity()

    principal = _preimage = _intersect = _image = _identity

    def _member(self, x, X):
        return True

    def signatures(self, family):
        return [0 if X is EMPTY else 1 for X in family]


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
    """Keys for distinct members and the meet on them: the signatures and
    &, or, on ax+b past SIGNATURE_POINTS, the members and intersect.  The
    closure and the lattice run the same on either.  Raises
    InvariantViolation where two signatures tie."""
    keys = cal.signatures(members)
    if keys is None:
        return members, cal.intersect
    if len(set(keys)) < len(members):
        raise InvariantViolation("signatures tie two distinct ideals")
    return keys, and_


def constructible_closure(sg, depth, generators=None, reachable=None):
    """The reachable ideals at ``depth``, closed under pairwise intersection.
    Sorted canonically, Full first.  A caller that holds the reachable
    ideals passes them as ``reachable``.

    One reachable ideal R at a time, in canonical order: F holds the meets
    of the reachable ideals before R.  A meet of those and R leaves R out
    (it is in F), is R alone, or is f n R for an f in F.  So F, R and each
    f n R is the next F, closed as (f n R) n (g n R) = (f n g) n R, and an
    R in F adds nothing: sum |F| meets of keys.  A new key is a later
    reachable ideal's (found by ``in``: the free monoid's S is the falsy
    ()), or its ideal is built by one intersect.
    """
    cal = calculus(sg)
    reach = reachable or reachable_ideals(sg, depth, generators)
    keys, meet = meet_keys(cal, reach)
    reached = dict(zip(keys, reach))
    family = {}
    for r, R in reached.items():
        if r not in family:
            row = dict(zip(map(meet, family, repeat(r)), family.values()))
            family[r] = R
            for c in row.keys() - family.keys():
                family[c] = reached[c] if c in reached \
                    else cal.intersect(row[c], R)
    return tuple(sorted(family.values(), key=cal.key))


def clifford_check(sg):
    """Decide whether sS n tS is always empty or principal."""
    return calculus(sg).clifford()


def independence_check(sg, family):
    """Whether no member of an intersection-closed family is a union of
    other members, decided by the backend's calculus."""
    return calculus(sg).independence([X for X in family if X is not EMPTY])
