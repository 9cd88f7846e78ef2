"""Left reversibility, left thickness, the enveloping group of the
reversible backends, homomorphism extension to it, and exact Folner
averages.

Reversibility and thickness are decided exactly per backend; the search
branches exist only to produce canonical witnesses, never to approximate.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import random

from .ideals import EMPTY, calculus
from .semigroups import (AxPlusB, FiniteTable, FreeMonoid, Integers,
                         IntegerLattice, InvariantViolation,
                         NumericalSemigroup, PositiveCone,
                         UnsupportedOperation, UsageError)


@dataclass(frozen=True)
class ReversibilityVerdict:
    holds: bool
    witness: tuple = None  # (s, t) with sS and tS disjoint
    proof: str = None


@lru_cache(maxsize=None)
def is_left_reversible(sg):
    """Whether every two principal right ideals intersect."""
    if isinstance(sg, FreeMonoid):
        if sg.alphabet_size == 1:
            return ReversibilityVerdict(True, proof="principal ideals chain")
        return ReversibilityVerdict(False, witness=((0,), (1,)),
                                    proof="distinct letters give disjoint "
                                          "prefix ideals")
    if isinstance(sg, PositiveCone):
        return ReversibilityVerdict(True, proof="coordinatewise max is a "
                                                "common right multiple")
    if isinstance(sg, NumericalSemigroup):
        return ReversibilityVerdict(True, proof="principal ideals are "
                                                "cofinite")
    if isinstance(sg, FiniteTable):
        return ReversibilityVerdict(True, proof="every ideal of a group is "
                                                "the whole group")
    if isinstance(sg, AxPlusB):
        cal = calculus(sg)
        items = [(b, a) for a in range(1, 5) for b in range(a)]
        for j in range(len(items)):
            for i in range(j):
                if cal.intersect(items[i], items[j]) is EMPTY:
                    return ReversibilityVerdict(
                        False, witness=(items[i], items[j]),
                        proof="residue classes with a common modulus are "
                              "disjoint")
        raise InvariantViolation("expected a disjoint pair of arithmetic "
                                 "progressions")
    raise UsageError("unknown backend %r" % (sg,))


@dataclass(frozen=True)
class ThicknessVerdict:
    status: str            # "nonempty" | "empty" | "inconclusive"
    witness: object = None  # a common member when nonempty
    proof: str = None
    bound: int = None

    @property
    def nonempty(self):
        return self.status == "nonempty"


def _axb_shift_ideal(sg, g):
    """g.S meet S as a canonical ideal, for g in the rational affine group."""
    q1, q2 = g
    alpha, beta = q2.numerator, q2.denominator
    if beta % q1.denominator:
        return EMPTY  # the offset can never be made integral
    m = beta * q1.numerator // q1.denominator
    b0 = (-m * pow(alpha, -1, beta)) % beta if beta > 1 else 0
    shifted = q1 + q2 * b0
    if shifted.denominator != 1:
        raise InvariantViolation("congruence solution %r is not integral"
                                 % (shifted,))
    mod = abs(alpha)
    return (int(shifted) % mod, mod)


def _free_positive_split(g):
    """Reduced group word as (w, v) with g = w v^-1, or None."""
    signs = [x > 0 for x in g]
    if any(signs[i] and not signs[i - 1] for i in range(1, len(g))):
        return None
    w = tuple(x - 1 for x in g if x > 0)
    v = tuple(-x - 1 for x in reversed(g) if x < 0)
    return w, v


def left_thick_check(sg, gs, bound=64):
    """Decide whether the g-translates of S all meet S: is the set
    S infinitely spread out inside its grading group in the directions
    listed?  Exact for every backend; returns a common member on success.
    """
    G = sg.grading_group()
    gs = tuple(gs)
    for g in gs:
        if not G.contains(g):
            raise UsageError("%r is not a grading-group element" % (g,))
    if not gs:
        return ThicknessVerdict("nonempty", witness=sg.identity(),
                                proof="empty list")

    if isinstance(sg, PositiveCone):
        x = tuple(max(0, *(g[i] for g in gs)) for i in range(sg.dimension))
        return _verified_thick(sg, gs, x, "coordinatewise max")
    if isinstance(sg, NumericalSemigroup):
        d, c = sg.gcd, sg.conductor
        if any(g % d for g in gs):
            return ThicknessVerdict("empty", proof="direction outside the "
                                                   "lattice of S")
        x = max([c] + [g + c for g in gs])
        return _verified_thick(sg, gs, x, "conductor threshold")
    if isinstance(sg, FreeMonoid):
        words = []
        for g in gs:
            split = _free_positive_split(g)
            if split is None:
                return ThicknessVerdict(
                    "empty", proof="reduced word %r has an inverse letter "
                                   "left of a positive one" % (g,))
            words.append(split[0])
        words.sort(key=len)
        for i in range(1, len(words)):
            if words[i][:len(words[i - 1])] != words[i - 1]:
                return ThicknessVerdict(
                    "empty", proof="positive parts %r and %r are prefix "
                                   "incomparable" % (words[i - 1], words[i]))
        return _verified_thick(sg, gs, words[-1] if words else sg.identity(),
                               "prefix chain")
    if isinstance(sg, AxPlusB):
        cal = calculus(sg)
        meet = cal.full()
        for g in gs:
            meet = cal.intersect(meet, _axb_shift_ideal(sg, g))
            if meet is EMPTY:
                return ThicknessVerdict("empty",
                                        proof="incompatible congruences")
        return _verified_thick(sg, gs, meet, "congruence intersection")
    if isinstance(sg, FiniteTable):
        return _verified_thick(sg, gs, sg.identity(), "group translates "
                                                      "cover everything")
    raise UsageError("unknown backend %r" % (sg,))


def _verified_thick(sg, gs, x, proof):
    G = sg.grading_group()
    if not sg.contains(x):
        raise InvariantViolation("witness %r is not in S" % (x,))
    for g in gs:
        u = G.mul(G.inv(g), sg.embed(x))
        if sg.group_element_of(u) is None:
            raise InvariantViolation("witness %r misses translate by %r"
                                     % (x, g))
    return ThicknessVerdict("nonempty", witness=x, proof=proof)


@lru_cache(maxsize=None)
def group_of_S(sg):
    """The enveloping group of a left reversible backend, concretely."""
    rev = is_left_reversible(sg)
    if not rev.holds:
        raise UnsupportedOperation(
            "no group of fractions: ideals %rS and %rS are disjoint"
            % rev.witness, witness=rev.witness)
    if isinstance(sg, PositiveCone):
        return Integers(sg.dimension)
    if isinstance(sg, NumericalSemigroup):
        return IntegerLattice(sg.gcd)
    if isinstance(sg, FreeMonoid):
        return Integers(1)  # single letter, so word length is everything
    if isinstance(sg, FiniteTable):
        return sg.grading_group()
    raise UsageError("unknown backend %r" % (sg,))


def gamma(sg, s):
    """Canonical injection of S into its enveloping group."""
    G = group_of_S(sg)
    sg._check(s)
    if isinstance(sg, PositiveCone):
        return s
    if isinstance(sg, NumericalSemigroup):
        return s
    if isinstance(sg, FreeMonoid):
        return (len(s),)
    if isinstance(sg, FiniteTable):
        return s
    raise UsageError("unknown backend %r" % (sg,))


# ---------------------------------------------------------------------------
# homomorphisms out of S and their unique extension to the group


@dataclass(frozen=True)
class Homomorphism:
    """Images of the backend's generators inside a target group."""

    source: object
    target: object
    images: tuple

    def __post_init__(self):
        if len(self.images) != len(self.source.generators()):
            raise UsageError("need one image per generator")
        for g in self.images:
            if not self.target.contains(g):
                raise UsageError("image %r is outside the target" % (g,))


def _decompose(sg, s):
    """Multiplicities over generators(); deterministic smallest-first."""
    gens = sg.generators()
    if isinstance(sg, PositiveCone):
        return s
    if isinstance(sg, NumericalSemigroup):
        counts = {g: 0 for g in gens}
        x = s
        while x:
            for g in gens:
                rest = x - g
                if rest >= 0 and sg.contains(rest):
                    counts[g] += 1
                    x = rest
                    break
            else:
                raise InvariantViolation("%r is not a generator sum" % (s,))
        return tuple(counts[g] for g in gens)
    raise UsageError("no generator decomposition for %r" % (sg,))


def apply_homomorphism(hom, s):
    sg, T = hom.source, hom.target
    sg._check(s)
    if isinstance(sg, FiniteTable):
        if s == sg.identity():
            return T.identity()
        return hom.images[sg.generators().index(s)]
    if isinstance(sg, FreeMonoid):
        out = T.identity()
        for letter in s:
            out = T.mul(out, hom.images[letter])
        return out
    counts = _decompose(sg, s)
    out = T.identity()
    for img, k in zip(hom.images, counts):
        out = T.mul(out, T.power(img, k))
    return out


def validate_homomorphism(hom, window=12):
    """Relations of S must hold under the images."""
    sg, T = hom.source, hom.target
    win = sg.window_of_size(window)
    if apply_homomorphism(hom, sg.identity()) != T.identity():
        raise UsageError("identity is not preserved")
    for s in win:
        for t in win:
            lhs = apply_homomorphism(hom, sg.multiply(s, t))
            rhs = T.mul(apply_homomorphism(hom, s), apply_homomorphism(hom, t))
            if lhs != rhs:
                raise UsageError("images violate the relation at (%r, %r)"
                                 % (s, t))


class ExtendedHomomorphism:
    """The unique extension to the enveloping group; callable on any
    group element via fraction representatives."""

    def __init__(self, hom, basis_images):
        self.hom = hom
        self.group = group_of_S(hom.source)
        self.target = hom.target
        self.basis_images = tuple(basis_images)

    def of(self, g):
        sg, T = self.hom.source, self.target
        if not self.group.contains(g):
            raise UsageError("%r is outside the group" % (g,))
        if isinstance(sg, FiniteTable):
            return apply_homomorphism(self.hom, g)
        if isinstance(sg, NumericalSemigroup):
            return T.power(self.basis_images[0], g // sg.gcd)
        out = T.identity()
        for img, k in zip(self.basis_images, g):
            out = T.mul(out, T.power(img, k))
        return out


def extend_homomorphism(hom, pairs=100, seed=7, window=12):
    """Extend a validated homomorphism to the enveloping group via
    representatives gamma(s)^-1 gamma(t); re-verified on random pairs of
    representatives of the same group element, which must agree or the
    extension is impossible.
    """
    sg, T = hom.source, hom.target
    validate_homomorphism(hom, window=window)
    G = group_of_S(sg)  # raises with witness when not reversible
    win = sg.window_of_size(max(window, 30))

    if isinstance(sg, PositiveCone):
        basis = hom.images
    elif isinstance(sg, FreeMonoid):
        basis = hom.images
    elif isinstance(sg, NumericalSemigroup):
        d = sg.gcd
        pair = next(((s, s + d) for s in win if sg.contains(s + d)), None)
        if pair is None:
            raise InvariantViolation("no window pair at lattice distance")
        s0, t0 = pair
        basis = (T.mul(T.inv(apply_homomorphism(hom, s0)),
                       apply_homomorphism(hom, t0)),)
    elif isinstance(sg, FiniteTable):
        basis = hom.images
    else:
        raise UsageError("unknown backend %r" % (sg,))

    ext = ExtendedHomomorphism(hom, basis)
    for s in win:
        if ext.of(gamma(sg, s)) != apply_homomorphism(hom, s):
            raise InvariantViolation("extension disagrees with the "
                                     "homomorphism at %r" % (s,))
    rng = random.Random(seed)
    for _ in range(pairs):
        s = win[rng.randrange(len(win))]
        t = win[rng.randrange(len(win))]
        r = win[rng.randrange(len(win))]
        g = G.mul(G.inv(gamma(sg, s)), gamma(sg, t))
        v1 = T.mul(T.inv(apply_homomorphism(hom, s)),
                   apply_homomorphism(hom, t))
        s2, t2 = sg.multiply(s, r), sg.multiply(t, r)
        v2 = T.mul(T.inv(apply_homomorphism(hom, s2)),
                   apply_homomorphism(hom, t2))
        if not (v1 == v2 == ext.of(g)):
            raise InvariantViolation(
                "representatives (%r,%r) and (%r,%r) of %r disagree"
                % (s, t, s2, t2, g))
    return ext


# ---------------------------------------------------------------------------
# Folner averages


def folner_mean(sg, X, N):
    """Exact density |F_N meet X| / |F_N| over the standard Folner boxes."""
    if N < 1:
        raise UsageError("need N >= 1")
    if isinstance(sg, PositiveCone):
        if X is EMPTY:
            return Fraction(0)
        num = 1
        for p in X:
            num *= max(0, N - p)
        return Fraction(num, N ** sg.dimension)
    if isinstance(sg, NumericalSemigroup):
        if X is EMPTY:
            return Fraction(0)
        inside = calculus(sg).members_below(X, N)
        return Fraction(len(inside), len(sg.members_below(N)))
    raise UnsupportedOperation("no Folner boxes for %s" % sg.describe())


def folner_constant(sg, X):
    """c with folner_mean(X, N) >= 1 - c/N for every N >= folner_least_n(sg)."""
    if X is EMPTY:
        raise UsageError("the empty set has no density constant")
    if isinstance(sg, PositiveCone):
        return sum(X)
    if isinstance(sg, NumericalSemigroup):
        n, mask = X
        missing = len(sg.members_below(n)) - len(mask)
        return 2 * sg.gcd * missing
    raise UnsupportedOperation("no Folner boxes for %s" % sg.describe())


def folner_least_n(sg):
    """The least N from which the bound of folner_constant holds: 1 for the
    cone, twice the conductor for a numerical semigroup."""
    if isinstance(sg, PositiveCone):
        return 1
    if isinstance(sg, NumericalSemigroup):
        return max(1, 2 * sg.conductor)
    raise UnsupportedOperation("no Folner boxes for %s" % sg.describe())
