"""Left reversibility, left thickness, the enveloping group of the
reversible backends, homomorphism extension to it, and exact Folner
averages.

Every answer is exact and comes from the backend (its groups, gamma,
generator words and group coordinates) or from its ideal calculus
(reversibility, thickness, Folner densities); the code here is the part
shared by all backends.
"""

from collections import namedtuple
import random

from .ideals import EMPTY, Verdict, calculus
from .semigroups import InvariantViolation, UnsupportedOperation, UsageError


def is_left_reversible(sg):
    """Whether every two principal right ideals intersect."""
    return calculus(sg).left_reversible()


def left_thick_check(sg, gs):
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
        return Verdict(True, witness=sg.identity(), proof="empty list")
    x, proof = calculus(sg).thick_witness(gs)
    if x is None:
        return Verdict(False, proof=proof)
    if not sg.contains(x):
        raise InvariantViolation("witness %r is not in S" % (x,))
    for g in gs:
        u = G.mul(G.inv(g), sg.embed(x))
        if sg.group_element_of(u) is None:
            raise InvariantViolation("witness %r misses translate by %r"
                                     % (x, g))
    return Verdict(True, witness=x, proof=proof)


def group_of_S(sg):
    """The enveloping group of a left reversible backend, concretely."""
    rev = is_left_reversible(sg)
    if not rev.holds:
        cal = calculus(sg)
        raise UnsupportedOperation(
            "no group of fractions: ideals %s and %s are disjoint"
            % tuple(cal.render(cal.principal(s)) for s in rev.witness),
            witness=rev.witness)
    return sg.fraction_group


def gamma(sg, s):
    """Canonical injection of S into its enveloping group."""
    group_of_S(sg)  # raises when S has no group of fractions
    return sg.gamma(s)


# ---------------------------------------------------------------------------
# homomorphisms out of S and their unique extension to the group


class Homomorphism(namedtuple("Homomorphism", "source target images")):
    """Images of the backend's generators inside a target group."""

    __slots__ = ()

    def __new__(cls, source, target, images):
        if len(images) != len(source.generators()):
            raise UsageError("need one image per generator")
        for g in images:
            if not target.contains(g):
                raise UsageError("image %r is outside the target" % (g,))
        return super().__new__(cls, source, target, images)


def apply_homomorphism(hom, s):
    """The product of the images along the generator word of s."""
    sg, T = hom.source, hom.target
    sg._check(s)
    out = T.identity()
    for i in sg.generator_word(s):
        out = T.mul(out, hom.images[i])
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
    group element through its coordinates over the basis."""

    def __init__(self, hom, basis_images):
        self.hom = hom
        self.group = group_of_S(hom.source)
        self.target = hom.target
        self.basis_images = tuple(basis_images)

    def of(self, g):
        T = self.target
        if not self.group.contains(g):
            raise UsageError("%r is outside the group" % (g,))
        out = T.identity()
        for i, k in self.hom.source.group_coordinates(g):
            out = T.mul(out, T.power(self.basis_images[i], k))
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
    ext = ExtendedHomomorphism(hom, (
        T.mul(T.inv(apply_homomorphism(hom, s)), apply_homomorphism(hom, t))
        for s, t in sg.fraction_basis()))
    for s in win:
        if ext.of(gamma(sg, s)) != apply_homomorphism(hom, s):
            raise InvariantViolation("extension disagrees with the "
                                     "homomorphism at %r" % (s,))
    rng = random.Random(seed)
    for _ in range(pairs):
        s, t, r = rng.choice(win), rng.choice(win), rng.choice(win)
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
    return calculus(sg).folner_mean(X, N)


def folner_constant(sg, X):
    """c with folner_mean(X, N) >= 1 - c/N for every
    N >= calculus(sg).folner_least_n()."""
    if X is EMPTY:
        raise UsageError("the empty set has no density constant")
    return calculus(sg).folner_constant(X)
