"""Fraction-pair grades of the ax+b semigroup: the oracle for int triples.

The grading group Q x Q^x of ``AxPlusB`` holds each element as one canonical
int triple (p, r, d) for x -> (r/d)x + p/d.  Before that, each element was a
pair (q1, q2) of ``fractions.Fraction`` for x -> q2*x + q1, and this module
keeps that path: the Fraction-pair group, the Fraction bodies of
``AxPlusB.act``/``group_element_of``, of the calculus' ideal image and of
``_AxbIdeals._shift_ideal``/``thick_witness``, a hull enumeration over
them, and the conversions between the two forms.

It also keeps the int-triple ideal translation, image and rendering that
``_AxbIdeals`` stated itself before they followed from ``AxPlusB``.
"""

from fractions import Fraction
import math

from lefthull.hull import ZERO
from lefthull.ideals import EMPTY
from lefthull.semigroups import InvariantViolation


def to_pair(g):
    """The Fraction pair (q1, q2) of a triple (p, r, d)."""
    p, r, d = g
    return (Fraction(p, d), Fraction(r, d))


def to_triple(q):
    """The canonical triple of a Fraction pair: both over their lcd."""
    q1, q2 = q
    d = math.lcm(q1.denominator, q2.denominator)
    return (q1.numerator * (d // q1.denominator),
            q2.numerator * (d // q2.denominator), d)


class FractionAffine:
    """Q x Q^x with (q1,q2)(r1,r2) = (q1 + q2*r1, q2*r2); exact fractions."""

    def identity(self):
        return (Fraction(0), Fraction(1))

    def mul(self, g, h):
        return (g[0] + g[1] * h[0], g[1] * h[1])

    def inv(self, g):
        return (-g[0] / g[1], 1 / g[1])

    def contains(self, g):
        return (isinstance(g, tuple) and len(g) == 2
                and all(isinstance(q, Fraction) for q in g) and g[1] != 0)

    def key(self, g):
        return (g[0].numerator, g[0].denominator,
                g[1].numerator, g[1].denominator)

    def render(self, g):
        return "(%s,%s)" % (g[0], g[1])


def act(g, x):
    q1, q2 = g
    b = q1 + q2 * x[0]
    a = q2 * x[1]
    if b.denominator != 1 or a.denominator != 1 or a == 0:
        raise InvariantViolation("group element does not map %r into S" % (x,))
    return (int(b), int(a))


def group_element_of(g):
    q1, q2 = g
    if q1.denominator == 1 and q2.denominator == 1 and q2 != 0:
        return (int(q1), int(q2))
    return None


def image(g, X):
    if X is EMPTY:
        return EMPTY
    q1, q2 = g
    b, a = X
    bb = q1 + q2 * b
    aa = q2 * a
    if bb.denominator != 1 or aa.denominator != 1 or aa == 0:
        raise InvariantViolation("grade %r does not map ideal into S" % (g,))
    m = abs(int(aa))
    return (int(bb) % m, m)


def triple_translate(s, X):
    d, c = s
    b, a = X
    m = abs(c * a)
    return ((d + c * b) % m, m)


def triple_image(g, X):
    p, r, d = g
    b, a = X
    bb, aa = p + r * b, r * a
    if bb % d or aa % d or aa == 0:
        raise InvariantViolation("grade %r does not map ideal into S" % (g,))
    m = abs(aa // d)
    return (bb // d % m, m)


def render(X):
    return "S" if X == (0, 1) else "(%d,%d)S" % X


def shift_ideal(g):
    """g.S n S as a canonical ideal, for g in the rational affine group."""
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


def thick_witness(cal, gs):
    """The ax+b calculus' thick_witness with Fraction-pair grades."""
    meet = cal.full()
    for g in gs:
        meet = cal.intersect(meet, shift_ideal(g))
        if meet is EMPTY:
            return None, "incompatible congruences"
    return meet, "congruence intersection"


def compose(cal, f, h):
    """f after h for hull elements held as (Fraction pair, domain)."""
    if f is ZERO or h is ZERO:
        return ZERO
    G = FractionAffine()
    meet = cal.intersect(f[1], image(h[0], h[1]))
    if meet is EMPTY:
        return ZERO
    return (G.mul(f[0], h[0]), image(G.inv(h[0]), meet))


def enumerate_hull(sg, length, generators=None):
    """The set of hull elements of ``hull.enumerate_hull``, each held as
    (Fraction pair, domain), composed here with Fraction arithmetic."""
    cal = sg.calculus
    G = FractionAffine()
    letters = (sg.identity(),) + tuple(
        generators if generators is not None else sg.generators())
    lam = {s: ((Fraction(s[0]), Fraction(s[1])), cal.full()) for s in letters}
    atoms = [compose(cal, (G.inv(lam[t][0]), image(*lam[t])), lam[s])
             for t in letters for s in letters]
    one = (G.identity(), cal.full())
    seen, level = {one}, [one]
    for _ in range(length):
        nxt = []
        for f in level:
            if f is ZERO:
                continue
            for a in atoms:
                g = compose(cal, f, a)
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
        level = nxt
    return seen
