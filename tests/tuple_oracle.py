"""The generator-expression free and cone arithmetic: the oracle for the
tuple kernels of the free and cone backends.

``reduce_signed`` reduces a whole signed word letter by letter, which is how
the free group multiplied before it cancelled only at the junction of its
two reduced factors.  The cone functions walk coordinate pairs in generator
expressions with ``any``/``all``, as the cone backend, its grading group Z^n
and its ideal calculus did before they ran on ``map``.  Each raises or
answers None exactly where the backend must.  The ideal maps, keys and
renderings below are the bodies each calculus stated for itself before
they followed from the backend (``IdealCalculus``).
"""

from lefthull import InvariantViolation
from lefthull.ideals import EMPTY


def reduce_signed(word):
    # free-group reduction; word is an iterable of nonzero ints, +i and -i
    # denoting generator i-1 and its inverse
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


# -- the free group and the free monoid -------------------------------------

def free_mul(g, h):
    return reduce_signed(g + h)


def free_inv(g):
    return tuple(-x for x in reversed(g))


def free_embed(s):
    return tuple(l + 1 for l in s)


def free_act(g, x):
    r = reduce_signed(g + tuple(l + 1 for l in x))
    if any(v < 0 for v in r):
        raise InvariantViolation("group element does not map %r into S" % (x,))
    return tuple(v - 1 for v in r)


def free_group_element_of(g):
    if all(v > 0 for v in g):
        return tuple(v - 1 for v in g)
    return None


def free_translate(s, w):
    return s + w


def free_preimage(s, w):
    if s[:len(w)] == w:
        return ()
    if w[:len(s)] == s:
        return w[len(s):]
    return EMPTY


def free_key(w):
    return (len(w), w)


def free_render(sg, w):
    return "S" if not w else sg.render(w) + "S"


# -- Z^n, the cone and its ideal calculus -----------------------------------

def integers_mul(g, h):
    return tuple(a + b for a, b in zip(g, h))


def integers_inv(g):
    return tuple(-a for a in g)


def cone_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def cone_ldiv(s, t):
    r = tuple(y - x for x, y in zip(s, t))
    return r if all(a >= 0 for a in r) else None


def cone_act(g, x):
    r = tuple(a + b for a, b in zip(g, x))
    if any(a < 0 for a in r):
        raise InvariantViolation("group element does not map %r into S" % (x,))
    return r


def cone_member(x, p):
    return all(a >= b for a, b in zip(x, p))


def cone_translate(s, p):
    return tuple(a + b for a, b in zip(s, p))


def cone_preimage(s, p):
    return tuple(max(b - a, 0) for a, b in zip(s, p))


def cone_intersect(p, q):
    return tuple(max(a, b) for a, b in zip(p, q))


def cone_key(p):
    return (sum(p), p)
