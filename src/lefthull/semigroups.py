"""Backend semigroups: canonical elements, exact operations, group embeddings.

Five concrete left cancellative monoids are supported:

* ``FreeMonoid(k)``         words over a k-letter alphabet, concatenation
* ``PositiveCone(n)``       (Z+)^n under addition
* ``NumericalSemigroup``    the submonoid of (Z+,+) generated by given integers
* ``AxPlusB()``             Z x Z^x with (b,a)*(d,c) = (b+a*d, a*c)
* ``FiniteTable``           a finite left cancellative monoid (hence a group)

Element values are plain hashable data (tuples, ints); the backend object
carries the operations.  Every backend embeds into a concrete group used for
grading; the group classes live here as well so the two layers share one
vocabulary.  Grades are plain ints or int tuples for every backend, the
rational ax+b grades included.

A numerical semigroup holds its membership once, as one int bitset of the
members below its conductor, sieved by shifts up to Schur's bound on the
conductor; its gcd and conductor are read off the same sieve.

Each backend class also supplies, in one place, the facts the other modules
ask of it: its grading group and ideal calculus (both built once per
instance), and where S is left reversible its enveloping ``fraction_group``,
the injection ``gamma``, ``generator_word``, ``fraction_basis`` and
``group_coordinates``.  Reversibility, the Clifford condition, thickness and
Folner densities are facts about ideals, stated by the calculus classes.

``Group`` and ``Semigroup`` list what a backend must define, and derive the
rest for plain values: the key is the value, the rendering ``str`` or
``(a,b,...)`` without spaces, ``parse`` reads it back and accepts what
``contains`` accepts, and ``group_element_of(g)`` is g where S holds it.
"""

from functools import cached_property
from itertools import combinations, compress, count, pairwise, product, repeat
import math
from operator import add, invert, neg, sub


class UsageError(ValueError):
    """Raised when an operation is called with arguments it cannot accept."""


class UnsupportedOperation(RuntimeError):
    """Raised when a backend does not support the requested operation.

    Carries an optional ``witness`` explaining why (e.g. a pair of elements
    whose principal ideals are disjoint).
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvariantViolation(AssertionError):
    """An internal exactness invariant failed; never a silent fallback."""


class Value:
    """An immutable value, like a frozen dataclass but with no generated
    code.  Its fields are the names annotated in the class body, in order; a
    class attribute of the same name is a default.  Equality is by class and
    fields, the hash that of the fields; only ``__post_init__`` may rewrite
    a field (by ``object.__setattr__``).  Cached properties are not fields."""

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(vars(cls).get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self._fields
        given = dict(zip(names, args), **kwargs)  # drops surplus args
        if (len(given) < len(args) + len(kwargs) or given.keys() - names
                or any(n not in given and not hasattr(cls, n) for n in names)):
            raise TypeError("%s takes the fields %s" % (cls.__name__, names))
        self.__dict__.update((n, given[n] if n in given else getattr(cls, n))
                             for n in names)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self):
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            map("%s=%r".__mod__, zip(self._fields, self._values()))))

    def __setattr__(self, name, *value):
        raise AttributeError("cannot assign to field %r" % name)

    __delattr__ = __setattr__


def _text(x):
    # the default rendering, which Semigroup.parse reads back
    return "(%s)" % ",".join(map(str, x)) if isinstance(x, tuple) else str(x)


# ---------------------------------------------------------------------------
# groups


class Group(Value):
    """A concrete group with canonical hashable element values.  It defines
    ``identity``, ``mul``, ``inv`` and ``contains``; ``key`` (the value)
    and ``render`` (``str`` or ``(a,b,...)``) are derived for plain values."""

    def identity(self):
        raise NotImplementedError

    def mul(self, g, h):
        raise NotImplementedError

    def inv(self, g):
        raise NotImplementedError

    def contains(self, g):
        raise NotImplementedError

    def key(self, g):
        """Total order key; used only for deterministic output."""
        return g

    render = staticmethod(_text)

    def power(self, g, n):
        if n < 0:
            return self.power(self.inv(g), -n)
        acc = self.identity()
        for _ in range(n):
            acc = self.mul(acc, g)
        return acc

    def describe(self):
        return repr(self)


def _junction(g, h, inverse=neg):
    # how many letters cancel in the product of the reduced words g and h:
    # only the end of g against the start of h, since neither cancels alone;
    # inverse(h[k]) is the inverse letter of h[k] in g's alphabet
    k, m = 0, min(len(g), len(h))
    while k < m and g[-1 - k] == inverse(h[k]):
        k += 1
    return k


_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_SUCC, _PRED = (1).__add__, (-1).__add__


def _letter(i, rank):
    return _LETTERS[i] if rank <= 26 else "g%d" % i


class FreeGroup(Group):
    """Free group of given rank; elements are reduced tuples of signed ints,
    +i and -i for generator i-1 and its inverse.  Both factors of a product
    are reduced, so ``mul`` cancels only at their junction."""

    rank: int

    def identity(self):
        return ()

    def mul(self, g, h):
        k = _junction(g, h) if g and h and g[-1] == -h[0] else 0
        return g[:len(g) - k] + h[k:]

    def inv(self, g):
        return tuple(map(neg, g[::-1]))

    def contains(self, g):
        if not isinstance(g, tuple):
            return False
        if any(not isinstance(x, int) or x == 0 or abs(x) > self.rank for x in g):
            return False
        return all(g[i] != -g[i + 1] for i in range(len(g) - 1))

    def key(self, g):
        return (len(g), g)

    def render(self, g):
        if not g:
            return "1"
        parts = []
        for x in g:
            name = _letter(abs(x) - 1, self.rank)
            parts.append(name if x > 0 else name + "'")
        return "".join(parts) if self.rank <= 26 else ".".join(parts)

    def describe(self):
        return "F_%d" % self.rank


class Integers(Group):
    """Z^n; elements are int tuples of length n."""

    rank: int

    def identity(self):
        return (0,) * self.rank

    def mul(self, g, h):
        return tuple(map(add, g, h))

    def inv(self, g):
        return tuple(map(neg, g))

    def contains(self, g):
        return (isinstance(g, tuple) and len(g) == self.rank
                and all(isinstance(a, int) for a in g))

    def describe(self):
        return "Z" if self.rank == 1 else "Z^%d" % self.rank


class IntegerLattice(Group):
    """d*Z inside Z; elements are plain ints divisible by d."""

    stride: int

    def identity(self):
        return 0

    def mul(self, g, h):
        return g + h

    def inv(self, g):
        return -g

    def contains(self, g):
        return isinstance(g, int) and g % self.stride == 0

    def render(self, g):
        return "%+d" % g if g else "0"

    def describe(self):
        return "Z" if self.stride == 1 else "%dZ" % self.stride


class RationalAffine(Group):
    """Q x Q^x with (q1,q2)(s1,s2) = (q1 + q2*s1, q2*s2), in integers.

    An element is the int triple (p, r, d) standing for (p/d, r/d), the map
    x -> (r/d)x + p/d, over the least common denominator: d > 0, r != 0 and
    gcd(p, r, d) == 1.  That form is unique, so tuple equality and hashing
    are equality in the group.  ``inv`` is (-p, d, r), every sign flipped
    when r < 0, and needs no gcd: its entries are those of g up to sign.
    """

    def identity(self):
        return (0, 1, 1)

    def mul(self, g, h):
        p1, r1, d1 = g
        p2, r2, d2 = h
        p, r, d = p1 * d2 + r1 * p2, r1 * r2, d1 * d2
        if d == 1:
            return (p, r, 1)
        c = math.gcd(p, r, d)
        return (p // c, r // c, d // c)

    def inv(self, g):
        p, r, d = g
        return (-p, d, r) if r > 0 else (p, -d, -r)

    def contains(self, g):
        return (isinstance(g, tuple) and len(g) == 3
                and all(isinstance(x, int) for x in g)
                and g[1] != 0 and g[2] > 0 and math.gcd(*g) == 1)

    def key(self, g):
        # numerator and denominator of p/d, then of r/d, as Fraction has them
        p, r, d = g
        c, e = math.gcd(p, d), math.gcd(r, d)
        return (p // c, d // c, r // e, d // e)

    def render(self, g):
        n1, d1, n2, d2 = self.key(g)
        return "(%s,%s)" % ("%d/%d" % (n1, d1) if d1 != 1 else n1,
                            "%d/%d" % (n2, d2) if d2 != 1 else n2)

    def describe(self):
        return "Q x Q^x"


class FiniteGroup(Group):
    """A finite group given by its multiplication table."""

    table: tuple
    identity_index: int

    def identity(self):
        return self.identity_index

    def mul(self, g, h):
        return self.table[g][h]

    def inv(self, g):
        return self.inverse_table[g]

    @cached_property
    def inverse_table(self):
        e = self.identity_index
        for g, row in enumerate(self.table):
            if e not in row:
                raise InvariantViolation("element %d has no inverse" % g)
        return tuple(row.index(e) for row in self.table)

    def contains(self, g):
        return isinstance(g, int) and 0 <= g < len(self.table)

    def describe(self):
        return "finite group of order %d" % len(self.table)


# ---------------------------------------------------------------------------
# semigroups


class Window(tuple):
    """An ordered duplicate-free basis: a tuple with its ``index`` (element
    -> position) and the answers computed on it, ``columns`` (ideal -> the
    positions in it), ``rows`` ((op, letter) -> a row of ``hull.window_row``)
    and ``actions`` (hull element -> its ``PartialMap``)."""

    def __new__(cls, elements):
        self = super().__new__(cls, elements)
        self.index = {}
        for i, x in enumerate(self):
            if self.index.setdefault(x, i) != i:
                raise UsageError("duplicate window element %r" % (x,))
        self.columns, self.rows, self.actions = {}, {}, {}
        return self


class Semigroup(Value):
    """Common surface of all backends.

    Elements are canonical hashable values.  Public ``multiply``,
    ``left_divide`` and ``embed`` raise UsageError on a non-element; the
    trusted ``_mul``, ``_ldiv`` and ``_embed`` behind them are internal.

    A backend defines ``contains``, ``identity``, ``_mul``, ``_ldiv``,
    ``_embed``, ``act``, ``generators``, ``window``, ``describe`` and
    ``units_trivial``.  For values that are their own grades the rest is
    derived: ``key`` is the value, ``render`` is ``str`` or ``(a,b,...)``,
    ``parse`` reads render's syntax and accepts what ``contains`` accepts,
    and ``group_element_of(g)`` is g where S holds it.

    An instance keeps its calculus and three memo dicts: windows by size
    (each ``Window`` keeps what is computed on it), hull atoms by letter
    pair, and the domains of hull composites f h by (dom f, h).  All are
    pure functions of canonical values, and none is a field.
    """

    def contains(self, x):
        raise NotImplementedError

    def _check(self, *xs):
        for x in xs:
            if not self.contains(x):
                raise UsageError("%r is not an element of %s" % (x, self.describe()))

    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        self._check(a, b)
        return self._mul(a, b)

    def left_divide(self, s, t):
        """The unique r with s*r == t, or None if t is not in s*S."""
        self._check(s, t)
        return self._ldiv(s, t)

    def embed(self, s):
        """Image of s in the grading group."""
        self._check(s)
        return self._embed(s)

    def act(self, g, x):
        """g*x computed in the grading group and read back in S.

        Raises InvariantViolation when the product leaves S; callers only use
        this on points of an ideal the group element genuinely maps into S.
        """
        raise NotImplementedError

    def group_element_of(self, g):
        """The s in S with embed(s) == g, or None."""
        return g if self.contains(g) else None

    def grading_group(self):
        return self._grading_group

    calculus_type = None  # set by the IdealCalculus subclass for this backend

    @cached_property
    def calculus(self):
        return self.calculus_type(self)

    @property
    def fraction_group(self):
        """The enveloping group; the grading group unless overridden."""
        return self._grading_group

    def gamma(self, s):
        """Image of s in fraction_group; the embedding unless overridden."""
        return self.embed(s)

    def generator_word(self, s):
        """Generator indices, in order, whose product is s."""
        raise NotImplementedError

    def fraction_basis(self):
        """Pairs (s, t) with gamma(s)^-1 gamma(t) running over a basis of
        fraction_group; by default (identity, generator)."""
        return tuple((self.identity(), g) for g in self.generators())

    def group_coordinates(self, g):
        """(basis index, exponent) pairs spelling g over fraction_basis();
        by default the coordinates of Z^n."""
        return tuple(enumerate(g))

    def generators(self):
        raise NotImplementedError

    def window(self, bound):
        """Deterministic window enumeration; prefix-monotone in the bound."""
        raise NotImplementedError

    _windows = cached_property(lambda self: {})
    _atoms = cached_property(lambda self: {})
    _domains = cached_property(lambda self: {})

    def window_of_size(self, size):
        """The first ``size`` window elements as a ``Window``, built once per
        instance: a window is a pure function of (backend, size)."""
        if size not in self._windows:
            if size < 0:
                raise UsageError("window size must be >= 0")
            bound, win = 1, self.window(1)
            while len(win) < size:
                bound *= 2
                win = self.window(bound)
            self._windows[size] = Window(win[:size])
        return self._windows[size]

    def own_window(self, elements):
        """The window this instance built equal to ``elements``, else a fresh
        one: answers kept for one backend never serve another."""
        own = self._windows.get(len(elements))
        return own if own is elements or own == tuple(elements) \
            else Window(elements)

    def key(self, x):
        """Total order key consistent with window order."""
        return x

    render = staticmethod(_text)

    def parse(self, text):
        """The element x that ``text`` renders, whitespace aside: an int, or
        ints between commas in parentheses where the identity is a tuple;
        else UsageError."""
        text = text.strip()
        try:
            if isinstance(self.identity(), tuple):
                x = tuple(int(p) for p in text.strip("()").split(","))
            else:
                x = int(text)
        except ValueError:
            raise UsageError("bad element %r" % text) from None
        self._check(x)
        if self.render(x) != "".join(text.split()):
            raise UsageError("bad element %r" % text)
        return x

    def describe(self):
        raise NotImplementedError

    def units_trivial(self):
        """True iff the only invertible element is the identity."""
        raise NotImplementedError


class FreeMonoid(Semigroup):
    """Words over a k-letter alphabet under concatenation."""

    alphabet_size: int

    def __post_init__(self):
        if self.alphabet_size < 1:
            raise UsageError("alphabet size must be >= 1")

    def contains(self, x):
        return (isinstance(x, tuple)
                and all(isinstance(l, int) and 0 <= l < self.alphabet_size for l in x))

    def identity(self):
        return ()

    def _mul(self, a, b):
        return a + b

    def _ldiv(self, s, t):
        if len(t) >= len(s) and t[:len(s)] == s:
            return t[len(s):]
        return None

    def _embed(self, s):
        return tuple(map(_SUCC, s))

    def act(self, g, x):
        # g times the embedded x, whose letter l + 1 has inverse ~l: only
        # the surviving prefix of g can hold an inverse letter
        k = _junction(g, x, invert)
        head = g[:len(g) - k]
        if head and min(head) < 0:
            raise InvariantViolation("group element does not map %r into S" % (x,))
        return tuple(map(_PRED, head)) + x[k:]

    def group_element_of(self, g):
        return tuple(map(_PRED, g)) if min(g, default=1) > 0 else None

    @cached_property
    def _grading_group(self):
        return FreeGroup(self.alphabet_size)

    fraction_group = Integers(1)  # one letter, so word length is everything

    def gamma(self, s):
        self._check(s)
        return (len(s),)

    def generator_word(self, s):
        return s

    def generators(self):
        return tuple((l,) for l in range(self.alphabet_size))

    def window(self, bound):
        letters = range(self.alphabet_size)
        return [w for n in range(bound + 1) for w in product(letters, repeat=n)]

    def key(self, x):
        return (len(x), x)

    def render(self, x):
        if not x:
            return "1"
        if self.alphabet_size <= 26:
            return "".join(_LETTERS[l] for l in x)
        return ".".join("g%d" % l for l in x)

    def parse(self, text):
        text = text.strip()
        if text == "1":
            return ()
        if self.alphabet_size <= 26:
            word = []
            for ch in text:
                i = _LETTERS.find(ch)
                if not (0 <= i < self.alphabet_size):
                    raise UsageError("bad letter %r for %s" % (ch, self.describe()))
                word.append(i)
            return tuple(word)
        try:
            word = tuple(int(p.lstrip("g")) for p in text.split("."))
        except ValueError:
            raise UsageError("bad word %r" % text) from None
        if not self.contains(word):
            raise UsageError("bad word %r for %s" % (text, self.describe()))
        return word

    def describe(self):
        return "FreeMonoid(%d)" % self.alphabet_size

    def units_trivial(self):
        return True


class PositiveCone(Semigroup):
    """(Z+)^n under componentwise addition."""

    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise UsageError("dimension must be >= 1")

    def contains(self, x):
        return (isinstance(x, tuple) and len(x) == self.dimension
                and all(isinstance(a, int) and a >= 0 for a in x))

    def identity(self):
        return (0,) * self.dimension

    def _mul(self, a, b):
        return tuple(map(add, a, b))

    def _ldiv(self, s, t):
        r = tuple(map(sub, t, s))
        return None if min(r) < 0 else r

    def _embed(self, s):
        return s

    def act(self, g, x):
        r = tuple(map(add, g, x))
        if min(r) < 0:
            raise InvariantViolation("group element does not map %r into S" % (x,))
        return r

    @cached_property
    def _grading_group(self):
        return Integers(self.dimension)

    def generator_word(self, s):
        return tuple(i for i, k in enumerate(s) for _ in range(k))

    def generators(self):
        n = self.dimension
        return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))

    def window(self, bound):
        # by total n, then lexicographically: the d - 1 bars among n + d - 1
        # slots, in combinations' order, part the n stars left to right
        d = self.dimension
        return [tuple(b - a - 1 for a, b in
                      pairwise((-1,) + bars + (n + d - 1,)))
                for n in range(bound + 1)
                for bars in combinations(range(n + d - 1), d - 1)]

    def key(self, x):
        return (sum(x), x)

    def describe(self):
        return "PositiveCone(%d)" % self.dimension

    def units_trivial(self):
        return True


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def set_bits(bits):
    """The positions of the set bits of a nonnegative int, ascending."""
    # bin() lists the bits high to low; reversed, position i is bit i,
    # and as bytes 0/1 it selects the positions straight from count()
    return list(compress(count(), bin(bits)[:1:-1].encode()
                         .translate(_BIT_BYTES)))


class NumericalSemigroup(Semigroup):
    """Submonoid of (Z+,+) generated by integers >= 2.

    Generators are stored sorted and duplicate-free.  The gcd d of the
    generators may exceed 1; membership and ideal arithmetic account for it.
    Membership is one bitset, sieved once up to Schur's bound on the
    conductor; the gcd, the conductor and every membership question read it.
    """

    gens: tuple

    def __post_init__(self):
        gens = tuple(sorted(set(self.gens)))
        if not gens:
            raise UsageError("at least one generator required")
        if any(not isinstance(g, int) or g < 2 for g in gens):
            raise UsageError("generators must be integers >= 2")
        object.__setattr__(self, "gens", gens)

    @cached_property
    def _sieve(self):
        # (d, the conductor C, the members below C as a bitset).  By Schur's
        # bound the conductor of S/d is at most (a - 1)(b - 1), a and b its
        # least and greatest generators, so every gap of S lies below
        # d (a - 1)(b - 1).  Each generator g in turn closes the bits below
        # that bound under + g, by shifts of g, 2g, 4g, ...
        gens = self.gens
        d = math.gcd(*gens)
        bound = (gens[0] - d) * (gens[-1] // d - 1)
        mask = (1 << bound) - 1
        bits = 1
        for g in gens:
            shift = g
            while shift < bound:
                bits = (bits | bits << shift) & mask
                shift *= 2
        # the gaps: the multiples of d below the bound that are not members
        gaps = mask // ((1 << d) - 1) & ~bits
        conductor = gaps.bit_length() - 1 + d if gaps else 0
        return d, conductor, bits & ((1 << conductor) - 1)

    @cached_property
    def gcd(self):
        return self._sieve[0]

    @cached_property
    def conductor(self):
        """Least C with every multiple of gcd at or above C in S."""
        return self._sieve[1]

    def contains(self, x):
        if not isinstance(x, int) or x < 0 or x % self.gcd:
            return False
        return x >= self.conductor or self._sieve[2] >> x & 1 == 1

    def identity(self):
        return 0

    def _mul(self, a, b):
        return a + b

    def _ldiv(self, s, t):
        r = t - s
        return r if self.contains(r) else None

    def _embed(self, s):
        return s

    def act(self, g, x):
        r = g + x
        if not self.contains(r):
            raise InvariantViolation("group element does not map %r into S" % (x,))
        return r

    _grading_group = IntegerLattice(1)

    @cached_property
    def fraction_group(self):
        return IntegerLattice(self.gcd)

    def generator_word(self, s):
        # greedy, smallest generator first; a nonzero member always has a
        # generator g with s - g in S
        word = []
        while s:
            i = next(i for i, g in enumerate(self.gens)
                     if self.contains(s - g))
            word.append(i)
            s -= self.gens[i]
        return tuple(sorted(word))

    def fraction_basis(self):
        # the least s with s and s + d both in S; the conductor qualifies
        d = self.gcd
        s = next(s for s in self.members_below(self.conductor + 1)
                 if self.contains(s + d))
        return ((s, s + d),)

    def group_coordinates(self, g):
        return ((0, g // self.gcd),)

    def generators(self):
        return self.gens

    @cached_property
    def _member_bits_memo(self):
        return {}

    def member_bits(self, bound):
        """The members x with 0 <= x < bound as a bitset: bit x is set
        exactly when x is a member."""
        bits = self._member_bits_memo.get(bound)
        if bits is None:
            d, c, below = self._sieve
            if bound <= c:
                bits = below & ((1 << max(bound, 0)) - 1)
            else:
                # from the conductor on, the members are the k multiples of
                # d in [c, bound): the bits 0, d, ..., (k - 1) d shifted to c
                k = -(-(bound - c) // d)
                bits = below | ((1 << k * d) - 1) // ((1 << d) - 1) << c
            self._member_bits_memo[bound] = bits
        return bits

    def members_below(self, bound):
        """All members x with 0 <= x < bound, ascending."""
        return set_bits(self.member_bits(bound))

    def window(self, bound):
        return self.members_below(bound + 1)

    def describe(self):
        return "NumericalSemigroup<%s>" % ",".join(str(g) for g in self.gens)

    def units_trivial(self):
        return True


class AxPlusB(Semigroup):
    """Pairs (b,a) with a nonzero, (b,a)*(d,c) = (b+a*d, a*c).

    Left cancellative, not algebraically ordered: every (b,1) and (b,-1) is a
    unit.  Negative multipliers are legal elements; the default window
    enumerates the a >= 1 part only.
    """

    def contains(self, x):
        return (isinstance(x, tuple) and len(x) == 2
                and isinstance(x[0], int) and isinstance(x[1], int) and x[1] != 0)

    def identity(self):
        return (0, 1)

    def _mul(self, s, t):
        b, a = s
        d, c = t
        return (b + a * d, a * c)

    def _ldiv(self, s, t):
        b, a = s
        d, c = t
        if (d - b) % a or c % a:
            return None
        return ((d - b) // a, c // a)

    def _embed(self, s):
        return (s[0], s[1], 1)

    def act(self, g, x):
        p, r, d = g
        b, a = p + r * x[0], r * x[1]
        if b % d or a % d or a == 0:
            raise InvariantViolation("grade %s does not map %r into S"
                                     % (self.grading_group().render(g), x))
        return (b // d, a // d)

    def group_element_of(self, g):
        return (g[0], g[1]) if g[2] == 1 else None

    _grading_group = RationalAffine()

    def generator_word(self, s):
        raise UsageError("no generator decomposition for %s" % self.describe())

    def generators(self):
        return ((1, 1), (0, 2), (0, 3))

    def window(self, bound):
        # the pairs with |b| <= bound and 1 <= a <= bound in key order, so
        # the identity leads the window
        return sorted(((b, a) for a in range(1, bound + 1)
                       for b in range(-bound, bound + 1)), key=self.key)

    def key(self, x):
        b, a = x
        return (max(abs(b), abs(a)), a, abs(b), 0 if b >= 0 else 1)

    def describe(self):
        return "AxPlusB"

    def units_trivial(self):
        return False


def associativity_witness(table, identity):
    """An (a, b, c) with (ab)c != a(bc) in a table of tuples, or None.
    Light's test: the b passing for all a and c are closed under the
    product, so b runs over a greedy generating set; the identity passes."""
    n, span, gens = len(table), {identity}, []
    for x in range(n):
        new = set() if x in span else {x}
        gens.extend(new)
        while new:  # close the span under products with the new elements
            span |= new
            new = {p for y in new for z in span
                   for p in (table[y][z], table[z][y])} - span
    # row ab of the table against row b mapped through row a
    return next(((a, b, c) for b in gens for a in range(n)
                 if table[table[a][b]] != tuple(map(table[a].__getitem__,
                                                    table[b]))
                 for c in range(n)
                 if table[table[a][b]][c] != table[a][table[b][c]]), None)


class FiniteTable(Semigroup):
    """A finite monoid from an explicit table; must be left cancellative.

    A finite left cancellative monoid is a group; its grading group holds
    the inverse table.  Validation reports the offending row or triple.
    """

    table: tuple
    identity_index: int = 0

    def __post_init__(self):
        n = len(self.table)
        table = tuple(tuple(row) for row in self.table)
        object.__setattr__(self, "table", table)
        if n == 0:
            raise UsageError("empty table")
        for i, row in enumerate(table):
            if len(row) != n or not all(map(isinstance, row, repeat(int))) \
                    or min(row) < 0 or max(row) >= n:
                raise UsageError("row %d is not a permutation-sized row of indices" % i)
        e = self.identity_index
        if not 0 <= e < n:
            raise UsageError("identity index %d out of range" % e)
        for i in range(n):
            if table[e][i] != i or table[i][e] != i:
                raise UsageError("index %d is not a two-sided identity" % e)
        for i, row in enumerate(table):
            if len(set(row)) != n:
                raise UsageError("not left cancellative: row %d repeats a value" % i)
        if bad := associativity_witness(table, e):
            raise UsageError("not associative at (%d,%d,%d)" % bad)

    def contains(self, x):
        return isinstance(x, int) and 0 <= x < len(self.table)

    def identity(self):
        return self.identity_index

    def _mul(self, a, b):
        return self.table[a][b]

    def _ldiv(self, s, t):
        # a group: r = s^-1 * t always exists
        return self.table[self._grading_group.inverse_table[s]][t]

    def _embed(self, s):
        return s

    def act(self, g, x):
        return self.table[g][x]

    @cached_property
    def _grading_group(self):
        return FiniteGroup(self.table, self.identity_index)

    def generator_word(self, s):
        # every element but the identity is a generator
        e = self.identity_index
        return () if s == e else (s - (s > e),)

    def group_coordinates(self, g):
        return tuple((i, 1) for i in self.generator_word(g))

    def generators(self):
        return tuple(i for i in range(len(self.table)) if i != self.identity_index)

    def window(self, bound):
        return list(range(len(self.table)))

    def window_of_size(self, size):
        return super().window_of_size(min(size, len(self.table)))

    def describe(self):
        return "FiniteTable(order %d)" % len(self.table)

    def units_trivial(self):
        return len(self.table) == 1


def cyclic_table(n):
    """Z/n's multiplication table, row i the first row rotated by i."""
    if n < 1:
        raise UsageError("cyclic order must be >= 1, got %d" % n)
    row = tuple(range(n))
    return tuple(row[i:] + row[:i] for i in range(n))
