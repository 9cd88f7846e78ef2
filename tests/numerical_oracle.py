"""The tuple-loop numerical ideal calculus: the oracle for the bitset one.

An ideal is the pair (N, mask): the members listed in mask together with
every member of S at or above N, with N minimal.  Membership comes from a
sieve over the generators, and every operation walks the members one at a
time, on mask as a sorted tuple, which is how the calculus computed before
it ran on bitsets.  The oracle takes and returns the calculus' values, in
which mask is the int bitset of its members (bit x for x), and converts
only at that boundary: ``pair`` on the way in, ``canonical`` on the way
out.  ``image`` returns None where the calculus must raise.
"""

import math


def pair(X):
    """The (N, sorted tuple of members below N) of a value (N, mask bits)."""
    n, bits = X
    return n, tuple(x for x in range(n) if bits >> x & 1)


class TupleLoopIdeals:
    def __init__(self, gens):
        self.gens = tuple(sorted(set(gens)))
        self.gcd = math.gcd(*self.gens)
        # sieve member by member until a run of least / gcd consecutive
        # multiples of the gcd are members: adding the least generator to
        # the run gives every later multiple, so every gap lies before it
        least, member, run = self.gens[0], [], 0
        while run < least // self.gcd:
            x = len(member)
            member.append(x == 0 or any(x >= g and member[x - g]
                                        for g in self.gens))
            if x % self.gcd == 0:
                run = run + 1 if member[x] else 0
        gaps = [x for x in range(0, len(member), self.gcd) if not member[x]]
        self.conductor = gaps[-1] + self.gcd if gaps else 0
        self._member = member

    def contains(self, x):
        if x < 0 or x % self.gcd:
            return False
        return x >= self.conductor or self._member[x]

    def members_below(self, bound):
        return [x for x in range(max(bound, 0)) if self.contains(x)]

    def canonical(self, members, bound):
        # members u (S n [bound, oo)); lower the threshold while the member
        # just below it is listed
        mask = set(members)
        n = bound
        while n > 0:
            x = n - 1
            if self.contains(x):
                if x not in mask:
                    break
                mask.discard(x)
            n = x
        return n, sum(1 << x for x in mask)

    def ideal_members_below(self, X, bound):
        n, mask = pair(X)
        out = [m for m in mask if m < bound]
        if bound > n:
            out.extend(x for x in self.members_below(bound) if x >= n)
        return sorted(set(out))

    def is_member(self, x, X):
        n, mask = pair(X)
        return x in mask or (x >= n and self.contains(x))

    def principal(self, s):
        c = self.conductor
        return self.canonical([s + x for x in self.members_below(c)], s + c)

    def generated(self, gens):
        """The ideal generated by the members gens: the union of g + S."""
        bound = max(gens) + self.conductor
        return self.canonical(
            [x for x in self.members_below(bound)
             if any(self.contains(x - g) for g in gens)], bound)

    def translate(self, s, X):
        cut = X[0] + self.conductor
        members = self.ideal_members_below(X, cut)
        return self.canonical([s + x for x in members], s + cut)

    def preimage(self, s, X):
        bound = max(0, X[0] - s)
        return self.canonical([t for t in self.members_below(bound)
                               if self.is_member(s + t, X)], bound)

    def intersect(self, X, Y):
        bound = max(X[0], Y[0])
        return self.canonical([x for x in self.ideal_members_below(X, bound)
                               if self.is_member(x, Y)], bound)

    def image(self, g, X):
        if g % self.gcd:
            return None
        c = self.conductor
        cut = max(X[0] + c, c - g)
        members = []
        for x in self.ideal_members_below(X, cut):
            if not self.contains(g + x):
                return None
            members.append(g + x)
        return self.canonical(members, g + cut)

    def pullback(self, g, X, D):
        """D n g^-1 X, the members t of D with t + g in X; None where
        g . D leaves S and the calculus must raise."""
        if self.image(g, D) is None:
            return None
        # from the bound on, t and t + g are members past both thresholds
        # and the conductor (g is a multiple of the gcd, as the image is)
        bound = max(D[0], X[0]) + abs(g) + self.conductor
        inside = set(self.ideal_members_below(X, bound + g))
        return self.canonical([t for t in self.ideal_members_below(D, bound)
                               if t + g in inside], bound)

    def union(self, parts):
        bound = max(p[0] for p in parts)
        below = set()
        for p in parts:
            below.update(self.ideal_members_below(p, bound))
        return self.canonical(below, bound)

    def render(self, X):
        lead = self.ideal_members_below(X, X[0] + self.conductor
                                        + 4 * self.gcd + 1)
        return "{%s,...}" % ",".join(str(m) for m in lead[:4])
