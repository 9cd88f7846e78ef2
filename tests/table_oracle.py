"""The validation of a multiplication table as FiniteTable ran it before
Light's test: every check in the same order, and associativity tested on
all n^3 triples.  The oracle for ``associativity_witness``."""

from lefthull import UsageError


def triple_loop_witness(table):
    """The first (a, b, c) in lexicographic order with (ab)c != a(bc)."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


def validate(table, e=0):
    """Raise UsageError where the triple-loop FiniteTable rejected."""
    n = len(table)
    if n == 0:
        raise UsageError("empty table")
    for i, row in enumerate(table):
        if len(row) != n or any(not isinstance(v, int) or not 0 <= v < n
                                for v in row):
            raise UsageError("row %d is not a permutation-sized row of "
                             "indices" % i)
    if not 0 <= e < n:
        raise UsageError("identity index %d out of range" % e)
    for i in range(n):
        if table[e][i] != i or table[i][e] != i:
            raise UsageError("index %d is not a two-sided identity" % e)
    for i, row in enumerate(table):
        if len(set(row)) != n:
            raise UsageError("not left cancellative: row %d repeats a value"
                             % i)
    bad = triple_loop_witness(table)
    if bad:
        raise UsageError("not associative at (%d,%d,%d)" % bad)
