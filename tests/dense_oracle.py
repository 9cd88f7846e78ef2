"""Brute-force dense integer matrices: the oracle for the partial
permutation Matrix.

A dense matrix is a list of rows.  Products are row-by-column sums over
integer entries and assume nothing about either factor, which is how the
operator relations were evaluated before matrices became partial
permutations.
"""

from lefthull.matrices import Matrix


def dense(m):
    """The rows x cols 0/1 array of a Matrix."""
    out = [[0] * m.cols for _ in range(m.rows)]
    for j, i in m.entries.items():
        out[i][j] = 1
    return out


def from_dense(rows, cols):
    """The Matrix of a 0/1 array with at most one 1 per row and column."""
    entries = {}
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            assert x in (0, 1)
            if x:
                entries[j] = i
    return Matrix(len(rows), cols, entries)


def dense_mul(a, b, cols):
    """a times b, where b has ``cols`` columns; zero entries of a are
    skipped, every other term is summed."""
    out = []
    for row in a:
        acc = [0] * cols
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    acc[j] += x * y
        out.append(acc)
    return out


def dense_transpose(a, cols):
    return [[row[j] for row in a] for j in range(cols)]


def dense_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def dense_product(*factors):
    """The dense product of Matrix factors, left to right."""
    out = dense(factors[0])
    for m in factors[1:]:
        out = dense_mul(out, dense(m), m.cols)
    return out
