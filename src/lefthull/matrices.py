"""0/1 partial permutation matrices, for export.

A window compression of a partial isometry sends each basis vector to one
basis vector or to none, no two to the same: a 0/1 partial permutation
matrix, held as its map from columns to rows.  The relation suites read
window rows and bitsets instead (operators.py); a ``Matrix`` is built for
the exports of ``lefthull matrix`` and by ``regular_rep_matrix``.  Products
compose the maps, transposes invert them, diagonals keep the fixed points.
"""

from .semigroups import InvariantViolation, UsageError


class Matrix:
    """A rows x cols 0/1 partial permutation; ``entries`` maps each nonzero
    column to the row of its single 1."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise UsageError("matrix shape must be nonnegative")
        entries = dict(entries or {})
        for j, i in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise UsageError("entry (%d, %d) is outside a %dx%d matrix"
                                 % (i, j, rows, cols))
        if len(set(entries.values())) != len(entries):
            raise InvariantViolation("partial permutation is not injective")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def identity(cls, n):
        return cls(n, n, {i: i for i in range(n)})

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) \
            and self.entries == other.entries

    def __repr__(self):
        return "Matrix(%dx%d, nnz=%d)" % (self.rows, self.cols,
                                          len(self.entries))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise UsageError("cannot multiply %dx%d by %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        mine = self.entries
        return Matrix(self.rows, other.cols,
                      {j: mine[k] for j, k in other.entries.items()
                       if k in mine})

    def transpose(self):
        return Matrix(self.cols, self.rows,
                      {i: j for j, i in self.entries.items()})

    def diagonal(self):
        return Matrix(self.rows, self.cols,
                      {j: i for j, i in self.entries.items() if i == j})

    def columns_agree(self, other, cols):
        """Equality restricted to the given columns."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise UsageError("shape mismatch: %dx%d vs %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        mine, theirs = self.entries, other.entries
        return all(mine.get(j) == theirs.get(j) for j in cols)

    def export_coordinate(self):
        """Plain text: 'rows cols nnz' then 'row col 1' sorted row-major."""
        lines = ["%d %d %d" % (self.rows, self.cols, len(self.entries))]
        for i, j in sorted((i, j) for j, i in self.entries.items()):
            lines.append("%d %d 1" % (i, j))
        return "\n".join(lines) + "\n"
