"""Light's associativity test (``associativity_witness``, run by
FiniteTable) against the n^3 triple loop it replaced, FiniteTable's row
check against the entry-by-entry one, and ``cyclic_table`` against the
sum formula (table_oracle.py)."""

from itertools import product
import random

import pytest

from lefthull import FiniteTable, UsageError, cyclic_table
from lefthull.semigroups import associativity_witness

from table_oracle import sum_table, triple_loop_witness, validate


def fillings_3x3():
    """The 81 tables on {0, 1, 2} with identity 0."""
    return [((0, 1, 2), (1, a, b), (2, c, d))
            for a, b, c, d in product(range(3), repeat=4)]


def reduced_latin_square(n, rng):
    """A random Latin square whose first row and column are 0, ..., n-1,
    so 0 is a two-sided identity; filled cell by cell with backtracking."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(rows[i][:j]) | {rows[r][j] for r in range(i)}
        options = [v for v in range(n) if v not in used]
        rng.shuffle(options)
        for v in options:
            rows[i][j] = v
            if fill(k + 1):
                return True
        rows[i][j] = None
        return False

    assert fill(0)
    return tuple(map(tuple, rows))


def latin_squares():
    rng = random.Random(2024)
    return [reduced_latin_square(n, rng) for n in (4, 5, 6) for _ in range(40)]


def with_identity(n, product):
    """The table on 0..n-1 with identity 0 and product(i, j) elsewhere."""
    return tuple(tuple(j if i == 0 else i if j == 0 else product(i, j)
                       for j in range(n)) for i in range(n))


def random_magmas():
    """Seeded tables with identity 0: arbitrary entries, and, associative
    but not cancellative, relabelled chains under max and null semigroups
    with an identity adjoined."""
    rng = random.Random(11)
    out = []
    for n in (4, 5):
        for _ in range(60):
            out.append(with_identity(n, lambda i, j: rng.randrange(n)))
        for _ in range(10):
            rank = list(range(1, n))
            rng.shuffle(rank)
            out.append(with_identity(
                n, lambda i, j: max(i, j, key=lambda x: rank[x - 1])))
            zero = rng.randrange(n)
            out.append(with_identity(n, lambda i, j: zero))
    return out


def z2_times_z4():
    # (x, y) is the index 4x + y; the identity (0, 0) is index 0
    return tuple(tuple(4 * ((a // 4 + b // 4) % 2) + (a + b) % 4
                       for b in range(8)) for a in range(8))


FAMILIES = {
    "fillings-3x3": fillings_3x3(),
    "latin-4-6": latin_squares(),
    "magmas-4-5": random_magmas(),
    "cyclic-1-48": [cyclic_table(n) for n in range(1, 49)],
    "z2xz4": [z2_times_z4()],
}


def verdict(build, table):
    try:
        build(table)
    except UsageError as err:
        return str(err)
    return None


@pytest.mark.parametrize("family", FAMILIES)
def test_witness_agrees_with_the_triple_loop(family):
    for table in FAMILIES[family]:
        bad = associativity_witness(table, 0)
        assert (bad is None) == (triple_loop_witness(table) is None), table
        if bad is not None:
            a, b, c = bad
            assert table[table[a][b]][c] != table[a][table[b][c]], table


@pytest.mark.parametrize("family", FAMILIES)
def test_finite_table_accepts_what_the_triple_loop_accepts(family):
    for table in FAMILIES[family]:
        new, old = verdict(FiniteTable, table), verdict(validate, table)
        assert (new is None) == (old is None), (table, new, old)
        if old is not None and not old.startswith("not associative"):
            assert new == old, table


def test_families_hold_both_verdicts():
    # each family with more than one table accepts some and rejects some,
    # so the comparisons above are not vacuous
    for name, tables in FAMILIES.items():
        assoc = [triple_loop_witness(t) is None for t in tables]
        if name in ("cyclic-1-48", "z2xz4"):
            assert all(assoc), name
        else:
            assert any(assoc) and not all(assoc), name
    loops = FAMILIES["latin-4-6"]
    groups = [t for t in loops if verdict(validate, t) is None]
    assert groups and len(groups) < len(loops)


def test_nonassociative_latin_square_is_rejected_off_the_identity():
    # a loop of order 5 that is no group: its failing b is never 0
    table = ((0, 1, 2, 3, 4),
             (1, 0, 3, 4, 2),
             (2, 4, 0, 1, 3),
             (3, 2, 4, 0, 1),
             (4, 3, 1, 2, 0))
    assert triple_loop_witness(table) is not None
    with pytest.raises(UsageError, match="not associative"):
        FiniteTable(table)


def test_cyclic_table_is_the_sum_table():
    for n in range(1, 61):
        assert cyclic_table(n) == sum_table(n), n


@pytest.mark.parametrize("n", [0, -1, -48])
def test_cyclic_table_refuses_an_order_below_one(n):
    with pytest.raises(UsageError,
                       match="^cyclic order must be >= 1, got %d$" % n):
        cyclic_table(n)


def with_row(i, row, n=4):
    """Z/n with row i replaced."""
    table = list(cyclic_table(n))
    table[i] = row
    return tuple(table)


# each a table whose row check fails, or, where True stands for 1 or 0,
# passes to a later check, in FiniteTable as in the entry-by-entry oracle
BAD_ROWS = {
    "float": with_row(2, (2, 3, 0, 1.0)),
    "str": with_row(2, (2, 3, 0, "1")),
    "none": with_row(2, (2, None, 0, 1)),
    "str-then-negative": with_row(2, ("2", -1, 0, 1)),
    "negative": with_row(2, (2, -1, 0, 1)),
    "equal-to-n": with_row(2, (2, 4, 0, 1)),
    "above-n": with_row(2, (2, 9, 0, 1)),
    "short": with_row(2, (2, 3, 0)),
    "long": with_row(2, (2, 3, 0, 1, 2)),
    "empty": with_row(2, ()),
    "first-row": with_row(0, (0, 1, 2, 4)),
    "true-for-one": with_row(3, (3, 0, True, 2)),
    "true-for-zero": with_row(2, (2, 3, True, 1)),
}


@pytest.mark.parametrize("name", BAD_ROWS)
def test_row_check_gives_the_oracle_message(name):
    table = BAD_ROWS[name]
    new, old = verdict(FiniteTable, table), verdict(validate, table)
    assert new == old
    if name == "true-for-one":
        assert new is None
    elif name == "true-for-zero":
        assert new == "not left cancellative: row 2 repeats a value"
    else:
        row = 0 if name == "first-row" else 2
        assert new == "row %d is not a permutation-sized row of indices" % row
