"""Partial permutation matrices, checked against dense arithmetic."""

import random

import pytest

from lefthull import InvariantViolation, UsageError
from lefthull.matrices import Matrix

from dense_oracle import (dense, dense_identity, dense_mul, dense_transpose,
                          from_dense)


def random_matrix(rng, rows, cols):
    """A random rows x cols partial permutation: a random injective map
    from some of the columns to the rows."""
    size = rng.randrange(min(rows, cols) + 1)
    domain = rng.sample(range(cols), size)
    return Matrix(rows, cols, dict(zip(domain, rng.sample(range(rows), size))))


def test_construction_and_cleanup():
    m = Matrix(2, 3, {0: 0, 2: 1})
    assert len(m.entries) == 2 and dense(m) == [[1, 0, 0], [0, 0, 1]]
    given = {0: 1}
    m = Matrix(2, 2, given)
    given[1] = 0  # the matrix keeps its own copy
    assert m.entries == {0: 1}
    with pytest.raises(UsageError):
        Matrix(2, 2, {0: 2})
    with pytest.raises(UsageError):
        Matrix(2, 2, {2: 0})
    with pytest.raises(UsageError):
        Matrix(-1, 2)


def test_non_injective_is_rejected():
    with pytest.raises(InvariantViolation):
        Matrix(2, 2, {0: 1, 1: 1})


def test_arithmetic_against_dense():
    rng = random.Random(11)
    for _ in range(200):
        r, k, c = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 6)
        a = random_matrix(rng, r, k)
        b = random_matrix(rng, k, c)
        assert dense(a * b) == dense_mul(dense(a), dense(b), c)
        assert dense(a.transpose()) == dense_transpose(dense(a), k)


def test_shape_errors():
    with pytest.raises(UsageError):
        Matrix(2, 2) * Matrix(3, 3)
    with pytest.raises(UsageError):
        Matrix(2, 2).columns_agree(Matrix(2, 3), [0])
    assert Matrix(2, 2).__mul__(object()) is NotImplemented


def test_transpose():
    m = from_dense([[0, 1], [0, 0]], 2)
    assert dense(m.transpose()) == [[0, 0], [1, 0]]
    p = from_dense([[1, 0, 0], [0, 0, 1], [0, 1, 0]], 3)
    assert dense(p * p.transpose()) == dense_identity(3)
    rng = random.Random(5)
    for _ in range(50):
        a = random_matrix(rng, 4, 4)
        assert a.transpose().transpose() == a


def test_column_and_agreement():
    m = from_dense([[1, 0, 0], [0, 0, 1]], 3)
    assert m.entries.get(2) == 1 and m.entries.get(1) is None
    other = from_dense([[1, 0, 0], [0, 1, 0]], 3)
    assert m.columns_agree(other, [0])
    assert not m.columns_agree(other, [0, 1])
    assert not m.columns_agree(other, [2])
    assert m.columns_agree(other, [])
    rng = random.Random(3)
    for _ in range(100):
        a = random_matrix(rng, 4, 5)
        b = random_matrix(rng, 4, 5)
        cols = rng.sample(range(5), rng.randrange(6))
        da, db = dense(a), dense(b)
        assert a.columns_agree(b, cols) == \
            all(da[i][j] == db[i][j] for j in cols for i in range(4))


def test_export_coordinate_frozen():
    m = Matrix(2, 3, {0: 1, 2: 0})
    assert m.export_coordinate() == "2 3 2\n0 2 1\n1 0 1\n"
    assert Matrix(1, 1).export_coordinate() == "1 1 0\n"


def test_equality_is_structural():
    a = from_dense([[0, 1], [0, 0]], 2)
    b = Matrix(2, 2, {1: 0})
    assert a == b
    assert a != Matrix(2, 2, {1: 1})
    assert a != Matrix(2, 3, {1: 0})
    assert a.__eq__(object()) is NotImplemented
