"""Window compressions, safe cores, and the relation suites."""

import itertools
import os
import random

import pytest

from lefthull import (AxPlusB, EMPTY, FiniteTable, FreeMonoid,
                      InvariantViolation, NumericalSemigroup, PositiveCone,
                      UsageError, calculus, constructible_closure,
                      cyclic_table)
from lefthull.cli import DEFAULTS
from lefthull.config import (build_backend, config_generators, load_config,
                             parse_config)
from lefthull.filters import truncate_semilattice
from lefthull.hull import (ZERO, HullElement, apply_element, compose,
                           enumerate_hull, evaluate_word, hull_graph,
                           identity_element, is_idempotent, lambda_, star)
from lefthull.matrices import Matrix
from lefthull.operators import (RELATION_KINDS, RelationReport,
                                TruncatedOperator, Window,
                                char_projection, conditional_expectation,
                                expectation_loop, hull_matrix, hull_window,
                                intertwiner_matrix, isometry_matrix,
                                regular_rep_matrix, s_window, verify_relation)

from dense_oracle import dense, dense_identity, dense_mul, dense_product

BACKENDS = [
    FreeMonoid(2),
    PositiveCone(2),
    NumericalSemigroup((2, 3)),
    AxPlusB(),
    FiniteTable(cyclic_table(5)),
]


def ids(sg):
    return sg.describe()


LINE = PositiveCone(1)
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
SHIPPED = sorted(n[:-4] for n in os.listdir(CONFIGS) if n.endswith(".cfg"))


# ---------------------------------------------------------------------------
# windows


def test_window_basics():
    w = Window(["a", "b", "c"])
    assert len(w) == 3 and "b" in w and w.position("c") == 2
    with pytest.raises(UsageError):
        Window(["a", "a"])
    with pytest.raises(UsageError):
        w.position("z")


def test_s_window_arguments():
    assert len(s_window(LINE, size=5)) == 5
    assert s_window(LINE, bound=3).elements == ((0,), (1,), (2,), (3,))
    with pytest.raises(UsageError):
        s_window(LINE)
    with pytest.raises(UsageError):
        s_window(LINE, size=3, bound=3)


def test_hull_window_appends_lambdas():
    W = s_window(LINE, size=12)
    HW = hull_window(LINE, hull_graph(LINE, 1), include=W)
    for s in W:
        assert lambda_(LINE, s) in HW
    bare = hull_window(LINE, hull_graph(LINE, 1))
    assert lambda_(LINE, (7,)) not in bare


# ---------------------------------------------------------------------------
# the basic operators


def test_isometry_shift_frozen():
    W = s_window(LINE, size=5)
    V = isometry_matrix(LINE, (1,), W)
    assert V.matrix.entries == {0: 1, 1: 2, 2: 3, 3: 4}
    assert V.safe == frozenset({0, 1, 2, 3})
    assert isometry_matrix(LINE, (0,), W).matrix == Matrix.identity(5)


def test_isometry_free_monoid():
    free = FreeMonoid(2)
    W = s_window(free, bound=2)
    V = isometry_matrix(free, (0,), W)
    for w in free.window(1):
        col = W.position(w)
        assert V.matrix.entries[col] == W.position((0,) + w)


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_single_element_operators_have_thin_columns(sg):
    # partial permutation shape: at most one 1 per column and per row
    W = s_window(sg, size=14)
    ops = [isometry_matrix(sg, s, W) for s in list(W)[:6]]
    ops += [hull_matrix(sg, f, W) for f in enumerate_hull(sg, 1)]
    for op in ops:
        d = dense(op.matrix)
        assert all(sum(row) <= 1 for row in d)
        assert all(sum(col) <= 1 for col in zip(*d))


def test_char_projection_values():
    W = s_window(LINE, size=5)
    cal = calculus(LINE)
    assert char_projection(LINE, cal.full(), W).matrix == Matrix.identity(5)
    diag = char_projection(LINE, (1,), W).matrix
    assert diag.entries == {1: 1, 2: 2, 3: 3, 4: 4}
    assert char_projection(LINE, EMPTY, W).matrix.is_zero()


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_projection_products_are_intersections(sg):
    cal = calculus(sg)
    W = s_window(sg, size=16)
    fam = constructible_closure(sg, 2)
    for X in fam[:5]:
        for Y in fam[:5]:
            lhs = char_projection(sg, X, W).matrix \
                * char_projection(sg, Y, W).matrix
            rhs = char_projection(sg, cal.intersect(X, Y), W).matrix
            assert lhs == rhs


def test_hull_matrix_frozen():
    W = s_window(LINE, size=5)
    assert hull_matrix(LINE, identity_element(LINE), W).matrix == \
        Matrix.identity(5)
    V1 = isometry_matrix(LINE, (1,), W)
    assert hull_matrix(LINE, lambda_(LINE, (1,)), W).matrix == V1.matrix
    back = HullElement((-1,), (1,))
    assert hull_matrix(LINE, back, W).matrix == V1.matrix.transpose()
    z = hull_matrix(LINE, ZERO, W)
    assert z.matrix.is_zero() and z.safe == frozenset(range(5))


def test_hull_matrix_safe_core_definition():
    W = s_window(LINE, size=5)
    f = lambda_(LINE, (2,))  # 3 and 4 shift out of the window
    M = hull_matrix(LINE, f, W)
    assert M.safe == frozenset({0, 1, 2})


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_hull_matrix_is_multiplicative_on_joint_core(sg):
    rng = random.Random(23)
    W = s_window(sg, size=18)
    pool = [f for f in enumerate_hull(sg, 2) if f is not ZERO]
    for _ in range(30):
        f = pool[rng.randrange(len(pool))]
        h = pool[rng.randrange(len(pool))]
        lhs = hull_matrix(sg, compose(sg, f, h), W).matrix
        rhs = hull_matrix(sg, f, W).matrix * hull_matrix(sg, h, W).matrix
        joint = []
        for j, t in enumerate(W.elements):
            y = apply_element(sg, h, t)
            if y is None:
                joint.append(j)
                continue
            if y not in W:
                continue
            z = apply_element(sg, f, y)
            if z is None or z in W:
                joint.append(j)
        assert lhs.columns_agree(rhs, joint)


def test_regular_rep_frozen():
    HW = hull_window(LINE, hull_graph(LINE, 2))
    eye = regular_rep_matrix(LINE, identity_element(LINE), HW)
    assert eye.matrix == Matrix.identity(len(HW))
    # the one-step shift permutes the window where star f f q = q holds
    f = lambda_(LINE, (1,))
    L = regular_rep_matrix(LINE, f, HW)
    for j, q in enumerate(HW.elements):
        fq = compose(LINE, f, q)
        cond = compose(LINE, compose(LINE, star(LINE, f), f), q) == q
        if cond and fq in HW:
            assert L.matrix.entries[j] == HW.position(fq)
        elif not cond:
            assert j not in L.matrix.entries


def test_regular_rep_zero_is_rank_one():
    free = FreeMonoid(2)
    HW = hull_window(free, hull_graph(free, 1))
    z = HW.position(ZERO)
    L = regular_rep_matrix(free, ZERO, HW)
    assert L.matrix.entries == {z: z}
    # and every regular operator fixes the zero vector
    for f in enumerate_hull(free, 1):
        assert regular_rep_matrix(free, f, HW).matrix.entries[z] == z


def test_intertwiner_shape_and_isometry():
    W = s_window(LINE, size=8)
    HW = hull_window(LINE, hull_graph(LINE, 2), include=W)
    T = intertwiner_matrix(LINE, W, HW)
    assert T.matrix.rows == len(HW) and T.matrix.cols == len(W)
    assert sorted(T.matrix.entries) == list(range(len(W)))
    assert T.matrix.transpose() * T.matrix == Matrix.identity(len(W))


def test_intertwiner_needs_lambdas():
    W = s_window(LINE, size=10)
    # misses lambda(7) among others
    bare = hull_window(LINE, hull_graph(LINE, 1))
    with pytest.raises(UsageError):
        intertwiner_matrix(LINE, W, bare)


# ---------------------------------------------------------------------------
# conditional expectation


def test_expectation_basics():
    W = s_window(LINE, size=6)
    eye = hull_matrix(LINE, identity_element(LINE), W)
    assert conditional_expectation(eye).matrix == Matrix.identity(6)
    V1 = isometry_matrix(LINE, (1,), W)
    assert conditional_expectation(V1).matrix.is_zero()
    with pytest.raises(UsageError):
        conditional_expectation(intertwiner_matrix(
            LINE, W, hull_window(LINE, hull_graph(LINE, 1), include=W)))


def test_expectation_is_idempotent_linear_bimodule():
    rng = random.Random(9)
    W = s_window(LINE, size=6)
    mats = [hull_matrix(LINE, f, W).matrix for f in enumerate_hull(LINE, 2)]

    def E(m):
        return m.diagonal()

    def dense_E(d):
        return [[x if i == j else 0 for j, x in enumerate(row)]
                for i, row in enumerate(d)]

    for _ in range(20):
        a = mats[rng.randrange(len(mats))]
        b = mats[rng.randrange(len(mats))]
        assert E(E(a)) == E(a)
        # linearity, on the dense sum of two partial permutations
        total = [[x + y for x, y in zip(ra, rb)]
                 for ra, rb in zip(dense(a), dense(b))]
        assert dense_E(total) == [[x + y for x, y in zip(ra, rb)]
                                  for ra, rb in zip(dense(E(a)),
                                                    dense(E(b)))]
        d1 = char_projection(LINE, (1,), W).matrix
        d2 = char_projection(LINE, (3,), W).matrix
        assert E(d1 * a * d2) == d1 * E(a) * d2


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_expectation_fixes_exactly_idempotents(sg):
    W = s_window(sg, size=30)
    visible = 0
    for f in enumerate_hull(sg, 2):
        op = hull_matrix(sg, f, W)
        fixed = conditional_expectation(op).matrix == op.matrix
        if f is not ZERO and not is_idempotent(sg, f) and op.matrix.is_zero():
            continue  # the window cannot see this element act at all
        visible += 1
        assert fixed == is_idempotent(sg, f)
        # graded dichotomy: the diagonal part is the matrix or nothing
        diag = conditional_expectation(op).matrix
        assert diag == op.matrix or diag.is_zero()
    assert visible >= len(enumerate_hull(sg, 1))


def test_expectation_loop_counts_and_guard():
    graph = hull_graph(LINE, 3)
    total, fixed, skipped = expectation_loop(LINE, s_window(LINE, size=30),
                                             graph)
    assert (total, fixed, skipped) == (10, 2, 0)
    # on two basis vectors the longer shifts act invisibly and are set aside
    total, fixed, skipped = expectation_loop(LINE, s_window(LINE, size=2),
                                             graph)
    assert skipped > 0 and total + skipped == 10


# ---------------------------------------------------------------------------
# relation suites


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_relation_suites_pass(sg):
    W = s_window(sg, size=20)
    lattice = truncate_semilattice(sg, constructible_closure(sg, 2))
    graph = hull_graph(sg, 2)
    for kind in ("covariance", "semilattice", "isometry", "cs-grade-one"):
        report = verify_relation(sg, kind, W, lattice=lattice, graph=graph)
        assert isinstance(report, RelationReport)
        assert report.count > 0 and report.checked_columns > 0
    report = verify_relation(sg, "intertwiner", W, graph=graph)
    assert report.count == len(enumerate_hull(sg, 2))


def line_lattice(depth):
    return truncate_semilattice(LINE, constructible_closure(LINE, depth))


def test_relation_reports_deterministic():
    W = s_window(LINE, size=12)
    a = verify_relation(LINE, "covariance", W, lattice=line_lattice(2))
    b = verify_relation(LINE, "covariance", W, lattice=line_lattice(2))
    assert a == b
    assert (a.count, a.checked_columns) == (b.count, b.checked_columns)


@pytest.mark.parametrize("kind, instance", [
    ("covariance", "covariance s=(1) X=S"),
    ("semilattice", "semilattice X=S Y=S"),
    ("isometry", "isometry s=(1)"),
    ("cs-grade-one", "word (0)*.(0)"),
    ("intertwiner", "intertwiner f=(-1) | (1)+S")])
def test_relation_mismatch_names_its_instance(kind, instance, monkeypatch):
    # every comparison fails, so each suite names its first instance; the
    # semilattice suite compares no matrices, and every meet in its table
    # is made the zero
    monkeypatch.setattr(Matrix, "columns_agree", lambda *args: False)
    lattice = line_lattice(1)
    lattice.table = ((lattice.zero,) * len(lattice),) * len(lattice)
    with pytest.raises(InvariantViolation) as err:
        verify_relation(LINE, kind, s_window(LINE, size=8), lattice=lattice,
                        graph=hull_graph(LINE, 1))
    assert str(err.value) == "%s relation failed at %s" % (kind, instance)


def test_relation_unknown_kind():
    with pytest.raises(UsageError):
        verify_relation(LINE, "norms", s_window(LINE, size=4))


@pytest.mark.parametrize("kind", ["covariance", "semilattice"])
def test_family_suites_need_a_family(kind):
    with pytest.raises(UsageError) as err:
        verify_relation(LINE, kind, s_window(LINE, size=4))
    assert kind in str(err.value)


@pytest.mark.parametrize("kind", ["cs-grade-one", "intertwiner"])
def test_hull_suites_need_a_graph(kind):
    with pytest.raises(UsageError) as err:
        verify_relation(LINE, kind, s_window(LINE, size=4),
                        lattice=line_lattice(1))
    assert kind in str(err.value)


def test_semilattice_instance_free_monoid():
    # e_{aS} e_{bS} = e_empty = 0
    free = FreeMonoid(2)
    W = s_window(free, bound=3)
    a = char_projection(free, (0,), W).matrix
    b = char_projection(free, (1,), W).matrix
    assert (a * b).is_zero()
    verify_relation(free, "semilattice", W,
                    lattice=truncate_semilattice(
                        free, constructible_closure(free, 1)))


def semilattice_per_pair(sg, W, family):
    """The semilattice suite as it was built before, kept as the oracle:
    three fresh projections for every pair of the family."""
    cal = calculus(sg)
    count = 0
    for i, X in enumerate(family):
        for Y in family[i:]:
            lhs = char_projection(sg, X, W).matrix \
                * char_projection(sg, Y, W).matrix
            rhs = char_projection(sg, cal.intersect(X, Y), W).matrix
            assert lhs == rhs
            count += 1
    return count, count * len(W)


@pytest.mark.parametrize("sg", BACKENDS + [NumericalSemigroup((3, 5, 7))],
                         ids=ids)
def test_semilattice_suite_matches_per_pair_projections(sg):
    W = s_window(sg, size=20)
    family = constructible_closure(sg, 2)
    rep = verify_relation(sg, "semilattice", W,
                          lattice=truncate_semilattice(sg, family))
    assert (rep.count, rep.checked_columns) == \
        semilattice_per_pair(sg, W, family)


ORACLE_TEXTS = {"num-10-11": "kind = numerical\nparams = 10 11\n",
                "cone4": "kind = cone\nparams = 4\n"}


def config_inputs(name):
    """Backend, generators and bounds of a shipped config or a text."""
    if name in ORACLE_TEXTS:
        cfg = parse_config(ORACLE_TEXTS[name])
    else:
        cfg = load_config(os.path.join(CONFIGS, name + ".cfg"))
    sg = build_backend(cfg)
    return sg, config_generators(sg, cfg), dict(DEFAULTS, **cfg.bounds)


@pytest.mark.parametrize("name", SHIPPED + sorted(ORACLE_TEXTS))
def test_semilattice_suite_matches_oracle_on_configs(name):
    # the bitsets and the meet table against three fresh projections and a
    # fresh intersection for every pair, at depth 2
    sg, generators, bounds = config_inputs(name)
    W = s_window(sg, size=bounds["window"])
    family = constructible_closure(sg, 2, generators)
    rep = verify_relation(sg, "semilattice", W,
                          lattice=truncate_semilattice(sg, family))
    assert (rep.count, rep.checked_columns) == \
        semilattice_per_pair(sg, W, family)
    assert rep.count > 0


def test_lattice_build_rejects_a_missing_meet():
    # 2S n 3S = {5,6,...} is not in this family, so no semilattice suite
    # can be asked to check it
    sg = NumericalSemigroup((2, 3))
    cal = calculus(sg)
    family = (cal.full(), cal.principal(2), cal.principal(3))
    assert cal.intersect(family[1], family[2]) not in family
    with pytest.raises(UsageError) as err:
        truncate_semilattice(sg, family)
    assert str(err.value).startswith("family is not intersection closed")


def test_semilattice_suite_catches_a_wrong_meet():
    sg = PositiveCone(2)
    lattice = truncate_semilattice(sg, constructible_closure(sg, 2))
    # the suite reads each pair once, at i < k; the build has checked
    # that the table is commutative
    i, k = sorted((lattice.index((1, 0)), lattice.index((0, 1))))
    assert lattice.meet(i, k) == lattice.index((1, 1))
    W = s_window(sg, size=20)
    verify_relation(sg, "semilattice", W, lattice=lattice)
    # one off-diagonal entry now names the first of the two as the meet
    rows = [list(row) for row in lattice.table]
    rows[i][k] = i
    lattice.table = tuple(map(tuple, rows))
    with pytest.raises(InvariantViolation) as err:
        verify_relation(sg, "semilattice", W, lattice=lattice)
    assert str(err.value) == "semilattice relation failed at semilattice " \
        "X=%s Y=%s" % (lattice.render(i), lattice.render(k))


def test_semilattice_suite_catches_a_dropped_member(monkeypatch):
    # (1,1) is left out of the whole semigroup only, so e_S e_Y misses a
    # column that e_Y has for every Y holding (1,1)
    sg = PositiveCone(2)
    cal = calculus(sg)
    lattice = truncate_semilattice(sg, constructible_closure(sg, 2))
    member = type(cal).is_member

    def dropped(self, x, X):
        return member(self, x, X) and not (x == (1, 1) and X == cal.full())

    monkeypatch.setattr(type(cal), "is_member", dropped)
    with pytest.raises(InvariantViolation) as err:
        verify_relation(sg, "semilattice", s_window(sg, size=20),
                        lattice=lattice)
    assert "X=S" in str(err.value)


def test_cs_grade_one_specific_word():
    # 1* 2 1* 0 has grade 0 and acts as the projection onto 1+
    from lefthull.hull import evaluate_word
    W = s_window(LINE, size=10)
    pairs = [((1,), (2,)), ((1,), (0,))]
    f = evaluate_word(LINE, pairs)
    assert f.grade == (0,) and f.dom == (1,)
    V = {s: isometry_matrix(LINE, s, W).matrix for s in [(0,), (1,), (2,)]}
    prod = V[(1,)].transpose() * V[(2,)] * V[(1,)].transpose() * V[(0,)]
    rhs = char_projection(LINE, (1,), W).matrix
    safe = [j for j in range(10)]
    assert prod.columns_agree(rhs, safe[:8])


def test_covariance_specific_instance():
    # V_1 chi_S V_1* = chi_{1+} on the full window
    W = s_window(LINE, size=10)
    cal = calculus(LINE)
    V = isometry_matrix(LINE, (1,), W).matrix
    lhs = V * char_projection(LINE, cal.full(), W).matrix * V.transpose()
    rhs = char_projection(LINE, (1,), W).matrix
    assert lhs == rhs


def test_intertwiner_matches_hull_rep_pointwise():
    W = s_window(LINE, size=14)
    HW = hull_window(LINE, hull_graph(LINE, 2), include=W)
    T = intertwiner_matrix(LINE, W, HW)
    for f in enumerate_hull(LINE, 2):
        lhs = T.matrix.transpose() \
            * regular_rep_matrix(LINE, f, HW).matrix * T.matrix
        rep = hull_matrix(LINE, f, W)
        assert lhs.columns_agree(rep.matrix, rep.safe)


# ---------------------------------------------------------------------------
# every matrix a relation suite compares, against the dense product of its
# factors; the intertwiner's against T* L(f) T over the full hull window


def compared_matrices(monkeypatch, sg, kind, W, **bounds):
    """The left-hand matrices verify_relation compares, in order."""
    seen = []
    agree = Matrix.columns_agree

    def spy_agree(self, other, cols):
        seen.append(self)
        return agree(self, other, cols)

    with monkeypatch.context() as m:
        m.setattr(Matrix, "columns_agree", spy_agree)
        verify_relation(sg, kind, W, **bounds)
    return seen


def oracle_products(sg, kind, W, depth, length, generators):
    """The dense products each instance of the suite stands for."""
    cal = calculus(sg)
    letters = tuple(generators if generators is not None
                    else sg.generators())
    ends = (sg.identity(),) + letters
    V = {s: isometry_matrix(sg, s, W).matrix for s in ends}
    if kind == "covariance":
        family = constructible_closure(sg, depth, generators)
        return [dense_product(V[s], char_projection(sg, X, W).matrix,
                              V[s].transpose())
                for s in letters for X in family]
    if kind == "isometry":
        return [dense_product(V[s].transpose(), V[s]) for s in letters]
    if kind == "cs-grade-one":
        pool = [(t, s) for t in ends for s in ends]
        one = sg.grading_group().identity()
        out = []
        for n in range(1, length + 1):
            for pairs in itertools.product(pool, repeat=n):
                f = evaluate_word(sg, list(pairs))
                if f is not ZERO and f.grade != one:
                    continue
                prod = dense_identity(len(W))
                for t, s in pairs:
                    prod = dense_mul(dense_mul(prod, dense(V[t].transpose()),
                                               len(W)),
                                     dense(V[s]), len(W))
                out.append(prod)
        return out
    assert kind == "intertwiner"
    HW = hull_window(sg, hull_graph(sg, length, generators), include=W)
    T = intertwiner_matrix(sg, W, HW).matrix
    return [dense_product(T.transpose(), regular_rep_matrix(sg, f, HW).matrix,
                          T)
            for f in enumerate_hull(sg, length, generators)]


@pytest.mark.parametrize("name", SHIPPED)
def test_relation_suites_match_dense_oracle(name, monkeypatch):
    sg, generators, bounds = config_inputs(name)
    W = s_window(sg, size=bounds["window"])
    lattice = truncate_semilattice(
        sg, constructible_closure(sg, bounds["depth"], generators))
    # the semilattice suite compares bitsets, not matrices; its oracle is
    # test_semilattice_suite_matches_oracle_on_configs
    for kind in (k for k in RELATION_KINDS if k != "semilattice"):
        got = compared_matrices(monkeypatch, sg, kind, W, lattice=lattice,
                                graph=hull_graph(sg, bounds["length"],
                                                 generators),
                                generators=generators)
        want = oracle_products(sg, kind, W, bounds["depth"],
                               bounds["length"], generators)
        assert len(got) == len(want) > 0, kind
        for i, (m, d) in enumerate(zip(got, want)):
            assert dense(m) == d, (kind, i)
