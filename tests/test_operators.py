"""Window compressions, safe cores, and the relation suites."""

import itertools
import os
import random

import pytest

import lefthull
from lefthull import (AxPlusB, EMPTY, FiniteTable, FreeMonoid,
                      InvariantViolation, NumericalSemigroup, PositiveCone,
                      UsageError, calculus, constructible_closure,
                      cyclic_table, filters, operators)
from lefthull.cli import DEFAULTS
from lefthull.config import (build_backend, config_generators, load_config,
                             parse_config)
from lefthull.filters import truncate_semilattice
from lefthull.hull import (ZERO, HullElement, PartialMap, compose,
                           enumerate_hull, evaluate_word, hull_graph,
                           identity_element, is_idempotent, lambda_,
                           render_element, star, window_columns, window_row)
from lefthull.ideals import meet_keys
from lefthull.matrices import Matrix
from lefthull.operators import (RELATION_KINDS, RelationReport,
                                TruncatedOperator, expectation_loop,
                                intertwiner_matrix, isometry_matrix,
                                regular_rep_matrix, s_window, verify_relation)
from lefthull.semigroups import Window

import hull_oracle
from dense_oracle import dense, dense_identity, dense_mul, dense_product
from hull_oracle import (apply_element, char_projection, element_matrix,
                         hull_window)
from test_checks import count_calls
from word_oracle import level_walk

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
EYE5 = Matrix(5, 5, {i: i for i in range(5)})
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
SHIPPED = sorted(n[:-4] for n in os.listdir(CONFIGS) if n.endswith(".cfg"))


# ---------------------------------------------------------------------------
# windows


def test_window_basics():
    w = Window(["a", "b", "c"])
    assert len(w) == 3 and "b" in w and w.index["c"] == 2 and "z" not in w
    with pytest.raises(UsageError):
        Window(["a", "a"])


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_s_window_is_the_backends_window_of_one_size(sg):
    # windows are prefix-monotone in the bound, so the window of a bound is
    # the window of its size, which the backend builds once
    for bound in range(7):
        W = s_window(sg, bound=bound)
        assert W == tuple(sg.window(bound))
        assert W is s_window(sg, size=len(W)) is sg.window_of_size(len(W))


def test_s_window_arguments():
    assert len(s_window(LINE, size=5)) == 5
    assert s_window(LINE, bound=3) == ((0,), (1,), (2,), (3,))
    with pytest.raises(UsageError):
        s_window(LINE)
    with pytest.raises(UsageError):
        s_window(LINE, size=3, bound=3)


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_window_columns_answered_once_per_window(sg, monkeypatch):
    # covariance, semilattice, intertwiner and the expectation loop share
    # one answer per (window, ideal): each ideal costs one window_positions
    # call, however many suites ask.  That call tests each window element
    # for membership in a nonempty ideal, except on the numerical calculus,
    # which answers a nonempty ideal on its own window by bits
    W = s_window(sg, size=20)
    cal = calculus(sg)
    lat = truncate_semilattice(sg, constructible_closure(sg, 2))
    graph = hull_graph(sg, 2)
    positions, member, answers, calls = (cal.window_positions, cal._member,
                                         [], [])

    def answered(X, V):
        answers.append((X, V))
        return positions(X, V)

    def counted(x, X):
        calls.append(X)
        return member(x, X)

    monkeypatch.setattr(cal, "window_positions", answered)
    monkeypatch.setattr(cal, "_member", counted)
    for kind in ("covariance", "semilattice", "intertwiner"):
        verify_relation(sg, kind, W, lat, graph)
    expectation_loop(sg, W, graph)
    asked = set(W.columns)
    assert set(lat.elements) <= asked
    assert len(answers) == len(asked) == len({X for X, _ in answers})
    assert all(V is W for _, V in answers)
    scanned = [X for X in asked if X is not EMPTY
               and not isinstance(sg, NumericalSemigroup)]
    assert len(calls) == len(scanned) * len(W)
    for X, cols in W.columns.items():
        assert window_columns(sg, X, W) is cols
        assert cols == tuple(j for j, t in enumerate(W)
                             if cal.is_member(t, X))


def test_matrix_hull_window_appends_lambdas(tmp_path, capsys):
    # the intertwiner's rows are the hull, then the lambda(s) it misses:
    # the window of 12 points reaches past the hull of length 1
    W, graph = s_window(LINE, size=12), hull_graph(LINE, 1)
    HW = hull_window(LINE, graph, include=W)
    assert HW[:len(graph.ordered)] == graph.ordered
    assert len(HW) > len(graph.ordered)
    assert lefthull.cli.main(["matrix", os.path.join(CONFIGS, "zplus.cfg"),
                              "--length", "1", "--window", "12",
                              "--out", str(tmp_path)]) == 0
    assert "hull.window: %d\n" % len(HW) in capsys.readouterr().out
    head, *rows = (tmp_path / "intertwiner.txt").read_text().splitlines()
    assert head == "%d %d %d" % (len(HW), len(W), len(W))
    assert sorted(rows) == sorted("%d %d 1" % (HW.index[lambda_(LINE, s)], j)
                                  for j, s in enumerate(W))


# ---------------------------------------------------------------------------
# the basic operators


def test_isometry_shift_frozen():
    W = s_window(LINE, size=5)
    V = isometry_matrix(LINE, (1,), W)
    assert V.matrix.entries == {0: 1, 1: 2, 2: 3, 3: 4}
    assert V.safe == frozenset({0, 1, 2, 3})
    assert isometry_matrix(LINE, (0,), W).matrix == EYE5


def test_isometry_free_monoid():
    free = FreeMonoid(2)
    W = s_window(free, bound=2)
    V = isometry_matrix(free, (0,), W)
    for w in free.window(1):
        col = W.index[w]
        assert V.matrix.entries[col] == W.index[(0,) + w]


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_single_element_operators_have_thin_columns(sg):
    # partial permutation shape: at most one 1 per column and per row
    W = s_window(sg, size=14)
    ops = [isometry_matrix(sg, s, W) for s in list(W)[:6]]
    ops += [element_matrix(sg, f, W) for f in enumerate_hull(sg, 1)]
    for op in ops:
        d = dense(op.matrix)
        assert all(sum(row) <= 1 for row in d)
        assert all(sum(col) <= 1 for col in zip(*d))


def test_char_projection_values():
    W = s_window(LINE, size=5)
    cal = calculus(LINE)
    assert char_projection(LINE, cal.full(), W).matrix == EYE5
    diag = char_projection(LINE, (1,), W).matrix
    assert diag.entries == {1: 1, 2: 2, 3: 3, 4: 4}
    assert not char_projection(LINE, EMPTY, W).matrix.entries


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
    assert element_matrix(LINE, identity_element(LINE), W).matrix == EYE5
    V1 = isometry_matrix(LINE, (1,), W)
    assert element_matrix(LINE, lambda_(LINE, (1,)), W).matrix == V1.matrix
    back = HullElement((-1,), (1,))
    assert element_matrix(LINE, back, W).matrix == V1.matrix.transpose()
    z = element_matrix(LINE, ZERO, W)
    assert not z.matrix.entries and z.safe == frozenset(range(5))


def test_hull_matrix_safe_core_definition():
    W = s_window(LINE, size=5)
    f = lambda_(LINE, (2,))  # 3 and 4 shift out of the window
    M = element_matrix(LINE, f, W)
    assert M.safe == frozenset({0, 1, 2})


@pytest.mark.parametrize("sg", BACKENDS, ids=ids)
def test_hull_matrix_is_multiplicative_on_joint_core(sg):
    rng = random.Random(23)
    W = s_window(sg, size=18)
    pool = [f for f in enumerate_hull(sg, 2) if f is not ZERO]
    for _ in range(30):
        f = pool[rng.randrange(len(pool))]
        h = pool[rng.randrange(len(pool))]
        lhs = element_matrix(sg, compose(sg, f, h), W).matrix
        rhs = element_matrix(sg, f, W).matrix * element_matrix(sg, h, W).matrix
        joint = []
        for j, t in enumerate(W):
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
    HW = Window(hull_graph(LINE, 2).ordered)
    eye = regular_rep_matrix(LINE, identity_element(LINE), HW)
    assert eye.matrix == Matrix(len(HW), len(HW),
                             {i: i for i in range(len(HW))})
    # the one-step shift permutes the window where star f f q = q holds
    f = lambda_(LINE, (1,))
    L = regular_rep_matrix(LINE, f, HW)
    for j, q in enumerate(HW):
        fq = compose(LINE, f, q)
        cond = compose(LINE, compose(LINE, star(LINE, f), f), q) == q
        if cond and fq in HW:
            assert L.matrix.entries[j] == HW.index[fq]
        elif not cond:
            assert j not in L.matrix.entries


def test_regular_rep_zero_is_rank_one():
    free = FreeMonoid(2)
    HW = Window(hull_graph(free, 1).ordered)
    z = HW.index[ZERO]
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
    assert T.matrix.transpose() * T.matrix == \
        Matrix(len(W), len(W), {i: i for i in range(len(W))})


def test_intertwiner_needs_lambdas():
    W = s_window(LINE, size=10)
    # misses lambda(7) among others
    bare = Window(hull_graph(LINE, 1).ordered)
    with pytest.raises(UsageError):
        intertwiner_matrix(LINE, W, bare)


# ---------------------------------------------------------------------------
# conditional expectation


def E(m):
    """The conditional expectation of a window matrix: its diagonal part."""
    return Matrix(m.rows, m.cols,
                  {j: i for j, i in m.entries.items() if i == j})


def test_expectation_basics():
    W = s_window(LINE, size=6)
    eye = element_matrix(LINE, identity_element(LINE), W)
    assert E(eye.matrix) == Matrix(6, 6, {i: i for i in range(6)})
    V1 = isometry_matrix(LINE, (1,), W)
    assert not E(V1.matrix).entries


def test_expectation_is_idempotent_linear_bimodule():
    rng = random.Random(9)
    W = s_window(LINE, size=6)
    mats = [element_matrix(LINE, f, W).matrix for f in enumerate_hull(LINE, 2)]

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
        op = element_matrix(sg, f, W)
        fixed = E(op.matrix) == op.matrix
        if f is not ZERO and not is_idempotent(sg, f) and \
                not op.matrix.entries:
            continue  # the window cannot see this element act at all
        visible += 1
        assert fixed == is_idempotent(sg, f)
        # graded dichotomy: the diagonal part is the matrix or nothing
        diag = E(op.matrix)
        assert diag == op.matrix or not diag.entries
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


def test_expectation_loop_keeps_no_action_off_the_window():
    # ax+b with generators (0,2) (0,3) (0,5) at length 3: 211 of the 285
    # elements have no column in the 30-point window.  The loop decides
    # them from their columns and keeps no action for them, and it counts
    # what the matrix body, run on a second instance, counts
    text = "kind = axb\ngenerators = (0,2) (0,3) (0,5)\n"
    sg, other = (build_backend(parse_config(text)) for _ in range(2))
    gens = config_generators(sg, parse_config(text))
    graph = hull_graph(sg, 3, gens)
    W = s_window(sg, size=30)
    off = [f for f in graph.ordered
           if f is ZERO or not window_columns(sg, f.dom, W)]
    assert (len(graph.ordered), len(off)) == (285, 211)
    assert expectation_loop(sg, W, graph) == hull_oracle.expectation_loop(
        other, s_window(other, size=30), hull_graph(other, 3, gens))
    assert not W.actions.keys() & set(off)
    assert len(W.actions) == 285 - 211


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


def fail_first_instance(kind, sg, W, lattice, graph, monkeypatch):
    """A fault in what the suite of ``kind`` reads, which its first
    instance shows: e_{(1)+S} short of its first column; every meet read
    as the zero; the ``_ldiv`` row of (1) read as that of (0), so V_1*
    undoes no shift; S short of its last column; every kept action
    empty."""
    if kind == "covariance":
        monkeypatch.setitem(W.columns, (1,), window_columns(sg, (1,), W)[1:])
    elif kind == "semilattice":
        monkeypatch.setattr(lattice, "key_meet",
                            lambda a, b: lattice.keys[lattice.zero])
    elif kind == "isometry":
        monkeypatch.setitem(W.rows, ("_ldiv", (1,)),
                            window_row(sg, "_ldiv", (0,), W))
    elif kind == "cs-grade-one":
        full = calculus(sg).full()
        monkeypatch.setitem(W.columns, full, window_columns(sg, full, W)[:-1])
    else:
        for f in graph.ordered:
            monkeypatch.setitem(W.actions, f, PartialMap({}, frozenset()))


@pytest.mark.parametrize("kind, instance", [
    ("covariance", "covariance s=(1) X=S"),
    ("semilattice", "semilattice X=S Y=S"),
    ("isometry", "isometry s=(1)"),
    ("cs-grade-one", "word (0)*.(0)"),
    ("intertwiner", "intertwiner f=(-1) | (1)+S")])
def test_relation_mismatch_names_its_instance(kind, instance, monkeypatch):
    # a fault in the window's kept answers or in the lattice's meets that
    # the first instance of the suite already shows: the suite names it
    sg = PositiveCone(1)
    W = s_window(sg, size=8)
    lattice = truncate_semilattice(sg, constructible_closure(sg, 1))
    graph = hull_graph(sg, 1)
    verify_relation(sg, kind, W, lattice=lattice, graph=graph)
    fail_first_instance(kind, sg, W, lattice, graph, monkeypatch)
    with pytest.raises(InvariantViolation) as err:
        verify_relation(sg, kind, W, lattice=lattice, graph=graph)
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
    assert not (a * b).entries
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
# hulls whose elements share few domains: 285 elements with 20 distinct
# star(f) f, and 65 with 23
SHARING_TEXTS = {
    "axb-i-l3": "kind = axb\ngenerators = (0,2) (0,3) (0,5)\n"
                "bounds = depth:2 length:3 window:20 seed:7\n",
    "num-3-5-7": "kind = numerical\nparams = 3 5 7\n"}


def config_inputs(name):
    """Backend, generators and bounds of a shipped config or a text."""
    text = ORACLE_TEXTS.get(name, SHARING_TEXTS.get(name))
    if text is not None:
        cfg = parse_config(text)
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


def swap_keys(monkeypatch, X, Y):
    """Build each lattice with the meet keys of the elements X and Y traded:
    a wrong meet that is still a semilattice's, so the build takes it and
    its up-sets carry it.  Every meet that is X or Y reads as the other."""
    def swapped(cal, members):
        keys, meet = meet_keys(cal, members)
        keys = list(keys)
        i, k = members.index(X), members.index(Y)
        keys[i], keys[k] = keys[k], keys[i]
        return keys, meet

    monkeypatch.setattr(filters, "meet_keys", swapped)


def test_semilattice_suite_catches_a_wrong_meet(monkeypatch):
    sg = PositiveCone(2)
    family = constructible_closure(sg, 2)
    W = s_window(sg, size=20)
    verify_relation(sg, "semilattice", W,
                    lattice=truncate_semilattice(sg, family))
    # (1,0) and (1,1) trade keys before the build, so the meet of (1,0) and
    # (0,1), which is (1,1), now names the first of the two
    swap_keys(monkeypatch, (1, 0), (1, 1))
    lattice = truncate_semilattice(sg, family)
    i, k = sorted((lattice.index((1, 0)), lattice.index((0, 1))))
    assert lattice.meet(i, k) == lattice.index((1, 0))
    with pytest.raises(InvariantViolation) as err:
        verify_relation(sg, "semilattice", W, lattice=lattice)
    assert str(err.value) == "semilattice relation failed at semilattice " \
        "X=%s Y=%s" % (lattice.render(i), lattice.render(k))


def test_semilattice_suite_compares_every_pair_of_the_family(monkeypatch):
    # any two members other than S trade keys before the build: the suite
    # decides every pair of the family by its window columns, and names the
    # first pair in row-major order that reads a wrong meet, as the
    # pairwise loop does
    sg = PositiveCone(2)
    family = constructible_closure(sg, 2)
    W = s_window(sg, size=20)
    for X, Y in itertools.combinations(family[1:], 2):
        swap_keys(monkeypatch, X, Y)
        lattice = truncate_semilattice(sg, family)
        pair = hull_oracle.semilattice_pair(sg, W, lattice)
        assert pair is not None
        with pytest.raises(InvariantViolation) as err:
            verify_relation(sg, "semilattice", W, lattice=lattice)
        assert str(err.value) == "semilattice relation failed at " + pair


def test_semilattice_suite_catches_a_dropped_member(monkeypatch):
    # (1,1) is left out of the whole semigroup only, so e_S e_Y misses a
    # column that e_Y has for every Y holding (1,1)
    sg = PositiveCone(2)
    cal = calculus(sg)
    lattice = truncate_semilattice(sg, constructible_closure(sg, 2))
    member = type(cal)._member

    def dropped(self, x, X):
        return member(self, x, X) and not (x == (1, 1) and X == cal.full())

    monkeypatch.setattr(type(cal), "_member", dropped)
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
        rep = element_matrix(LINE, f, W)
        assert lhs.columns_agree(rep.matrix, rep.safe)


def intertwiner_per_element(sg, W, graph):
    """The intertwiner suite as it was built before, kept as the oracle:
    for every element f the column test star(f) f lambda(s) = lambda(s) is
    made afresh on every window column, and the right side is f applied
    pointwise.  ``compose`` is looked up on the operators module at call
    time, so a fault patched in there reaches the oracle too."""
    compose = operators.compose
    at = {lambda_(sg, s): j for j, s in enumerate(W)}
    n = len(W)
    count = checked = 0
    for f in graph.ordered:
        ff = ZERO if f is ZERO else compose(sg, star(sg, f), f)
        lhs = Matrix(n, n, {j: at[fq] for ls, j in at.items()
                            if compose(sg, ff, ls) == ls
                            and (fq := compose(sg, f, ls)) in at})
        entries, safe = {}, set()
        for j, t in enumerate(W):
            y = apply_element(sg, f, t)
            if y in W.index:
                entries[j] = W.index[y]
            if y is None or y in W.index:
                safe.add(j)
        if not lhs.columns_agree(Matrix(n, n, entries), safe):
            raise InvariantViolation("intertwiner relation failed at "
                                     "intertwiner f=%s"
                                     % render_element(sg, f))
        count += 1
        checked += len(safe)
    return RelationReport("intertwiner", count, checked)


def intertwiner_inputs(name):
    """Backend, generators, window and hull graph of a config."""
    sg, generators, bounds = config_inputs(name)
    return (sg, generators, s_window(sg, size=bounds["window"]),
            hull_graph(sg, bounds["length"], generators))


def test_intertwiner_decides_each_domain_once(monkeypatch):
    # one star(f) f per element, the column test once per distinct star(f) f
    # and window column, and f lambda(s) only on the columns it keeps
    sg, generators, W, graph = intertwiner_inputs("axb-i-l3")
    ls = [lambda_(sg, s) for s in W]
    ffs = [compose(sg, star(sg, f), f) for f in graph.ordered]
    kept = sum(compose(sg, ff, x) == x for ff in ffs for x in ls)
    bound = len(graph.ordered) + len(set(ffs)) * len(W) + kept
    calls = count_calls(monkeypatch, lefthull.hull, "compose")
    rep = verify_relation(sg, "intertwiner", W, graph=graph,
                          generators=generators)
    assert rep.count == len(graph.ordered) == 285
    assert len(calls) <= bound == 1180


def failures(sg, W, graph):
    """The messages of the suite and of its per-element oracle."""
    messages = []
    for walk in (lambda: verify_relation(sg, "intertwiner", W, graph=graph),
                 lambda: intertwiner_per_element(sg, W, graph)):
        with pytest.raises(InvariantViolation) as failed:
            walk()
        messages.append(str(failed.value))
    return messages


def test_wrong_column_test_names_the_same_first_element(monkeypatch):
    # compose answers star(f) f lambda(W_0) wrongly for star(f) f = 1.  The
    # first element with that star(f) f sends W_0 out of the window, so
    # the suite caches the wrong answer there and a later element shows it
    sg, generators, W, graph = intertwiner_inputs("axb")
    one, target = identity_element(sg), lambda_(sg, W[0])
    first = graph.ordered[0]
    assert compose(sg, star(sg, first), first) == one
    assert 0 not in element_matrix(sg, first, W).safe
    real = operators.compose

    def faulty(sg, f, h):
        return ZERO if (f, h) == (one, target) else real(sg, f, h)

    monkeypatch.setattr(operators, "compose", faulty)
    suite, oracle = failures(sg, W, graph)
    assert suite == oracle
    assert oracle.endswith("f=(-3,2) | S")


def test_wrong_product_on_a_shared_domain_names_that_element(monkeypatch):
    # compose gets f lambda(s) wrong for one non-idempotent f, on a column
    # it keeps in sight; an earlier element has the same star(f) f, so the
    # column test is read from the memo
    sg, generators, W, graph = intertwiner_inputs("axb-i-l3")
    i, f = next((i, f) for i, f in enumerate(graph.ordered)
                if render_element(sg, f) == "(0,1/2) | (0,2)S")
    ff = compose(sg, star(sg, f), f)
    assert not is_idempotent(sg, f)
    assert any(compose(sg, star(sg, g), g) == ff for g in graph.ordered[:i])
    target = lambda_(sg, W[min(element_matrix(sg, f, W).matrix.entries)])
    real = operators.compose

    def faulty(sg, g, h):
        return ZERO if (g, h) == (f, target) else real(sg, g, h)

    monkeypatch.setattr(operators, "compose", faulty)
    suite, oracle = failures(sg, W, graph)
    assert suite == oracle
    assert oracle.endswith("f=(0,1/2) | (0,2)S")


# ---------------------------------------------------------------------------
# every matrix the Matrix oracle of a relation suite compares, against the
# dense product of its factors, and the suite's report against the oracle's;
# the intertwiner's against T* L(f) T over the full hull window


def compared_matrices(monkeypatch, walk, *args, **kwargs):
    """What ``walk`` returns and the left-hand matrices it compares, in
    order."""
    seen = []
    agree = Matrix.columns_agree

    def spy_agree(self, other, cols):
        seen.append(self)
        return agree(self, other, cols)

    with monkeypatch.context() as m:
        m.setattr(Matrix, "columns_agree", spy_agree)
        out = walk(*args, **kwargs)
    return out, seen


def compared_products(monkeypatch, walk, *args, **kwargs):
    """What ``walk`` returns and, as matrices, the products the suite's
    cs-grade-one walk compares, in order."""
    seen = []
    agrees = operators._agrees

    def spy(P, X, S):
        n = len(P) - 1  # the zero slot
        seen.append(Matrix(n, n, {c: P[c] for c in range(n) if P[c] != n}))
        return agrees(P, X, S)

    with monkeypatch.context() as m:
        m.setattr(operators, "_agrees", spy)
        out = walk(*args, **kwargs)
    return out, seen


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


@pytest.mark.parametrize("name", SHIPPED + sorted(SHARING_TEXTS))
def test_relation_suites_match_dense_oracle(name, monkeypatch):
    sg, generators, bounds = config_inputs(name)
    W = s_window(sg, size=bounds["window"])
    lattice = truncate_semilattice(
        sg, constructible_closure(sg, bounds["depth"], generators))
    graph = hull_graph(sg, bounds["length"], generators)
    # the semilattice suite compares bitsets, not matrices; its oracle is
    # test_semilattice_suite_matches_oracle_on_configs.  The configs with
    # shared domains are there for the intertwiner.
    kinds = ("intertwiner",) if name in SHARING_TEXTS else \
        [k for k in RELATION_KINDS if k != "semilattice"]
    for kind in kinds:
        rep, products = compared_products(
            monkeypatch, verify_relation, sg, kind, W, lattice=lattice,
            graph=graph, generators=generators)
        mat, got = compared_matrices(
            monkeypatch, hull_oracle.verify_relation, sg, kind, W,
            lattice=lattice, graph=graph, generators=generators)
        assert rep == mat
        want = oracle_products(sg, kind, W, bounds["depth"],
                               bounds["length"], generators)
        if kind == "cs-grade-one":
            # the suite compares each distinct state of a level once; the
            # level walk compares every word, in the oracle's order
            assert rep.count == len(want)
            assert products and \
                {tuple(map(tuple, dense(m))) for m in got} == \
                {tuple(map(tuple, dense(m))) for m in products} == \
                {tuple(map(tuple, d)) for d in want}
            _, got = compared_matrices(monkeypatch, level_walk, sg, W, graph)
        if kind == "intertwiner":
            assert rep == intertwiner_per_element(sg, W, graph)
        assert len(got) == len(want) > 0, kind
        for i, (m, d) in enumerate(zip(got, want)):
            assert dense(m) == d, (kind, i)


# ---------------------------------------------------------------------------
# the suites and the expectation loop against their Matrix bodies


# the lhbench inputs that are not shipped configs
LHBENCH_TEXTS = {
    "axb-i": "kind = axb\ngenerators = (0,2) (0,3) (0,5)\n",
    "axb-c": "kind = axb\ngenerators = (1,2) (0,3)\n",
    "num-3-5-7": "kind = numerical\nparams = 3 5 7\n",
    "num-4-5": "kind = numerical\nparams = 4 5\n",
    "num-10-11": "kind = numerical\nparams = 10 11\n",
    "cyc12": "kind = table\nparams = cyclic 12\n",
    "cyc14": "kind = table\nparams = cyclic 14\n",
    "cyc48-g1": "kind = table\nparams = cyclic 48\ngenerators = 1\n",
}


def agreement_inputs(name, length, monkeypatch=None):
    """A fresh backend with its generators, window, lattice and hull graph
    at the config's bounds and the given length.  With ``monkeypatch``, the
    first and last members other than S and the empty ideal trade keys
    before the lattice is built (``swap_keys``)."""
    if name in LHBENCH_TEXTS:
        cfg = parse_config(LHBENCH_TEXTS[name])
    else:
        cfg = load_config(os.path.join(CONFIGS, name + ".cfg"))
    sg = build_backend(cfg)
    generators = config_generators(sg, cfg)
    bounds = dict(DEFAULTS, **cfg.bounds)
    family = constructible_closure(sg, bounds["depth"], generators)
    members = [X for X in family[1:] if X is not EMPTY]
    if monkeypatch is not None and len(members) > 1:
        swap_keys(monkeypatch, members[0], members[-1])
    lattice = truncate_semilattice(sg, family)
    if monkeypatch is not None:
        monkeypatch.undo()
    return (sg, generators, s_window(sg, size=bounds["window"]), lattice,
            hull_graph(sg, length, generators))


def outcome(run):
    """What a suite returns, or the text of the violation it raises."""
    try:
        return run()
    except InvariantViolation as err:
        return str(err)


def inject_agreement_fault(fault, sg, generators, W, graph):
    """Write a fault into what both paths read: every proper domain of the
    graph short of its last window column; the first letter given the
    ``_mul`` and ``_ldiv`` rows of the last end; the middle element's kept
    action emptied.  The wrong meet goes in before the lattice is built
    (``agreement_inputs``)."""
    cal = calculus(sg)
    if fault == "columns":
        for f in graph.ordered:
            if f is not ZERO and f.dom != cal.full():
                W.columns[f.dom] = window_columns(sg, f.dom, W)[:-1]
    elif fault == "rows":
        g = (generators if generators is not None else sg.generators())[0]
        for op in ("_mul", "_ldiv"):
            W.rows[op, g] = window_row(sg, op, graph.ends[-1], W)
    elif fault == "action":
        W.actions[graph.ordered[len(graph.ordered) // 2]] = \
            PartialMap({}, frozenset())


@pytest.mark.parametrize("length", [2, 3])
@pytest.mark.parametrize("name", SHIPPED + sorted(LHBENCH_TEXTS))
def test_suites_agree_with_their_matrix_bodies(name, length, monkeypatch):
    # the same reports and expectation counts, and under each fault the
    # same first failure, of the suites and of the Matrix bodies they
    # replace, both reading one backend's kept answers
    failed = 0
    for fault in (None, "columns", "rows", "action", "meet"):
        sg, generators, W, lattice, graph = agreement_inputs(
            name, length, monkeypatch if fault == "meet" else None)
        if fault not in (None, "meet"):
            inject_agreement_fault(fault, sg, generators, W, graph)
        W30 = s_window(sg, size=max(len(W), 30))
        for kind in RELATION_KINDS:
            got, want = (outcome(lambda: suite(
                sg, kind, W, lattice=lattice, graph=graph,
                generators=generators))
                for suite in (verify_relation, hull_oracle.verify_relation))
            assert got == want, (fault, kind)
            failed += isinstance(got, str)
        assert outcome(lambda: expectation_loop(sg, W30, graph)) == \
            outcome(lambda: hull_oracle.expectation_loop(sg, W30, graph))
        if fault is None:
            assert failed == 0
    assert failed > 0


def test_intertwiner_left_side_is_tested_for_injectivity(monkeypatch):
    # compose sends lambda(2) where it sends lambda(1) under the shift by
    # one, so T* L(f) T maps two window points to one: no partial
    # permutation, whatever f's action is
    sg = PositiveCone(1)
    W = s_window(sg, size=8)
    graph = hull_graph(sg, 1)
    f = lambda_(sg, (1,))
    assert f in graph.index
    real = operators.compose

    def faulty(sg, g, h):
        if (g, h) == (f, lambda_(sg, (2,))):
            h = lambda_(sg, (1,))
        return real(sg, g, h)

    monkeypatch.setattr(operators, "compose", faulty)
    with pytest.raises(InvariantViolation) as err:
        verify_relation(sg, "intertwiner", W, graph=graph)
    assert str(err.value) == "partial permutation is not injective"
    with pytest.raises(InvariantViolation) as err:
        hull_oracle.verify_relation(sg, "intertwiner", W, graph=graph)
    assert str(err.value) == "partial permutation is not injective"
