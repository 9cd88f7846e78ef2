"""Value semantics of the backends, grading groups and result records:
equality by value, a hash shared by equal values, the field-listing repr,
read-only fields, and the checks and normalisation their constructors
run.  None of them is a dataclass: importing the package generates no
code."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import lefthull
from lefthull import (AxPlusB, FiniteGroup, FiniteTable, FreeGroup,
                      FreeMonoid, Homomorphism, Integers, IntegerLattice,
                      InvariantViolation, NumericalSemigroup, PositiveCone,
                      RationalAffine, UsageError, Verdict, cyclic_table)
from lefthull.checks import CheckResult
from lefthull.config import Config
from lefthull.filters import Filter
from lefthull.hull import EStarReport, PartialMap
from lefthull.matrices import Matrix
from lefthull.operators import RelationReport, TruncatedOperator

Z3 = cyclic_table(3)
CONE2 = PositiveCone(2)

# (factory, repr text); each factory builds a fresh, equal value
VALUES = [
    (lambda: FreeGroup(2), "FreeGroup(rank=2)"),
    (lambda: Integers(2), "Integers(rank=2)"),
    (lambda: IntegerLattice(3), "IntegerLattice(stride=3)"),
    (lambda: RationalAffine(), "RationalAffine()"),
    (lambda: FiniteGroup(Z3, 0),
     "FiniteGroup(table=((0, 1, 2), (1, 2, 0), (2, 0, 1)), "
     "identity_index=0)"),
    (lambda: FreeMonoid(2), "FreeMonoid(alphabet_size=2)"),
    (lambda: PositiveCone(2), "PositiveCone(dimension=2)"),
    (lambda: NumericalSemigroup((2, 3)), "NumericalSemigroup(gens=(2, 3))"),
    (lambda: AxPlusB(), "AxPlusB()"),
    (lambda: FiniteTable(Z3),
     "FiniteTable(table=((0, 1, 2), (1, 2, 0), (2, 0, 1)), "
     "identity_index=0)"),
    (lambda: Verdict(True, (1, 2), "why"),
     "Verdict(holds=True, witness=(1, 2), proof='why')"),
    (lambda: CheckResult("clifford", "ok", "holds"),
     "CheckResult(name='clifford', status='ok', detail='holds')"),
    (lambda: Config("cone", ("2",), None, {"depth": 3}),
     "Config(kind='cone', params=('2',), generators=None, "
     "bounds={'depth': 3})"),
    (lambda: Filter(0b11, 1),
     "Filter(members=3, minimal=1)"),
    (lambda: Homomorphism(CONE2, Integers(1), ((1,), (2,))),
     "Homomorphism(source=PositiveCone(dimension=2), "
     "target=Integers(rank=1), images=((1,), (2,)))"),
    (lambda: PartialMap({1: 2}, frozenset({3})),
     "PartialMap(mapping={1: 2}, boundary=frozenset({3}))"),
    (lambda: EStarReport("E-unitary", False, 4),
     "EStarReport(mode='E-unitary', zero_present=False, premise_hits=4)"),
    (lambda: TruncatedOperator(Matrix(2, 2, {0: 1}), frozenset({0})),
     "TruncatedOperator(matrix=Matrix(2x2, nnz=1), safe=frozenset({0}))"),
    (lambda: RelationReport("isometry", 2, 5),
     "RelationReport(kind='isometry', count=2, checked_columns=5)"),
]
NAMES = [text.partition("(")[0] for _, text in VALUES]
# these hold a dict or a Matrix, so they have no hash
UNHASHABLE = {"Config", "PartialMap", "TruncatedOperator"}
# a parsed config is never assigned to, and was a mutable record before
# it became a named tuple
READ_ONLY = [v for v in VALUES if not v[1].startswith("Config(")]


@pytest.mark.parametrize("make, text", VALUES, ids=NAMES)
def test_equal_values_compare_and_hash_equal(make, text):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    if type(a).__name__ in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("make, text", VALUES, ids=NAMES)
def test_repr_lists_the_fields(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text", READ_ONLY,
                         ids=[t.partition("(")[0] for _, t in READ_ONLY])
def test_fields_are_read_only(make, text):
    value = make()
    field = text.partition("(")[2].partition("=")[0]
    if not field.isidentifier():  # no fields: a new attribute is refused
        field = "extra"
    with pytest.raises(AttributeError):
        setattr(value, field, 1)
    if hasattr(value, field):
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == make()


@pytest.mark.parametrize("a, b", [
    (FreeMonoid(1), FreeMonoid(2)),
    (FreeMonoid(1), PositiveCone(1)),
    (FreeGroup(1), Integers(1)),
    (Integers(1), IntegerLattice(1)),
    (RationalAffine(), AxPlusB()),
    (FiniteGroup(Z3, 0), FiniteTable(Z3, 0)),
    (FiniteTable(Z3), FiniteTable(cyclic_table(4))),
    (NumericalSemigroup((2, 3)), NumericalSemigroup((2, 5))),
    (Verdict(True), Verdict(False)),
    (Verdict(True), CheckResult("x", "ok")),
    (RelationReport("isometry", 2, 5), RelationReport("isometry", 2, 6)),
    (Filter(0b11, 1), Filter(0b111, 1)),
], ids=lambda v: type(v).__name__)
def test_different_values_or_classes_are_unequal(a, b):
    assert a != b and b != a
    assert not a == b


def test_backends_filter_by_value():
    backends = [FreeMonoid(1), FreeMonoid(2), PositiveCone(2), FreeMonoid(2),
                AxPlusB()]
    kept = [sg for sg in backends if sg != FreeMonoid(2)]
    assert kept == [FreeMonoid(1), PositiveCone(2), AxPlusB()]
    assert {FreeMonoid(2): 1}[FreeMonoid(2)] == 1


def test_constructors_take_fields_by_position_or_name():
    assert FiniteTable(table=Z3) == FiniteTable(Z3, identity_index=0)
    assert NumericalSemigroup(gens=(3, 2)) == NumericalSemigroup((2, 3))
    assert Verdict(holds=False, proof="p") == Verdict(False, None, "p")
    for bad in [lambda: FreeMonoid(), lambda: FreeMonoid(1, 2),
                lambda: FreeMonoid(size=2), lambda: FreeMonoid(2, size=2),
                lambda: AxPlusB(1),
                lambda: FreeMonoid(2, alphabet_size=2)]:
        with pytest.raises(TypeError):
            bad()


def test_verdict_defaults():
    v = Verdict(True)
    assert (v.holds, v.witness, v.proof) == (True, None, None)
    assert Verdict(False, witness=(0, 1)).proof is None


def test_defaults_of_the_other_records():
    assert CheckResult("x", "ok").detail == ""
    assert FiniteTable(Z3).identity_index == 0
    cfg = Config("cone")
    assert (cfg.params, cfg.generators, cfg.bounds) == ((), None, {})


def test_partial_map_rejects_a_non_injective_map():
    with pytest.raises(InvariantViolation, match="not injective"):
        PartialMap({1: 5, 2: 5}, frozenset())
    assert PartialMap({}, frozenset()).mapping == {}


def test_homomorphism_checks_its_images():
    Z = Integers(1)
    with pytest.raises(UsageError, match="one image per generator"):
        Homomorphism(CONE2, Z, ((1,),))
    with pytest.raises(UsageError, match="outside the target"):
        Homomorphism(CONE2, Z, ((1,), (2, 3)))
    assert Homomorphism(CONE2, Z, ((1,), (2,))).images == ((1,), (2,))


def test_finite_table_normalises_its_rows():
    rows = [list(row) for row in Z3]
    ft = FiniteTable(rows)
    assert ft.table == Z3 and isinstance(ft.table[0], tuple)
    assert ft == FiniteTable(Z3) and hash(ft) == hash(FiniteTable(Z3))
    with pytest.raises(UsageError, match="not a two-sided identity"):
        FiniteTable(Z3, 1)
    with pytest.raises(UsageError, match="empty table"):
        FiniteTable(())


def test_numerical_semigroup_sorts_and_dedupes_its_generators():
    num = NumericalSemigroup((5, 3, 5))
    assert num.gens == (3, 5)
    assert num == NumericalSemigroup((3, 5))
    assert hash(num) == hash(NumericalSemigroup([3, 5]))
    assert repr(num) == "NumericalSemigroup(gens=(3, 5))"
    with pytest.raises(UsageError, match="at least one generator"):
        NumericalSemigroup(())
    with pytest.raises(UsageError, match=">= 2"):
        NumericalSemigroup((1, 2))


def test_cached_facts_stay_out_of_the_value():
    # per-instance caches do not change equality, hash or repr
    sg, fresh = NumericalSemigroup((2, 3)), NumericalSemigroup((2, 3))
    sg.window_of_size(10)
    assert sg.conductor == 2 and sg.calculus is sg.calculus
    assert sg == fresh and hash(sg) == hash(fresh)
    assert repr(sg) == repr(fresh)


def loaded_by_cli_import(names):
    """Which of the named modules a fresh ``import lefthull.cli`` loads."""
    src = os.path.dirname(os.path.dirname(lefthull.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, lefthull.cli; print(sorted(%r & set(sys.modules)))"
             % set(names))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_importing_the_cli_loads_no_code_generators():
    assert loaded_by_cli_import({"dataclasses", "inspect"}) == "[]\n"


def test_importing_the_cli_loads_no_rational_arithmetic():
    # Fractions are built only where a Folner density is asked for
    assert loaded_by_cli_import({"fractions", "decimal"}) == "[]\n"


def test_no_lefthull_class_is_a_dataclass():
    classes = []
    for info in pkgutil.iter_modules(lefthull.__path__):
        mod = importlib.import_module("lefthull." + info.name)
        classes += [c for c in vars(mod).values() if isinstance(c, type)
                    and c.__module__ == mod.__name__]
    assert len(classes) > 19
    assert [c for c in classes if hasattr(c, "__dataclass_fields__")] == []
