"""The benchmark's tracer (lhbench/tracing.py) wraps lefthull names by
string; each of them must exist, or a traced run fails at install."""

from collections.abc import Sequence
import dataclasses
import importlib
import importlib.util
import inspect
import os

import pytest

from lefthull import semigroups
from lefthull.filters import truncate_semilattice
from lefthull.hull import ZERO, HullElement, enumerate_hull
from lefthull.ideals import IdealCalculus, constructible_closure
from lefthull.matrices import Matrix
from lefthull.operators import (RELATION_KINDS, RelationReport,
                                verify_relation)

TRACING = os.path.join(os.path.dirname(__file__), "..", "lhbench",
                       "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("lhbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module, function", [
    (module, function) for module, entries in tracing.FUNCTIONS.items()
    for function, _ in entries])
def test_traced_functions_exist(module, function):
    assert callable(getattr(importlib.import_module("lefthull." + module),
                            function))


@pytest.mark.parametrize("name", tracing.BACKEND_CLASSES)
def test_traced_backend_classes_exist(name):
    cls = getattr(semigroups, name)
    assert isinstance(cls, type) and issubclass(cls, semigroups.Semigroup)
    # the tracer wraps the methods a class defines itself, so each backend
    # must define at least one of them
    assert set(tracing.BACKEND_METHODS) & set(vars(cls)), name


@pytest.mark.parametrize("method", ["__mul__", "transpose", "columns_agree",
                                    "__init__"])
def test_traced_matrix_methods_are_defined_on_matrix(method):
    assert callable(vars(Matrix).get(method)), method


def test_enumerated_hull_is_a_sized_sequence_of_elements():
    # the tracer takes len() of what enumerate_hull returns
    sg = semigroups.FreeMonoid(2)
    hull = enumerate_hull(sg, 1)
    assert isinstance(hull, Sequence) and len(hull) > 1
    assert all(f is ZERO or isinstance(f, HullElement) for f in hull)


def test_truncated_semilattice_is_sized():
    # the tracer takes len() of what truncate_semilattice returns
    sg = semigroups.FreeMonoid(2)
    family = constructible_closure(sg, 1)
    lattice = truncate_semilattice(sg, family)
    assert len(lattice) == len(set(family) | {lattice.elements[-1]}) > 1


def test_traced_ideal_operations_are_calculus_methods():
    for op in tracing.IDEAL_OPS:
        assert op in vars(IdealCalculus), op


def test_relation_report_has_the_traced_fields():
    names = {f.name for f in dataclasses.fields(RelationReport)}
    assert {"count", "checked_columns"} <= names


def test_traced_relation_kinds_are_the_suites():
    assert RELATION_KINDS == tracing.OPERATOR_KINDS


def leading_parameters(fn, n):
    return tuple(inspect.signature(fn).parameters)[:n]


def test_traced_arguments_keep_their_positions():
    # the tracer reads these arguments by position
    assert leading_parameters(verify_relation, 3) == ("sg", "kind", "W")
    assert leading_parameters(constructible_closure, 3) == \
        ("sg", "depth", "generators")
