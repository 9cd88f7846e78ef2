"""The benchmark's tracer (lhbench/tracing.py) wraps lefthull names by
string; each of them must exist, or a traced run fails at install."""

import dataclasses
import importlib
import importlib.util
import inspect
import os

import pytest

from lefthull.ideals import IdealCalculus, constructible_closure
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
