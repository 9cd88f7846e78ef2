"""The fault catalogue (faults.py) is current: each row's line occurs
exactly once in its file, and each row names tests that exist.  The faults
themselves are run by hand with ``python tests/run_faults.py``."""

import os

import pytest

from faults import FAULTS

ROOT = os.path.join(os.path.dirname(__file__), "..")


def source_lines(name):
    path = os.path.join(ROOT, "src", "lefthull", name)
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines(keepends=True)


def test_fault_names_are_distinct():
    names = [f.name for f in FAULTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("fault", FAULTS, ids=[f.name for f in FAULTS])
def test_each_fault_line_occurs_once(fault):
    assert source_lines(fault.file).count(fault.line) == 1
    assert fault.replacement != fault.line
    assert fault.replacement.endswith("\n")
    assert fault.tests
    for node in fault.tests:
        assert os.path.isfile(os.path.join(ROOT, node.partition("::")[0])), node
