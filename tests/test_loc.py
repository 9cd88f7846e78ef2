"""tests/loc.py counts every line of each module once."""

import os
import subprocess
import sys

import loc

# the code lines of src/ by loc.py; a change that adds code raises this in
# the same change and says why in CHANGES.md
SRC_CODE_LINES = 2243


def test_columns_sum_to_each_file_line_count():
    out = subprocess.run([sys.executable, loc.__file__], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    header, *rows = out.splitlines()
    assert header.split() == ["module", *loc.COLUMNS]
    table = {path: tuple(map(int, cols))
             for path, *cols in map(str.split, rows)}
    files = table.keys() - {"total"}
    assert "lefthull/semigroups.py" in files
    for path in files:
        with open(os.path.join(loc.SRC, path), "rb") as fh:
            lines = fh.read().count(b"\n")
        total, *parts = table[path]
        assert total == sum(parts) == lines, path
    assert table["total"] == tuple(map(sum, zip(*(table[p] for p in files))))
    # every module of the package opens with a docstring
    assert all(table[p][2] > 0 for p in files if not p.endswith("__main__.py"))


def test_strings_and_trailing_comments_are_code():
    text = ('"""Doc\n\nmore."""\n\n# note\nx = """a\n\n# no comment\n"""'
            '  # trailing\n')
    # lines 1-3 docstring, 4 blank, 5 comment, 6-9 one assignment
    assert loc.counts(text) == (9, 4, 3, 1, 1)


def test_src_code_lines_within_budget():
    _, totals = loc.table(loc.SRC)
    assert totals[loc.COLUMNS.index("code")] <= SRC_CODE_LINES
