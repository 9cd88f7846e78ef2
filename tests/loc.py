"""Line counts of each module under src/: total, code, docstring, comment
and blank lines, so that a claim about the size of the program counts code
and not reflowed prose.  Stdlib only.

    python tests/loc.py [DIR]

DIR defaults to this checkout's ``src``.  A docstring line is a line of a
module, class or function docstring, as ``ast`` finds them; a comment line
holds a comment and nothing else; a blank line is empty and lies outside
every string; every other line is code.  For each file the four columns
after ``total`` sum to its line count, as ``wc -l`` gives it.
"""

import ast
import io
import os
import sys
import tokenize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
COLUMNS = ("total", "code", "docstring", "comment", "blank")


def docstring_lines(tree):
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(text):
    """The columns of COLUMNS for one module's source text."""
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    comments, in_string = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        (row, col), end = tok.start, tok.end[0]
        if tok.type == tokenize.COMMENT and not lines[row - 1][:col].strip():
            comments.add(row)
        elif tok.type == tokenize.STRING:
            in_string.update(range(row + 1, end + 1))
    doc = comment = blank = 0
    for n, line in enumerate(lines, start=1):
        if n in docs:
            doc += 1
        elif n in comments:
            comment += 1
        elif not line.strip() and n not in in_string:
            blank += 1
    return (len(lines), len(lines) - doc - comment - blank, doc, comment,
            blank)


def table(root):
    """(relative path, columns) for each .py file under root, sorted, and
    the totals."""
    rows = []
    for folder, _, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    rows.append((os.path.relpath(path, root),
                                 counts(fh.read())))
    rows.sort()
    return rows, tuple(map(sum, zip(*(c for _, c in rows)))) or (0,) * 5


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    rows, totals = table(args[0] if args else SRC)
    width = max([len(p) for p, _ in rows] + [len("total")])
    print("%-*s" % (width, "module")
          + "".join("%10s" % c for c in COLUMNS))
    for path, cols in rows + [("total", totals)]:
        print("%-*s" % (width, path) + "".join("%10d" % c for c in cols))
    return 0


if __name__ == "__main__":
    sys.exit(main())
