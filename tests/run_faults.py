"""Apply each fault of the catalogue (faults.py) to a copy of the checkout
and run the tests it names; stdlib only.

    python tests/run_faults.py [NAME ...]

For each row (or only the named ones) the checkout, without ``.git``, is
copied to a temporary directory, the row's line is replaced there, and
pytest runs the row's tests with ``-x`` on that copy's ``src``.  Pytest exit
code 1 means the fault was caught; 0 means it was missed; any other code is
reported as an error.  The script exits 0 only when every row is caught.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from faults import FAULTS  # noqa: E402

SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                              "results")


def apply(fault, copy):
    path = os.path.join(copy, "src", "lefthull", fault.file)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    if lines.count(fault.line) != 1:
        return False
    lines[lines.index(fault.line)] = fault.replacement
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))
    return True


def run(fault):
    """'caught', 'missed' or 'error: ...' for one row."""
    with tempfile.TemporaryDirectory(prefix="fault-") as tmp:
        copy = os.path.join(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=SKIP)
        if not apply(fault, copy):
            return "error: line not found exactly once"
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *fault.tests],
            cwd=copy, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
    if proc.returncode == 1:
        return "caught"
    if proc.returncode == 0:
        return "missed"
    tail = proc.stdout.strip().splitlines()[-1:] or [""]
    return "error: pytest exit %d %s" % (proc.returncode, tail[0])


def main(names):
    rows = [f for f in FAULTS if not names or f.name in names]
    caught = 0
    start = time.monotonic()
    for fault in rows:
        t = time.monotonic()
        verdict = run(fault)
        caught += verdict == "caught"
        print("%-36s %-22s %6.1f s  %s" % (fault.name, fault.file,
                                           time.monotonic() - t, verdict))
    print("%d of %d caught in %.0f s" % (caught, len(rows),
                                         time.monotonic() - start))
    return 0 if rows and caught == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
