"""Run the command corpus (corpus.py) on a git revision and on this
checkout, and compare what each command gives; stdlib and local git only.

    python tests/compare.py REV

REV is extracted with ``git archive`` into a temporary directory.  Each
command runs in a fresh ``python -m lefthull`` process on each tree's
``src``, both reading the same config files, written from this checkout's
texts.  Stdout, stderr, the exit code and, for ``matrix``, every file
written under ``--out`` must agree; the ``--out`` directory is read as OUT
in both streams.  The script prints the first difference and the totals,
and exits 0 only when every command agrees.  Two commands run at once,
one per core of a 2-core machine.  Bytecode goes to a cache in the
temporary directory, so neither tree gets a ``__pycache__``.
"""

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from corpus import commands, configs, label  # noqa: E402

JOBS = 2


def extract(rev, dest):
    """The tree of ``rev`` in ``dest``, through ``git archive``."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)


def run(tree, command, cfg_dir, out_dir, cache):
    """(exit code, stdout, stderr, exports) of one command on one tree."""
    sub, name, flags = command
    argv = [sub, os.path.join(cfg_dir, name.replace("/", "-") + ".cfg"),
            *flags]
    if sub == "matrix":
        os.makedirs(out_dir)
        argv += ["--out", out_dir]
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONPYCACHEPREFIX=cache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run([sys.executable, "-m", "lefthull", *argv],
                          cwd=cfg_dir, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    exports = {}
    if sub == "matrix":
        for fname in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, fname), encoding="utf-8") as fh:
                exports[fname] = fh.read()
    return (proc.returncode, proc.stdout.replace(out_dir, "OUT"),
            proc.stderr.replace(out_dir, "OUT"), exports)


def first_difference(base, mine):
    """A short text naming the first part in which two results differ."""
    for part, a, b in zip(("exit code", "stdout", "stderr"), base, mine):
        if a != b:
            if part == "exit code":
                return "exit code %s != %s" % (a, b)
            return "%s, %s" % (part, _first_line(a, b))
    for fname in sorted(set(base[3]) | set(mine[3])):
        a, b = base[3].get(fname), mine[3].get(fname)
        if a is None or b is None:
            return "export %s only in %s" % (fname,
                                             "REV" if b is None else "tree")
        if a != b:
            return "export %s, %s" % (fname, _first_line(a, b))
    return None


def _first_line(a, b):
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return "line %d:\n    REV:  %r\n    tree: %r" % (i + 1, x, y)
    i = min(len(la), len(lb))
    return "line %d: one side ends (%d against %d lines)" % (
        i + 1, len(la), len(lb))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare against")
    args = parser.parse_args(argv)
    corpus = commands()
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="compare-") as tmp:
        base = os.path.join(tmp, "rev")
        extract(args.rev, base)
        cfg_dir = os.path.join(tmp, "configs")
        os.makedirs(cfg_dir)
        for name, text in configs().items():
            path = os.path.join(cfg_dir, name.replace("/", "-") + ".cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        cache = os.path.join(tmp, "pycache")

        def both(item):
            i, command = item
            out = os.path.join(tmp, "out", str(i))
            return tuple(run(tree, command, cfg_dir, os.path.join(out, side),
                             os.path.join(cache, side))
                         for side, tree in (("rev", base), ("tree", ROOT)))

        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            results = list(pool.map(both, enumerate(corpus)))
    differ = [(command, text) for command, pair in zip(corpus, results)
              if (text := first_difference(*pair))]
    if differ:
        command, text = differ[0]
        print("first difference: %s\n  %s" % (label(command), text))
    exports = sum(len(pair[1][3]) for pair in results)
    print("%d commands (%d export files) in %.0f s: %d identical, %d differ"
          % (len(corpus), exports, time.monotonic() - start,
             len(corpus) - len(differ), len(differ)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
