"""The command corpus that ``compare.py`` runs on two trees; stdlib only.

Every subcommand runs on every config under each flag set: the shipped
configs, the configs of lhbench's workloads, the generator configs of the
pinned outputs (``test_pinned_outputs.PINNED_PARSED``), two numerical
semigroups whose generators share a factor (``GCD``) and one with a large
conductor (``LONG``), a config whose text, comments aside, repeats an
earlier one being listed once.  Then come the lattice-bound commands at
``--depth 4``.  ``matrix`` always runs with
``--out``, which ``compare.py`` points at a fresh directory per run.

``commands()`` lists each command as (subcommand, config name, flags);
``configs()`` maps each config name to its text.
"""

import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SUBCOMMANDS = ("analyze", "ideals", "hull", "filters", "group", "matrix",
               "check")
SHIPPED = ("axb", "cone2", "free2", "num23", "table5", "zplus")
FLAG_SETS = ((), ("--seed", "3"), ("--length", "3"), ("--depth", "3"),
             ("--window", "40"), ("--format", "machine"))
# the generator configs of test_pinned_outputs.PINNED_PARSED
PINNED_PARSED = {
    "axb-primes": "kind = axb\ngenerators = (0,2) (0,3) (0,5) (0,7)\n",
    "axb-gens": "kind = axb\ngenerators = (1,2) (0,3)\n",
    "cyc48-g1": "kind = table\nparams = cyclic 48\ngenerators = 1\n",
    "cone2-gens": "kind = cone\nparams = 2\ngenerators = (1,0) (1,1)\n",
    "num-3-5-7-gens": "kind = numerical\nparams = 3 5 7\ngenerators = 5 7\n",
}
# numerical semigroups with gcd 2 and 3: the bitset paths on a lattice
# coarser than Z
GCD = {
    "num-4-6": "kind = numerical\nparams = 4 6\n",
    "num-6-9-15": "kind = numerical\nparams = 6 9 15\n",
}
# conductor 870: ideal masks of hundreds of bits
LONG = {"num-30-31": "kind = numerical\nparams = 30 31\n"}
# the closure and the lattice past the flag sets' depth: axb has 2,171
# ideals at depth 4, lhbench's axb-c 787 and its <10,11> 14,253
DEEP = tuple((sub, name, ("--depth", "4"))
             for sub in ("ideals", "filters")
             for name in ("shipped/axb", "lhbench/axb-c")) \
    + (("ideals", "lhbench/num-10-11", ("--depth", "4")),)


def bench_configs():
    """lhbench's config texts, read from its ``workloads.py``."""
    path = os.path.join(ROOT, "lhbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("lhbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.CONFIGS


def content(text):
    """A config's lines, blank lines and comments left out."""
    return tuple(line for line in text.splitlines()
                 if line.strip() and not line.lstrip().startswith("#"))


def configs():
    """Config name -> text, in corpus order, each content once."""
    named = {}
    for name in SHIPPED:
        path = os.path.join(ROOT, "configs", name + ".cfg")
        with open(path, encoding="utf-8") as fh:
            named["shipped/" + name] = fh.read()
    named.update(("lhbench/" + k, v) for k, v in bench_configs().items())
    named.update(("pinned/" + k, v) for k, v in PINNED_PARSED.items())
    named.update(("gcd/" + k, v) for k, v in GCD.items())
    named.update(("long/" + k, v) for k, v in LONG.items())
    seen, out = set(), {}
    for name, text in named.items():
        if content(text) not in seen:
            seen.add(content(text))
            out[name] = text
    return out


def commands():
    """(subcommand, config name, flags) for every command of the corpus."""
    return [(sub, name, flags) for name in configs()
            for sub in SUBCOMMANDS for flags in FLAG_SETS] + list(DEEP)


def label(command):
    sub, name, flags = command
    return " ".join((sub, name) + tuple(flags))
