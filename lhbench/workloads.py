"""The four workloads: the lefthull commands of one round, the configs they
read, and the checks of their outputs.

Every figure a check compares against is computed here, separately from
lefthull (closed formulas, a sieve, a membership test on a finite box), or is
a property the method must have.  No check compares against a saved copy of
earlier output.
"""

import math
import re

# Config texts, written to disk before a run.  free2, cone2 and axb repeat the
# shipped configs; the others are trimmed or grown inputs (see README.md).
CONFIGS = {
    "free2": "kind = free\nparams = 2\nbounds = depth:2 length:2 window:20 seed:7\n",
    "cone2": "kind = cone\nparams = 2\nbounds = depth:2 length:2 window:25 seed:7\n",
    "axb": "kind = axb\nbounds = depth:2 length:2 window:20 seed:7\n",
    # 285 hull elements at length 3: the regular representation dominates
    "axb-i": "kind = axb\ngenerators = (0,2) (0,3) (0,5)\n",
    # 152 constructible ideals at depth 3, 787 at depth 4
    "axb-c": "kind = axb\ngenerators = (1,2) (0,3)\n",
    "num-3-5-7": "kind = numerical\nparams = 3 5 7\n",
    "num-4-5": "kind = numerical\nparams = 4 5\n",
    "num-10-11": "kind = numerical\nparams = 10 11\n",
    "cyc12": "kind = table\nparams = cyclic 12\n",
    "cyc14": "kind = table\nparams = cyclic 14\n",
    "cyc48-g1": "kind = table\nparams = cyclic 48\ngenerators = 1\n",
}

CHECK_NAMES = (
    "semigroup-axioms", "window-shape", "ideal-adjunctions", "closure-family",
    "clifford", "independence", "hull-vs-oracle", "star-cancellation",
    "normal-form", "estar-unitary", "group-image", "left-thickness",
    "folner-bound", "filters", "operator-relations", "expectation-loop",
)


class Command:
    """One lefthull invocation: subcommand, config name and bound flags.

    ``expect`` names what the output must show (see ``verify``);
    ``known_fault`` names the check that fails on this input because of an
    open fault in the program, so the command is counted as failed.
    """

    def __init__(self, sub, config, flags=(), expect=None, known_fault=None):
        self.sub = sub
        self.config = config
        self.flags = tuple(flags)
        self.expect = dict(expect or {})
        self.known_fault = known_fault

    def argv(self, paths, seed):
        return [self.sub, paths[self.config], *self.flags, "--seed", str(seed)]

    def label(self):
        return " ".join((self.sub, self.config) + self.flags)


def free_hull_size(k, length):
    """|hull| of the free monoid on k letters: the elements p q* with
    |p| + |q| <= length, plus 0."""
    return 1 + sum((n + 1) * k ** n for n in range(length + 1))


def cyclic_hull_size(n, length, all_generators):
    """|hull| of Z/n: with generator 1 a word of ``length`` pairs moves by at
    most ``length`` either way; with every element as a generator one pair
    already reaches all of Z/n."""
    return n if all_generators else min(n, 2 * length + 1)


class Workload:
    def __init__(self, commands, references=()):
        self.commands = tuple(commands)
        # reference commands run after the timed span, to check outputs
        self.references = tuple(references)

    def configs(self):
        names = [c.config for c in self.commands + self.references]
        return tuple(dict.fromkeys(names))


WORKLOADS = {
    "intertwiner": Workload((
        Command("check", "axb-i", ("--length", "3"),
                expect={"intertwiner": ("hull", "axb-i")}),
        Command("check", "free2", ("--length", "3"),
                expect={"intertwiner": free_hull_size(2, 3)}),
        Command("check", "cone2", ("--length", "3"),
                expect={"intertwiner": ("hull", "cone2")}),
    ), references=(
        Command("hull", "axb-i", ("--length", "3")),
        Command("hull", "cone2", ("--length", "3")),
    )),
    "closure": Workload((
        Command("check", "axb-c", ("--depth", "3")),
        Command("ideals", "axb-c", ("--depth", "4")),
        Command("filters", "axb", ("--depth", "2")),
    )),
    "conductor": Workload((
        Command("check", "num-3-5-7", expect={"sieve": (3, 5, 7)}),
        Command("check", "num-4-5", expect={"sieve": (4, 5)}),
        Command("check", "num-10-11", expect={"sieve": (10, 11)},
                known_fault="folner-bound"),
    ), references=(
        Command("ideals", "num-3-5-7", ("--depth", "1"),
                expect={"sieve": (3, 5, 7)}),
        Command("ideals", "num-4-5", ("--depth", "1"),
                expect={"sieve": (4, 5)}),
        Command("ideals", "num-10-11", ("--depth", "1"),
                expect={"sieve": (10, 11)}),
    )),
    "groups": Workload((
        Command("check", "cyc12",
                expect={"intertwiner": cyclic_hull_size(12, 2, True)}),
        Command("check", "cyc14",
                expect={"intertwiner": cyclic_hull_size(14, 2, True)}),
        Command("check", "cyc48-g1",
                expect={"intertwiner": cyclic_hull_size(48, 2, False)}),
    )),
}


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the output holds


def parse_pairs(text):
    pairs = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            pairs[key] = value
    return pairs


def _numbered(pairs, prefix):
    """Values of prefix.0, prefix.1, ... in order, stopping at the first gap."""
    out = []
    while "%s.%d" % (prefix, len(out)) in pairs:
        out.append(pairs["%s.%d" % (prefix, len(out))])
    return out


def check_failures(pairs):
    """Names of the checks a `check` output marks as failed."""
    return [n for n in CHECK_NAMES
            if pairs.get("check." + n, "").startswith("fail")]


def _relation_counts(pairs):
    line = pairs.get("check.operator-relations", "")
    return {k: int(v) for k, v in re.findall(r"([a-z-]+):(\d+)", line)}


def numerical_members(text):
    """Every member a numerical-ideal rendering or witness lists: the
    leading members in '{a,b,c,d,...}' and the mask in '(N, (m, ...))'."""
    found = set()
    for group in re.findall(r"\{([\d,]+),\.\.\.\}", text):
        found.update(int(x) for x in group.split(","))
    for _, mask in re.findall(r"\((\d+), \(([\d, ]*)\)\)", text):
        found.update(int(x) for x in re.findall(r"\d+", mask))
    return found


def sieve(gens, limit):
    """Membership in the numerical semigroup generated by gens, on [0, limit]."""
    member = [False] * (limit + 1)
    member[0] = True
    for x in range(1, limit + 1):
        member[x] = any(x >= g and member[x - g] for g in gens)
    return member


def _verify_sieve(text, gens):
    found = numerical_members(text)
    if not found:
        return ["lists no numerical-ideal member to test"]
    member = sieve(gens, max(found))
    bad = sorted(x for x in found if not member[x])
    return ["members %s are not in <%s>" % (bad[:5], ",".join(map(str, gens)))] \
        if bad else []


def _axb_ideal(text):
    """Parse an AxPlusB ideal rendering: 'S', '(b,a)S' or 'empty'."""
    if text == "S":
        return (0, 1)
    if text == "empty":
        return None
    m = re.fullmatch(r"\((-?\d+),(\d+)\)S", text)
    if not m:
        raise ValueError("unreadable ideal %r" % text)
    return (int(m.group(1)), int(m.group(2)))


def axb_meets(a, c):
    """Intersections of the ideals (b, a)S and (d, c)S for all residues b
    and d, read off the box {(u, L) : 0 <= u < L} with L = lcm(a, c).

    A point (u, L) lies in (b, a)S = {(b + a x, a y)} exactly when a
    divides u - b, since a divides L.  So the box points in both ideals are
    the u with u = b mod a and u = d mod c: one residue class mod L, whose
    ideal is (u, L)S, or none, when the intersection is empty.  Returns
    {(b, d): (u, L)}.
    """
    lcm = a * c // math.gcd(a, c)
    meets = {}
    for u in range(lcm):
        meets[(u % a, u % c)] = (u, lcm)
    return meets


def _verify_axb_family(renders):
    try:
        parsed = [_axb_ideal(r) for r in renders]
    except ValueError as err:
        return [str(err)]
    has_empty = None in parsed
    family = [X for X in parsed if X is not None]
    if (0, 1) not in family:
        return ["the family misses S"]
    members = set(family)
    if len(members) != len(family):
        return ["an ideal is listed twice"]
    by_modulus = {}
    for b, a in family:
        by_modulus.setdefault(a, []).append(b)
    moduli = sorted(by_modulus)
    for i, a in enumerate(moduli):
        for c in moduli[i:]:
            meets = axb_meets(a, c)
            for b in by_modulus[a]:
                for d in by_modulus[c]:
                    meet = meets.get((b, d))
                    if (meet is None and not has_empty) or \
                            (meet is not None and meet not in members):
                        return ["(%d,%d)S meet (%d,%d)S is not in the family"
                                % (b, a, d, c)]
    return []


def verify(cmd, rc, out, references):
    """Problems with the output of a command that did not fail.

    ``references`` maps (subcommand, config) to the parsed output of a
    reference command of the same round.
    """
    pairs = parse_pairs(out)
    problems = []
    if rc != 0:
        problems.append("exit code %s" % rc)
    if cmd.sub == "check":
        if pairs.get("checks") != str(len(CHECK_NAMES)):
            problems.append("checks: %s, expected %d"
                            % (pairs.get("checks"), len(CHECK_NAMES)))
        if pairs.get("failures") != "0":
            problems.append("failures: %s" % pairs.get("failures"))
        missing = [n for n in CHECK_NAMES if "check." + n not in pairs]
        if missing:
            problems.append("no verdict for %s" % ", ".join(missing))
        want = cmd.expect.get("intertwiner")
        if want is not None:
            if isinstance(want, tuple):
                want = int(references[want].get("count", -1))
            got = _relation_counts(pairs).get("intertwiner")
            if got != want:
                problems.append("intertwiner instances %s, expected %d"
                                % (got, want))
    elif cmd.sub in ("hull", "ideals", "filters"):
        prefix = {"hull": "element", "ideals": "ideal", "filters": "filter"}
        listed = _numbered(pairs, prefix[cmd.sub])
        if pairs.get("count") != str(len(listed)):
            problems.append("count %s but %d listed"
                            % (pairs.get("count"), len(listed)))
        if cmd.sub == "filters" and \
                pairs.get("count") != str(int(pairs.get("lattice.size", 0)) - 1):
            problems.append("%s filters on a lattice of %s elements"
                            % (pairs.get("count"), pairs.get("lattice.size")))
        if cmd.sub == "ideals" and cmd.config.startswith("axb"):
            problems.extend(_verify_axb_family(listed))
    gens = cmd.expect.get("sieve")
    if gens is not None:
        problems.extend(_verify_sieve(out, gens))
    return problems
