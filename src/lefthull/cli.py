"""Command line: analyze | ideals | hull | filters | group | matrix | check.

Each command returns its report as key/value pairs with its exit code, and
``main`` prints it for reading (`key: value`) or scripting (`key=value`).
Given the same config, bounds, and seed, output bytes are identical.
"""

import argparse
from functools import cache
import os
import sys

from .checks import run_checks
from .config import (DEFAULTS, ConfigError, build_backend, config_generators,
                     load_config)
from .filters import (enumerate_filters, maximal_representation_check,
                      truncate_semilattice)
from .group_image import gamma, group_of_S, is_left_reversible
from .hull import (estar_unitary_report, hull_graph, hull_sort_key, lambda_,
                   render_element)
from .ideals import (calculus, clifford_check, constructible_closure,
                     independence_check, reachable_ideals)
from .operators import (RELATION_KINDS, intertwiner_matrix, isometry_matrix,
                        relation_summary, s_window, verify_relation)
from .semigroups import (InvariantViolation, UnsupportedOperation, UsageError,
                         Window)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3

LEAST = {"depth": 0, "length": 0, "window": 1}


def _yesno(flag):
    return "yes" if flag else "no"


def _closure(sg, depth, generators):
    """The closure and the reachable ideals it closes, for the lattice."""
    reach = reachable_ideals(sg, depth, generators)
    return constructible_closure(sg, depth, generators, reach), reach


def cmd_analyze(sg, args, generators):
    cal = calculus(sg)
    graph = hull_graph(sg, args.length, generators)
    pairs = [("backend", sg.describe())]
    rev = is_left_reversible(sg)
    pairs.append(("reversible", _yesno(rev.holds)))
    if rev.holds:
        pairs.append(("reversible.proof", rev.proof))
    else:
        pairs.append(("reversible.witness",
                      "%s %s" % tuple(map(sg.render, rev.witness))))
    cliff = clifford_check(sg)
    pairs.append(("clifford", "holds" if cliff.holds else "fails"))
    if not cliff.holds:
        pairs.append(("clifford.witness", "%s %s" % cliff.witness[:2]))
    fam, reach = _closure(sg, args.depth, generators)
    indep = independence_check(sg, fam)
    pairs.append(("independent", _yesno(indep.holds)))
    if not indep.holds:
        parts, target = indep.witness
        pairs.append(("independence.witness",
                      "%s = %s" % (" | ".join(cal.render(p) for p in parts),
                                   cal.render(target))))
    rep = estar_unitary_report(sg, graph, sample=100, seed=args.seed)
    pairs.append(("estar.mode", rep.mode))
    pairs.append(("ordered", _yesno(sg.units_trivial())))
    pairs.append(("ideals.count", str(len(fam))))
    pairs.append(("hull.count", str(len(graph.ordered))))
    lat = truncate_semilattice(sg, fam, reach)
    pairs.append(("filters.count", str(len(enumerate_filters(lat)))))
    try:
        pairs.append(("group", group_of_S(sg).describe()))
    except UnsupportedOperation:
        pairs.append(("group", "none (not left reversible)"))
    W = s_window(sg, size=args.window)
    pairs.append(("relations", relation_summary(sg, W, lat, graph,
                                                generators)))
    return pairs, EXIT_OK


def cmd_ideals(sg, args, generators):
    cal = calculus(sg)
    fam = constructible_closure(sg, args.depth, generators)
    pairs = [("backend", sg.describe()), ("depth", str(args.depth)),
             ("count", str(len(fam)))]
    for i, X in enumerate(fam):
        pairs.append(("ideal.%d" % i, cal.render(X)))
    cliff = clifford_check(sg)
    pairs.append(("clifford", "holds" if cliff.holds else "fails"))
    indep = independence_check(sg, fam)
    pairs.append(("independent", _yesno(indep.holds)))
    return pairs, EXIT_OK


def cmd_hull(sg, args, generators):
    graph = hull_graph(sg, args.length, generators)
    pairs = [("backend", sg.describe()), ("length", str(args.length)),
             ("count", str(len(graph.ordered)))]
    for i, f in enumerate(graph.ordered):
        pairs.append(("element.%d" % i, render_element(sg, f)))
    rep = estar_unitary_report(sg, graph, sample=100, seed=args.seed)
    pairs.append(("estar.mode", rep.mode))
    pairs.append(("zero.present", _yesno(rep.zero_present)))
    return pairs, EXIT_OK


def cmd_filters(sg, args, generators):
    lat = truncate_semilattice(sg, *_closure(sg, args.depth, generators))
    fs = enumerate_filters(lat)
    pairs = [("backend", sg.describe()), ("depth", str(args.depth)),
             ("lattice.size", str(len(lat))), ("count", str(len(fs)))]
    for i, f in enumerate(fs):
        pairs.append(("filter.%d" % i, lat.render(f.minimal)))
    pairs.append(("maximal", _yesno(maximal_representation_check(lat).holds)))
    return pairs, EXIT_OK


def cmd_group(sg, args, generators):
    pairs = [("backend", sg.describe())]
    G = group_of_S(sg)  # raises UnsupportedOperation when not reversible
    pairs.append(("reversible", "yes"))
    pairs.append(("group", G.describe()))
    win = sg.window_of_size(args.window)
    images = [gamma(sg, s) for s in win]
    pairs.append(("gamma.window", str(len(win))))
    pairs.append(("gamma.injective", _yesno(len(set(images)) == len(images))))
    return pairs, EXIT_OK


def cmd_matrix(sg, args, generators):
    W = s_window(sg, size=args.window)
    graph = hull_graph(sg, args.length, generators)
    # the hull, then the lambda(s) for s in W that it misses, so the
    # intertwiner always has its targets
    lambdas = (lambda_(sg, s) for s in W)
    HW = Window(list(graph.ordered) + sorted(
        (f for f in lambdas if f not in graph.index), key=hull_sort_key(sg)))
    exports = [("isometry_%d.txt" % i, isometry_matrix(sg, s, W))
               for i, s in enumerate(graph.ends[1:])]
    exports.append(("intertwiner.txt", intertwiner_matrix(sg, W, HW)))
    written = []
    try:
        os.makedirs(args.out, exist_ok=True)
        for name, op in exports:
            path = os.path.join(args.out, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(op.matrix.export_coordinate())
            written.append(path)
    except OSError as err:
        print("output error: --out %s: %s" % (args.out, err.strerror or err),
              file=sys.stderr)
        return [], EXIT_PARSE
    pairs = [("backend", sg.describe()), ("window", str(len(W))),
             ("hull.window", str(len(HW)))]
    for p in written:
        pairs.append(("written", p))
    lat = truncate_semilattice(sg, *_closure(sg, args.depth, generators))
    for kind in RELATION_KINDS:
        rep = verify_relation(sg, kind, W, lat, graph, generators)
        pairs.append(("relation.%s" % kind,
                      "ok instances=%d columns=%d"
                      % (rep.count, rep.checked_columns)))
    return pairs, EXIT_OK


def cmd_check(sg, args, generators):
    results = run_checks(sg, depth=args.depth, length=args.length,
                         window=args.window, seed=args.seed,
                         generators=generators)
    pairs = [("backend", sg.describe()), ("seed", str(args.seed))]
    for r in results:
        value = r.status if not r.detail else "%s (%s)" % (r.status, r.detail)
        pairs.append(("check.%s" % r.name, value))
    failures = sum(r.status == "fail" for r in results)
    pairs.append(("checks", str(len(results))))
    pairs.append(("failures", str(failures)))
    return pairs, EXIT_INVARIANT if failures else EXIT_OK


COMMANDS = {
    "analyze": cmd_analyze,
    "ideals": cmd_ideals,
    "hull": cmd_hull,
    "filters": cmd_filters,
    "group": cmd_group,
    "matrix": cmd_matrix,
    "check": cmd_check,
}


@cache  # built on first use, then shared by every main() call
def build_parser():
    parser = argparse.ArgumentParser(
        prog="lefthull",
        description="Exact computations with partial translation maps of "
                    "left cancellative semigroups.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("config", help="path to a key = value config file")
    parser.add_argument("--depth", type=int, help="ideal closure depth")
    parser.add_argument("--length", type=int, help="hull word length")
    parser.add_argument("--window", type=int, help="matrix window size")
    parser.add_argument("--seed", type=int, help="sampling seed")
    parser.add_argument("--format", choices=("text", "machine"),
                        default="text")
    parser.add_argument("--out", help="matrix only: directory for "
                                      "coordinate exports (default .)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = "."
    elif args.command != "matrix":
        parser.error("--out applies only to the matrix command")
    try:
        cfg = load_config(args.config)
        sg = build_backend(cfg)
        generators = config_generators(sg, cfg)
    except ConfigError as err:
        print("config error: %s" % err, file=sys.stderr)
        return EXIT_PARSE
    for name, fallback in DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, cfg.bounds.get(name, fallback))
    for name, least in LEAST.items():
        if getattr(args, name) < least:
            print("bound error: %s is %d, must be >= %d"
                  % (name, getattr(args, name), least), file=sys.stderr)
            return EXIT_PARSE
    try:
        pairs, code = COMMANDS[args.command](sg, args, generators)
    except UnsupportedOperation as err:
        print("unsupported: %s" % err, file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (InvariantViolation, UsageError) as err:
        print("invariant failure: %s" % err, file=sys.stderr)
        return EXIT_INVARIANT
    sep = "=" if args.format == "machine" else ": "
    for key, value in pairs:
        sys.stdout.write("%s%s%s\n" % (key, sep, value))
    return code


if __name__ == "__main__":
    sys.exit(main())
