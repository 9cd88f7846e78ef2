"""Command line: analyze | ideals | hull | filters | group | matrix | check.

Reports are assembled as ordered key/value pairs and rendered either for
reading (`key: value`) or for scripting (`key=value`).  Given the same
config, bounds, and seed, output bytes are identical run to run.
"""

import argparse
import os
import sys

from .checks import run_checks
from .config import ConfigError, build_backend, config_generators, load_config
from .filters import (enumerate_filters, maximal_representation_check,
                      truncate_semilattice)
from .group_image import gamma, group_of_S, is_left_reversible
from .hull import estar_unitary_report, hull_graph, render_element
from .ideals import (calculus, clifford_check, constructible_closure,
                     independence_check)
from .operators import (RELATION_KINDS, intertwiner_matrix, isometry_matrix,
                        hull_window, relation_summary, s_window,
                        verify_relation)
from .semigroups import InvariantViolation, UnsupportedOperation, UsageError

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3

DEFAULTS = {"depth": 2, "length": 2, "window": 20, "seed": 7}
LEAST = {"depth": 0, "length": 0, "window": 1}


def _emit(pairs, fmt, out):
    sep = "=" if fmt == "machine" else ": "
    for key, value in pairs:
        out.write("%s%s%s\n" % (key, sep, value))


def _yesno(flag):
    return "yes" if flag else "no"


def _verdicts(sg, depth, graph, seed, generators):
    cal = calculus(sg)
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
    fam = constructible_closure(sg, depth, generators)
    indep = independence_check(sg, fam)
    pairs.append(("independent", _yesno(indep.holds)))
    if not indep.holds:
        parts, target = indep.witness
        pairs.append(("independence.witness",
                      "%s = %s" % (" | ".join(cal.render(p) for p in parts),
                                   cal.render(target))))
    rep = estar_unitary_report(sg, graph, sample=100, seed=seed)
    pairs.append(("estar.mode", rep.mode))
    pairs.append(("ordered", _yesno(sg.units_trivial())))
    return pairs, fam


def cmd_analyze(sg, args, generators, out):
    graph = hull_graph(sg, args.length, generators)
    pairs, fam = _verdicts(sg, args.depth, graph, args.seed, generators)
    pairs.append(("ideals.count", str(len(fam))))
    pairs.append(("hull.count", str(len(graph.ordered))))
    lat = truncate_semilattice(sg, fam)
    pairs.append(("filters.count", str(len(enumerate_filters(lat)))))
    try:
        pairs.append(("group", group_of_S(sg).describe()))
    except UnsupportedOperation:
        pairs.append(("group", "none (not left reversible)"))
    W = s_window(sg, size=args.window)
    pairs.append(("relations", relation_summary(sg, W, lat, graph,
                                                generators)))
    _emit(pairs, args.format, out)
    return EXIT_OK


def cmd_ideals(sg, args, generators, out):
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
    _emit(pairs, args.format, out)
    return EXIT_OK


def cmd_hull(sg, args, generators, out):
    graph = hull_graph(sg, args.length, generators)
    pairs = [("backend", sg.describe()), ("length", str(args.length)),
             ("count", str(len(graph.ordered)))]
    for i, f in enumerate(graph.ordered):
        pairs.append(("element.%d" % i, render_element(sg, f)))
    rep = estar_unitary_report(sg, graph, sample=100, seed=args.seed)
    pairs.append(("estar.mode", rep.mode))
    pairs.append(("zero.present", _yesno(rep.zero_present)))
    _emit(pairs, args.format, out)
    return EXIT_OK


def cmd_filters(sg, args, generators, out):
    fam = constructible_closure(sg, args.depth, generators)
    lat = truncate_semilattice(sg, fam)
    fs = enumerate_filters(lat)
    pairs = [("backend", sg.describe()), ("depth", str(args.depth)),
             ("lattice.size", str(len(lat))), ("count", str(len(fs)))]
    for i, f in enumerate(fs):
        pairs.append(("filter.%d" % i, lat.render(f.minimal)))
    pairs.append(("maximal", _yesno(maximal_representation_check(lat).holds)))
    _emit(pairs, args.format, out)
    return EXIT_OK


def cmd_group(sg, args, generators, out):
    pairs = [("backend", sg.describe())]
    G = group_of_S(sg)  # raises UnsupportedOperation when not reversible
    pairs.append(("reversible", "yes"))
    pairs.append(("group", G.describe()))
    win = sg.window_of_size(args.window)
    images = [gamma(sg, s) for s in win]
    pairs.append(("gamma.window", str(len(win))))
    pairs.append(("gamma.injective", _yesno(len(set(images)) == len(images))))
    _emit(pairs, args.format, out)
    return EXIT_OK


def cmd_matrix(sg, args, generators, out):
    W = s_window(sg, size=args.window)
    graph = hull_graph(sg, args.length, generators)
    HW = hull_window(sg, graph, include=W)
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
        return EXIT_PARSE
    pairs = [("backend", sg.describe()), ("window", str(len(W))),
             ("hull.window", str(len(HW)))]
    for p in written:
        pairs.append(("written", p))
    lat = truncate_semilattice(
        sg, constructible_closure(sg, args.depth, generators))
    for kind in RELATION_KINDS:
        rep = verify_relation(sg, kind, W, lat, graph, generators)
        pairs.append(("relation.%s" % kind,
                      "ok instances=%d columns=%d"
                      % (rep.count, rep.checked_columns)))
    _emit(pairs, args.format, out)
    return EXIT_OK


def cmd_check(sg, args, generators, out):
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
    _emit(pairs, args.format, out)
    return EXIT_INVARIANT if failures else EXIT_OK


COMMANDS = {
    "analyze": cmd_analyze,
    "ideals": cmd_ideals,
    "hull": cmd_hull,
    "filters": cmd_filters,
    "group": cmd_group,
    "matrix": cmd_matrix,
    "check": cmd_check,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lefthull",
        description="Exact computations with partial translation maps of "
                    "left cancellative semigroups.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "ideals", "hull", "filters", "group", "matrix",
                 "check"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a key = value config file")
        p.add_argument("--depth", type=int, help="ideal closure depth")
        p.add_argument("--length", type=int, help="hull word length")
        p.add_argument("--window", type=int, help="matrix window size")
        p.add_argument("--seed", type=int, help="sampling seed")
        p.add_argument("--format", choices=("text", "machine"),
                       default="text")
        if name == "matrix":
            p.add_argument("--out", default=".",
                           help="directory for coordinate exports")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
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
        return COMMANDS[args.command](sg, args, generators, sys.stdout)
    except UnsupportedOperation as err:
        print("unsupported: %s" % err, file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (InvariantViolation, UsageError) as err:
        print("invariant failure: %s" % err, file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
