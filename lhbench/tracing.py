"""Per-layer tracing of a freshly imported lefthull, from outside the package.

``Tracer.install`` wraps the public functions of each module and the hot
methods of the backend, calculus and matrix classes.  Because the modules
bind names with ``from .x import y``, a wrapped function is rebound in every
lefthull module that holds it.  ``run_checks`` looks ``_check`` up at call
time, so wrapping ``checks._check`` yields one span per check.

Each timed call adds to its name's call count, inclusive time (outermost
call only, so recursion is not counted twice) and self time (duration minus
the time of timed calls made inside it).  Calls of the coarse layers are
also kept as spans (name, start, end, parent) in memory and written out by
the caller; the hot leaves (compose, ideal operations, backend methods, ...)
are aggregated only, since a span for each of their millions of calls would
be the bulk of the work.  Functions whose metric is a call count only are
counted without timing, which keeps the overhead of tracing down; their
time stays in the self time of their caller.
"""

import time

OPERATOR_KINDS = ("covariance", "semilattice", "isometry", "cs-grade-one",
                  "intertwiner")
BACKEND_CLASSES = ("FreeMonoid", "PositiveCone", "NumericalSemigroup",
                   "AxPlusB", "FiniteTable")
BACKEND_METHODS = ("contains", "members_below", "multiply", "left_divide",
                   "act")
IDEAL_OPS = ("intersect", "translate", "preimage", "image")

SPAN, TIMED, COUNT = "span", "timed", "count"
# module -> (function, how it is recorded)
FUNCTIONS = {
    "config": (("build_backend", SPAN),),
    "ideals": (("calculus", COUNT), ("reachable_ideals", SPAN),
               ("constructible_closure", SPAN),
               ("independence_check", SPAN), ("clifford_check", SPAN)),
    "hull": (("compose", TIMED), ("star", COUNT), ("evaluate_word", COUNT),
             ("materialize_word", SPAN), ("enumerate_hull", SPAN),
             ("estar_unitary_report", SPAN)),
    "operators": (("regular_rep_matrix", SPAN), ("expectation_loop", SPAN)),
    "filters": (("truncate_semilattice", SPAN), ("enumerate_filters", SPAN),
                ("is_filter", COUNT), ("maximal_representation_check", SPAN)),
    "group_image": (("is_left_reversible", SPAN), ("group_of_S", SPAN),
                    ("gamma", COUNT), ("folner_mean", SPAN)),
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stats = {}       # name -> [calls, inclusive s, self s]
        self.stack = []       # open calls: [start, time of wrapped children]
        self.active = {}      # name -> open calls of that name
        self.spans = []       # [id, name, start, end, parent id]
        self.span_stack = []  # ids of the open spans
        self.closed_keys = set()  # (backend, depth, generators) per command
        self._reachable = 0
        self.extra = dict.fromkeys((
            "closure.repeats", "closure.new", "closure.intersections",
            "hull.enum_compose", "hull.enum_elements",
            "operators.rr_columns", "operators.intertwiner_compared",
            "matrices.nnz_built", "filters.lattice_size"), 0)
        for kind in OPERATOR_KINDS:
            self.extra["safe.%s.checked" % kind] = 0
            self.extra["safe.%s.possible" % kind] = 0

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    # -- wrapping ------------------------------------------------------------

    def count(self, name, fn):
        """A stand-in for fn that only counts its calls under ``name``."""
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            entry[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, name, fn, span=False, before=None, after=None):
        """A stand-in for fn that records its calls under ``name`` (a string,
        or a function of the call's arguments)."""
        clock, stack, active, stats = self.clock, self.stack, self.active, \
            self.stats
        spans, span_stack = self.spans, self.span_stack

        def wrapper(*args, **kwargs):
            key = name if isinstance(name, str) else name(args, kwargs)
            token = before(args, kwargs) if before else None
            frame = [clock(), 0.0]
            stack.append(frame)
            depth = active.get(key, 0)
            active[key] = depth + 1
            if span:
                span_id = len(spans)
                record = [span_id, key, frame[0], None,
                          span_stack[-1] if span_stack else None]
                spans.append(record)
                span_stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[key] = depth
                duration = end - frame[0]
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0.0, 0.0]
                entry[0] += 1
                if not depth:
                    entry[1] += duration
                entry[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span:
                    span_stack.pop()
                    record[3] = end
            if after:
                after(token, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package):
        """Wrap a freshly imported lefthull package in place."""
        mods = {name: getattr(package, name) for name in (
            "cli", "checks", "config", "ideals", "hull", "matrices",
            "operators", "filters", "group_image", "semigroups")}

        def rebind(orig, wrapper):
            for mod in list(mods.values()) + [package]:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

        hooks = {
            ("ideals", "reachable_ideals"): (None, self._after_reachable),
            ("ideals", "constructible_closure"): (self._before_closure,
                                                  self._after_closure),
            ("hull", "enumerate_hull"): (self._before_enum, self._after_enum),
            ("operators", "regular_rep_matrix"): (None, self._after_rr),
            ("filters", "truncate_semilattice"): (None, self._after_lattice),
        }
        for modname, entries in FUNCTIONS.items():
            mod = mods[modname]
            for fname, how in entries:
                orig = getattr(mod, fname)
                name = "%s.%s" % (modname, fname)
                if how == COUNT:
                    rebind(orig, self.count(name, orig))
                    continue
                before, after = hooks.get((modname, fname), (None, None))
                rebind(orig, self.wrap(name, orig, how == SPAN, before, after))

        rebind(mods["checks"]._check, self.wrap(
            lambda args, kwargs: "checks." + _arg(args, kwargs, 0, "name"),
            mods["checks"]._check, span=True))
        rebind(mods["operators"].verify_relation, self.wrap(
            lambda args, kwargs: "operators." + _arg(args, kwargs, 1, "kind"),
            mods["operators"].verify_relation, span=True,
            after=self._after_relation))
        mods["cli"].main = self.wrap("command", mods["cli"].main, span=True,
                                     before=self._before_command)

        sg_mod = mods["semigroups"]
        for cls_name in BACKEND_CLASSES:
            cls = getattr(sg_mod, cls_name)
            for meth in BACKEND_METHODS:
                if meth in vars(cls):
                    setattr(cls, meth, self.wrap("semigroups." + meth,
                                                 vars(cls)[meth]))
        base = mods["ideals"].IdealCalculus
        for op in IDEAL_OPS:
            setattr(base, op, self.wrap("ideals." + op, vars(base)[op]))

        matrix = mods["matrices"].Matrix
        matrix.__mul__ = self.wrap("matrices.mul", matrix.__mul__)
        matrix.transpose = self.count("matrices.transpose", matrix.transpose)
        matrix.columns_agree = self.wrap("matrices.columns_agree",
                                         matrix.columns_agree)
        init = matrix.__init__
        extra = self.extra

        def counted_init(mat, *args, **kwargs):
            init(mat, *args, **kwargs)
            extra["matrices.nnz_built"] += len(mat.entries)

        matrix.__init__ = counted_init

    # -- hooks for the derived counts ------------------------------------------

    def _before_command(self, args, kwargs):
        self.closed_keys.clear()

    def _after_reachable(self, token, args, kwargs, result):
        self._reachable = len(result)

    def _before_closure(self, args, kwargs):
        key = (_arg(args, kwargs, 0, "sg"), _arg(args, kwargs, 1, "depth"),
               _arg(args, kwargs, 2, "generators"))
        if key in self.closed_keys:
            self.extra["closure.repeats"] += 1
        self.closed_keys.add(key)
        return self.calls("ideals.intersect")

    def _after_closure(self, token, args, kwargs, result):
        self.extra["closure.new"] += len(result) - self._reachable
        self.extra["closure.intersections"] += \
            self.calls("ideals.intersect") - token

    def _before_enum(self, args, kwargs):
        return self.calls("hull.compose")

    def _after_enum(self, token, args, kwargs, result):
        self.extra["hull.enum_compose"] += self.calls("hull.compose") - token
        self.extra["hull.enum_elements"] += len(result)

    def _after_rr(self, token, args, kwargs, result):
        self.extra["operators.rr_columns"] += len(_arg(args, kwargs, 2, "HW"))

    def _after_lattice(self, token, args, kwargs, result):
        self.extra["filters.lattice_size"] = max(
            self.extra["filters.lattice_size"], len(result))

    def _after_relation(self, token, args, kwargs, report):
        kind = _arg(args, kwargs, 1, "kind")
        window = len(_arg(args, kwargs, 2, "W"))
        self.extra["safe.%s.checked" % kind] += report.checked_columns
        self.extra["safe.%s.possible" % kind] += report.count * window
        if kind == "intertwiner":
            self.extra["operators.intertwiner_compared"] += \
                report.checked_columns

    # -- results ---------------------------------------------------------------

    def merge(self, other):
        """Add another tracer's counts into this one (spans are not merged)."""
        for name, (calls, incl, own) in other.stats.items():
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += incl
            entry[2] += own
        for key, value in other.extra.items():
            if key == "filters.lattice_size":
                self.extra[key] = max(self.extra[key], value)
            else:
                self.extra[key] += value

    def span_records(self):
        return [[i, name, start - self.origin, end - self.origin, parent]
                for i, name, start, end, parent in self.spans]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, rounds, check_names):
    """Every per-layer metric, as {name: (value, unit)}, per traced round."""
    def calls(name):
        return tr.calls(name) / rounds

    def secs(name):
        return tr.stats.get(name, (0, 0.0, 0.0))[1] / rounds

    def self_secs(names):
        return sum(tr.stats.get(n, (0, 0.0, 0.0))[2] for n in names) / rounds

    x = tr.extra
    m = {}
    for meth in ("contains", "members_below", "multiply", "left_divide", "act"):
        m["semigroups.%s.calls" % meth] = (calls("semigroups." + meth), "count")
    m["semigroups.self_s"] = (self_secs(["semigroups." + n for n in
                                         BACKEND_METHODS]), "s")
    m["ideals.calculus.calls"] = (calls("ideals.calculus"), "count")
    for op in IDEAL_OPS:
        m["ideals.%s.calls" % op] = (calls("ideals." + op), "count")
    m["ideals.ops.self_s"] = (self_secs(["ideals." + op for op in IDEAL_OPS]),
                              "s")
    m["ideals.constructible_closure.calls"] = (
        calls("ideals.constructible_closure"), "count")
    m["ideals.constructible_closure.s"] = (
        secs("ideals.constructible_closure"), "s")
    m["ideals.constructible_closure.repeats"] = (
        x["closure.repeats"] / rounds, "count")
    m["ideals.closure.new_per_intersection"] = (
        _ratio(x["closure.new"], x["closure.intersections"]), "ratio")
    m["ideals.independence_check.s"] = (secs("ideals.independence_check"), "s")
    m["ideals.clifford_check.s"] = (secs("ideals.clifford_check"), "s")
    m["hull.compose.calls"] = (calls("hull.compose"), "count")
    m["hull.compose.s"] = (secs("hull.compose"), "s")
    m["hull.star.calls"] = (calls("hull.star"), "count")
    m["hull.evaluate_word.calls"] = (calls("hull.evaluate_word"), "count")
    m["hull.materialize_word.s"] = (secs("hull.materialize_word"), "s")
    m["hull.enumerate_hull.s"] = (secs("hull.enumerate_hull"), "s")
    m["hull.enumerate_hull.compose_per_element"] = (
        _ratio(x["hull.enum_compose"], x["hull.enum_elements"]), "ratio")
    m["hull.estar_unitary_report.s"] = (secs("hull.estar_unitary_report"), "s")
    m["matrices.mul.calls"] = (calls("matrices.mul"), "count")
    m["matrices.mul.s"] = (secs("matrices.mul"), "s")
    m["matrices.transpose.calls"] = (calls("matrices.transpose"), "count")
    m["matrices.columns_agree.s"] = (secs("matrices.columns_agree"), "s")
    m["matrices.nnz_built"] = (x["matrices.nnz_built"] / rounds, "count")
    for kind in OPERATOR_KINDS:
        m["operators.%s.s" % kind] = (secs("operators." + kind), "s")
        m["operators.%s.safe_share" % kind] = (
            _ratio(x["safe.%s.checked" % kind], x["safe.%s.possible" % kind]),
            "ratio")
    m["operators.regular_rep_matrix.calls"] = (
        calls("operators.regular_rep_matrix"), "count")
    m["operators.regular_rep_matrix.s"] = (
        secs("operators.regular_rep_matrix"), "s")
    m["operators.intertwiner.compared_share"] = (
        _ratio(x["operators.intertwiner_compared"], x["operators.rr_columns"]),
        "ratio")
    m["operators.expectation_loop.s"] = (secs("operators.expectation_loop"),
                                         "s")
    m["filters.truncate_semilattice.s"] = (
        secs("filters.truncate_semilattice"), "s")
    m["filters.lattice_size"] = (x["filters.lattice_size"], "count")
    m["filters.enumerate_filters.s"] = (secs("filters.enumerate_filters"), "s")
    m["filters.is_filter.calls"] = (calls("filters.is_filter"), "count")
    m["filters.maximal_representation_check.s"] = (
        secs("filters.maximal_representation_check"), "s")
    m["group_image.is_left_reversible.s"] = (
        secs("group_image.is_left_reversible"), "s")
    m["group_image.group_of_S.s"] = (secs("group_image.group_of_S"), "s")
    m["group_image.gamma.calls"] = (calls("group_image.gamma"), "count")
    m["group_image.folner_mean.s"] = (secs("group_image.folner_mean"), "s")
    for name in check_names:
        m["checks.%s.s" % name] = (secs("checks." + name), "s")
    m["config.build_backend.s"] = (secs("config.build_backend"), "s")
    return m
