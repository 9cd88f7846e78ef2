"""The aggregated invariant suite behind the `check` subcommand.

Every check is deterministic given (backend, bounds, seed): fixed windows,
seeded sampling, sorted iteration.  A check either passes, fails with a
witness, or is skipped when the operation does not exist for the backend;
skips are reported, never silent.
"""

from collections import namedtuple
import random
from functools import cache

from .config import DEFAULTS
from .filters import enumerate_filters, truncate_semilattice
from .group_image import (folner_constant, folner_mean, gamma, group_of_S,
                          is_left_reversible, left_thick_check)
from .hull import (ZERO, _evaluate, _replay, atom, estar_unitary_report,
                   clifford_normal_form, hull_graph, maps_agree,
                   materialize_element, random_word)
from .ideals import (EMPTY, calculus, clifford_check, constructible_closure,
                     independence_check, reachable_ideals)
from .operators import expectation_loop, relation_summary, s_window
from .semigroups import InvariantViolation, UnsupportedOperation, UsageError


class CheckResult(namedtuple("CheckResult", "name status detail",
                             defaults=("",))):
    """status is ok, fail or skip."""

    __slots__ = ()


def _check(name, fn):
    try:
        detail = fn()
    except UnsupportedOperation as err:
        return CheckResult(name, "skip", str(err))
    except (InvariantViolation, UsageError, AssertionError) as err:
        return CheckResult(name, "fail", str(err))
    return CheckResult(name, "ok", detail or "")


def run_checks(sg, depth=DEFAULTS["depth"], length=DEFAULTS["length"],
               window=DEFAULTS["window"], seed=DEFAULTS["seed"],
               generators=None):
    """The full suite, in a fixed order."""
    cal = calculus(sg)
    win = sg.window_of_size(window)
    results = []

    @cache
    def reach():
        return reachable_ideals(sg, depth, generators)

    @cache
    def family():
        # not cached when it raises, so each check that asks reports it
        return constructible_closure(sg, depth, generators, reach())

    @cache
    def hull():
        return hull_graph(sg, length, generators)

    @cache
    def lattice():
        # raises when the family is not intersection closed
        return truncate_semilattice(sg, family(), reach())

    def semigroup_axioms():
        # the sample and its products are checked, then trusted
        sample = win[:12]
        sg._check(*sample)
        mul, ldiv = sg._mul, sg._ldiv
        prod = {(s, t): mul(s, t) for s in sample for t in sample}
        at = lambda s, t: "at (%s, %s)" % (sg.render(s), sg.render(t))
        for (s, t), st in prod.items():
            if not sg.contains(st):
                raise InvariantViolation("product leaves S " + at(s, t))
        for (s, t), st in prod.items():
            if ldiv(s, st) != t:
                raise InvariantViolation("divide fails " + at(s, t))
            for r in sample[:5]:
                if mul(st, r) != mul(s, prod[t, r]):
                    raise InvariantViolation("associativity fails")
        return "%d elements" % len(sample)

    def window_shape():
        if win[0] != sg.identity():
            raise InvariantViolation("window does not start at the identity")
        return "size %d" % len(win)

    def ideal_adjunctions():
        fam = family()
        for X in fam:
            for s in win[:6]:
                if cal.preimage(s, cal.translate(s, X)) != X:
                    raise InvariantViolation("adjunction fails at %s"
                                             % cal.render(X))
        return "%d ideals" % len(fam)

    def closure_family():
        lattice()
        return "%d ideals at depth %d" % (len(family()), depth)

    def clifford():
        v = clifford_check(sg)
        if v.holds:
            return "holds"
        s, t, meet = v.witness
        return "fails at %s, %s: meet %s" % (sg.render(s), sg.render(t),
                                             cal.render(meet))

    def independence():
        v = independence_check(sg, family())
        return "holds" if v.holds else "fails: union covers %s" \
            % cal.render(v.witness[1])

    def hull_oracle():
        rng = random.Random(seed)
        sg._check(*sg.window_of_size(10))  # the letters of random_word, once
        mism = 0
        for _ in range(60):
            pairs = random_word(sg, rng, 3)
            f = _evaluate(sg, pairs)
            alg = materialize_element(sg, f, win)
            ora = _replay(sg, pairs, win)
            if not maps_agree(alg, ora):
                mism += 1
        if mism:
            raise InvariantViolation("%d materialization mismatches" % mism)
        return "60 words"

    def star_cancellation():
        rng = random.Random(seed + 1)
        sg._check(*win)  # the letters, once
        for _ in range(80):
            s, t = rng.choice(win), rng.choice(win)
            prod = atom(sg, t, s)
            ident = prod is not ZERO and prod.grade == \
                sg.grading_group().identity() and prod.dom == cal.full()
            if ident != (s == t):
                raise InvariantViolation("star cancellation fails at (%s, %s)"
                                         % (sg.render(s), sg.render(t)))
        return "80 pairs"

    def normal_form():
        if not clifford_check(sg).holds:
            raise UnsupportedOperation("needs the principality condition")
        rng = random.Random(seed + 2)
        sg._check(*sg.window_of_size(10))  # the letters of random_word, once
        fs = [f for f in (_evaluate(sg, random_word(sg, rng, 2))
                          for _ in range(40)) if f is not ZERO]
        for f in dict.fromkeys(fs):  # once each: a function of f alone
            clifford_normal_form(sg, f)  # raises unless it recomposes to f
        return "%d elements" % len(fs)

    def estar():
        return estar_unitary_report(sg, hull(), sample=60, seed=seed).mode

    def group_image():
        rev = is_left_reversible(sg)
        if not rev.holds:
            return "not left reversible, witness %s, %s" \
                % tuple(map(sg.render, rev.witness))
        G = group_of_S(sg)
        seen = set()
        for s in win:
            g = gamma(sg, s)
            if g in seen:
                raise InvariantViolation("gamma collides at %s" % sg.render(s))
            seen.add(g)
        return "embeds in %s" % G.describe()

    def thickness():
        # a chain of powers always shares its top translate
        s = sg.generators()[0] if sg.generators() else sg.identity()
        cur, gs = sg.identity(), []
        for _ in range(4):
            gs.append(sg.embed(cur))
            cur = sg.multiply(cur, s)
        v = left_thick_check(sg, gs)
        if not v.holds:
            raise InvariantViolation("a principal chain must be thick")
        return "witness %s" % sg.render(v.witness)

    def folner():
        fam = family()
        least = cal.folner_least_n()
        for X in fam:
            if X is EMPTY:
                continue
            c = folner_constant(sg, X)
            for N in (max(50, least), max(400, least)):
                m = folner_mean(sg, X, N)
                if m.numerator * N < (N - c) * m.denominator:  # m < 1 - c/N
                    raise InvariantViolation("density bound fails for %s"
                                             % cal.render(X))
        return "%d ideals" % (len(fam) - (EMPTY in fam))

    def filters():
        lat = lattice()
        fs = enumerate_filters(lat)  # raises on an up-set that is no filter
        if len(fs) != len(lat) - 1:
            raise InvariantViolation("filter count %d != %d nonzero elements"
                                     % (len(fs), len(lat) - 1))
        return "%d filters" % len(fs)

    def relations():
        return relation_summary(sg, win, lattice(), hull(), generators)

    def expectation():
        W = s_window(sg, size=max(window, 30))
        total, fixed, skipped = expectation_loop(sg, W, hull())
        note = ", %d invisible" % skipped if skipped else ""
        return "%d elements, %d idempotent%s" % (total, fixed, note)

    for name, fn in (
            ("semigroup-axioms", semigroup_axioms),
            ("window-shape", window_shape),
            ("ideal-adjunctions", ideal_adjunctions),
            ("closure-family", closure_family),
            ("clifford", clifford),
            ("independence", independence),
            ("hull-vs-oracle", hull_oracle),
            ("star-cancellation", star_cancellation),
            ("normal-form", normal_form),
            ("estar-unitary", estar),
            ("group-image", group_image),
            ("left-thickness", thickness),
            ("folner-bound", folner),
            ("filters", filters),
            ("operator-relations", relations),
            ("expectation-loop", expectation),
    ):
        results.append(_check(name, fn))
    return tuple(results)
