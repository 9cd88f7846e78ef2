"""The cs-grade-one suite word by word and level by level: the oracles for
the state walk of ``verify_relation``.

``word_by_word`` is the oracle for the level walk.  Every word of at most
``length`` pairs is listed, level by level and t-major over the pairs, and
each one is handled on its own: its element comes from ``evaluate_word``,
its product from the identity times V_t* V_s for each of its pairs, and
its safe columns from replaying its full step list on every basis vector.
This is how the suite checked the words before it walked them as a prefix
tree.  The walks read the window's kept letter rows (through
``operators.isometry_matrix``) and ideal columns (through
``hull_oracle.char_projection``), so a fault injected into one of them
reaches every walk and the suite alike.

``level_walk`` is the prefix walk as the suite ran it before it merged the
words of a level that reach the same state: each word extends a word of
the previous level by one pair, along the hull graph, and every word of
grade one is checked, repeats included.

The step interpreter ``_safe_columns`` is also the oracle for the
covariance suite's safe core, which replays ("div", s), ("proj", X),
("mul", s) on every column.
"""

from lefthull import operators
from lefthull.hull import ZERO, evaluate_word
from lefthull.ideals import EMPTY, calculus
from lefthull.matrices import Matrix
from lefthull.operators import RelationReport
from lefthull.semigroups import InvariantViolation, UsageError

from hull_oracle import char_projection


def _run_steps(sg, W, t, steps):
    """Apply multiply/divide/project steps in order to the basis vector at
    t.  Returns ("ok", end), ("zero",) for genuine annihilation, or
    ("out",) when any intermediate leaves the window."""
    cal = calculus(sg)
    cur = t
    for op, arg in steps:
        if op == "mul":
            cur = sg.multiply(arg, cur)
            if cur not in W.index:
                return ("out",)
        elif op == "div":
            u = sg.left_divide(arg, cur)
            if u is None:
                return ("zero",)
            if u not in W.index:
                return ("out",)
            cur = u
        elif op == "proj":
            if not cal.is_member(cur, arg):
                return ("zero",)
        else:
            raise UsageError("unknown step %r" % (op,))
    return ("ok", cur)


def _safe_columns(sg, W, steps):
    return frozenset(j for j, t in enumerate(W)
                     if _run_steps(sg, W, t, steps)[0] != "out")


def word_by_word(sg, W, length, generators=None):
    """(count, checked_columns, safe column set of each checked word)."""
    letters = tuple(generators if generators is not None
                    else sg.generators())
    ends = (sg.identity(),) + letters
    V = {s: operators.isometry_matrix(sg, s, W).matrix for s in ends}
    one = sg.grading_group().identity()
    pool = [(t, s) for t in ends for s in ends]
    words, level = [], [[]]
    for _ in range(length):
        level = [w + [p] for w in level for p in pool]
        words.extend(level)
    count = checked = 0
    safes = []
    for pairs in words:
        f = evaluate_word(sg, pairs)
        if f is not ZERO and f.grade != one:
            continue
        prod = Matrix.identity(len(W))
        steps = []
        for t, s in pairs:
            prod = prod * V[t].transpose() * V[s]
        for t, s in reversed(pairs):
            steps.extend((("mul", s), ("div", t)))
        rhs = char_projection(sg, EMPTY if f is ZERO else f.dom, W).matrix
        safe = _safe_columns(sg, W, steps)
        if not prod.columns_agree(rhs, safe):
            raise InvariantViolation(
                "cs-grade-one relation failed at word %s" % " ".join(
                    "%s*.%s" % (sg.render(t), sg.render(s))
                    for t, s in pairs))
        count += 1
        checked += len(safe)
        safes.append(safe)
    return count, checked, safes


def level_walk(sg, W, graph):
    """(report, states): the cs-grade-one suite over the words of ``graph``,
    level by level, and the state (level, id, product entries, safe set)
    of each checked word, in the order checked."""
    one = sg.grading_group().identity()
    graded = [f is ZERO or f.grade == one for f in graph.elements]
    V = {s: operators.isometry_matrix(sg, s, W).matrix for s in graph.ends}
    pool = []
    for t in graph.ends:
        for s in graph.ends:
            A = V[t].transpose() * V[s]
            zero = frozenset(j for j, i in V[s].entries.items()
                             if sg.left_divide(t, W[i]) is None)
            pool.append(((t, s), A, zero))
    proj = {}
    count = checked = 0
    states = []
    level = [((), 0, Matrix.identity(len(W)), frozenset(range(len(W))))]
    # the last level checks only the words of grade one
    last = [[(j, x) for j, x in zip(row, pool) if graded[j]]
            for row in graph.succ]
    for left in range(graph.length - 1, -1, -1):
        nxt = []
        for pairs, i, prod, safe in level:
            row = zip(graph.succ[i], pool) if left else last[i]
            for j, (p, A, zero) in row:
                word, P = pairs + (p,), prod * A
                S = zero.union(c for c, r in A.entries.items() if r in safe)
                if graded[j]:
                    g = graph.elements[j]
                    X = EMPTY if g is ZERO else g.dom
                    if X not in proj:
                        proj[X] = char_projection(sg, X, W).matrix
                    if not P.columns_agree(proj[X], S):
                        raise InvariantViolation(
                            "cs-grade-one relation failed at word %s"
                            % " ".join("%s*.%s" % (sg.render(t), sg.render(s))
                                       for t, s in word))
                    count += 1
                    checked += len(S)
                    states.append((len(word), j,
                                   frozenset(P.entries.items()), S))
                if left:
                    nxt.append((word, j, P, S))
        level = nxt
    return RelationReport("cs-grade-one", count, checked), states
