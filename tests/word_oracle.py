"""The cs-grade-one suite word by word: the oracle for the prefix walk.

Every word of at most ``length`` pairs is listed, level by level and t-major
over the pairs, and each one is handled on its own: its element comes from
``evaluate_word``, its product from the identity times V_t* V_s for each of
its pairs, and its safe columns from replaying its full step list on every
basis vector.  This is how the suite checked the words before it walked
them as a prefix tree.  ``char_projection`` is looked up on the operators
module at call time, so a fault patched in there reaches both walks.

The step interpreter ``_safe_columns`` is also the oracle for the
covariance suite's safe core, which replays ("div", s), ("proj", X),
("mul", s) on every column.
"""

from lefthull import operators
from lefthull.hull import ZERO, evaluate_word
from lefthull.ideals import EMPTY, calculus
from lefthull.matrices import Matrix
from lefthull.semigroups import InvariantViolation, UsageError


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
    return frozenset(j for j, t in enumerate(W.elements)
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
        rhs = operators.char_projection(sg, EMPTY if f is ZERO else f.dom,
                                        W).matrix
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
