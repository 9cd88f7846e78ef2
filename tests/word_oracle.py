"""The cs-grade-one suite word by word: the oracle for the prefix walk.

Every word of at most ``length`` pairs is listed, level by level and t-major
over the pairs, and each one is handled on its own: its element comes from
``evaluate_word``, its product from the identity times V_t* V_s for each of
its pairs, and its safe columns from replaying its full step list on every
basis vector.  This is how the suite checked the words before it walked
them as a prefix tree.  ``char_projection`` is looked up on the operators
module at call time, so a fault patched in there reaches both walks.
"""

from lefthull import operators
from lefthull.hull import ZERO, evaluate_word
from lefthull.ideals import EMPTY
from lefthull.matrices import Matrix
from lefthull.semigroups import InvariantViolation


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
        safe = operators._safe_columns(sg, W, steps)
        if not prod.columns_agree(rhs, safe):
            raise InvariantViolation(
                "cs-grade-one relation failed at word %s" % " ".join(
                    "%s*.%s" % (sg.render(t), sg.render(s))
                    for t, s in pairs))
        count += 1
        checked += len(safe)
        safes.append(safe)
    return count, checked, safes
