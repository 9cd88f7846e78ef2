"""Exact computations with left cancellative semigroups: constructible
right ideals, the left inverse hull, its filters and group image, and
finite truncations of the standard operator representations."""

# nothing is re-exported from these two, but they stay reachable as
# lefthull.config and lefthull.matrices like every other submodule
from . import config, matrices
from .semigroups import (AxPlusB, FiniteGroup, FiniteTable, FreeGroup,
                         FreeMonoid, Integers, IntegerLattice,
                         InvariantViolation, NumericalSemigroup, PositiveCone,
                         RationalAffine, UnsupportedOperation, UsageError,
                         cyclic_table)
from .ideals import (EMPTY, calculus, clifford_check, constructible_closure,
                     reachable_ideals, independence_check, preimage,
                     principal, translate, Verdict)
from .hull import (ZERO, clifford_normal_form, compose, enumerate_hull,
                   evaluate_word, identity_element, is_idempotent, lambda_,
                   maps_agree, materialize_element, materialize_word,
                   random_word, recompose, star)
from .group_image import (Homomorphism, apply_homomorphism,
                          extend_homomorphism, folner_constant, folner_mean,
                          gamma, group_of_S, is_left_reversible)
from .filters import (enumerate_filters, is_filter,
                      maximal_representation_check, truncate_semilattice)
from .operators import isometry_matrix, s_window, verify_relation
from .checks import run_checks
