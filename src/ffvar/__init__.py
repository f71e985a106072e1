"""Variance of the Liouville function in short intervals of F_q[t].

The package computes the short-interval variance of completely multiplicative
functions over F_q[t] two independent ways (direct enumeration and an even-
character average mod t^(N-h)), checks the exact identities behind the
equivalence in rational arithmetic, and monitors the inequality layer
(mean value theorem, character sum bounds) on concrete grids.
"""

from .errors import (
    BudgetError,
    FFVarError,
    IrreducibleCacheError,
    PreconditionError,
    SmoothWindowError,
)
from .fields import FieldSpec, make_field, verify_field_axioms
from .polys import (
    Poly,
    from_coeffs,
    monic_from_index,
    monic_index,
    star,
    t_power,
)
from .arith import (
    Factorization,
    SieveCache,
    count_smooth_exact,
    factor,
    liouville_full_sum,
    pi_q,
    sieve_irreducibles,
    smooth_asymptotic_ratio,
)
from .characters import (
    UnitGroupBasis,
    character_sums,
    count_even,
    enumerate_characters,
    even_characters,
    unit_group_basis,
)
from .variance import (
    ArithmeticFunctionHandle,
    VarianceReport,
    decomposition_check,
    get_function,
    ramare_identity_check,
    variance_charside,
    variance_direct,
    weighted_char_sum,
    window_defects,
)
from .bounds import (
    BoundReport,
    TrialConfig,
    large_factor_sum_ratio,
    mvt_check,
    mvt_trial,
    prime_char_sum_ratio,
    smooth_sum_ratio,
    von_mangoldt_char_sum_ratio,
)

__version__ = "0.1.0"
