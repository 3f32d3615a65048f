"""Exact continued fractions for quadratic irrationals, modular equivalence,
and the cycle classes of permutative Cuntz-algebra representations they label.
"""

from .cfe import (
    PeriodicCFE,
    block_from_json,
    block_prefix,
    block_to_json,
    cfe_expand,
    cfe_periodic,
    cfe_step_matrix,
    format_block,
    minimal_period_normalize,
    parse_block,
    sigma_shift,
    surd_from_cfe,
)
from .cuntz import (
    BadMultiplicity,
    CheckEntry,
    Cycle,
    EmptyWord,
    IDENTITY,
    LabelSpace,
    NotPrimitive,
    WordOperator,
    ZERO,
    apply_word_op,
    canonical_cycle,
    classify_surd,
    cycle_dft_split,
    gp_vector_check,
    intertwiner_check,
    is_nonperiodic,
    label_cons,
    orbit_decompose,
    verify_cuntz_relations,
    word_op_mul,
)
from .equivalence import (
    apply_and_reduce,
    modular_equivalent,
    omega_class_label,
)
from .surds import (
    DomainError,
    NotIrrational,
    ParseError,
    QuadraticSurd,
    UnimodularMatrix,
    ZeroDenominator,
    approx_decimal,
    field_discriminant,
    floor_of,
    format_surd,
    gauss_tau,
    in_omega,
    mobius_apply,
    normalize,
    parse_surd,
    poly_discriminant,
    shift_by_int,
    squarefree_split,
    surd_from_json,
    surd_to_json,
)

__version__ = "0.1.0"
