"""clinelab: exact-arithmetic verification of generalized-inverse transfer
identities between the products ac and ba of a triple satisfying

    a(ba)^2 = abaca = acaba = (ac)^2 a

Drazin / g-Drazin inverses come with fully verified certificates; finite
rings are swept exhaustively; spectra are compared through exact
characteristic polynomials.  No floating point anywhere.
"""

from .cline import (
    BACKWARD,
    FORWARD,
    HypothesisReport,
    TransferResult,
    check_hypothesis,
    cline_drazin,
    cline_gdrazin,
    example_29_triple,
    jacobson_inverse,
    nilpotency_transfer,
    power_transfer,
    qnil_transfer,
    special_case_formula,
    units_transfer,
)
from .drazin import (
    DrazinCertificate,
    drazin_certificate,
    drazin_finite_ring,
    drazin_matrix,
    gdrazin_certificate,
    gdrazin_finite_ring,
    group_inverse,
    is_polynomial_in,
)
from .errors import (
    BudgetExceeded,
    CertificationError,
    ClineLabError,
    ContextMismatch,
    HypothesisViolation,
    InputError,
    MissingInverse,
    ReadingValidationError,
    SweepViolation,
    WorkerFailure,
)
from .explorer import (
    Example29Report,
    SweepReport,
    find_separation,
    sweep,
    verify_example_29,
)
from .rings import (
    NilpotencyWitness,
    RingElem,
    commutant,
    enumeration_budget,
    in_double_commutant,
    is_quasinilpotent,
    is_unit,
    matrix_ring,
    nilpotency,
    rationals_matrix,
    try_inverse,
    zmod,
)
from .spectra import (
    SpectrumDescriptor,
    TruncatedOperatorTriple,
    build_example_triple,
    char_poly,
    nonzero_spectrum_equal,
)

__version__ = "0.1.0"
