"""Canonical forms of complex matrices under unitary congruence
(a -> u a u^T) and unitary *congruence (a -> u a u*).

The congruence side covers congruence-normal matrices (conj(a) a
normal), the star side squared-normal ones (a^2 normal); one pipeline
computes both canonical forms.  On top of it sit class predicates, equivalence decisions, a
regularization step for singular input, the polar-factor upgrade of a
general congruence to a unitary one, and a bounded-iteration
classifier.
"""

from .blocks import (
    antidiag_block,
    h2_to_triangular,
    normalize_congruence_pair,
    normalize_star_pair,
    sqrt_dplus,
    triangular_block,
    triangular_to_h2,
)
from .canon_congruence import (
    CongruenceCanonicalForm,
    canon_congruence,
    canon_conjugate_normal,
    canon_coninvolutory,
    canon_hermitian_cosquare,
    canon_unitary,
    cosquare,
)
from .canon_star import (
    QuadraticForm,
    StarCanonicalForm,
    canon_hermitian_square,
    canon_involution,
    canon_lambda_projection,
    canon_quadratic,
    canon_shifted_quadratic_normal,
    canon_star,
    pearcy_equal_2x2,
    star_cosquare,
)
from .equivalence import (
    BLOCK_ATOL,
    EquivalenceVerdict,
    decide_unitary_congruence,
    decide_unitary_star_congruence,
    forms_match,
    quadratic_invariants_equal,
    upgrade_congruence_to_unitary,
)
from .errors import CanonicaError, ConvergenceError, ParseError, PreconditionError
from .factorizations import eig_normal, hua_skew, polar, svd, takagi_symmetric
from .iteration import IterationTrace, classify_bounded, simulate
from .matrix import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    dumps_matrix,
    loads_matrix,
    matrix_from_json,
    matrix_to_json,
    norm,
    rank,
    rel_residual,
)
from .predicates import (
    ClassReport,
    bar_block_dualities,
    bar_double,
    classify,
    verify_characterizations,
)
from .regularization import (
    ReducedForm,
    RegularSplit,
    regularize,
    split_regular_singular,
)

__version__ = "0.1.0"

__all__ = [
    "BLOCK_ATOL",
    "CanonicaError",
    "ClassReport",
    "CongruenceCanonicalForm",
    "ConvergenceError",
    "DEFAULT_TOL",
    "EquivalenceVerdict",
    "IterationTrace",
    "ParseError",
    "PreconditionError",
    "QuadraticForm",
    "ReducedForm",
    "RegularSplit",
    "StarCanonicalForm",
    "ToleranceConfig",
    "antidiag_block",
    "as_matrix",
    "bar_block_dualities",
    "bar_double",
    "canon_congruence",
    "canon_coninvolutory",
    "canon_conjugate_normal",
    "canon_hermitian_cosquare",
    "canon_hermitian_square",
    "canon_involution",
    "canon_lambda_projection",
    "canon_quadratic",
    "canon_shifted_quadratic_normal",
    "canon_star",
    "canon_unitary",
    "classify",
    "classify_bounded",
    "cosquare",
    "decide_unitary_congruence",
    "decide_unitary_star_congruence",
    "dumps_matrix",
    "eig_normal",
    "forms_match",
    "h2_to_triangular",
    "hua_skew",
    "loads_matrix",
    "matrix_from_json",
    "matrix_to_json",
    "norm",
    "normalize_congruence_pair",
    "normalize_star_pair",
    "pearcy_equal_2x2",
    "polar",
    "quadratic_invariants_equal",
    "rank",
    "regularize",
    "rel_residual",
    "run_selftest",
    "simulate",
    "split_regular_singular",
    "sqrt_dplus",
    "star_cosquare",
    "svd",
    "takagi_symmetric",
    "triangular_block",
    "triangular_to_h2",
    "upgrade_congruence_to_unitary",
    "verify_characterizations",
]


def __getattr__(name: str):
    # run_selftest loads selftest, and the sampler it draws from, on
    # first use only: no library path needs them.
    if name == "run_selftest":
        from .selftest import run_all

        return run_all
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
