"""The residual check on the typed errors.

Every "measured residual <= bound, else a typed error" decision goes
through PreconditionError._check or ConvergenceError._check.  A NaN
residual fails the check, and the raised error carries the residual and
the bound it missed.
"""

import math

import pytest

from canonica.errors import ConvergenceError, PreconditionError
from canonica.factorizations import eig_normal, takagi_symmetric
from canonica.matrix import DEFAULT_TOL
from canonica.sampling import default_rng, random_matrix

MESSAGES = {
    PreconditionError: "matrix is not normal (residual {:.3e})",
    ConvergenceError: "split residual {:.3e} exceeds 1.000e-09",
}
WHAT = {PreconditionError: "matrix is not normal", ConvergenceError: "split"}


@pytest.mark.parametrize("error", list(MESSAGES), ids=lambda e: e.__name__)
@pytest.mark.parametrize("residual", [2e-9, math.inf, math.nan])
def test_a_residual_above_its_bound_or_nan_fails_the_check(error, residual):
    with pytest.raises(error) as info:
        error._check(WHAT[error], residual, 1e-9)
    assert str(info.value) == MESSAGES[error].format(residual)
    assert info.value.residual is residual
    assert info.value.bound == 1e-9


@pytest.mark.parametrize("error", list(MESSAGES), ids=lambda e: e.__name__)
@pytest.mark.parametrize("residual", [0.0, 1e-9])
def test_a_residual_within_its_bound_passes_the_check(error, residual):
    assert error._check(WHAT[error], residual, 1e-9) is None


@pytest.mark.parametrize("error", list(MESSAGES), ids=lambda e: e.__name__)
def test_an_error_raised_without_a_measurement_carries_none(error):
    raised = error("message")
    assert (str(raised), raised.residual, raised.bound) == ("message", None, None)


def test_takagi_rejects_a_nonsymmetric_input_at_1e160():
    # At 1e160 both norms of the symmetry residual overflowed at the
    # input's scale (inf / inf); at unit scale it is finite.
    a = 1e160 * random_matrix(4, default_rng(0))
    with pytest.raises(PreconditionError, match=r"^matrix is not symmetric") as info:
        takagi_symmetric(a)
    assert f"{info.value.residual:.3e}" == "6.982e-01"
    assert info.value.bound == DEFAULT_TOL.residual_rtol


def test_convergence_error_carries_its_residual_and_bound():
    with pytest.raises(ConvergenceError) as info:
        eig_normal([[1.0, 1e-5], [0.0, 1.0]])
    error = info.value
    assert str(error) == "eigendecomposition residual 7.071e-06 exceeds 1.414e-09"
    assert error.residual == pytest.approx(1e-5 / math.sqrt(2.0), rel=1e-6)
    assert error.bound == pytest.approx(DEFAULT_TOL.residual_rtol * math.sqrt(2.0), rel=1e-12)


def test_precondition_error_carries_its_bound():
    with pytest.raises(PreconditionError) as info:
        takagi_symmetric([[0.0, 1.0], [0.0, 0.0]])
    assert info.value.residual == math.sqrt(2.0) / 2.0
    assert info.value.bound == DEFAULT_TOL.residual_rtol
