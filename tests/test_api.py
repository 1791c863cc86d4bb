"""The public surface: every exported name resolves."""

import importlib
import pkgutil

import numpy as np
import pytest

import canonica

MODULES = [canonica] + [
    importlib.import_module(f"canonica.{info.name}")
    for info in pkgutil.iter_modules(canonica.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []


_GOOD = np.array([[2.0, 0.0], [0.0, 1.0j]])
BAD_MATRICES = {
    "nan": np.array([[np.nan, 0.0], [0.0, 1.0]]),
    "inf": np.array([[1.0, 0.0], [0.0, -np.inf]]),
    "1-D": np.array([1.0, 2.0]),
    "3-D": np.ones((1, 2, 2)),
    "non-numeric": [[1, "x"], [0, 1]],
    "ragged": [[1, 2], [3]],
    "mapping": {"a": 1},
    "past the float range": [[1, 10**400]],
}

# Every public entry point that takes a matrix, called with x in the
# place of each matrix argument in turn.
ENTRY_POINTS = {
    "as_matrix": lambda x: canonica.as_matrix(x),
    "bar_block_dualities": lambda x: canonica.bar_block_dualities(x),
    "bar_double": lambda x: canonica.bar_double(x),
    "canon_congruence": lambda x: canonica.canon_congruence(x),
    "canon_coninvolutory": lambda x: canonica.canon_coninvolutory(x),
    "canon_conjugate_normal": lambda x: canonica.canon_conjugate_normal(x),
    "canon_hermitian_cosquare": lambda x: canonica.canon_hermitian_cosquare(x),
    "canon_hermitian_square": lambda x: canonica.canon_hermitian_square(x),
    "canon_involution": lambda x: canonica.canon_involution(x),
    "canon_lambda_projection": lambda x: canonica.canon_lambda_projection(x),
    "canon_quadratic": lambda x: canonica.canon_quadratic(x),
    "canon_shifted_quadratic_normal": lambda x: canonica.canon_shifted_quadratic_normal(x, 1.0),
    "canon_star": lambda x: canonica.canon_star(x),
    "canon_unitary": lambda x: canonica.canon_unitary(x),
    "classify": lambda x: canonica.classify(x),
    "classify_bounded": lambda x: canonica.classify_bounded(x),
    "cosquare": lambda x: canonica.cosquare(x),
    "decide_unitary_congruence(a)": lambda x: canonica.decide_unitary_congruence(x, _GOOD),
    "decide_unitary_congruence(b)": lambda x: canonica.decide_unitary_congruence(_GOOD, x),
    "decide_unitary_star_congruence(a)": lambda x: canonica.decide_unitary_star_congruence(x, _GOOD),
    "decide_unitary_star_congruence(b)": lambda x: canonica.decide_unitary_star_congruence(_GOOD, x),
    "dumps_matrix": lambda x: canonica.dumps_matrix(x),
    "eig_normal": lambda x: canonica.eig_normal(x),
    "hua_skew": lambda x: canonica.hua_skew(x),
    "matrix_to_json": lambda x: canonica.matrix_to_json(x),
    "norm": lambda x: canonica.norm(x),
    "pearcy_equal_2x2(x)": lambda x: canonica.pearcy_equal_2x2(x, _GOOD),
    "pearcy_equal_2x2(y)": lambda x: canonica.pearcy_equal_2x2(_GOOD, x),
    "polar": lambda x: canonica.polar(x),
    "quadratic_invariants_equal(a)": lambda x: canonica.quadratic_invariants_equal(x, _GOOD),
    "quadratic_invariants_equal(b)": lambda x: canonica.quadratic_invariants_equal(_GOOD, x),
    "rank": lambda x: canonica.rank(x),
    "regularize": lambda x: canonica.regularize(x, "star"),
    "rel_residual(lhs)": lambda x: canonica.rel_residual(x, _GOOD),
    "rel_residual(rhs)": lambda x: canonica.rel_residual(_GOOD, x),
    "simulate(a)": lambda x: canonica.simulate(x, [1.0, 0.0], 3),
    "split_regular_singular": lambda x: canonica.split_regular_singular(x, "star"),
    "star_cosquare": lambda x: canonica.star_cosquare(x),
    "svd": lambda x: canonica.svd(x),
    "takagi_symmetric": lambda x: canonica.takagi_symmetric(x),
    "upgrade_congruence_to_unitary(a)": lambda x: canonica.upgrade_congruence_to_unitary(x, _GOOD, _GOOD),
    "upgrade_congruence_to_unitary(b)": lambda x: canonica.upgrade_congruence_to_unitary(_GOOD, x, _GOOD),
    "upgrade_congruence_to_unitary(s)": lambda x: canonica.upgrade_congruence_to_unitary(_GOOD, _GOOD, x),
    "verify_characterizations": lambda x: canonica.verify_characterizations(x, "conjugate_normal_afd"),
}


@pytest.mark.parametrize("bad", list(BAD_MATRICES))
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_every_entry_point_rejects_a_non_finite_or_non_2d_matrix(entry, bad):
    with pytest.raises(canonica.ParseError):
        ENTRY_POINTS[entry](BAD_MATRICES[bad])


@pytest.mark.parametrize("x0", [[np.inf, 1.0], [np.nan, 0.0], [1.0, complex(0.0, -np.inf)]])
@pytest.mark.parametrize("mode", ["congruence", "star"])
def test_simulate_rejects_a_non_finite_start_vector(x0, mode):
    # Before, the run went on: norms (inf, nan, nan) read as "bounded".
    with pytest.raises(canonica.ParseError, match="start vector"):
        canonica.simulate(np.diag([1.0, 2.0]), x0, 5, mode)
