"""Shared numeric helpers: coercion, norms, rank, JSON wire format."""

import json

import numpy as np
import pytest

from canonica.errors import ParseError
from canonica.matrix import (
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
    vector_from_json,
)

GOLDEN = (1.0 + 5.0**0.5) / 2.0


def test_as_matrix_coerces_nested_lists():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)
    assert m[1, 0] == 3.0


def test_as_matrix_rejects_wrong_ndim():
    with pytest.raises(ParseError):
        as_matrix([1, 2, 3])
    with pytest.raises(ParseError):
        as_matrix(np.zeros((2, 2, 2)))


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ParseError):
        as_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ParseError):
        as_matrix([[np.inf, 0], [0, 1]])


def test_as_matrix_square_gate():
    with pytest.raises(ParseError):
        as_matrix([[1, 2, 3], [4, 5, 6]], square=True)
    as_matrix([[1, 2], [3, 4]], square=True)


def test_norm_frobenius():
    assert norm([[3, 4], [0, 0]]) == pytest.approx(5.0)


def test_norm_spectral_golden_ratio():
    # Largest singular value of [[1,1],[0,-1]] is the golden ratio.
    assert norm([[1, 1], [0, -1]], kind="spectral") == pytest.approx(GOLDEN)


def test_norm_empty_spectral():
    assert norm(np.zeros((0, 0)), kind="spectral") == 0.0


def test_norm_unknown_kind():
    with pytest.raises(ValueError):
        norm([[1]], kind="nuclear")


def test_rank_counts_significant_singular_values():
    assert rank(np.diag([1.0, 1e-14])) == 1
    assert rank(np.diag([1.0, 2.0, 3.0])) == 3
    assert rank(np.zeros((3, 3))) == 0
    assert rank(np.zeros((0, 4))) == 0


def test_rank_external_scale():
    # A pure-noise matrix is full rank against its own scale but rank
    # zero against the scale of the problem it came from.
    noise = 1e-15 * np.array([[1.0, 2.0], [3.0, 4.0]])
    assert rank(noise) == 2
    assert rank(noise, scale=1.0) == 0
    assert rank(noise, scale=0.0) == 0


def test_rel_residual_zero_on_equal():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert rel_residual(a, a) == 0.0


def test_rel_residual_small_denominator_floor():
    # Denominator is floored at 1 so tiny matrices do not inflate.
    assert rel_residual([[1e-12]], [[0.0]]) == pytest.approx(1e-12)


def test_tolerance_config_defaults():
    assert DEFAULT_TOL.rank_rtol == 1e-10
    assert DEFAULT_TOL.residual_rtol == 1e-9
    assert DEFAULT_TOL.cluster_rtol == 1e-8


@pytest.mark.parametrize("bad", [0.0, -1e-9, 1.0, 2.0])
def test_tolerance_config_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        ToleranceConfig(rank_rtol=bad)


def test_matrix_json_round_trip():
    a = np.array([[1 + 2j, 0], [0.5, -3j]])
    assert np.array_equal(matrix_from_json(matrix_to_json(a)), a)


def test_matrix_json_layout():
    obj = matrix_to_json(np.array([[1j, 2.0]]))
    assert obj == {"rows": 1, "cols": 2, "data": [[0.0, 1.0], [2.0, 0.0]]}


@pytest.mark.parametrize(
    "obj",
    [
        {"rows": 2, "cols": 2},
        {"rows": 2, "cols": 2, "data": [[1, 0]] * 3},
        {"rows": 1, "cols": 1, "data": [[1, 0, 0]]},
        {"rows": 1, "cols": 1, "data": [1.0]},
        {"rows": 1.5, "cols": 1, "data": [[1, 0]]},
        {"rows": -1, "cols": 1, "data": []},
        [[1, 0]],
    ],
)
def test_matrix_from_json_rejects_malformed(obj):
    with pytest.raises(ParseError):
        matrix_from_json(obj)


def test_dumps_matrix_is_deterministic():
    a = np.array([[0.0, 1.0], [0.5, 0.0]])
    text = dumps_matrix(a)
    assert text == dumps_matrix(a)
    assert np.array_equal(loads_matrix(text), a)
    # Keys come out sorted so reruns are byte-identical.
    assert json.loads(text) == {
        "rows": 2,
        "cols": 2,
        "data": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [0.0, 0.0]],
    }


def test_loads_matrix_rejects_bad_text():
    with pytest.raises(ParseError):
        loads_matrix("not json")


def test_vector_from_json():
    v = vector_from_json([[1.0, 0.0], [0.0, -1.0]])
    assert np.array_equal(v, np.array([1.0, -1j]))
    with pytest.raises(ParseError):
        vector_from_json([[1.0], [2.0]])
    with pytest.raises(ParseError):
        vector_from_json("nope")
