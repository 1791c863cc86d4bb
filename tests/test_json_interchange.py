"""The JSON layer of the CLI: report encoding and matrix decoding.

The report encoder must give exactly the text of
json.dumps(payload, sort_keys=True, indent=2), with each non-finite
float written as null: the output is strict JSON.  The decoder must give
bit-exact values, signed zeros and subnormals included, and reject
malformed input with the same ParseError messages as the entry-by-entry
scan it replaced.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canonica.cli import _dumps
from canonica.errors import ParseError
from canonica.matrix import (
    loads_matrix,
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
)

SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e-300, -1.5, 2.0**53]

finite = st.one_of(
    st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False)
)


def _complex(parts) -> np.ndarray:
    return np.array(parts, dtype=np.float64).view(np.complex128)


@st.composite
def matrices(draw, max_side=3):
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    size = 2 * rows * cols
    parts = draw(st.lists(finite, min_size=size, max_size=size))
    return matrix_to_json(_complex(parts).reshape(rows, cols))


def _nulled(p):
    """p with each non-finite float replaced by None."""
    if isinstance(p, float):
        return p if math.isfinite(p) else None
    if isinstance(p, dict):
        return {k: _nulled(v) for k, v in p.items()}
    if isinstance(p, (list, tuple)):
        return [_nulled(v) for v in p]
    return p


def _strict(text: str):
    """json.loads of text, which must hold no NaN or Infinity."""

    def refuse(name):
        raise AssertionError(f"non-JSON constant {name} in the output")

    return json.loads(text, parse_constant=refuse)


def _reference(p) -> str:
    return json.dumps(_nulled(p), sort_keys=True, indent=2)


# ----- encoder -------------------------------------------------------------

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from(SPECIAL + [float("nan"), float("inf"), -float("inf")]),
    st.text(),
    st.sampled_from(["τ", "μ → 1/μ̄", " ", "\x00\t\"\\"]),
)
pairs = st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=4)
# Reports also hold the real and imaginary parts of numpy complex scalars.
numpy_pair = st.tuples(finite, finite).map(lambda p: [np.float64(p[0]), np.float64(p[1])])
json_values = st.recursive(
    st.one_of(leaves, pairs, numpy_pair, st.lists(numpy_pair, max_size=3), matrices()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=24,
)
payloads = st.fixed_dictionaries(
    {
        "schema": st.just("canonica/1"),
        "command": st.text(),
        "transform": matrices(),
        "result": st.fixed_dictionaries(
            {
                "core": matrices(),
                "transform": matrices(),
                "sigma": st.lists(finite, max_size=4),
                "norms": st.lists(st.floats(), max_size=6),
            }
        ),
        "blocks": st.lists(matrices(), max_size=3),
        "form": json_values,
        "extra": json_values,
    }
)


@settings(deadline=None, max_examples=300)
@given(payloads)
def test_encoder_matches_json_dumps(payload):
    text = _dumps(payload)
    assert text == _reference(payload)
    _strict(text)


@settings(deadline=None, max_examples=300)
@given(json_values)
@example({"data": []})
@example({2: [1.0, 2.0], 1: None})
@example([[1.0, 2.0], [3.0]])
@example([[1.0, 2.0, 3.0], [4.0]])
@example([[np.float64(1.0), np.float64(-0.0)]] * 2)
@example([[1.0, 2], [3.0, 4.0]])
@example([(1.0, 2.0)])
@example([[1.0, float("nan")]])
@example([1.0, float("inf")])
@example([True, 1.0])
@example({2: [1.0, float("nan")], 1: float("inf"), 10: -float("inf")})
@example({float("inf"): 1.0, 1.5: float("nan"), -2.0: [None, True]})
def test_encoder_matches_json_dumps_on_any_value(value):
    text = _dumps(value)
    assert text == _reference(value)
    _strict(text)


@pytest.mark.parametrize("shape", [(0, 0), (1, 1), (0, 3), (2, 0)])
def test_encoder_on_small_matrices(shape):
    a = np.full(shape, -0.0 + 5e-324j)
    payload = {"transform": matrix_to_json(a), "blocks": [matrix_to_json(a)]}
    assert _dumps(payload) == _reference(payload)


def test_encoder_nests_matrices_at_every_depth():
    a = matrix_to_json(_complex(SPECIAL).reshape(2, 2))
    payload = {
        "transform": a,
        "result": {"core": a, "transform": a},
        "blocks": [a, a],
    }
    assert _dumps(payload) == _reference(payload)


# ----- decoder -------------------------------------------------------------


def _scan_decode(data) -> np.ndarray:
    """The entry-by-entry decoding the numpy decoder replaced."""
    return np.array([complex(re, im) for re, im in data], dtype=np.complex128)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@settings(deadline=None, max_examples=200)
@given(matrices(max_side=5))
@example(matrix_to_json(_complex([-0.0, -0.0, 5e-324, -5e-324]).reshape(1, 2)))
@example(matrix_to_json(np.zeros((0, 0))))
def test_matrix_round_trip_is_bit_exact(obj):
    a = matrix_from_json(obj)
    assert a.shape == (obj["rows"], obj["cols"])
    assert _bits(a) == _bits(_scan_decode(obj["data"]))
    assert matrix_to_json(a) == obj
    text = json.dumps(obj)
    assert _bits(loads_matrix(text)) == _bits(a)


def test_matrix_to_json_keeps_every_bit():
    parts = SPECIAL + [-1e-310, 0.1]
    a = _complex(parts).reshape(1, 5)
    data = matrix_to_json(a)["data"]
    assert [x for pair in data for x in pair] == parts
    assert [np.copysign(1.0, x) for pair in data for x in pair] == [
        np.copysign(1.0, x) for x in parts
    ]
    # Transposed and sliced views encode in row-major order too.
    assert matrix_to_json(a.T)["data"] == [[z.real, z.imag] for z in a.T.reshape(-1)]
    assert matrix_to_json(a[:, ::2])["data"] == [
        [z.real, z.imag] for z in a[:, ::2].reshape(-1)
    ]


@pytest.mark.parametrize(
    "data",
    [
        [[True, False], [False, True]],
        [[1, -0.0], [0, 5e-324]],
        [[2**53 + 1, 0], [-(2**63) - 1, 2**63 + 1]],
        [[2**70 + 1, 0.5], [0, 10**300]],
        [(1.0, 2.0), [3, 4]],
    ],
    ids=["bools", "ints-and-signed-zero", "ints-beyond-int64", "big-ints", "tuples"],
)
def test_decoder_accepts_numbers_as_the_scan_did(data):
    a = matrix_from_json({"rows": 2, "cols": 1, "data": data})
    assert _bits(a) == _bits(_scan_decode(data).reshape(2, 1))
    assert _bits(vector_from_json(data)) == _bits(_scan_decode(data))


def _m(data, rows=None, cols=1):
    return {"rows": len(data) if rows is None else rows, "cols": cols, "data": data}


BIG = 10**400

# Each message is the one the entry-by-entry scan raised, except those
# for integers beyond the float range, where the scan let OverflowError
# escape.
MALFORMED = [
    ("numeric-string", _m([[1.0, 0.0], ["1.5", 0.0]]),
     "each data entry must be an [re, im] pair, got ['1.5', 0.0]"),
    ("string-imaginary-part", _m([[1.0, "0"]]),
     "each data entry must be an [re, im] pair, got [1.0, '0']"),
    ("null-part", _m([[None, 0.0]]),
     "each data entry must be an [re, im] pair, got [None, 0.0]"),
    ("ragged-pair", _m([[1.0, 0.0], [2.0]]),
     "each data entry must be an [re, im] pair, got [2.0]"),
    ("three-parts", _m([[1.0, 0.0, 0.0]]),
     "each data entry must be an [re, im] pair, got [1.0, 0.0, 0.0]"),
    ("bare-number", _m([1.0]),
     "each data entry must be an [re, im] pair, got 1.0"),
    ("too-deep", _m([[[1.0, 0.0], [2.0, 0.0]]]),
     "each data entry must be an [re, im] pair, got [[1.0, 0.0], [2.0, 0.0]]"),
    ("too-deep-part", _m([[[1.0], 0.0]]),
     "each data entry must be an [re, im] pair, got [[1.0], 0.0]"),
    ("object-entry", _m([{"re": 1.0, "im": 0.0}]),
     "each data entry must be an [re, im] pair, got {'re': 1.0, 'im': 0.0}"),
    ("string-entry", _m(["ab"]),
     "each data entry must be an [re, im] pair, got 'ab'"),
    ("nan-literal", _m([[1.0, 0.0], [float("nan"), 0.0]]),
     "matrix entries must be finite"),
    ("infinity-literal", _m([[float("inf"), 0.0]]),
     "matrix entries must be finite"),
    ("negative-infinity", _m([[0.0, float("-inf")]]),
     "matrix entries must be finite"),
    ("nan-before-bad-pair", _m([[float("nan"), 0.0], ["x", 0.0]]),
     "matrix entries must be finite"),
    ("bad-pair-before-nan", _m([["x", 0.0], [float("nan"), 0.0]]),
     "each data entry must be an [re, im] pair, got ['x', 0.0]"),
    ("huge-integer", _m([[BIG, 0]]),
     "matrix entries must be finite"),
    ("huge-negative-integer", _m([[0, -BIG]]),
     "matrix entries must be finite"),
    ("too-few-entries", _m([[1.0, 0.0]] * 3, rows=2, cols=2),
     "data must list rows*cols = 4 entries, got 3"),
    ("too-many-entries", _m([[1.0, 0.0]] * 5, rows=2, cols=2),
     "data must list rows*cols = 4 entries, got 5"),
    ("data-not-a-list", {"rows": 1, "cols": 1, "data": "[[1, 0]]"},
     "data must list rows*cols = 1 entries, got str"),
]


@pytest.mark.parametrize(
    "obj, message", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
)
def test_matrix_decoder_messages(obj, message):
    with pytest.raises(ParseError) as info:
        matrix_from_json(obj)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "obj, message",
    [
        ([["1.5", 0]], "each vector entry must be an [re, im] pair, got ['1.5', 0]"),
        ([[1.0], [2.0, 0.0]], "each vector entry must be an [re, im] pair, got [1.0]"),
        ([[[1, 0], [0, 1]]], "each vector entry must be an [re, im] pair, got [[1, 0], [0, 1]]"),
        ([[float("nan"), 0]], "vector entries must be finite"),
        ([[BIG, 0]], "vector entries must be finite"),
        ({"data": []}, "vector JSON must be a list of [re, im] pairs"),
    ],
    ids=["numeric-string", "ragged", "too-deep", "nan", "huge-integer", "not-a-list"],
)
def test_vector_decoder_messages(obj, message):
    with pytest.raises(ParseError) as info:
        vector_from_json(obj)
    assert str(info.value) == message
