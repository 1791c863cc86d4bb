"""Dense complex matrices: tolerances, norms, rank, and JSON interchange.

Everything downstream works on square complex128 arrays.  All comparisons
go through the helpers here so that the whole package shares one notion
of "equal", "zero", and "rank".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "as_matrix",
    "norm",
    "rank",
    "rel_residual",
    "matrix_to_json",
    "matrix_from_json",
    "loads_matrix",
    "dumps_matrix",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative tolerances used throughout the package.

    rank_rtol decides which singular values count as zero, residual_rtol
    decides when two matrices are equal, and cluster_rtol is the radius
    used when grouping eigenvalues or singular values.  All three must
    lie strictly between 0 and 1.
    """

    rank_rtol: float = 1e-10
    residual_rtol: float = 1e-9
    cluster_rtol: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rank_rtol", "residual_rtol", "cluster_rtol"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


DEFAULT_TOL = ToleranceConfig()


def as_matrix(a, square: bool = False) -> np.ndarray:
    """Coerce input to a 2-D complex128 array, validating finiteness."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ParseError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ParseError("matrix contains non-finite entries")
    if square and m.shape[0] != m.shape[1]:
        raise ParseError(f"expected a square matrix, got shape {m.shape}")
    return m


def norm(a, kind: str = "frobenius") -> float:
    a = as_matrix(a)
    if kind == "frobenius":
        return float(np.linalg.norm(a, "fro"))
    if kind == "spectral":
        if min(a.shape) == 0:
            return 0.0
        return float(np.linalg.norm(a, 2))
    raise ValueError(f"unknown norm kind {kind!r}")


def rank(a, tol: ToleranceConfig = DEFAULT_TOL, scale: float | None = None) -> int:
    """Numerical rank: singular values above rank_rtol * scale * max(shape).

    scale defaults to the largest singular value of a itself.  Pass the
    parent matrix's largest singular value when a is a block extracted
    from a larger problem, so that noise inherited from the parent is
    not mistaken for rank.
    """
    a = as_matrix(a)
    if min(a.shape) == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return _rank_of_values(s, max(a.shape), tol, scale)


def _rank_of_values(
    s: np.ndarray, size: int, tol: ToleranceConfig, scale: float | None = None
) -> int:
    """rank() from the nonincreasing singular values s of a nonempty
    matrix whose larger dimension is size."""
    if scale is None:
        scale = float(s[0])
    if scale <= 0.0:
        return 0
    cutoff = tol.rank_rtol * scale * size
    return int(np.count_nonzero(s > cutoff))


def rel_residual(lhs, rhs) -> float:
    """Relative residual ||lhs - rhs||_F / max(1, ||lhs||_F + ||rhs||_F)."""
    return _relative(as_matrix(lhs), as_matrix(rhs), 1.0)


def _relative(lhs: np.ndarray, rhs: np.ndarray, floor: float) -> float:
    """||lhs - rhs||_F / max(floor, ||lhs||_F + ||rhs||_F), 0 when lhs = rhs."""
    diff = norm(lhs - rhs)
    return diff / max(floor, norm(lhs) + norm(rhs)) if diff else 0.0


def _unit_scale(a: np.ndarray, e: int | None = None) -> tuple[np.ndarray, int]:
    """(2^-e a, e), scaled by np.ldexp on the float64 view of a: exactly,
    down to the subnormal range, and keeping the sign of a zero.  e
    defaults to the exponent that puts the largest |a_ij| in [1, 2), 0
    for a zero a; for e = 0, a itself is returned."""
    if e is None:
        top = float(np.max(np.abs(a), initial=0.0))
        e = math.frexp(top)[1] - 1 if top > 0.0 else 0
    if e == 0:
        return a, 0
    parts = np.ascontiguousarray(a)
    return np.ldexp(parts.view(np.float64), -e).view(parts.dtype), e


def _unit_scale_pair(a: np.ndarray, b: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], int]:
    """_unit_scale of a and b by one e, that of the larger of their
    largest entries, without stacking them into one array."""
    e = _unit_scale(np.array([np.max(np.abs(x), initial=0.0) for x in (a, b)]))[1]
    return (_unit_scale(a, e)[0], _unit_scale(b, e)[0]), e


def _normality_residual(x: np.ndarray) -> tuple[float, np.ndarray]:
    """rel_residual(x* x, x x*) and the Gram matrix x* x.  Its callers
    form x from input at unit scale (_unit_scale), where no product or
    norm overflows and the floor of 1 is the gates' floor.

    One conjugate transpose serves both products.  The difference is
    formed in place as x x* - x* x, whose norm is _relative's."""
    x_h = x.conj().T
    gram = x_h @ x
    other = x @ x_h
    scale = norm(gram) + norm(other)
    other -= gram
    diff = norm(other)
    return (diff / max(1.0, scale) if diff else 0.0), gram


def _adjoint(m: np.ndarray, mode: str) -> np.ndarray:
    """m^T for congruence, m* for star: t acts on a as t a _adjoint(t)."""
    return m.T if mode == "congruence" else m.conj().T


def _cosquare(a: np.ndarray, mode: str) -> np.ndarray:
    """The cosquare a^{-T} a (congruence) or a^{-*} a (star) of nonsingular a."""
    return np.linalg.solve(_adjoint(a, mode), a)


def matrix_to_json(a) -> dict:
    """Encode as {"rows", "cols", "data"} with data a row-major list of
    [re, im] pairs."""
    a = as_matrix(a)
    rows, cols = a.shape
    data = np.ascontiguousarray(a).view(np.float64).reshape(-1, 2).tolist()
    return {"rows": rows, "cols": cols, "data": data}


def matrix_from_json(obj) -> np.ndarray:
    """Decode the interchange dict, rejecting malformed payloads."""
    if not isinstance(obj, dict):
        raise ParseError("matrix JSON must be an object")
    try:
        rows = obj["rows"]
        cols = obj["cols"]
        data = obj["data"]
    except KeyError as missing:
        raise ParseError(f"matrix JSON missing key {missing}") from None
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 0 or cols < 0:
        raise ParseError("rows and cols must be non-negative integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ParseError(
            f"data must list rows*cols = {rows * cols} entries, got "
            f"{len(data) if isinstance(data, list) else type(data).__name__}"
        )
    return _pairs_from_json(data, "data", "matrix").reshape(rows, cols)


def _pairs_from_json(entries: list, noun: str, owner: str) -> np.ndarray:
    """complex128 vector of a list of [re, im] pairs.

    One np.array call converts the whole list.  Anything it does not
    turn into a numeric (len(entries), 2) array is scanned entry by
    entry for the first one that is not a finite pair of numbers, named
    in the message as "each {noun} entry" or "{owner} entries".
    """
    try:
        pairs = np.array(entries) if entries else np.empty((0, 2))
        numeric = pairs.dtype.kind in "bif" and pairs.shape == (len(entries), 2)
    except (ValueError, TypeError, OverflowError):
        numeric = False
    if not numeric:
        for entry in entries:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not all(isinstance(part, (int, float)) for part in entry)
            ):
                raise ParseError(
                    f"each {noun} entry must be an [re, im] pair, got {entry!r}"
                )
            try:
                finite = math.isfinite(entry[0]) and math.isfinite(entry[1])
            except OverflowError:  # an integer beyond the float range
                finite = False
            if not finite:
                raise ParseError(f"{owner} entries must be finite")
        # Valid, but with integers numpy keeps as objects (beyond int64).
        pairs = np.array(entries, dtype=np.float64)
    pairs = np.ascontiguousarray(pairs, dtype=np.float64)
    if not np.isfinite(pairs).all():
        raise ParseError(f"{owner} entries must be finite")
    # Viewing the pairs keeps the sign of a zero, which re + 1j * im loses.
    return pairs.view(np.complex128).reshape(-1)


def loads_matrix(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return matrix_from_json(obj)


def dumps_matrix(a) -> str:
    return json.dumps(matrix_to_json(a), sort_keys=True)


def vector_from_json(obj) -> np.ndarray:
    """Decode a vector given as a list of [re, im] pairs."""
    if not isinstance(obj, list):
        raise ParseError("vector JSON must be a list of [re, im] pairs")
    return _pairs_from_json(obj, "vector", "vector")
