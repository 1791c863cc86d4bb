"""Canonical forms under unitary *congruence.

A squared-normal matrix is unitarily *congruent to a direct sum of
1-by-1 blocks [lam] and 2-by-2 blocks tau * [[0, 1], [mu, 0]] with
tau > 0 and |mu| < 1, unique up to permutation.  Each 2-by-2 block has
an upper triangular twin [[nu, r], [0, -nu]] with nu = tau sqrt(mu)
taken in the right half-plane closure and r = tau (1 - |mu|); both
renderings are supported.  canon_star recovers the form through the
pipeline it shares with canon_congruence (pipeline._canon); this module
supplies what is particular to *congruence: the *cosquare pairs its
eigenvalues as mu and 1/conj(mu), and each unimodular eigenvalue
cluster is reduced by one Hermitian eigendecomposition.  The classical
forms of involutions and Hermitian squares are special cases: each
path checks the class's defining identity, runs the pipeline once, and
renders its blocks.  A lambda-projection or a matrix with a quadratic
minimal polynomial has a scalar square once shifted by the mean of its
two eigenvalues, so its form is rendered from the triangular form of
the shifted matrix (canon_shifted_quadratic_normal).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np

from .blocks import (
    antidiag_block,
    direct_sum,
    h2_to_triangular,
    normalize_star_pair,
    sqrt_dplus,
    star_one_key,
    star_two_key,
    triangular_block,
)
from .errors import ConvergenceError, ParseError, PreconditionError
from .matrix import DEFAULT_TOL, ToleranceConfig, _norm, _unit_scale, _unit_scale_pair, as_matrix
from .pipeline import _canon, _Mode, _real_mu
from .predicates import _require_class
from .regularization import _checked_cosquare, _gated

__all__ = [
    "StarCanonicalForm",
    "QuadraticForm",
    "star_cosquare",
    "canon_star",
    "pearcy_equal_2x2",
    "canon_involution",
    "canon_hermitian_square",
    "canon_lambda_projection",
    "canon_quadratic",
    "canon_shifted_quadratic_normal",
]

REPRESENTATIONS = ("h2", "triangular")


@dataclass(frozen=True)
class StarCanonicalForm:
    """Block multiset of a *congruence canonical form.

    one_by_one holds complex eigenvalue-like entries lam; two_by_two
    holds (tau, mu) with |mu| < 1 (mu = 0 for singular blocks).  The
    representation tag picks the rendering used by assemble: "h2" for
    tau * [[0, 1], [mu, 0]], "triangular" for [[nu, r], [0, -nu]].
    """

    one_by_one: tuple[complex, ...]
    two_by_two: tuple[tuple[float, complex], ...]
    representation: str = "h2"

    @classmethod
    def build(cls, ones, twos, representation: str = "h2") -> "StarCanonicalForm":
        if representation not in REPRESENTATIONS:
            raise ValueError(
                f"representation must be one of {REPRESENTATIONS}, got {representation!r}"
            )
        one_sorted = tuple(sorted((complex(v) for v in ones), key=star_one_key))
        two_sorted = tuple(
            sorted(((float(t), complex(m)) for t, m in twos), key=star_two_key)
        )
        return cls(
            one_by_one=one_sorted, two_by_two=two_sorted, representation=representation
        )

    @property
    def dimension(self) -> int:
        return len(self.one_by_one) + 2 * len(self.two_by_two)

    def assemble(self) -> np.ndarray:
        blocks = [np.array([[v]], dtype=np.complex128) for v in self.one_by_one]
        for t, m in self.two_by_two:
            if self.representation == "h2":
                blocks.append(antidiag_block(t, m))
            else:
                blocks.append(triangular_block(t, m))
        return direct_sum(blocks)

    def to_json(self) -> dict:
        twos = []
        for t, m in self.two_by_two:
            entry = {"tau": float(t), "mu": [m.real, m.imag]}
            if self.representation == "triangular":
                nu, r = h2_to_triangular(t, m)
                entry["nu"] = [nu.real, nu.imag]
                entry["r"] = float(r)
            twos.append(entry)
        return {
            "representation": self.representation,
            "one_by_one": [[v.real, v.imag] for v in self.one_by_one],
            "two_by_two": twos,
        }


def star_cosquare(a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The *cosquare a^{-*} a of a nonsingular matrix."""
    return _checked_cosquare(as_matrix(a, square=True), "star", tol)


def _reduce_unimodular(lam: complex, block, tol):
    # With alpha**2 = lam, conj(alpha) times the block is Hermitian.
    alpha = sqrt_dplus(lam)
    herm = alpha.conjugate() * block
    herm = (herm + herm.conj().T) / 2.0
    evals, vecs = np.linalg.eigh(herm)
    return vecs.conj().T, [alpha * float(val) for val in evals], []


_STAR = _Mode(
    name="star",
    partner=lambda z: 1.0 / z.conjugate(),
    mu_first=lambda values, radius: np.abs(values) < 1.0,
    normalize_pair=normalize_star_pair,
    one_key=star_one_key,
    two_key=star_two_key,
    form=StarCanonicalForm,
    fixed_groups=lambda fixed: [(value / abs(value), idx) for value, idx in fixed],
    reduce_fixed=_reduce_unimodular,
)


def _triangular_rotation(mu: complex) -> np.ndarray:
    """Unitary g with g (tau H2(mu)) g* = [[nu, r], [0, -nu]] for every
    tau > 0, |mu| < 1."""
    mu = complex(mu)
    if mu == 0:
        return np.eye(2, dtype=np.complex128)
    root = sqrt_dplus(mu)
    den = np.sqrt(1.0 + abs(mu))
    u1 = np.array([1.0, root], dtype=np.complex128) / den
    u2 = np.array([-root.conjugate(), 1.0], dtype=np.complex128) / den
    return np.vstack((u1.conj(), u2.conj()))


def canon_star(
    a, tol: ToleranceConfig = DEFAULT_TOL, representation: str = "h2"
) -> tuple[StarCanonicalForm, np.ndarray]:
    """Canonical form and transform of a squared-normal matrix.

    Returns (form, t) with t unitary and t @ a @ t.conj().T equal to
    form.assemble() within the residual tolerance.  The block content
    comes from the *cosquare of the regular part: each unimodular
    eigenvalue cluster lam contributes 1-by-1 blocks alpha * l with
    alpha**2 = lam and l the eigenvalues of the Hermitian matrix
    conj(alpha) * (restriction), and each pair cluster contributes
    2-by-2 blocks from an SVD.
    """
    if representation not in REPRESENTATIONS:
        raise ValueError(
            f"representation must be one of {REPRESENTATIONS}, got {representation!r}"
        )
    a = as_matrix(a, square=True)
    form, transform = _canon(*_gated(a, _STAR.name, tol), _STAR, tol)
    if representation == "triangular":
        # The rotations are unitary, so the residual _canon checked on
        # the h2 rendering carries over.
        rotations = [np.eye(len(form.one_by_one), dtype=np.complex128)]
        rotations.extend(_triangular_rotation(m) for _, m in form.two_by_two)
        transform = direct_sum(rotations) @ transform
        form = replace(form, representation="triangular")
    return form, transform


def pearcy_equal_2x2(x, y, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Unitary *congruence test for 2-by-2 matrices via trace invariants.

    x and y are unitarily *congruent iff tr x = tr y, tr x^2 = tr y^2,
    and tr x*x = tr y*y; for 2-by-2 this triple is a complete invariant.
    The traces are compared on x and y scaled by one 2^-e (_unit_scale).
    """
    x = as_matrix(x, square=True)
    y = as_matrix(y, square=True)
    if x.shape != (2, 2) or y.shape != (2, 2):
        raise PreconditionError("the trace criterion applies to 2-by-2 matrices")
    (tx, ty), _ = _unit_traces(x, y)
    return _traces_close(tx, ty, tol)


def _unit_traces(x: np.ndarray, y: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], int]:
    """((tx, ty), e): tr z, tr z^2 and tr z* z for z = x and z = y, both
    scaled by one 2^-e (_unit_scale_pair)."""
    (x, y), e = _unit_scale_pair(x, y)
    return tuple(
        np.array([np.trace(z), np.trace(z @ z), np.trace(z.conj().T @ z)]) for z in (x, y)
    ), e


def _traces_close(tx: np.ndarray, ty: np.ndarray, tol: ToleranceConfig) -> bool:
    """Whether the traces of _unit_traces agree, each pair within
    residual_rtol relative to the larger of |ta| + |tb| and 1."""
    return all(
        abs(ta - tb) <= tol.residual_rtol * max(1.0, abs(ta) + abs(tb))
        for ta, tb in zip(tx, ty)
    )


_INVOLUTION_VARIANTS = ("antidiag", "triangular")


def canon_involution(
    a, tol: ToleranceConfig = DEFAULT_TOL, variant: str = "antidiag"
) -> list[np.ndarray]:
    """Blocks of the *congruence canonical form of an involution.

    The form of an involution has 1-by-1 blocks +1 and -1 and one block
    (tau, mu) = (sigma, sigma^{-2}) per singular value sigma > 1, which
    is rendered as [[0, 1/sigma], [sigma, 0]] (antidiag) or
    [[1, sigma - 1/sigma], [0, -1]] (triangular).  Returns the +1
    blocks, the -1 blocks, then the 2-by-2 blocks by descending sigma.
    """
    if variant not in _INVOLUTION_VARIANTS:
        raise ValueError(
            f"variant must be one of {_INVOLUTION_VARIANTS}, got {variant!r}"
        )
    a = as_matrix(a, square=True)
    _require_class(a, "involutory", tol, "input is not an involution")
    form, _ = _canon(*_gated(a, _STAR.name, tol), _STAR, tol)
    signs = sorted((1.0 if v.real > 0.0 else -1.0 for v in form.one_by_one), reverse=True)
    blocks = [np.array([[v]], dtype=np.complex128) for v in signs]
    for t, _ in form.two_by_two:
        if variant == "antidiag":
            blocks.append(np.array([[0.0, 1.0 / t], [t, 0.0]], dtype=np.complex128))
        else:
            blocks.append(
                np.array([[1.0, t - 1.0 / t], [0.0, -1.0]], dtype=np.complex128)
            )
    return blocks


def canon_hermitian_square(
    a, tol: ToleranceConfig = DEFAULT_TOL
) -> StarCanonicalForm:
    """Canonical form when a^2 is Hermitian.

    The 1-by-1 blocks come out real or purely imaginary and the 2-by-2
    parameters mu real in (-1, 1); entries are snapped onto those axes.
    """
    a = as_matrix(a, square=True)
    _require_class(
        a, "hermitian_square", tol, "the square of the input is not Hermitian"
    )
    form, _ = _canon(*_gated(a, _STAR.name, tol), _STAR, tol)
    ones = []
    for v in form.one_by_one:
        snap = tol.cluster_rtol * max(1.0, abs(v))
        if abs(v.imag) <= snap:
            ones.append(complex(v.real))
        elif abs(v.real) <= snap:
            ones.append(complex(0.0, v.imag))
        else:
            raise ConvergenceError(
                f"expected a real or purely imaginary block, got {v!r}"
            )
    return StarCanonicalForm.build(ones, _real_mu(form.two_by_two, tol))


def _two_root_blocks(a, lam1: complex, lam2: complex, tol) -> list[np.ndarray]:
    """Canonical blocks of an a annihilated by (t - lam1)(t - lam2).

    The square of a - shift I with shift = (lam1 + lam2) / 2 is scalar,
    so canon_shifted_quadratic_normal applies.  Each of its 1-by-1
    entries is rendered as the nearer root (ties go to lam2) and each
    2-by-2 block [[x, r], [0, y]] as the unitarily similar
    [[lam1, r], [0, lam2]].  The blocks come as lam1 entries, 2-by-2
    blocks, lam2 entries.  Raises ConvergenceError when an entry lies
    about halfway between distinct roots, as for a double root that the
    fitted roots split.
    """
    firsts, pairs, seconds = [], [], []
    for blk in _canon_shifted(a, (lam1 + lam2) / 2.0, tol):
        if blk.shape[0] == 2:
            pairs.append(np.array([[lam1, blk[0, 1]], [0.0, lam2]], dtype=np.complex128))
            continue
        d1, d2 = abs(blk[0, 0] - lam1), abs(blk[0, 0] - lam2)
        if lam1 != lam2 and min(d1, d2) > abs(lam1 - lam2) / 4.0:
            raise ConvergenceError(
                f"entry {complex(blk[0, 0]):.6g} is near neither root "
                f"{lam1:.6g} nor {lam2:.6g}"
            )
        if d1 < d2:
            firsts.append(np.array([[lam1]], dtype=np.complex128))
        else:
            seconds.append(np.array([[lam2]], dtype=np.complex128))
    return firsts + pairs + seconds


def canon_lambda_projection(
    a, tol: ToleranceConfig = DEFAULT_TOL
) -> list[np.ndarray]:
    """Blocks of the *congruence canonical form of a lambda-projection.

    For a^2 = lam a the form is lam I + one block [[lam, r], [0, 0]] per
    singular value sqrt(|lam|^2 + r^2) > |lam|, padded with zeros.
    """
    a = as_matrix(a, square=True)
    products = _require_class(
        a, "lambda_projection", tol, "input does not satisfy a^2 = lam a"
    )
    return _two_root_blocks(a, products.input_lam, 0.0 + 0.0j, tol)


@dataclass(frozen=True)
class QuadraticForm:
    """Canonical blocks of a matrix with a degree-2 minimal polynomial.

    blocks holds lam1 entries, 2-by-2 [[lam1, gamma], [0, lam2]] blocks,
    and lam2 entries in that order; predicted_singular_values is the
    closed-form singular value list implied by the blocks, descending.
    """

    blocks: tuple[np.ndarray, ...]
    predicted_singular_values: tuple[float, ...]
    roots: tuple[complex, complex]

    def assemble(self) -> np.ndarray:
        return direct_sum(list(self.blocks))


def canon_quadratic(a, tol: ToleranceConfig = DEFAULT_TOL) -> QuadraticForm:
    """Canonical form of a matrix whose minimal polynomial has degree 2.

    Recovers the two eigenvalues as roots of the best-fit annihilating
    quadratic, then renders the *congruence form of the matrix shifted
    by their mean.  The singular values of the result are known in
    closed form and are exposed for verification.  It runs on a scaled
    by 2^-e (_unit_scale) and scales the roots, blocks and singular
    values back.
    """
    return _canon_quadratic(as_matrix(a, square=True), tol)


def _canon_quadratic(a: np.ndarray, tol: ToleranceConfig) -> QuadraticForm:
    """canon_quadratic of a square matrix (as_matrix)."""
    a, e = _unit_scale(a)
    n = a.shape[0]
    if n < 2:
        raise PreconditionError("minimal polynomial degree 2 needs size >= 2")
    norm_a = _norm(a)
    mean = complex(np.trace(a)) / n
    if _norm(a - mean * np.eye(n)) <= tol.residual_rtol * norm_a:
        raise PreconditionError("scalar matrix: minimal polynomial degree <= 1")

    # Best-fit c1, c0 with a^2 = c1 a - c0 I, then roots of
    # t^2 - c1 t + c0.
    design = np.stack(
        [a.reshape(-1), -np.eye(n, dtype=np.complex128).reshape(-1)], axis=1
    )
    coeffs, *_ = np.linalg.lstsq(design, (a @ a).reshape(-1), rcond=None)
    c1, c0 = complex(coeffs[0]), complex(coeffs[1])
    disc = cmath.sqrt(c1 * c1 - 4.0 * c0)
    lam1, lam2 = sorted([(c1 + disc) / 2.0, (c1 - disc) / 2.0], key=star_one_key)
    band = tol.cluster_rtol * abs(lam1)
    if abs(abs(lam1) - abs(lam2)) <= band:
        # Equal moduli leave the order to rounding: the root above the
        # real axis, or on it to the right of 0, comes first.
        lam1, lam2 = sorted(
            (lam1, lam2),
            key=lambda r: not (r.imag > band or (abs(r.imag) <= band and r.real > 0.0)),
        )

    residual = _norm((a - lam1 * np.eye(n)) @ (a - lam2 * np.eye(n)))
    bound = tol.residual_rtol * (norm_a + abs(lam1)) * (norm_a + abs(lam2))
    PreconditionError._check("minimal polynomial degree is not 2", residual, bound)

    if abs(lam1 - lam2) <= tol.cluster_rtol * max(1.0, abs(lam1)):
        lam1 = lam2 = (lam1 + lam2) / 2.0
    blocks = _two_root_blocks(a, lam1, lam2, tol)
    # [[lam1, r], [0, lam2]] has singular values s1 >= s2 with
    # s1 s2 = p = |lam1 lam2| and s1^2 + s2^2 = |lam1|^2 + |lam2|^2 + r^2.
    p = abs(lam1 * lam2)
    sigmas = []
    for blk in blocks:
        if blk.shape[0] == 1:
            sigmas.append(float(abs(blk[0, 0])))
            continue
        q = abs(lam1) ** 2 + abs(lam2) ** 2 + blk[0, 1].real ** 2
        s1 = (np.sqrt(q + 2.0 * p) + np.sqrt(max(q - 2.0 * p, 0.0))) / 2.0
        sigmas.extend((float(s1), p / float(s1)))
    return QuadraticForm(
        blocks=tuple(_unit_scale(blk, -e)[0] for blk in blocks),
        predicted_singular_values=tuple(np.ldexp(sorted(sigmas, reverse=True), e).tolist()),
        roots=tuple(_unit_scale(np.array([lam1, lam2]), -e)[0].tolist()),
    )


def canon_shifted_quadratic_normal(
    a, shift: complex, tol: ToleranceConfig = DEFAULT_TOL
) -> list[np.ndarray]:
    """Blocks for a matrix with (a - shift I)^2 normal.

    The shifted matrix is squared normal, so it has a triangular
    *congruence canonical form; shifting it back gives 1-by-1 blocks
    [shift + lam] and 2-by-2 blocks [[shift + nu, r], [0, shift - nu]].
    Raises PreconditionError when (a - shift I)^2 is not normal.
    """
    if not cmath.isfinite(complex(shift)):
        raise ParseError(f"shift must be finite, got {shift!r}")
    return _canon_shifted(as_matrix(a, square=True), shift, tol)


def _canon_shifted(a: np.ndarray, shift: complex, tol: ToleranceConfig) -> list[np.ndarray]:
    """canon_shifted_quadratic_normal of a square matrix (as_matrix)."""
    shift = complex(shift)
    shifted = a - shift * np.eye(a.shape[0])
    form, _ = _canon(*_gated(shifted, _STAR.name, tol), _STAR, tol)
    blocks = [
        np.array([[shift + v]], dtype=np.complex128) for v in form.one_by_one
    ]
    for t, m in form.two_by_two:
        nu, r = h2_to_triangular(t, m)
        blocks.append(
            np.array([[shift + nu, r], [0.0, shift - nu]], dtype=np.complex128)
        )
    return blocks
