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
cluster is reduced by one Hermitian eigendecomposition.  The module
also covers the classes where the form collapses to something readable
at a glance: involutions, Hermitian squares, lambda-projections,
quadratic minimal polynomials, and shifted quadratic normality.
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
from .errors import ConvergenceError, PreconditionError
from .factorizations import svd
from .matrix import DEFAULT_TOL, ToleranceConfig, as_matrix, norm, rank, rel_residual
from .pipeline import _canon, _Mode
from .predicates import classify
from .regularization import _cosquare

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
    return _cosquare(as_matrix(a, square=True), "star", tol)


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
    mu_first=lambda mean, radius: abs(mean) < 1.0,
    normalize_pair=normalize_star_pair,
    one_key=star_one_key,
    two_key=star_two_key,
    form=StarCanonicalForm,
    fixed_groups=lambda fixed: [(value / abs(value), idx) for value, idx in fixed],
    reduce_fixed=_reduce_unimodular,
)


def _triangular_rotation(tau: float, mu: complex) -> np.ndarray:
    """Unitary g with g (tau H2(mu)) g* = [[nu, r], [0, -nu]], |mu| < 1."""
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
    form, transform = _canon(a, _STAR, tol)
    if representation == "triangular":
        # The rotations are unitary, so the residual _canon checked on
        # the h2 rendering carries over.
        rotations = [np.eye(len(form.one_by_one), dtype=np.complex128)]
        rotations.extend(_triangular_rotation(t, m) for t, m in form.two_by_two)
        transform = direct_sum(rotations) @ transform
        form = replace(form, representation="triangular")
    return form, transform


def pearcy_equal_2x2(x, y, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Unitary *congruence test for 2-by-2 matrices via trace invariants.

    x and y are unitarily *congruent iff tr x = tr y, tr x^2 = tr y^2,
    and tr x*x = tr y*y; for 2-by-2 this triple is a complete invariant.
    """
    x = as_matrix(x, square=True)
    y = as_matrix(y, square=True)
    if x.shape != (2, 2) or y.shape != (2, 2):
        raise PreconditionError("the trace criterion applies to 2-by-2 matrices")

    def _close(ta: complex, tb: complex) -> bool:
        return abs(ta - tb) <= tol.residual_rtol * max(1.0, abs(ta) + abs(tb))

    return (
        _close(np.trace(x), np.trace(y))
        and _close(np.trace(x @ x), np.trace(y @ y))
        and _close(np.trace(x.conj().T @ x), np.trace(y.conj().T @ y))
    )


_INVOLUTION_VARIANTS = ("antidiag", "triangular")


def canon_involution(
    a, tol: ToleranceConfig = DEFAULT_TOL, variant: str = "antidiag"
) -> list[np.ndarray]:
    """Blocks of the *congruence canonical form of an involution.

    An involution is determined up to unitary *congruence by its
    singular values and the multiplicity p of eigenvalue +1: the form
    is I_{p-q} + (-I_{n-p-q}) + one 2-by-2 block per singular value
    sigma > 1, rendered as [[0, 1/sigma], [sigma, 0]] (antidiag) or
    [[1, sigma - 1/sigma], [0, -1]] (triangular).
    """
    if variant not in _INVOLUTION_VARIANTS:
        raise ValueError(
            f"variant must be one of {_INVOLUTION_VARIANTS}, got {variant!r}"
        )
    a = as_matrix(a, square=True)
    n = a.shape[0]
    report = classify(a, tol)
    if not report["involutory"]:
        raise PreconditionError(
            "input is not an involution", residual=report.residuals["involutory"]
        )
    trace = complex(np.trace(a))
    p_exact = (n + trace.real) / 2.0
    p = int(round(p_exact))
    if abs(p_exact - p) > 0.1 or not 0 <= p <= n:
        raise ConvergenceError(
            f"trace {trace:.6g} is inconsistent with an involution of size {n}"
        )

    s = svd(a).sigma
    boundary = tol.cluster_rtol * max(1.0, float(s[0]) if n else 1.0)
    i, j = 0, n - 1
    sigmas: list[float] = []
    while i <= j and s[i] > 1.0 + boundary:
        if abs(s[i] * s[j] - 1.0) > 10.0 * boundary:
            raise ConvergenceError(
                "singular values of the involution do not pair into (s, 1/s)"
            )
        sigmas.append(float(s[i]))
        i += 1
        j -= 1
    q = len(sigmas)
    if p - q < 0 or n - p - q < 0:
        raise ConvergenceError(
            f"block counts p={p}, q={q} do not fit dimension {n}"
        )

    blocks = [np.array([[1.0]], dtype=np.complex128) for _ in range(p - q)]
    blocks.extend(np.array([[-1.0]], dtype=np.complex128) for _ in range(n - p - q))
    for sv in sigmas:
        if variant == "antidiag":
            blocks.append(
                np.array([[0.0, 1.0 / sv], [sv, 0.0]], dtype=np.complex128)
            )
        else:
            blocks.append(
                np.array([[1.0, sv - 1.0 / sv], [0.0, -1.0]], dtype=np.complex128)
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
    report = classify(a, tol)
    if not report["hermitian_square"]:
        raise PreconditionError(
            "the square of the input is not Hermitian",
            residual=report.residuals["hermitian_square"],
        )
    form, _ = canon_star(a, tol)
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
    twos = []
    for t, m in form.two_by_two:
        if abs(m.imag) > tol.cluster_rtol * max(1.0, abs(m)):
            raise ConvergenceError(f"expected a real block parameter, got {m!r}")
        twos.append((t, complex(m.real)))
    return StarCanonicalForm.build(ones, twos)


def canon_lambda_projection(
    a, tol: ToleranceConfig = DEFAULT_TOL
) -> list[np.ndarray]:
    """Blocks of the *congruence canonical form of a lambda-projection.

    For a^2 = lam * a the form is lam I + one block
    [[lam, sqrt(tau^2 - |lam|^2)], [0, 0]] per singular value
    tau > |lam|, padded with zeros.  Also verifies that a and
    a - lam I share their top singular values, which is what makes the
    form computable from the SVD alone.
    """
    a = as_matrix(a, square=True)
    n = a.shape[0]
    report = classify(a, tol)
    if not report["lambda_projection"]:
        raise PreconditionError(
            "input does not satisfy a^2 = lam a",
            residual=report.residuals["lambda_projection"],
        )
    lam = report.lam if report.lam is not None else 0.0 + 0.0j
    m1 = n - rank(a, tol)

    s = svd(a).sigma if n else np.zeros(0)
    scale = float(s[0]) if n else 1.0
    cut = abs(lam) + tol.cluster_rtol * max(1.0, scale)
    taus = [float(v) for v in s if v > cut]
    m2 = len(taus)
    if m1 - m2 < 0 or n - m1 - m2 < 0:
        raise ConvergenceError(
            f"block counts m1={m1}, m2={m2} do not fit dimension {n}"
        )

    # a and a - lam I must share their min(m1, n - m1) largest singular
    # values; a cheap independent consistency check on lam.
    shared = min(m1, n - m1)
    if shared > 0:
        s_shift = svd(a - lam * np.eye(n)).sigma
        err = float(np.max(np.abs(s[:shared] - s_shift[:shared])))
        if err > 100.0 * tol.residual_rtol * max(1.0, scale):
            raise ConvergenceError(
                f"top singular values of a and a - lam I differ by {err:.3e}"
            )

    blocks = [
        np.array([[lam]], dtype=np.complex128) for _ in range(n - m1 - m2)
    ]
    for t in taus:
        gamma = float(np.sqrt(max(t * t - abs(lam) ** 2, 0.0)))
        blocks.append(np.array([[lam, gamma], [0.0, 0.0]], dtype=np.complex128))
    blocks.extend(np.zeros((1, 1), dtype=np.complex128) for _ in range(m1 - m2))
    return blocks


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
    quadratic, counts multiplicities from the trace, and places one
    2-by-2 block per singular value above |lam1|.  The singular values
    of the result are known in closed form and are exposed for
    verification.
    """
    a = as_matrix(a, square=True)
    n = a.shape[0]
    if n < 2:
        raise PreconditionError("minimal polynomial degree 2 needs size >= 2")
    norm_a = norm(a)
    mean = complex(np.trace(a)) / n
    if norm(a - mean * np.eye(n)) <= tol.residual_rtol * max(1.0, norm_a):
        raise PreconditionError("scalar matrix: minimal polynomial degree <= 1")

    # Best-fit c1, c0 with a^2 = c1 a - c0 I, then roots of
    # t^2 - c1 t + c0.
    design = np.stack(
        [a.reshape(-1), -np.eye(n, dtype=np.complex128).reshape(-1)], axis=1
    )
    coeffs, *_ = np.linalg.lstsq(design, (a @ a).reshape(-1), rcond=None)
    c1, c0 = complex(coeffs[0]), complex(coeffs[1])
    disc = cmath.sqrt(c1 * c1 - 4.0 * c0)
    roots = sorted([(c1 + disc) / 2.0, (c1 - disc) / 2.0], key=star_one_key)
    lam1, lam2 = roots

    residual = norm((a - lam1 * np.eye(n)) @ (a - lam2 * np.eye(n)))
    bound = tol.residual_rtol * max(
        1.0, (norm_a + abs(lam1)) * (norm_a + abs(lam2))
    )
    if residual > bound:
        raise PreconditionError(
            "minimal polynomial degree is not 2", residual=residual
        )

    s = svd(a).sigma
    scale = float(s[0])
    cut = abs(lam1) + tol.cluster_rtol * max(1.0, scale)
    sigmas = [float(v) for v in s if v > cut]
    m = len(sigmas)

    if abs(lam1 - lam2) <= tol.cluster_rtol * max(1.0, abs(lam1)):
        lam = (lam1 + lam2) / 2.0
        lam1 = lam2 = lam
        n1, n2 = n - m, m
    else:
        d_exact = (n * lam1 - complex(np.trace(a))) / (lam1 - lam2)
        n2 = int(round(d_exact.real))
        if abs(d_exact - n2) > 0.1 or not 0 <= n2 <= n:
            raise ConvergenceError(
                f"eigenvalue multiplicity estimate {d_exact:.6g} is not an integer"
            )
        n1 = n - n2
    if n1 - m < 0 or n2 - m < 0:
        raise ConvergenceError(
            f"block count m={m} exceeds multiplicities {n1}, {n2}"
        )

    mod_prod = abs(lam1 * lam2)
    blocks = [np.array([[lam1]], dtype=np.complex128) for _ in range(n1 - m)]
    predicted = [abs(lam1)] * (n1 - m) + [abs(lam2)] * (n2 - m)
    for sv in sigmas:
        radicand = sv * sv + (mod_prod / sv) ** 2 - abs(lam1) ** 2 - abs(lam2) ** 2
        gamma = float(np.sqrt(max(radicand, 0.0)))
        blocks.append(np.array([[lam1, gamma], [0.0, lam2]], dtype=np.complex128))
        predicted.extend((sv, mod_prod / sv))
    blocks.extend(np.array([[lam2]], dtype=np.complex128) for _ in range(n2 - m))
    predicted.sort(reverse=True)
    return QuadraticForm(
        blocks=tuple(blocks),
        predicted_singular_values=tuple(predicted),
        roots=(lam1, lam2),
    )


def canon_shifted_quadratic_normal(
    a, shift: complex, offset: complex, tol: ToleranceConfig = DEFAULT_TOL
) -> list[np.ndarray]:
    """Blocks for a matrix with a^2 - 2 shift a + offset I normal.

    Then (a - shift I)^2 is normal too, so the shifted matrix has a
    triangular *congruence canonical form; shifting it back gives
    1-by-1 blocks [shift + lam] and 2-by-2 blocks
    [[shift + nu, r], [0, shift - nu]].
    """
    a = as_matrix(a, square=True)
    n = a.shape[0]
    shift = complex(shift)
    offset = complex(offset)
    nmat = a @ a - 2.0 * shift * a + offset * np.eye(n)
    res = rel_residual(nmat @ nmat.conj().T, nmat.conj().T @ nmat)
    if res > tol.residual_rtol:
        raise PreconditionError(
            "a^2 - 2 shift a + offset I is not normal", residual=res
        )
    form, _ = canon_star(a - shift * np.eye(n), tol, representation="triangular")
    blocks = [
        np.array([[shift + v]], dtype=np.complex128) for v in form.one_by_one
    ]
    for t, m in form.two_by_two:
        nu, r = h2_to_triangular(t, m)
        blocks.append(
            np.array([[shift + nu, r], [0.0, shift - nu]], dtype=np.complex128)
        )
    return blocks
