"""Canonical 2-by-2 blocks, direct sums, and block bookkeeping.

The two block families used by the canonical forms are

* the antidiagonal block ``tau * [[0, 1], [mu, 0]]`` (tag ``"h2"``), and
* the triangular block ``[[nu, r], [0, -nu]]`` (tag ``"triangular"``),

related by ``nu = tau * sqrt_dplus(mu)`` and ``r = tau * (1 - |mu|)``.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from .matrix import ToleranceConfig, DEFAULT_TOL

__all__ = [
    "sqrt_dplus",
    "antidiag_block",
    "triangular_block",
    "h2_to_triangular",
    "triangular_to_h2",
    "direct_sum",
    "permutation_matrix",
    "normalize_congruence_pair",
    "normalize_star_pair",
    "congruence_one_key",
    "congruence_two_key",
    "star_one_key",
    "star_two_key",
]


def sqrt_dplus(z: complex) -> complex:
    """The unique square root with Re > 0, or of the form i*t with t >= 0.

    Every complex number has exactly one square root in that set.  The
    principal square root already lands there except when a negative
    imaginary sign leaks through the branch cut, which the sign fix
    below removes.
    """
    w = cmath.sqrt(complex(z))
    if w.real < 0.0 or (w.real == 0.0 and w.imag < 0.0):
        w = -w
    return w


def antidiag_block(tau: float, mu: complex) -> np.ndarray:
    """tau * [[0, 1], [mu, 0]]."""
    tau = float(tau)
    mu = complex(mu)
    return np.array([[0.0, tau], [tau * mu, 0.0]], dtype=np.complex128)


def h2_to_triangular(tau: float, mu: complex) -> tuple[complex, float]:
    """Parameters (nu, r) of the triangular rendering of tau*[[0,1],[mu,0]]."""
    tau = float(tau)
    mu = complex(mu)
    nu = tau * sqrt_dplus(mu)
    r = tau * (1.0 - abs(mu))
    return nu, r


def triangular_to_h2(nu: complex, r: float) -> tuple[float, complex]:
    """Invert h2_to_triangular.  The nu = 0 case gives (tau, mu) = (r, 0)."""
    nu = complex(nu)
    r = float(r)
    if nu == 0:
        return r, 0.0 + 0.0j
    # s = sqrt(|mu|) solves |nu| s^2 + r s - |nu| = 0 with s > 0.
    s = (-r + math.sqrt(r * r + 4.0 * abs(nu) ** 2)) / (2.0 * abs(nu))
    tau = abs(nu) / s
    mu = nu * nu / (tau * tau)
    return tau, mu


def triangular_block(tau: float, mu: complex) -> np.ndarray:
    """[[nu, r], [0, -nu]] rendering of the pair (tau, mu)."""
    nu, r = h2_to_triangular(tau, mu)
    return np.array([[nu, r], [0.0, -nu]], dtype=np.complex128)


def direct_sum(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Block-diagonal direct sum of square blocks (empty input gives 0x0)."""
    mats = [np.asarray(b, dtype=np.complex128) for b in blocks]
    n = sum(b.shape[0] for b in mats)
    out = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for b in mats:
        k = b.shape[0]
        out[at : at + k, at : at + k] = b
        at += k
    return out


def permutation_matrix(order: Sequence[int]) -> np.ndarray:
    """P such that (P @ M @ P.T)[i, j] == M[order[i], order[j]]."""
    n = len(order)
    p = np.zeros((n, n), dtype=np.complex128)
    for new, old in enumerate(order):
        p[new, old] = 1.0
    return p


def normalize_congruence_pair(
    tau: float, mu: complex, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[float, complex]:
    """Canonical representative of the congruence orbit of (tau, mu).

    Replacing mu by 1/mu rescales tau by |mu| and stays in the orbit, so
    the representative has |mu| < 1, or |mu| = 1 with Im mu > 0, or
    mu = -1.  mu = 0 is its own representative.
    """
    tau = float(tau)
    mu = complex(mu)
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    a = abs(mu)
    if a > 0.0 and abs(a - 1.0) <= tol.cluster_rtol:
        mu = mu / a
        if abs(mu + 1.0) <= tol.cluster_rtol:
            return tau, complex(-1.0)
        if mu.imag < 0.0:
            mu = mu.conjugate()
        return tau, mu
    if a > 1.0:
        return tau * a, 1.0 / mu
    return tau, mu


def normalize_star_pair(
    tau: float, mu: complex, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[float, complex]:
    """Canonical representative of the *congruence orbit of (tau, mu).

    Here the orbit partner of mu is 1/conj(mu), so exactly one member
    lies in the open unit disk; that member is the representative.
    """
    tau = float(tau)
    mu = complex(mu)
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    a = abs(mu)
    if a > 1.0:
        return tau * a, 1.0 / mu.conjugate()
    return tau, mu


def _arg(z: complex) -> float:
    # cmath.phase returns the argument in (-pi, pi]
    return cmath.phase(complex(z)) if z != 0 else 0.0


def congruence_one_key(sigma: float):
    return (-float(sigma),)


def congruence_two_key(pair: tuple[float, complex]):
    tau, mu = pair
    return (-float(tau), _arg(mu), abs(complex(mu)))


def star_one_key(lam: complex):
    lam = complex(lam)
    return (-abs(lam), _arg(lam))


def star_two_key(pair: tuple[float, complex]):
    tau, mu = pair
    return (-float(tau), -abs(complex(mu)), _arg(mu))
