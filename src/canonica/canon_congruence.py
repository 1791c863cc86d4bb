"""Canonical forms under unitary congruence.

A congruence-normal matrix is unitarily congruent to a direct sum of
1-by-1 blocks [sigma] with sigma >= 0 and 2-by-2 blocks
tau * [[0, 1], [mu, 0]] with tau > 0 and mu != 1, unique up to
permutation and the replacement (tau, mu) -> (tau |mu|, 1/mu).
canon_congruence recovers that sum together with the unitary that
realizes it through the pipeline it shares with canon_star
(pipeline._canon).  This module supplies what is particular to
congruence: the transpose cosquare pairs its eigenvalues as mu and 1/mu,
and its eigenvalues +1 and -1 are reduced by the symmetric (Takagi) and
skew-symmetric (Hua) factorizations.  The classical forms of
conjugate-normal, unitary, coninvolutory and Hermitian-cosquare
matrices are special cases: each of those paths checks the class's
defining identity, runs the pipeline once, and renders its blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (
    antidiag_block,
    congruence_one_key,
    congruence_two_key,
    direct_sum,
    normalize_congruence_pair,
)
from .errors import PreconditionError
from .factorizations import hua_skew, takagi_symmetric
from .matrix import DEFAULT_TOL, ToleranceConfig, as_matrix
from .pipeline import _canon, _Mode, _real_mu
from .predicates import _require_class
from .regularization import _checked_cosquare, _gated

__all__ = [
    "CongruenceCanonicalForm",
    "cosquare",
    "canon_congruence",
    "canon_conjugate_normal",
    "canon_unitary",
    "canon_coninvolutory",
    "canon_hermitian_cosquare",
]


@dataclass(frozen=True)
class CongruenceCanonicalForm:
    """Block multiset of a congruence canonical form.

    one_by_one holds the sigma values (descending); two_by_two holds
    (tau, mu) pairs with mu normalized to |mu| < 1, or |mu| = 1 with
    Im mu > 0, or mu = -1, sorted by descending tau, then argument,
    then modulus of mu.
    """

    one_by_one: tuple[float, ...]
    two_by_two: tuple[tuple[float, complex], ...]

    @classmethod
    def build(cls, ones, twos) -> "CongruenceCanonicalForm":
        one_sorted = tuple(
            sorted((float(s) for s in ones), key=congruence_one_key)
        )
        two_sorted = tuple(
            sorted(
                ((float(t), complex(m)) for t, m in twos), key=congruence_two_key
            )
        )
        return cls(one_by_one=one_sorted, two_by_two=two_sorted)

    @property
    def dimension(self) -> int:
        return len(self.one_by_one) + 2 * len(self.two_by_two)

    def assemble(self) -> np.ndarray:
        blocks = [
            np.array([[s]], dtype=np.complex128) for s in self.one_by_one
        ] + [antidiag_block(t, m) for t, m in self.two_by_two]
        return direct_sum(blocks)

    def to_json(self) -> dict:
        return {
            "one_by_one": [float(s) for s in self.one_by_one],
            "two_by_two": [
                {"tau": float(t), "mu": [m.real, m.imag]} for t, m in self.two_by_two
            ],
        }


def cosquare(a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The transpose cosquare a^{-T} a of a nonsingular matrix."""
    return _checked_cosquare(as_matrix(a, square=True), "congruence", tol)


def _fixed_groups(fixed):
    """The +1 and -1 summands of the transpose cosquare, in that order."""
    plus = [i for value, idx in fixed if value.real > 0.0 for i in idx]
    minus = [i for value, idx in fixed if value.real <= 0.0 for i in idx]
    if len(minus) % 2 == 1:
        raise PreconditionError(
            "eigenvalue -1 of the cosquare must have even multiplicity"
        )
    return [(value, idx) for value, idx in ((1.0, plus), (-1.0, minus)) if idx]


def _reduce_fixed(value, block, tol):
    # On the +1 summand the block is symmetric, on the -1 summand skew.
    if value > 0.0:
        sig, v = takagi_symmetric((block + block.T) / 2.0, tol)
        return v.conj().T, [float(s) for s in sig], []
    taus, v = hua_skew((block - block.T) / 2.0, tol)
    return v.conj().T, [], [(float(t), complex(-1.0)) for t in taus]


def _mu_first(values: np.ndarray, radius: float) -> np.ndarray:
    # The stored mu lies inside the unit circle, or on it with positive
    # imaginary part.
    modulus = np.abs(values)
    return np.where(np.abs(modulus - 1.0) <= radius, values.imag > 0.0, modulus < 1.0)


_CONGRUENCE = _Mode(
    name="congruence",
    partner=lambda z: 1.0 / z,
    mu_first=_mu_first,
    normalize_pair=normalize_congruence_pair,
    one_key=congruence_one_key,
    two_key=congruence_two_key,
    form=CongruenceCanonicalForm,
    fixed_groups=_fixed_groups,
    reduce_fixed=_reduce_fixed,
)


def canon_congruence(
    a, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[CongruenceCanonicalForm, np.ndarray]:
    """Canonical form and transform of a congruence-normal matrix.

    Returns (form, t) with t unitary and t @ a @ t.T equal to
    form.assemble() within the residual tolerance.
    """
    a = as_matrix(a, square=True)
    return _canon(*_gated(a, _CONGRUENCE.name, tol), _CONGRUENCE, tol)


def canon_conjugate_normal(
    a, tol: ToleranceConfig = DEFAULT_TOL
) -> CongruenceCanonicalForm:
    """Canonical form of a conjugate-normal matrix.

    This is the congruence canonical form itself: [sigma] blocks with
    sigma >= 0 and 2-by-2 blocks with unimodular mu.  No transform is
    returned.
    """
    a = as_matrix(a, square=True)
    _require_class(a, "conjugate_normal", tol, "input is not conjugate normal")
    return _canon(*_gated(a, _CONGRUENCE.name, tol), _CONGRUENCE, tol)[0]


_UNITARY_STYLES = ("h2", "real_orthogonal", "hermitian_unitary")


def _unitary_style_block(theta: float, style: str) -> np.ndarray:
    if style == "h2":
        return antidiag_block(1.0, np.exp(1j * theta))
    if style == "real_orthogonal":
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        return np.array([[c, s], [-s, c]], dtype=np.complex128)
    return np.array(
        [[0.0, np.exp(-1j * theta / 2.0)], [np.exp(1j * theta / 2.0), 0.0]],
        dtype=np.complex128,
    )


def canon_unitary(
    u, style: str = "h2", tol: ToleranceConfig = DEFAULT_TOL
) -> list[np.ndarray]:
    """Blocks of the congruence canonical form of a unitary matrix.

    The form of a unitary matrix has [1] blocks and 2-by-2 blocks with
    tau = 1 and mu = e^{i theta}, theta in (0, pi]; each of the latter is
    rendered in the requested style.  Returns the block list: 1-by-1
    [[1]] blocks first, then 2-by-2 blocks by ascending theta.
    """
    if style not in _UNITARY_STYLES:
        raise ValueError(f"style must be one of {_UNITARY_STYLES}, got {style!r}")
    u = as_matrix(u, square=True)
    _require_class(u, "unitary", tol, "input is not unitary")
    form, _ = _canon(*_gated(u, _CONGRUENCE.name, tol), _CONGRUENCE, tol)
    thetas = sorted(float(np.angle(mu)) for _, mu in form.two_by_two)
    blocks = [np.array([[1.0]], dtype=np.complex128) for _ in form.one_by_one]
    blocks.extend(_unitary_style_block(t, style) for t in thetas)
    return blocks


def canon_coninvolutory(
    a, tol: ToleranceConfig = DEFAULT_TOL
) -> CongruenceCanonicalForm:
    """Canonical form of a matrix with conj(a) a = I.

    The form is an identity plus one block (tau, mu) = (s, s^{-2}) per
    singular value s > 1 of a, so the [sigma] blocks are rendered as 1
    and each mu as tau^{-2}.
    """
    a = as_matrix(a, square=True)
    _require_class(a, "coninvolutory", tol, "input is not coninvolutory")
    form, _ = _canon(*_gated(a, _CONGRUENCE.name, tol), _CONGRUENCE, tol)
    return CongruenceCanonicalForm.build(
        [1.0] * len(form.one_by_one), [(t, t ** -2) for t, _ in form.two_by_two]
    )


def canon_hermitian_cosquare(
    a, tol: ToleranceConfig = DEFAULT_TOL
) -> CongruenceCanonicalForm:
    """Canonical form when conj(a) a is Hermitian: all mu come out real."""
    a = as_matrix(a, square=True)
    _require_class(a, "hermitian_cosquare", tol, "conj(a) a is not Hermitian")
    form, _ = _canon(*_gated(a, _CONGRUENCE.name, tol), _CONGRUENCE, tol)
    return CongruenceCanonicalForm.build(form.one_by_one, _real_mu(form.two_by_two, tol))
