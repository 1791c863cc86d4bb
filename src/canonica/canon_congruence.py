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
skew-symmetric (Hua) factorizations.  The module also covers the
classes whose form can be read off a spectrum: conjugate-normal,
unitary, coninvolutory, and Hermitian-cosquare matrices.
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
from .errors import ConvergenceError, PreconditionError
from .factorizations import (
    _pair_clusters,
    eig_normal,
    hua_skew,
    svd,
    takagi_symmetric,
)
from .matrix import (
    DEFAULT_TOL,
    ToleranceConfig,
    _rank_of_values,
    as_matrix,
    rel_residual,
)
from .pipeline import _canon, _Mode
from .predicates import classify
from .regularization import _cosquare

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
    return _cosquare(as_matrix(a, square=True), "congruence", tol)


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


def _mu_first(mean: complex, radius: float) -> bool:
    # The stored mu lies inside the unit circle, or on it with positive
    # imaginary part.
    if abs(abs(mean) - 1.0) <= radius:
        return mean.imag > 0.0
    return abs(mean) < 1.0


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
    return _canon(a, _CONGRUENCE, tol)


def canon_conjugate_normal(
    a, tol: ToleranceConfig = DEFAULT_TOL
) -> CongruenceCanonicalForm:
    """Canonical form of a conjugate-normal matrix from its gram spectrum.

    Reads the form directly off the eigenvalues of conj(a) a: positive
    eigenvalues give [sqrt] blocks, conjugate pairs rho e^{+-i theta}
    give (sqrt(rho), e^{i theta}) blocks, zeros give [0] blocks.  Must
    agree with the general pipeline; no transform is produced.
    """
    a = as_matrix(a, square=True)
    n = a.shape[0]
    report = classify(a, tol)
    if not report["conjugate_normal"]:
        raise PreconditionError(
            "input is not conjugate normal",
            residual=report.residuals["conjugate_normal"],
        )
    if n == 0:
        return CongruenceCanonicalForm.build([], [])

    gram = a.conj() @ a
    lam, _ = eig_normal(gram, tol)
    # scale from the input, not the product: the product of a singular
    # matrix with itself can be dominated by rounding noise
    s = np.linalg.svd(a, compute_uv=False)
    scale = float(s[0]) ** 2
    zero_cut = tol.rank_rtol * scale * n
    radius = tol.cluster_rtol * max(scale, 1.0)

    m1 = n - _rank_of_values(s, n, tol)
    nonzero = [i for i in range(n) if abs(lam[i]) > zero_cut]
    if n - len(nonzero) != m1:
        raise ConvergenceError(
            "zero eigenvalue count of conj(a) a does not match the nullity"
        )

    ones: list[float] = [0.0] * m1
    twos: list[tuple[float, complex]] = []
    values = lam[nonzero]
    fixed, pairs = _pair_clusters(values, complex.conjugate, radius)
    for rep, idx in fixed:
        if rep.real > 0.0:
            ones.extend(float(np.sqrt(values[i].real)) for i in idx)
        else:
            if len(idx) % 2 == 1:
                raise PreconditionError(
                    "negative eigenvalues of conj(a) a must pair up"
                )
            twos.extend(
                (float(np.sqrt(abs(rep))), complex(-1.0))
                for _ in range(len(idx) // 2)
            )
    for (rep, idx), (_, partner_idx) in pairs:
        for i in idx if rep.imag > 0.0 else partner_idx:
            v = complex(values[i])
            twos.append((float(np.sqrt(abs(v))), v / abs(v)))
    return CongruenceCanonicalForm.build(ones, twos)


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

    The eigenvalues of conj(u) u other than 1 come in conjugate pairs
    e^{+-i theta}; each pair yields one 2-by-2 block in the requested
    style, and the rest of the form is an identity.  Returns the block
    list: 1-by-1 [[1]] blocks first, then 2-by-2 blocks by ascending
    theta in (0, pi].
    """
    if style not in _UNITARY_STYLES:
        raise ValueError(f"style must be one of {_UNITARY_STYLES}, got {style!r}")
    u = as_matrix(u, square=True)
    report = classify(u, tol)
    if not report["unitary"]:
        raise PreconditionError(
            "input is not unitary", residual=report.residuals["unitary"]
        )

    lam, _ = eig_normal(u.conj() @ u, tol)
    lam = lam / np.abs(lam)
    fixed, pairs = _pair_clusters(lam, complex.conjugate, tol.cluster_rtol)
    ones_count = 0
    thetas: list[float] = []
    for rep, idx in fixed:
        if rep.real > 0.0:
            ones_count += len(idx)
            continue
        if len(idx) % 2 == 1:
            raise PreconditionError(
                "eigenvalue -1 of conj(u) u must have even multiplicity"
            )
        thetas.extend([float(np.pi)] * (len(idx) // 2))
    for (rep, idx), (partner_rep, _) in pairs:
        theta = float(np.angle(rep if rep.imag > 0.0 else partner_rep))
        thetas.extend([theta] * len(idx))

    thetas.sort()
    blocks = [np.array([[1.0]], dtype=np.complex128) for _ in range(ones_count)]
    blocks.extend(_unitary_style_block(t, style) for t in thetas)
    return blocks


def canon_coninvolutory(
    a, tol: ToleranceConfig = DEFAULT_TOL
) -> CongruenceCanonicalForm:
    """Canonical form of a matrix with conj(a) a = I.

    Singular values pair as (s, 1/s); each pair above 1 yields the
    block (tau, mu) = (s, s^{-2}) and the rest of the form is an
    identity.
    """
    a = as_matrix(a, square=True)
    n = a.shape[0]
    report = classify(a, tol)
    if not report["coninvolutory"]:
        raise PreconditionError(
            "input is not coninvolutory",
            residual=report.residuals["coninvolutory"],
        )
    s = svd(a).sigma
    boundary = tol.cluster_rtol * max(1.0, float(s[0]) if n else 1.0)
    i, j = 0, n - 1
    ones: list[float] = []
    twos: list[tuple[float, complex]] = []
    while i <= j:
        if s[i] > 1.0 + boundary:
            if abs(s[i] * s[j] - 1.0) > 10.0 * boundary:
                raise PreconditionError(
                    "singular values do not pair into (s, 1/s) couples"
                )
            sv = float(s[i])
            twos.append((sv, complex(sv ** -2)))
            i += 1
            j -= 1
        else:
            if abs(s[i] - 1.0) > boundary:
                raise PreconditionError(
                    f"unpaired singular value {s[i]:.6g} is not 1"
                )
            ones.append(1.0)
            i += 1
    return CongruenceCanonicalForm.build(ones, twos)


def canon_hermitian_cosquare(
    a, tol: ToleranceConfig = DEFAULT_TOL
) -> CongruenceCanonicalForm:
    """Canonical form when conj(a) a is Hermitian: all mu come out real."""
    a = as_matrix(a, square=True)
    gram = a.conj() @ a
    res = rel_residual(gram, gram.conj().T)
    if res > tol.residual_rtol:
        raise PreconditionError(
            "conj(a) a is not Hermitian", residual=res
        )
    form, _ = canon_congruence(a, tol)
    twos = []
    for tau, mu in form.two_by_two:
        if abs(mu.imag) > tol.cluster_rtol * max(1.0, abs(mu)):
            raise ConvergenceError(
                f"expected a real block parameter, got {mu!r}"
            )
        twos.append((tau, complex(mu.real)))
    return CongruenceCanonicalForm.build(form.one_by_one, twos)
