"""Unitary reduction of singular matrices to a bordered regular core.

For a singular A the reduced form under either transformation kind is

    [[A', B, 0], [C, D, [S 0]], [0, 0, 0]]

with [[A', B], [C, D]] nonsingular of order n - m1, D of order m2, S a
positive diagonal of order m2, m1 the nullity, and the trailing m1
columns otherwise zero.  When A is congruence normal (transpose kind) or
squared normal (star kind) the blocks B, C, D vanish and the form splits
into a nonsingular part and elementary singular blocks.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .factorizations import _UNIT, svd
from .matrix import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    matrix_to_json,
    _rank_of_values,
    norm,
    rank,
)
from .predicates import _GATE_PRODUCTS, _normality_residual

__all__ = ["ReducedForm", "RegularSplit", "regularize", "split_regular_singular"]

MODES = ("congruence", "star")
_COSQUARE_NAMES = {"congruence": "cosquare", "star": "star_cosquare"}
_GATE_FLAGS = {"congruence": "congruence_normal", "star": "squared_normal"}


def _adjoint(m: np.ndarray, mode: str) -> np.ndarray:
    """m^T for congruence, m* for star: t acts on a as t a _adjoint(t)."""
    return m.T if mode == "congruence" else m.conj().T


@dataclass(frozen=True)
class ReducedForm:
    """Result of regularize: t @ a @ t^(T or *) equals assembled()."""

    mode: str
    m1: int
    m2: int
    core: np.ndarray
    sigma: np.ndarray
    transform: np.ndarray
    # Singular values of the input, nonincreasing, from the SVD that
    # decided m1: split_regular_singular proves its rank identity from
    # them instead of factorizing the gate product.
    _sigma: np.ndarray | None = field(default=None, repr=False, compare=False)
    # transform @ a @ adjoint(transform), the product regularize reads
    # the core from and checks its residual on; split_regular_singular
    # checks its own on the same product with rows and columns permuted.
    _image: np.ndarray | None = field(default=None, repr=False, compare=False)

    def assembled(self) -> np.ndarray:
        k = self.core.shape[0]
        n = k + self.m1
        out = np.zeros((n, n), dtype=np.complex128)
        out[:k, :k] = self.core
        for i, s in enumerate(self.sigma):
            out[k - self.m2 + i, k + i] = s
        return out

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "m1": self.m1,
            "m2": self.m2,
            "core": matrix_to_json(self.core),
            "sigma": [float(s) for s in self.sigma],
            "transform": matrix_to_json(self.transform),
        }


@dataclass(frozen=True)
class RegularSplit:
    """Split of a congruence-normal or squared-normal matrix.

    transform carries the input to the direct sum of regular, the blocks
    sigma_i * [[0, 1], [0, 0]], and a zero block of order zero_count.
    """

    mode: str
    regular: np.ndarray
    singular_sigmas: np.ndarray
    zero_count: int
    transform: np.ndarray

    def assembled(self) -> np.ndarray:
        k = self.regular.shape[0]
        m2 = len(self.singular_sigmas)
        n = k + 2 * m2 + self.zero_count
        out = np.zeros((n, n), dtype=np.complex128)
        out[:k, :k] = self.regular
        for i, s in enumerate(self.singular_sigmas):
            out[k + 2 * i, k + 2 * i + 1] = s
        return out

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "regular": matrix_to_json(self.regular),
            "singular_sigmas": [float(s) for s in self.singular_sigmas],
            "zero_count": self.zero_count,
            "transform": matrix_to_json(self.transform),
        }


def regularize(a, mode: str, tol: ToleranceConfig = DEFAULT_TOL) -> ReducedForm:
    """Unitary reduction of any square matrix to the bordered form above.

    Nonsingular input reduces trivially (m1 = m2 = 0, core = a); zero
    input reduces to nothing but zeros.  The transform is unitary.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    a = as_matrix(a, square=True)
    n = a.shape[0]
    f = svd(a)
    spectral_norm = float(f.sigma[0]) if n else 0.0
    r = _rank_of_values(f.sigma, n, tol, scale=spectral_norm)
    if r in (0, n):
        # The identity reduces a: a is nonsingular (r = n) or
        # numerically zero (r = 0).
        image = a.copy()
        return ReducedForm(
            mode=mode,
            m1=n - r,
            m2=0,
            core=image if r == n else np.zeros((0, 0), dtype=np.complex128),
            sigma=np.zeros(0, dtype=np.float64),
            transform=np.eye(n, dtype=np.complex128),
            _sigma=f.sigma,
            _image=image,
        )

    # The transform's rows: v1^H and v2^H project onto the range of a
    # and its orthogonal complement (v2^H a = 0), and the SVD of the
    # coupling v1^H a adj(v2^H) rotates each block of rows so that the
    # coupling becomes sigma in the core's trailing rows.
    u_h = f.u.conj().T
    v1_h, v2_h = u_h[:r], u_h[r:]
    nmat = v1_h @ (a @ _adjoint(v2_h, mode))
    m2 = rank(nmat, tol, scale=spectral_norm)
    if m2 == 0:
        transform = u_h
        sigma = np.zeros(0, dtype=np.float64)
    else:
        g = svd(nmat)
        # Left singular vectors of the coupling, those of sigma last.
        x_h = np.roll(g.u.conj().T, -m2, axis=0)
        transform = np.vstack([x_h @ v1_h, _adjoint(g.v, mode) @ v2_h])
        sigma = g.sigma[:m2].copy()
    image = transform @ a @ _adjoint(transform, mode)

    form = ReducedForm(
        mode=mode,
        m1=n - r,
        m2=m2,
        # The core t1 a adj(t1), t1 the transform's leading r rows, is
        # the image's leading block.  Adding 0.0 copies it and turns a
        # -0.0 entry, a sum of negative zeros, into 0.0: the zeros of
        # the reduced form print without a sign.
        core=image[:r, :r] + 0.0,
        sigma=sigma,
        transform=transform,
        _sigma=f.sigma,
        _image=image,
    )
    res = norm(image - form.assembled())
    bound = tol.residual_rtol * max(1.0, norm(a))
    if res > bound:
        raise ConvergenceError(
            f"regularization residual {res:.3e} exceeds {bound:.3e}"
        )
    return form


def split_regular_singular(
    a, mode: str, tol: ToleranceConfig = DEFAULT_TOL
) -> RegularSplit:
    """Split a congruence-normal (or squared-normal) matrix.

    Requires the class membership matching the mode; the bordering
    blocks then vanish and the reduced form is a direct sum of a
    nonsingular matrix of the same class, blocks sigma_i*[[0,1],[0,0]],
    and zeros.  Raises PreconditionError when the regular part it finds
    is numerically singular, and ConvergenceError when the gate or the
    split overflows float64 at the input's scale.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    a = as_matrix(a, square=True)
    gate, gram = _gate(a, mode)
    if not gate <= tol.residual_rtol:
        raise PreconditionError(
            f"input is not {_GATE_FLAGS[mode].replace('_', ' ')}", residual=gate
        )
    certified = _certifies_trivial_split(a, gram, tol)
    # The split's reduction runs without the Gram matrix (an n x n
    # array) held.
    del gram
    return _split(a, mode, tol, certified)


@contextmanager
def _overflow_raises(what: str):
    """Turn a float64 overflow inside the block, in numpy or in Python
    float arithmetic, into ConvergenceError naming what overflowed."""
    with np.errstate(over="raise"):
        try:
            yield
        except (FloatingPointError, OverflowError):
            raise ConvergenceError(
                f"{what} overflows float64 at the input's scale"
            ) from None


def _gate_product(a: np.ndarray, mode: str) -> np.ndarray:
    """The gate product p of the mode, conj(a) a or a^2."""
    return _GATE_PRODUCTS[_GATE_FLAGS[mode]](a)


def _gate(a: np.ndarray, mode: str) -> tuple[float, np.ndarray]:
    """The class gate of the mode: the normality residual of its gate
    product p, and the Gram matrix p* p it was measured on, from which
    the split draws its certificate."""
    with _overflow_raises("the class gate"):
        product = _gate_product(a, mode)
        try:
            return _normality_residual(product)
        except FloatingPointError:
            pass
        # The norms of p* p overflow long before p* p does, from about
        # ||a||_F = 1e38 on.  The residual is relative: measure it on p
        # scaled by a power of two, which is exact and keeps the norms
        # in range (and above the residual's floor of 1).
        scale = 2.0 ** (10 - math.frexp(float(np.abs(product).max()))[1])
        residual, gram = _normality_residual(product * scale)
        return residual, gram / scale / scale


def _weyl_terms(a: np.ndarray, tol: ToleranceConfig) -> tuple[float, float, float]:
    """(F, slack, cutoff), F = ||a||_F, of the test that proves a
    nonempty a nonsingular from the smallest singular value s of its
    gate product: s - slack > cutoff.  It is the Weyl margin of
    _split_by_reduction with F in place of ||a||_2 <= F, which only
    makes it stricter, and with a zero residual widened by e = 1e-12 n
    F, far beyond the rounding in p.  As sigma_min(p) <= sigma_min(a)
    ||a||_2 for p = conj(a) a or a^2, it implies all three checks of
    that route: the rank cutoff finds a nonsingular, the rank identity
    holds, and the regular part, a itself, is nonsingular."""
    n = a.shape[0]
    with _overflow_raises("the split's threshold"):
        fro = norm(a)
        e = 1e-12 * n * fro
        return fro, (2.0 * (fro + e) + e) * e, tol.rank_rtol * (fro + e) ** 2 * n


# The smallest normal and the largest float64.
_TINY = float(np.finfo(np.float64).tiny)
_HUGE = float(np.finfo(np.float64).max)


def _certifies_trivial_split(
    a: np.ndarray, gram: np.ndarray, tol: ToleranceConfig
) -> bool:
    """Whether gram - tau I has a Cholesky factor, for a tau that makes
    that a proof of the test s - slack > cutoff (see _weyl_terms) on the
    singular values s that np.linalg.svd computes for the gate product p
    of a nonempty a, whose computed Gram matrix p* p is gram.
    Overwrites gram's diagonal.

    Let f2 = trace(gram) = ||p||_F^2 to rounding and g = 4 (n + 2) u, u
    the unit roundoff, which bounds complex inner products of length n
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.6).  Then
    gram = p* p + E with ||E||_2 <= g f2, and a Cholesky factorization
    that runs to completion is one of gram - tau I + D, ||D||_2 <= g f2
    (Thm 10.5, with || |R*| |R| ||_2 <= trace(R* R) <= f2 and complex
    constants).  So sigma_min(p)^2 >= tau - 2 g f2, less the rounding
    of the shift itself, u (f2 + tau).  The SVD
    computes sigma_min(p) to within 8 n^2 u ||p||_F (Householder
    bidiagonalization, then a relatively accurate bidiagonal SVD).  tau
    below is twice what those bounds need, plus a term for underflow;
    above f2 / n >= lambda_min(gram) no factor can exist.
    """
    n = gram.shape[0]
    if n == 0:
        return False
    _, slack, cutoff = _weyl_terms(a, tol)
    with np.errstate(over="ignore"):
        f2 = float(np.trace(gram).real)
    if not 0.0 < f2 < _HUGE / (8.0 * n):
        return False
    # s >= theta rounds s - slack to above cutoff.
    theta = (slack + cutoff) * (1.0 + 16.0 * _UNIT)
    if not theta < math.sqrt(f2):
        return False
    g = 4.0 * (n + 2) * _UNIT
    bound = theta + 8.0 * n * n * _UNIT * math.sqrt(f2)
    tau = 2.0 * (bound * bound + 2.0 * g * f2) + 16.0 * n * n * _TINY
    if not tau < f2 / n:
        return False
    gram.flat[:: n + 1] -= tau
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _trivial_split(a: np.ndarray, mode: str) -> RegularSplit:
    return RegularSplit(
        mode=mode,
        regular=a.copy(),
        singular_sigmas=np.zeros(0, dtype=np.float64),
        zero_count=0,
        transform=np.eye(a.shape[0], dtype=np.complex128),
    )


def _split(
    a: np.ndarray, mode: str, tol: ToleranceConfig, certified: bool
) -> RegularSplit:
    """split_regular_singular of an a that passed the class gate, given
    whether the certificate on its Gram matrix proved the split
    trivial."""
    if certified:
        return _trivial_split(a, mode)
    with _overflow_raises("the split"):
        return _split_by_reduction(a, mode, tol)


def _split_by_reduction(
    a: np.ndarray,
    mode: str,
    tol: ToleranceConfig,
    s_product: np.ndarray | None = None,
) -> RegularSplit:
    """The split through regularize, checked by the rank identity on the
    singular values s_product of the gate product p.

    Without s_product, regularize's own singular values usually prove
    every decision that s_product would take (_proves_rank_identity).
    Only when they cannot, or when a is nonsingular, is p formed again
    and its values-only SVD taken, and then the split is trivial if
    their smallest passes the test of _weyl_terms.
    """
    n = a.shape[0]
    reduced = regularize(a, mode, tol)
    m1, m2 = reduced.m1, reduced.m2
    k0 = reduced.core.shape[0] - m2
    order = list(range(k0))
    for i in range(m2):
        order.extend((k0 + i, k0 + m2 + i))
    order.extend(range(k0 + 2 * m2, n))
    split = RegularSplit(
        mode=mode,
        regular=reduced.core[:k0, :k0].copy(),
        singular_sigmas=reduced.sigma.copy(),
        zero_count=m1 - m2,
        transform=reduced.transform[order],
    )
    res = norm(reduced._image[np.ix_(order, order)] - split.assembled())

    proved = False
    if s_product is None:
        fro, slack, cutoff = _weyl_terms(a, tol)
        proved = m1 > 0 and _proves_rank_identity(reduced, res, fro, slack, cutoff, tol)
        if not proved:
            s_product = np.linalg.svd(_gate_product(a, mode), compute_uv=False)
            if n > 0 and float(s_product[-1]) - slack > cutoff:
                return _trivial_split(a, mode)

    off = 0.0
    if m2 > 0 and reduced.core.size:
        off = float(
            np.sqrt(
                norm(reduced.core[:k0, k0:]) ** 2
                + norm(reduced.core[k0:, :k0]) ** 2
                + norm(reduced.core[k0:, k0:]) ** 2
            )
        )
    bound = 100.0 * tol.residual_rtol * max(1.0, norm(a))
    if off > bound:
        raise PreconditionError(
            "bordering blocks did not vanish; input is not numerically in class",
            residual=off,
        )

    # Independent rank identity for the number of elementary blocks.
    # The product rank is measured against ||a||^2: the product of a
    # singular a with itself can be pure rounding noise, and its own
    # largest singular value is then a meaningless scale.
    spectral_norm = float(reduced._sigma[0]) if n else 0.0
    if not proved:
        m2_check = n - m1 - _rank_of_values(s_product, n, tol, scale=spectral_norm ** 2)
        if m2_check != m2:
            raise ConvergenceError(
                f"rank identity gives {m2_check} elementary blocks, reduction gives {m2}"
            )

    if res > bound:
        raise ConvergenceError(
            f"split residual {res:.3e} exceeds {bound:.3e}"
        )
    if k0 > 0 and not proved:
        # The rank identity usually proves the regular part nonsingular
        # at its own cutoff, which spares a rank check of its own.
        # p = conj(a) a (or a^2) is unitarily similar to the
        # same product of assembled() + E, ||E|| <= e: the residual just
        # measured, widened far beyond rounding.  The product of
        # assembled() is that of the regular part r plus zeros, as the
        # elementary blocks square to zero, and ||r|| <= s + e with
        # s = ||a||_2.  Weyl's inequality gives sigma_min(r) ||r|| >=
        # sigma_k0(p) - 2 (s + e) e - e^2; above rank_rtol (s + e)^2 k0,
        # that is rank(r) == k0.  Without that proof, as when bordering
        # blocks pass the vanishing test above yet exceed the rank
        # cutoff, the regular part gets its own rank check.
        e = res + 1e-12 * n * spectral_norm
        margin = float(s_product[k0 - 1]) - (2.0 * (spectral_norm + e) + e) * e
        threshold = tol.rank_rtol * (spectral_norm + e) ** 2 * k0
        if not margin > threshold and rank(split.regular, tol) < k0:
            raise PreconditionError(
                f"{_COSQUARE_NAMES[mode]} requires a nonsingular regular part; "
                "the split left a singular one"
            )
    return split


def _proves_rank_identity(
    reduced: ReducedForm,
    res: float,
    fro: float,
    slack: float,
    cutoff: float,
    tol: ToleranceConfig,
) -> bool:
    """Whether the singular values sigma of a that regularize computed
    prove every decision that the values-only SVD s of the gate product
    p would take in _split_by_reduction: the test s_n - slack > cutoff
    of _weyl_terms fails, exactly k0 = n - m1 - m2 values of s lie above
    the rank identity's cutoff c = rank_rtol n sigma_1^2, and s_k0
    clears the margin that proves the regular part nonsingular.  reduced
    has m1 > 0, res is the split residual and (fro, slack, cutoff) come
    from _weyl_terms.

    Let A0 be the assembled split, the direct sum of the regular part
    reg and the elementary blocks N, and e = res + 1e-12 n sigma_1 the
    residual widened as _split_by_reduction widens it, so that a is
    unitarily similar to A0 + E with ||E||_2 <= e.  The nonzero singular
    values of A0 are those of reg and the coupling's, so with h = 8 n^2
    u F, the SVD's error on sigma, sigma_min(reg) >= sigma_r(A0) >=
    sigma_r - h - e = l, r = n - m1.  N^2 = conj(N) N = 0, so p is
    unitarily similar to the same product of A0 + E, which is reg^2 (or
    conj(reg) reg) plus zeros up to d = (2 (sigma_1 + h + e) + e) e.
    Weyl's inequality then gives s_k0 >= l^2 - d - w and s_k0+1 <= d +
    w, where w = (g + 8 n^2 u) F^2 bounds the rounding in forming p (g
    as in _certifies_trivial_split) and the SVD's error on s.  Below,
    every error term is doubled, which also covers the rounding in
    evaluating these bounds, plus a term for underflow.  Rounding is
    monotone, so a bound that passes a test evaluated as
    _split_by_reduction evaluates it passes it for s too.
    """
    sigma = reduced._sigma
    n = len(sigma)
    k0 = n - reduced.m1 - reduced.m2
    s1 = float(sigma[0])
    e = res + 1e-12 * n * s1
    h = 8.0 * n * n * _UNIT * fro
    g = 4.0 * (n + 2) * _UNIT
    d = (2.0 * (s1 + h + e) + e) * e
    w = (g + 8.0 * n * n * _UNIT) * fro * fro
    noise = 2.0 * (d + w) + 16.0 * n * n * _TINY
    # The rank identity's cutoff, evaluated as _rank_of_values does.
    c = tol.rank_rtol * s1 ** 2 * n
    if not (noise <= c and noise - slack <= cutoff):
        return False
    if k0 == 0:
        return True
    low = float(sigma[n - reduced.m1 - 1]) - 2.0 * (h + e)
    if not low > 0.0:
        return False
    s_k0 = low * low - noise
    return (
        s_k0 > c
        and s_k0 - (2.0 * (s1 + e) + e) * e > tol.rank_rtol * (s1 + e) ** 2 * k0
    )


def _cosquare(a: np.ndarray, mode: str, tol: ToleranceConfig) -> np.ndarray:
    """The cosquare a^{-T} a (congruence) or a^{-*} a (star) of a
    nonsingular matrix."""
    if rank(a, tol) < a.shape[0]:
        raise PreconditionError(
            f"{_COSQUARE_NAMES[mode]} requires a nonsingular matrix"
        )
    return np.linalg.solve(_adjoint(a, mode), a)
