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
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .factorizations import _UNIT, _product_error, _underflow, _value_error
from .factorizations import _weyl, _weyl_slack, svd
from .matrix import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    matrix_to_json,
    _adjoint,
    _cosquare,
    _norm,
    _normality_residual,
    _rank_of_values,
    _unit_scale,
    rank,
)

__all__ = ["ReducedForm", "RegularSplit", "regularize", "split_regular_singular"]

MODES = ("congruence", "star")
_COSQUARE_NAMES = {"congruence": "cosquare", "star": "star_cosquare"}
_GATE_FLAGS = {"congruence": "congruence_normal", "star": "squared_normal"}


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
    input reduces to nothing but zeros.  The transform is unitary.  It
    runs on a scaled by 2^-e (_unit_scale); what scales with a scales back.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    a, e = _unit_scale(as_matrix(a, square=True))
    n = a.shape[0]
    # Only u and the singular values are read: v is dropped at once.
    f = svd(a)
    u, s = f.u, f.sigma
    del f
    spectral_norm = float(s[0]) if n else 0.0
    r = _rank_of_values(s, n, tol, scale=spectral_norm)
    if r in (0, n):
        # The identity reduces a: a is nonsingular (r = n) or
        # numerically zero (r = 0).
        m2, transform, sigma = 0, np.eye(n, dtype=np.complex128), np.zeros(0)
        image = a.copy()
    else:
        # The transform's rows: v1^H and v2^H project onto the range of
        # a and its orthogonal complement (v2^H a = 0), and the SVD of
        # the coupling v1^H a adj(v2^H) rotates each block of rows so
        # that the coupling becomes sigma in the core's trailing rows.
        u_h = u.conj().T
        del u
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
            transform = np.empty((n, n), dtype=np.complex128)
            np.matmul(x_h, v1_h, out=transform[:r])
            np.matmul(_adjoint(g.v, mode), v2_h, out=transform[r:])
            sigma = g.sigma[:m2].copy()
            del g, x_h
        del u_h, v1_h, v2_h
        image = transform @ a @ _adjoint(transform, mode)
    # The core t1 a adj(t1), t1 the transform's leading r rows, is the
    # image's leading block.  Adding 0.0 copies it and turns a -0.0
    # entry, a sum of negative zeros, into 0.0: the zeros of the reduced
    # form print without a sign.
    core = image if r == n else image[:r, :r] + 0.0
    form = ReducedForm(
        mode=mode,
        m1=n - r,
        m2=m2,
        core=_unit_scale(core, -e)[0],
        sigma=np.ldexp(sigma, e),
        transform=transform,
        _sigma=np.ldexp(s, e),
        _image=_unit_scale(image, -e)[0],
    )
    if 0 < r < n:
        # image - the assembled form at unit scale, which is +0.0 off the
        # core and the sigma entries: x - 0.0 = x, so subtracting only
        # those in place on a copy gives the difference bit for bit.
        diff = image.copy()
        del image, core
        diff[:r, :r] -= _unit_scale(form.core, e)[0]
        k = r - m2
        for i, v in enumerate(_unit_scale(form.sigma, e)[0]):
            diff[k + i, r + i] -= v
        res = _norm(diff)
        ConvergenceError._check("regularization", res, tol.residual_rtol * _norm(a))
    return form


def split_regular_singular(
    a, mode: str, tol: ToleranceConfig = DEFAULT_TOL
) -> RegularSplit:
    """Split a congruence-normal (or squared-normal) matrix.

    Requires the class membership matching the mode; the bordering
    blocks then vanish and the reduced form is a direct sum of a
    nonsingular matrix of the same class, blocks sigma_i*[[0,1],[0,0]],
    and zeros.  Raises PreconditionError when the regular part it finds
    is numerically singular.  It runs on a scaled by 2^-e (_unit_scale).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    a, e, certified = _gated(as_matrix(a, square=True), mode, tol)
    split = _split(a, mode, tol, certified)
    if split.transform is None:
        # A trivial split holds a itself: hand out a copy and the identity.
        split = replace(split, regular=a.copy(), transform=np.eye(len(a), dtype=np.complex128))
    regular, sigmas = _unit_scale(split.regular, -e)[0], np.ldexp(split.singular_sigmas, e)
    return replace(split, regular=regular, singular_sigmas=sigmas)


def _gated(a: np.ndarray, mode: str, tol: ToleranceConfig) -> tuple[np.ndarray, int, bool]:
    """(2^-e a, e, certified) for a square matrix a (as_matrix) that
    passes the class gate of the mode (_gate), with e that of
    _unit_scale and certified the gate's certificate; PreconditionError
    for an a that does not."""
    a, e = _unit_scale(a)
    gate, certified = _gate(a, mode, tol)
    PreconditionError._check(
        f"input is not {_GATE_FLAGS[mode].replace('_', ' ')}", gate, tol.residual_rtol
    )
    return a, e, certified


def _gate_product(a: np.ndarray, mode: str) -> np.ndarray:
    """The gate product p of the mode, conj(a) a or a^2."""
    return a.conj() @ a if mode == "congruence" else a @ a


def _gate(a: np.ndarray, mode: str, tol: ToleranceConfig) -> tuple[float, bool]:
    """The class gate of the mode: the normality residual of its gate
    product p, and whether the certificate on the Gram matrix p* p it
    was measured on proves the split trivial.  The certificate runs only
    when the gate passes, and the Gram matrix (an n x n array) is
    dropped before the split runs.  Both are measured at unit scale."""
    a, _ = _unit_scale(a)
    residual, gram = _normality_residual(_gate_product(a, mode))
    return residual, (
        residual <= tol.residual_rtol and _certifies_trivial_split(a, gram, tol)
    )


def _weyl_terms(a: np.ndarray, tol: ToleranceConfig) -> tuple[float, float, float]:
    """(F, slack, cutoff), F = ||a||_F: the margin of _weyl for a itself,
    with F >= ||a||_2 and e = 1e-12 n F, far beyond the rounding in p.
    The smallest value s of the gate product p passing s - slack >
    cutoff implies all three checks of _split_by_reduction: the rank
    cutoff finds a nonsingular, the rank identity holds, and the regular
    part, a itself, is nonsingular."""
    n = a.shape[0]
    fro = _norm(a)
    return (fro, *_weyl(fro, 1e-12 * n * fro, n, tol))


def _certifies_trivial_split(
    a: np.ndarray, gram: np.ndarray, tol: ToleranceConfig
) -> bool:
    """Whether gram - tau I has a Cholesky factor, for a tau that makes
    that a proof of the test s - slack > cutoff (_weyl_terms) on the
    values s that np.linalg.svd computes for the gate product p of a
    nonempty a, whose computed Gram matrix p* p is gram.  Overwrites
    gram's diagonal.

    With f2 = trace(gram) and g = _product_error(n), gram and a
    completed factorization each err by g f2, so sigma_min(p)^2 >= tau -
    2 g f2 - u (f2 + tau), the last the shift's rounding; the SVD adds
    _value_error(n) sqrt(f2).  tau doubles what these need, plus
    _underflow(n); above f2 / n >= lambda_min(gram) no factor exists.
    """
    n = gram.shape[0]
    _, slack, cutoff = _weyl_terms(a, tol)
    f2 = float(np.trace(gram).real)
    # s >= theta rounds s - slack to above cutoff.  No theta >= 0 passes
    # for a zero gram, the empty one included.
    theta = (slack + cutoff) * (1.0 + 16.0 * _UNIT)
    if not theta < math.sqrt(f2):
        return False
    bound = theta + _value_error(n) * math.sqrt(f2)
    tau = 2.0 * (bound * bound + 2.0 * _product_error(n) * f2) + _underflow(n)
    if not tau < f2 / n:
        return False
    gram.flat[:: n + 1] -= tau
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _trivial_split(a: np.ndarray, mode: str) -> RegularSplit:
    """The split of a nonsingular a: a itself and no transform (None),
    which stands for the identity.  pipeline._canon reads neither the
    transform of a trivial split nor writes to its regular part."""
    return RegularSplit(
        mode=mode,
        regular=a,
        singular_sigmas=np.zeros(0, dtype=np.float64),
        zero_count=0,
        transform=None,
    )


def _split(a: np.ndarray, mode: str, tol: ToleranceConfig, certified: bool) -> RegularSplit:
    """The split of an a at unit scale that passed the class gate, given
    whether the certificate on its Gram matrix proved the split trivial;
    a trivial split is a itself with no transform (_trivial_split)."""
    if certified:
        return _trivial_split(a, mode)
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
    # The image with rows and columns permuted, minus the assembled
    # split, formed in place as regularize forms its own residual.
    diff = reduced._image[np.ix_(order, order)]
    diff[:k0, :k0] -= reduced.core[:k0, :k0]
    for i, v in enumerate(reduced.sigma):
        diff[k0 + 2 * i, k0 + 2 * i + 1] -= v
    res = _norm(diff)
    del diff

    off = 0.0
    if m2 > 0 and reduced.core.size:
        off = float(
            np.sqrt(
                _norm(reduced.core[:k0, k0:]) ** 2
                + _norm(reduced.core[k0:, :k0]) ** 2
                + _norm(reduced.core[k0:, k0:]) ** 2
            )
        )
    proved = False
    if s_product is None:
        fro, slack, cutoff = _weyl_terms(a, tol)
        proved = m1 > 0 and _proves_rank_identity(reduced, res, fro, slack, cutoff, tol)
    spectral_norm = float(reduced._sigma[0]) if n else 0.0
    split = RegularSplit(
        mode=mode,
        regular=reduced.core[:k0, :k0].copy(),
        singular_sigmas=reduced.sigma.copy(),
        zero_count=m1 - m2,
        transform=reduced.transform[order],
    )
    # regularize's image, core and transform go before p is formed.
    del reduced
    if s_product is None and not proved:
        s_product = np.linalg.svd(_gate_product(a, mode), compute_uv=False)
        if n > 0 and float(s_product[-1]) - slack > cutoff:
            return _trivial_split(a, mode)

    bound = 100.0 * tol.residual_rtol * _norm(a)
    PreconditionError._check(
        "bordering blocks did not vanish; input is not numerically in class", off, bound
    )

    # Independent rank identity for the number of elementary blocks.
    # The product rank is measured against ||a||^2: the product of a
    # singular a with itself can be pure rounding noise, and its own
    # largest singular value is then a meaningless scale.
    if not proved:
        m2_check = n - m1 - _rank_of_values(s_product, n, tol, scale=spectral_norm ** 2)
        if m2_check != m2:
            raise ConvergenceError(
                f"rank identity gives {m2_check} elementary blocks, reduction gives {m2}"
            )

    ConvergenceError._check("split", res, bound)
    if k0 > 0 and not proved:
        # The Weyl margin (_weyl) usually proves the regular part
        # nonsingular: the elementary blocks add nothing to the gate
        # product of the assembled split, which is a up to e.  When it
        # does not, as when bordering blocks pass the vanishing test
        # above yet exceed the rank cutoff, the regular part gets its
        # own rank check.
        e = res + 1e-12 * n * spectral_norm
        slack_k0, cutoff_k0 = _weyl(spectral_norm, e, k0, tol)
        margin = float(s_product[k0 - 1]) - slack_k0
        if not margin > cutoff_k0 and rank(split.regular, tol) < k0:
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
    p would take in _split_by_reduction: the test of _weyl_terms fails,
    exactly k0 = n - m1 - m2 values of s lie above the rank identity's
    cutoff c = rank_rtol n sigma_1^2, and s_k0 proves the regular part
    nonsingular.  reduced has m1 > 0, res is the split residual and
    (fro, slack, cutoff) come from _weyl_terms.

    a is unitarily similar to the assembled split A0 + E, ||E||_2 <= e
    = res + 1e-12 n sigma_1, and A0 is the regular part reg plus
    elementary blocks N with N^2 = conj(N) N = 0.  With h =
    _value_error(n) F, sigma_min(reg) >= sigma_r - h - e = l, r = n -
    m1, and p is reg^2 (or conj(reg) reg) plus zeros up to d =
    _weyl_slack(sigma_1 + h, e).  Weyl's inequality gives s_k0 >= l^2 -
    d - w and s_k0+1 <= d + w, w = (_product_error(n) + _value_error(n))
    F^2.  Each error term is doubled, which covers the rounding in these
    bounds, plus _underflow(n); rounding is monotone, so a bound that
    passes a test as _split_by_reduction evaluates it passes it for s.
    """
    sigma = reduced._sigma
    n = len(sigma)
    k0 = n - reduced.m1 - reduced.m2
    s1 = float(sigma[0])
    e = res + 1e-12 * n * s1
    h = _value_error(n) * fro
    d = _weyl_slack(s1 + h, e)
    w = (_product_error(n) + _value_error(n)) * fro * fro
    noise = 2.0 * (d + w) + _underflow(n)
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
    if not s_k0 > c:
        return False
    slack_k0, cutoff_k0 = _weyl(s1, e, k0, tol)
    return s_k0 - slack_k0 > cutoff_k0


def _checked_cosquare(a: np.ndarray, mode: str, tol: ToleranceConfig) -> np.ndarray:
    """The cosquare of a, or PreconditionError if a is singular at tol."""
    if rank(a, tol) < a.shape[0]:
        raise PreconditionError(
            f"{_COSQUARE_NAMES[mode]} requires a nonsingular matrix"
        )
    return _cosquare(a, mode)
