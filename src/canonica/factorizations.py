"""Matrix factorizations the canonical-form pipelines are built from.

All routines are deterministic for a fixed input and make no random
choices.  Decompositions of structured matrices (symmetric, skew
symmetric, normal) check their structural precondition and raise
PreconditionError when it fails, rather than silently returning junk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .matrix import (
    DEFAULT_TOL,
    ToleranceConfig,
    _norm,
    _normality_residual,
    _relative,
    _unit_scale,
    as_matrix,
    rank,
)

__all__ = [
    "SvdResult",
    "PolarResult",
    "svd",
    "eig_normal",
    "polar",
    "takagi_symmetric",
    "hua_skew",
    "cluster_complex",
    "cluster_real_sorted",
]

# The a priori rounding model that every certificate, here and in
# regularization, proves its decisions with; each proof cites it.
_UNIT = float(np.finfo(np.float64).eps) / 2.0
_TINY = float(np.finfo(np.float64).tiny)


def _product_error(n: int) -> float:
    """g = 4 (n + 2) u: complex products of inner length n, and completed
    Cholesky factors of n x n input, err by g times the Frobenius norms
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.6, 10.5)."""
    return 4.0 * (n + 2) * _UNIT


def _value_error(n: int) -> float:
    """8 n^2 u: the SVD's and eigh's error on the values of n x n x, over ||x||_F."""
    return 8.0 * n * n * _UNIT


def _underflow(n: int) -> float:
    """16 n^2 tiny: what underflow can take from a bound on n x n input."""
    return 16.0 * n * n * _TINY


def _weyl_slack(s: float, e: float) -> float:
    """(2 (s + e) + e) e: how far the gate product of x + E, and by Weyl
    its singular values, lie from x's, for ||x||_2 <= s, ||E||_2 <= e."""
    return (2.0 * (s + e) + e) * e


def _weyl(s: float, e: float, k: int, tol: ToleranceConfig) -> tuple[float, float]:
    """(slack, cutoff): if x's gate product is that of a k x k r, the
    k-th value s_k of x + E's proves rank(r) == k if s_k - slack > cutoff."""
    return _weyl_slack(s, e), tol.rank_rtol * (s + e) ** 2 * k


@dataclass(frozen=True)
class SvdResult:
    """Full singular value decomposition a = u @ diag(sigma) @ v*.

    u and v are square unitaries; sigma is real, nonnegative, and sorted
    nonincreasing, of length min(a.shape).
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class PolarResult:
    """Polar decomposition of a square matrix.

    side "right" means a = w @ q, side "left" means a = q @ w; w is
    unitary and q is Hermitian positive semidefinite either way.
    """

    w: np.ndarray
    q: np.ndarray
    side: str


def svd(a) -> SvdResult:
    a = as_matrix(a)
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    return SvdResult(u=u, sigma=s, v=vh.conj().T)


def cluster_complex(values: np.ndarray, radius: float) -> list[list[int]]:
    """Single-linkage clusters of complex values at the given radius.

    Returns index lists ordered by each cluster's smallest member index.
    """
    values = np.asarray(values, dtype=np.complex128)
    k = len(values)
    if k == 0:
        return []
    # Every pair within radius is within radius in real part, so only
    # pairs inside a window of the values sorted by real part can link.
    # The window is twice the radius wide so that no real-part gap that
    # rounds onto the radius falls outside it.
    order = np.argsort(values.real, kind="stable")
    re = values.real[order]
    ends = np.searchsorted(re, re + 2.0 * radius, side="right")
    counts = np.maximum(ends - np.arange(1, k + 1), 0)
    lo = np.repeat(np.arange(k), counts)
    hi = lo + 1 + np.arange(len(lo)) - np.repeat(np.cumsum(counts) - counts, counts)
    left, right = order[lo], order[hi]
    d = values[left] - values[right]
    # hypot, as abs of a complex scalar computes it; the array abs may
    # differ in the last bit.
    near = np.hypot(d.real, d.imag) <= radius
    i, j = left[near], right[near]

    # Connected components of the near pairs: every index takes the
    # smallest label among its neighbours, then follows its label's
    # label (pointer jumping), until nothing changes.  A label always
    # names a member of its own component no larger than the index, so
    # at the fixed point each component carries its smallest member.
    labels = np.arange(k)
    while True:
        new = labels.copy()
        np.minimum.at(new, i, labels[j])
        np.minimum.at(new, j, labels[i])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new

    members = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[members])) + 1
    return [group.tolist() for group in np.split(members, starts)]


def _pair_clusters(
    values: np.ndarray, partner, mu_first, radius: float
) -> tuple[list[tuple[complex, list[int]]], list[tuple[list[int], list[int]]]]:
    """Pair the values under an involution by folding them onto one side.

    partner maps values to the values they pair with (z -> 1/z or
    1/conj(z)), and mu_first(values, radius) marks those on the mu side.
    Each value off that side is replaced by its partner, and the folded
    values are clustered once.  A cluster the partner map fixes is a
    fixed cluster: one of its folded values lies within radius of its
    own image, as single linkage would join the two.  Any other cluster
    splits into its mu-side indices and the indices of their partners.
    Returns (fixed, pairs): fixed lists (mean of the unfolded values,
    indices), pairs lists (mu indices, partner indices), both by each
    cluster's smallest index.  Raises PreconditionError when the two
    sides of a cluster differ in size.
    """
    on_mu_side = mu_first(values, radius)
    folded = values.copy()
    folded[~on_mu_side] = partner(values[~on_mu_side])
    moved = np.abs(partner(folded) - folded)
    fixed: list[tuple[complex, list[int]]] = []
    pairs: list[tuple[list[int], list[int]]] = []
    for idx in cluster_complex(folded, radius):
        if np.min(moved[idx]) <= radius:
            fixed.append((complex(np.mean(values[idx])), idx))
            continue
        mu_idx = [i for i in idx if on_mu_side[i]]
        partner_idx = [i for i in idx if not on_mu_side[i]]
        if len(mu_idx) != len(partner_idx):
            raise PreconditionError(
                "eigenvalues do not pair up under the pairing map; "
                "input is not numerically in class"
            )
        pairs.append((mu_idx, partner_idx))
    return fixed, pairs


def cluster_real_sorted(values: np.ndarray, radius: float) -> list[list[int]]:
    """Clusters of a real array already sorted (either direction).

    Contiguity makes single linkage a linear scan over adjacent gaps.
    """
    values = np.asarray(values, dtype=np.float64)
    clusters: list[list[int]] = []
    for i in range(len(values)):
        if clusters and abs(values[i] - values[clusters[-1][-1]]) <= radius:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def eig_normal(a, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Unitary eigendecomposition of a normal matrix.

    Returns (lam, u) with a = u @ diag(lam) @ u* and u unitary.  Works by
    diagonalizing the Hermitian part; within a cluster of its eigenvalues
    the columns are eigenvectors of a only up to the skew-Hermitian part
    restricted to the cluster.  A cluster whose Rayleigh residual, at
    unit scale, exceeds the rounding error of a u (capped far below the
    cluster radius and the residual bound) is rotated to the
    eigenvectors of that restriction, another Hermitian eigenproblem;
    in any other cluster that restriction is rounding noise, and its
    eigh is skipped.  When the reconstruction misses the residual
    bound, a second try rotates every cluster and also diagonalizes the
    Hermitian part within each cluster of the skew part's eigenvalues.
    Raises PreconditionError when rel_residual(a* a,
    a a*), measured on a scaled by 2^-e (_unit_scale), exceeds
    residual_rtol; the reconstruction usually proves that it does not
    (_proved_normal), and the two products of that residual are then
    never formed.  Every check runs at that scale; lam and u are those
    of a itself.
    """
    a = as_matrix(a, square=True)
    n = a.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.complex128), np.zeros((0, 0), dtype=np.complex128)
    unit, e = _unit_scale(a)
    fro = _norm(unit)
    # Not held through the eighs (see _rayleigh); the two rare paths
    # below that need it scale a again.
    del unit

    h = _hermitian_part(a)
    hvals, u = np.linalg.eigh(h)
    del h

    # Cluster radius is tied to the overall spectral scale so that a
    # zero Hermitian part still lands in a single cluster.  The spectral
    # norm lies between max(max|hvals|, ||a||_F / sqrt(n)) and ||a||_F,
    # and single linkage on sorted values only asks which adjacent gaps
    # are within the radius.  When no gap lies between the radii at the
    # two ends of that bracket (widened far beyond rounding), either
    # end gives the clusters of the exact norm, and its SVD is skipped.
    scale = 2.0**e
    margin = 1e-12 * n
    lo = max(float(np.max(np.abs(hvals))), fro * scale / np.sqrt(n)) * (1.0 - margin)
    radius = tol.cluster_rtol * lo
    gaps = np.abs(np.diff(hvals))
    if np.any((gaps > radius) & (gaps <= tol.cluster_rtol * fro * scale * (1.0 + margin))):
        radius = tol.cluster_rtol * _norm(_unit_scale(a, e)[0], "spectral") * scale
    clusters = [idx for idx in cluster_real_sorted(hvals, radius) if len(idx) > 1]
    bound = tol.residual_rtol * fro
    lam, res = _rayleigh(a, u, e)
    # A cluster is rotated only when its columns' Rayleigh residual r_c
    # (at unit scale) exceeds what rounding in the product a u alone can
    # put there, _product_error(n) ||a||_F per column, or a cap.  The
    # restriction of a to those columns less its diagonal lam_c is
    # u_c* r_c, so lam_c lies within about ||r_c||_F of that
    # restriction's eigenvalues (Hoffman-Wielandt), which the rotation
    # would give.  The cap is 2^-10 of the smallest radius the bracket
    # allows, cluster_rtol ||a||_F / sqrt(n), so that a skip moves no
    # value across a decision taken at a cluster radius unless rounding
    # could move it there too, and a quarter of the bound over all
    # clusters, so that the skipped ones cannot make the reconstruction
    # miss it.  Neither depends on the end of the bracket taken.
    noise = _product_error(n) * fro
    cap = fro * min(
        2.0**-10 * tol.cluster_rtol / math.sqrt(n),
        tol.residual_rtol / (4.0 * math.sqrt(max(1, len(clusters)))),
    )
    # The squared residual of each column, summed on the float64 view
    # of res, which forms no temporary of its size.
    parts = res.view(np.float64)
    sums = np.einsum("ij,ij->j", parts, parts)
    squares = sums[0::2] + sums[1::2]
    noisy = [
        idx
        for idx in clusters
        if float(np.sum(squares[idx])) > min(noise * noise * len(idx), cap * cap)
    ]
    if noisy:
        _diagonalize_clusters(u, noisy, None, _skew_part(a), None)
        for idx in noisy:
            lam[idx], res[:, idx] = _rayleigh(a, u[:, idx], e)
    recon = _norm(res)
    del res
    if not _proved_normal(_unit_scale(lam, e)[0], recon, fro, tol.residual_rtol / 2.0):
        res = _normality_residual(_unit_scale(a, e)[0])[0]
        PreconditionError._check("matrix is not normal", res, tol.residual_rtol)
    if recon > bound and clusters:
        # Inside a cluster the skew part can be rounding noise, and its
        # eigh then rotates vectors that h still tells apart (by less
        # than the radius, but more than the residual bound allows).
        # Start over and let h decide within each skew-part sub-cluster.
        # Without clusters that would rebuild the same u.
        h = _hermitian_part(a)
        _, u = np.linalg.eigh(h)
        _diagonalize_clusters(u, clusters, h, _skew_part(a), radius)
        del h
        lam, res = _rayleigh(a, u, e)
        recon = _norm(res)
        del res
    ConvergenceError._check("eigendecomposition", recon, bound)
    return lam, u


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """h = (a + a*) / 2, formed in place in one C-ordered array."""
    h = np.conjugate(a.T, out=np.empty(a.shape, dtype=np.complex128))
    h += a
    h /= 2.0
    return h


def _skew_part(a: np.ndarray) -> np.ndarray:
    """k = (a - a*) / 2i, formed in place in one C-ordered array:
    a = h + i k with h and k Hermitian."""
    k = np.conjugate(a.T, out=np.empty(a.shape, dtype=np.complex128))
    np.subtract(a, k, out=k)
    k /= 2.0j
    return k


def _rayleigh(a: np.ndarray, u: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """The Rayleigh quotients lam of a on the columns of u, and the
    residual 2^-e (a u - u diag(lam)), scaled in place (_unit_scale),
    where its norm does not overflow.  With u unitary to rounding, the
    residual's norm is the backward error ||a - u diag(lam) u*|| at that
    scale, and the one product a u serves both."""
    au = a @ u
    # One temporary w, of u's shape, holds conj(u) * au, then u diag(lam).
    w = u.conj()
    w *= au
    lam = np.sum(w, axis=0)
    np.multiply(u, lam, out=w)
    au -= w
    del w
    if e:
        parts = au.view(np.float64)
        np.ldexp(parts, -e, out=parts)
    return lam, au


def _proved_normal(lam: np.ndarray, recon: float, fro: float, target: float) -> bool:
    """Whether the reconstruction a u = u diag(lam) + r, ||r||_F = recon
    as _rayleigh measured it and fro = ||a||_F, proves that
    rel_residual(a* a, a a*), as eig_normal computes it, is at most
    target.

    u comes from eigh and from rotations by eigh's eigenvectors, which
    LAPACK makes unitary to a modest multiple of n eps (measured below
    0.2 n eps at n = 128 and 250); the bound takes ||u* u - I||_2 <= d =
    64 n eps.  With g = _product_error(n), the exact ||r||_F is at most
    recon + g fro sqrt(2 n) + 3 u sqrt(2) ||lam||.  If u = q p is the polar
    decomposition, ||p - I||_2 <= d and a = q diag(lam) q* + f with
    ||f||_F <= (||r||_F + 2 d ||lam||) / sqrt(1 - d).  Then
    ||a* a - a a*||_F <= 2 phi with phi = ||f||_F (2 max|lam| +
    ||f||_F), and ||a* a||_F = ||a a*||_F >= sqrt(sum |lam|^4) - phi.
    The products and their difference, as formed, add at most
    (2 g + 3 u) fro^2 to the numerator and take g fro^2 each from the
    denominator.  A relative 1e-6 covers the rounding in the norms.
    """
    n = len(lam)
    u = _UNIT
    g = _product_error(n)
    d = 128.0 * n * u
    # Sums of powers of |lam| relative to the largest, which cannot
    # overflow; the scalars are Python floats, which overflow to inf.
    mag = np.abs(lam)
    top = float(np.max(mag))
    rel = mag / top if top > 0.0 else mag
    lam_max = top * (1.0 + 1e-6)
    lam_fro = top * float(np.sqrt(np.sum(rel * rel))) * (1.0 + 1e-6)
    quartic = top * top * float(np.sqrt(np.sum(rel**4))) * (1.0 - 1e-6)
    fro = fro * (1.0 + 1e-6)
    r = (
        recon * (1.0 + 1e-6)
        + g * fro * math.sqrt(2.0 * n)
        + 3.0 * u * math.sqrt(2.0) * lam_fro
    )
    f = (r + 2.0 * d * lam_fro) / math.sqrt(1.0 - d)
    phi = f * (2.0 * lam_max + f)
    numerator = 2.0 * phi + (2.0 * g + 3.0 * u) * fro * fro
    denominator = max(1.0, 2.0 * (quartic - phi - g * fro * fro))
    return numerator <= target * denominator


def _diagonalize_clusters(u, clusters, h, k, radius) -> None:
    """Rotate the columns of u in each cluster to the eigenvectors of
    the restriction of k; with a radius, also to those of the
    restriction of h within each sub-cluster of k's eigenvalues."""
    for idx in clusters:
        cols = u[:, idx]
        kr = cols.conj().T @ k @ cols
        kr = (kr + kr.conj().T) / 2.0
        kvals, w = np.linalg.eigh(kr)
        if radius is not None:
            for sub in cluster_real_sorted(kvals, radius):
                if len(sub) > 1:
                    c = cols @ w[:, sub]
                    hr = c.conj().T @ h @ c
                    _, wh = np.linalg.eigh((hr + hr.conj().T) / 2.0)
                    w[:, sub] = w[:, sub] @ wh
        u[:, idx] = cols @ w


def polar(a, side: str = "right") -> PolarResult:
    """Polar decomposition via the SVD; valid for singular input too."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    a = as_matrix(a, square=True)
    f = svd(a)
    w = f.u @ f.v.conj().T
    if side == "right":
        q = (f.v * f.sigma) @ f.v.conj().T
    else:
        q = (f.u * f.sigma) @ f.u.conj().T
    q = (q + q.conj().T) / 2.0
    return PolarResult(w=w, q=q, side=side)


def takagi_symmetric(
    a, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric SVD: a = v @ diag(sigma) @ v.T with v unitary.

    The input must be complex symmetric.  sigma is sorted nonincreasing.

    Construction: with a = p + i q, p and q real symmetric, the real
    symmetric m = [[p, q], [q, -p]] has the eigenvalues +-sigma.  An
    eigenvector [x; y] of m for sigma gives v = x + i y with
    a @ conj(v) = sigma v, and the eigenvector [-y; x] for -sigma gives
    i v, so one eigh of m yields the n Takagi vectors of the n largest
    eigenvalues, orthonormal, equal values included.  Rounding mixes
    the eigenvectors of sigma_j with those of -sigma_k by about
    u ||a|| / (sigma_j + sigma_k), which only small values feel: the
    vectors of values at most 2^-10 sigma_1 (those of a rank-deficient
    a among them) are replaced by the unitary basis of the orthogonal
    complement of the others nearest to them, which moves each by about
    that much and its term of a by about u ||a||.  Runs on a scaled by
    2^-e (_unit_scale) and returns 2^e sigma.
    """
    a, e = _unit_scale(as_matrix(a, square=True))
    n = a.shape[0]
    PreconditionError._check(
        "matrix is not symmetric", _relative(a, a.T, 1.0), tol.residual_rtol
    )
    if n == 0:
        return np.zeros(0, dtype=np.float64), np.zeros((0, 0), dtype=np.complex128)
    a = (a + a.T) / 2.0

    m = np.empty((2 * n, 2 * n))
    m[:n, :n] = a.real
    m[:n, n:] = a.imag
    m[n:, :n] = a.imag
    np.negative(a.real, out=m[n:, n:])
    values, q = np.linalg.eigh(m)
    del m
    # The n largest eigenvalues, nonincreasing; those of a zero sigma
    # may round below zero.
    sigma = np.maximum(values[n:][::-1], 0.0)
    top = q[:, n:][:, ::-1]
    v = np.empty((n, n), dtype=np.complex128)
    v.real = top[:n]
    v.imag = top[n:]
    del q, top

    r = int(np.count_nonzero(sigma > 2.0**-10 * sigma[0]))
    if r < n:
        if r:
            rest = np.linalg.qr(v[:, :r], mode="complete")[0][:, r:]
        else:
            rest = np.eye(n, dtype=np.complex128)
        left, _, right = np.linalg.svd(rest.conj().T @ v[:, r:])
        v[:, r:] = rest @ (left @ right)

    recon = _norm(a - (v * sigma) @ v.T)
    ConvergenceError._check("symmetric SVD", recon, tol.residual_rtol * _norm(a))
    return np.ldexp(sigma, e), v


def hua_skew(a, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Skew-symmetric analogue of takagi_symmetric.

    Returns (tau, v) with a = v @ s @ v.T where s is the direct sum of
    the blocks tau_j * [[0, 1], [-1, 0]] and v is unitary.  Requires a
    nonsingular complex skew-symmetric input, which forces even order.

    The pairing below exploits that for skew-symmetric a and a unit
    right singular vector x with value t, the vector y = conj(a @ x)/t
    is again a right singular vector for t, orthogonal to x, with
    a @ x = t * conj(y) and a @ y = -t * conj(x).  Runs on a scaled by
    2^-e (_unit_scale) and returns 2^e tau.
    """
    a, e = _unit_scale(as_matrix(a, square=True))
    n = a.shape[0]
    PreconditionError._check(
        "matrix is not skew-symmetric", _relative(a, -a.T, 1.0), tol.residual_rtol
    )
    if n % 2 == 1:
        raise PreconditionError("skew-symmetric input must have even order")
    if rank(a, tol) < n:
        raise PreconditionError("matrix is singular")
    a = (a - a.T) / 2.0
    if n == 0:
        return np.zeros(0, dtype=np.float64), np.zeros((0, 0), dtype=np.complex128)

    gram = a.conj().T @ a
    gram = (gram + gram.conj().T) / 2.0
    evals, q = np.linalg.eigh(gram)
    svals = np.sqrt(np.clip(evals, 0.0, None))
    order = np.argsort(svals)[::-1]
    svals = svals[order]
    q = q[:, order]

    radius = tol.cluster_rtol * float(svals[0])
    pairs: list[tuple[float, np.ndarray, np.ndarray]] = []
    for idx in cluster_real_sorted(svals, radius):
        if len(idx) % 2 == 1:
            raise ConvergenceError(
                "could not pair singular values of the skew-symmetric input"
            )
        basis = q[:, idx].copy()
        while basis.shape[1] > 0:
            x = basis[:, 0]
            ax = a @ x
            t = float(np.linalg.norm(ax))
            y = np.conj(ax) / t
            # Keep y inside the current subspace and orthogonal to x.
            y = basis @ (basis.conj().T @ y)
            y = y - x * (x.conj() @ y)
            ny = float(np.linalg.norm(y))
            if ny < 0.5:
                raise ConvergenceError("singular vector pairing degenerated")
            y = y / ny
            pairs.append((t, x, y))
            rest = basis[:, 1:]
            rest = rest - np.outer(x, x.conj() @ rest) - np.outer(y, y.conj() @ rest)
            if rest.shape[1] > 1:
                # Orthonormalize what is left of the cluster basis.
                bu, bs, _ = np.linalg.svd(rest, full_matrices=False)
                basis = bu[:, : rest.shape[1] - 1]
            else:
                # The one column left lies in span(x, y): the cluster
                # is used up.
                basis = rest[:, :0]

    pairs.sort(key=lambda item: -item[0])
    cols = []
    taus = []
    for t, x, y in pairs:
        cols.append(np.conj(x))
        cols.append(-np.conj(y))
        taus.append(t)
    v = np.column_stack(cols)

    sblocks = np.zeros((n, n), dtype=np.complex128)
    for j, t in enumerate(taus):
        sblocks[2 * j, 2 * j + 1] = t
        sblocks[2 * j + 1, 2 * j] = -t
    recon = _norm(a - v @ sblocks @ v.T)
    ConvergenceError._check("skew-symmetric SVD", recon, tol.residual_rtol * _norm(a))
    return np.ldexp(np.array(taus, dtype=np.float64), e), v
