"""Canonical forms under unitary congruence.

A congruence-normal matrix is unitarily congruent to a direct sum of
1-by-1 blocks [sigma] with sigma >= 0 and 2-by-2 blocks
tau * [[0, 1], [mu, 0]] with tau > 0 and mu != 1, unique up to
permutation and the replacement (tau, mu) -> (tau |mu|, 1/mu).  The
pipeline here recovers that sum together with the unitary that realizes
it: split off the singular part, diagonalize the transpose cosquare of
the regular part, and reduce each spectral summand with the symmetric,
skew-symmetric, or rectangular factorization it calls for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (
    antidiag_block,
    block_diag,
    congruence_one_key,
    congruence_two_key,
    direct_sum,
    normalize_congruence_pair,
    permutation_matrix,
)
from .errors import ConvergenceError, PreconditionError
from .factorizations import (
    cluster_complex,
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
    norm,
    rel_residual,
)
from .predicates import classify
from .regularization import _cosquare, split_regular_singular

__all__ = [
    "CongruenceCanonicalForm",
    "cosquare",
    "canon_congruence",
    "canon_conjugate_normal",
    "canon_unitary",
    "canon_coninvolutory",
    "canon_hermitian_cosquare",
    "assemble_congruence",
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


def assemble_congruence(form: CongruenceCanonicalForm) -> np.ndarray:
    return form.assemble()


def cosquare(a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The transpose cosquare a^{-T} a of a nonsingular matrix."""
    return _cosquare(as_matrix(a, square=True), "congruence", tol)


def _pair_mu_fit(y: np.ndarray, z: np.ndarray, transpose: bool) -> complex:
    # Least squares fit of z = mu * y^T (or mu * y* in star mode).
    ref = y.T if transpose else y.conj().T
    denom = float(np.sum(np.abs(ref) ** 2))
    return complex(np.sum(ref.conj() * z) / denom)


def _grouped_cosquare_clusters(
    lam: np.ndarray, tol: ToleranceConfig
) -> tuple[list[int], list[int], list[tuple[list[int], list[int], complex]]]:
    """Partition cosquare eigenvalues into a +1 group, a -1 group, and
    reciprocal pairs (mu, 1/mu).

    Returns (plus, minus, pairs) index lists, each pair carrying
    (indices_mu, indices_partner, mu_rep) with the mu group inside the
    unit circle or on it with positive imaginary part.
    """
    scale = float(np.max(np.abs(lam))) if len(lam) else 1.0
    radius = tol.cluster_rtol * max(scale, 1.0)
    clusters = cluster_complex(lam, radius)
    means = [complex(np.mean(lam[idx])) for idx in clusters]

    plus: list[int] = []
    minus: list[int] = []
    pairs: list[tuple[list[int], list[int], complex]] = []
    used: set[int] = set()
    for ci, idx in enumerate(clusters):
        if ci in used:
            continue
        rep = means[ci]
        if abs(rep - 1.0) <= radius:
            plus.extend(idx)
            used.add(ci)
            continue
        if abs(rep + 1.0) <= radius:
            minus.extend(idx)
            used.add(ci)
            continue
        target = 1.0 / rep
        best = None
        best_dist = np.inf
        for cj in range(len(clusters)):
            if cj == ci or cj in used:
                continue
            dist = abs(means[cj] - target)
            if dist < best_dist:
                best, best_dist = cj, dist
        match_tol = 10.0 * radius * max(1.0, 1.0 / abs(rep) ** 2)
        if best is None or best_dist > match_tol:
            raise PreconditionError(
                "cosquare spectrum is not closed under reciprocals; "
                "input is not numerically in class"
            )
        if len(clusters[best]) != len(idx):
            raise PreconditionError(
                "reciprocal eigenvalue groups of the cosquare differ in size"
            )
        used.update((ci, best))
        partner = means[best]
        # Pick the group whose value is the stored mu: inside the unit
        # circle, or on it with positive imaginary part.
        if abs(abs(rep) - 1.0) <= radius:
            mu_first = rep.imag > 0.0
        else:
            mu_first = abs(rep) < 1.0
        if mu_first:
            pairs.append((list(idx), list(clusters[best]), rep))
        else:
            pairs.append((list(clusters[best]), list(idx), partner))
    if len(minus) % 2 == 1:
        raise PreconditionError(
            "eigenvalue -1 of the cosquare must have even multiplicity"
        )
    return plus, minus, pairs


def canon_congruence(
    a, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[CongruenceCanonicalForm, np.ndarray]:
    """Canonical form and transform of a congruence-normal matrix.

    Returns (form, t) with t unitary and t @ a @ t.T equal to
    form.assemble() within the residual tolerance.
    """
    a = as_matrix(a, square=True)
    n = a.shape[0]
    split = split_regular_singular(a, "congruence", tol)
    k = split.regular.shape[0]

    # Records: ("one", sigma, [index]) or ("two", (tau, mu), [i, j]),
    # indices referring to positions in the pre-sort direct sum.
    records: list[tuple[str, object, list[int]]] = []
    if k > 0:
        reg = split.regular
        cos = _cosquare(reg, "congruence", tol, proved=split._regular_nonsingular)
        lam, u_eig = eig_normal(cos, tol)
        plus, minus, pairs = _grouped_cosquare_clusters(lam, tol)

        order = plus + minus
        for idx_mu, idx_inv, _ in pairs:
            order.extend(idx_mu)
            order.extend(idx_inv)
        u_g = u_eig[:, order]
        b = u_g.T @ reg @ u_g

        locals_: list[np.ndarray] = []
        offset = 0
        if plus:
            p = len(plus)
            bp = b[:p, :p]
            sig, vtak = takagi_symmetric((bp + bp.T) / 2.0, tol)
            locals_.append(vtak.conj().T)
            for i, s in enumerate(sig):
                records.append(("one", float(s), [offset + i]))
            offset += p
        if minus:
            m = len(minus)
            bm = b[offset : offset + m, offset : offset + m]
            taus, vhua = hua_skew((bm - bm.T) / 2.0, tol)
            locals_.append(vhua.conj().T)
            for j, t in enumerate(taus):
                records.append(
                    ("two", (float(t), complex(-1.0)), [offset + 2 * j, offset + 2 * j + 1])
                )
            offset += m
        for idx_mu, idx_inv, _ in pairs:
            g = len(idx_mu)
            bj = b[offset : offset + 2 * g, offset : offset + 2 * g]
            y = bj[:g, g:]
            z = bj[g:, :g]
            mu_fit = _pair_mu_fit(y, z, transpose=True)
            f = svd(y)
            local = block_diag([f.u.conj().T, f.v.T])
            interleave = []
            for i in range(g):
                interleave.extend((i, g + i))
            local = permutation_matrix(interleave) @ local
            locals_.append(local)
            for i in range(g):
                tau_n, mu_n = normalize_congruence_pair(float(f.sigma[i]), mu_fit, tol)
                records.append(
                    ("two", (tau_n, mu_n), [offset + 2 * i, offset + 2 * i + 1])
                )
            offset += 2 * g
        t_reg = block_diag(locals_) @ u_g.T
    else:
        t_reg = np.zeros((0, 0), dtype=np.complex128)

    for i, s in enumerate(split.singular_sigmas):
        records.append(("two", (float(s), 0.0 + 0.0j), [k + 2 * i, k + 2 * i + 1]))
    m2 = len(split.singular_sigmas)
    for j in range(split.zero_count):
        records.append(("one", 0.0, [k + 2 * m2 + j]))

    t_pre = block_diag([t_reg, np.eye(n - k, dtype=np.complex128)]) @ split.transform

    ones = sorted(
        (rec for rec in records if rec[0] == "one"),
        key=lambda rec: congruence_one_key(rec[1]),
    )
    twos = sorted(
        (rec for rec in records if rec[0] == "two"),
        key=lambda rec: congruence_two_key(rec[1]),
    )
    order_final: list[int] = []
    for rec in ones:
        order_final.extend(rec[2])
    for rec in twos:
        order_final.extend(rec[2])
    transform = permutation_matrix(order_final) @ t_pre

    form = CongruenceCanonicalForm.build(
        [rec[1] for rec in ones], [rec[1] for rec in twos]
    )
    res = norm(transform @ a @ transform.T - form.assemble())
    bound = tol.residual_rtol * max(1.0, norm(a))
    if res > bound:
        raise ConvergenceError(
            f"canonical form residual {res:.3e} exceeds {bound:.3e}"
        )
    return form, transform


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
    clusters = cluster_complex(values, radius)
    means = [complex(np.mean(values[idx])) for idx in clusters]
    used: set[int] = set()
    for ci, idx in enumerate(clusters):
        if ci in used:
            continue
        rep = means[ci]
        if abs(rep.imag) <= radius:
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
            used.add(ci)
            continue
        if rep.imag < 0.0:
            continue  # handled from the conjugate partner
        target = rep.conjugate()
        best, best_dist = None, np.inf
        for cj in range(len(clusters)):
            if cj == ci or cj in used:
                continue
            dist = abs(means[cj] - target)
            if dist < best_dist:
                best, best_dist = cj, dist
        if best is None or best_dist > 10.0 * radius:
            raise PreconditionError(
                "spectrum of conj(a) a is not closed under conjugation"
            )
        if len(clusters[best]) != len(idx):
            raise PreconditionError(
                "conjugate eigenvalue groups of conj(a) a differ in size"
            )
        used.update((ci, best))
        for i in idx:
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
    radius = tol.cluster_rtol
    clusters = cluster_complex(lam, radius)
    means = [complex(np.mean(lam[idx])) for idx in clusters]
    ones_count = 0
    thetas: list[float] = []
    used: set[int] = set()
    for ci, idx in enumerate(clusters):
        if ci in used:
            continue
        rep = means[ci]
        if abs(rep - 1.0) <= radius:
            ones_count += len(idx)
            used.add(ci)
            continue
        if abs(rep + 1.0) <= radius:
            if len(idx) % 2 == 1:
                raise PreconditionError(
                    "eigenvalue -1 of conj(u) u must have even multiplicity"
                )
            thetas.extend([float(np.pi)] * (len(idx) // 2))
            used.add(ci)
            continue
        if rep.imag < 0.0:
            continue
        target = rep.conjugate()
        best, best_dist = None, np.inf
        for cj in range(len(clusters)):
            if cj == ci or cj in used:
                continue
            dist = abs(means[cj] - target)
            if dist < best_dist:
                best, best_dist = cj, dist
        if best is None or best_dist > 10.0 * radius:
            raise PreconditionError(
                "spectrum of conj(u) u is not closed under conjugation"
            )
        if len(clusters[best]) != len(idx):
            raise PreconditionError(
                "conjugate eigenvalue groups of conj(u) u differ in size"
            )
        used.update((ci, best))
        theta = float(np.angle(rep))
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
