"""Planted instances: matrices built from a chosen canonical form.

Each instance starts from a block list (the canonical form) and hides
it behind a Haar-random unitary, a = V F V* for *congruence and
a = V F V^T for congruence.  The expected answer of every benchmark
operation therefore follows from the construction; nothing here calls
the library under test.

Block parameters may repeat on purpose (rays of 1-by-1 blocks, palettes
of mu), so the cluster paths of the pipelines run with multiplicity
greater than one.  Distinct cosquare eigenvalues are kept well apart,
and so are their real parts, because the normal eigensolver clusters
on the Hermitian part first.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

# Moduli of interior mu, range of 1-by-1 moduli, tau and sigma.
MU_MODULUS = (0.2, 0.7)
VALUE_RANGE = (0.5, 2.0)
# Minimum distance between distinct cosquare eigenvalues, and between
# the real parts of eigenvalues that are not exact conjugate partners.
EIG_GAP = 0.05
REAL_GAP = 0.02
# Minimum scale-free distance of a generic matrix from each normality
# class.
GENERIC_MARGIN = 1e-3


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def gaussian(n: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)


def sqrt_dplus(z: complex) -> complex:
    """The square root with positive real part, or i*t with t >= 0."""
    w = cmath.sqrt(complex(z))
    if w.real < 0.0 or (w.real == 0.0 and w.imag < 0.0):
        w = -w
    return w


def _log_uniform(rng: np.random.Generator, count: int) -> list[float]:
    lo, hi = VALUE_RANGE
    return [float(v) for v in np.exp(rng.uniform(math.log(lo), math.log(hi), count))]


def _split(total: int, parts: int) -> list[int]:
    """total items over parts groups, sizes differing by at most one."""
    if parts == 0:
        return []
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _palette_size(count: int) -> int:
    """How many distinct parameter values count blocks share."""
    if count == 0:
        return 0
    if count < 4:
        return 1
    return 2 if count < 9 else 3


def _well_separated(eigs: list[complex], real_classes: list[float]) -> bool:
    for i in range(len(eigs)):
        for j in range(i):
            if abs(eigs[i] - eigs[j]) < EIG_GAP:
                return False
    for i in range(len(real_classes)):
        for j in range(i):
            if abs(real_classes[i] - real_classes[j]) < REAL_GAP:
                return False
    return True


@dataclass(frozen=True)
class Form:
    """A canonical form as a block list.

    ones are the 1-by-1 entries (0 for zero blocks); twos are (tau, mu)
    pairs rendered as tau * [[0, 1], [mu, 0]], with mu = 0 for the
    elementary singular blocks.  kind is "star" or "congruence".
    """

    kind: str
    ones: tuple[complex, ...]
    twos: tuple[tuple[float, complex], ...]

    @property
    def n(self) -> int:
        return len(self.ones) + 2 * len(self.twos)

    def matrix(self) -> np.ndarray:
        return assemble(self.ones, [block_h2(t, m) for t, m in self.twos])

    def scaled(self, c: float) -> "Form":
        return replace(
            self,
            ones=tuple(c * v for v in self.ones),
            twos=tuple((c * t, m) for t, m in self.twos),
        )

    @property
    def norm2(self) -> float:
        """Spectral norm of the assembled form."""
        vals = [abs(v) for v in self.ones]
        vals += [t * max(1.0, abs(m)) for t, m in self.twos]
        return max(vals) if vals else 0.0

    @property
    def nullity(self) -> int:
        return sum(1 for v in self.ones if v == 0) + len(self.elementary)

    @property
    def elementary(self) -> list[float]:
        """tau of the elementary singular blocks, descending."""
        return sorted((t for t, m in self.twos if m == 0), reverse=True)

    def cosquare_unimodular(self) -> bool:
        """Whether every cosquare eigenvalue of the regular part lies on
        the unit circle, which decides boundedness of the recurrence."""
        return all(abs(abs(m) - 1.0) < 1e-12 for _, m in self.twos if m != 0)


def block_h2(tau: float, mu: complex) -> np.ndarray:
    return np.array([[0.0, tau], [tau * mu, 0.0]], dtype=np.complex128)


def block_triangular(tau: float, mu: complex) -> tuple[complex, float]:
    """(nu, r) of the triangular rendering [[nu, r], [0, -nu]]."""
    return tau * sqrt_dplus(mu), tau * (1.0 - abs(mu))


def assemble(ones, blocks) -> np.ndarray:
    """1-by-1 entries first, then the 2-by-2 blocks, on the diagonal."""
    n = len(ones) + 2 * len(blocks)
    out = np.zeros((n, n), dtype=np.complex128)
    for i, v in enumerate(ones):
        out[i, i] = v
    at = len(ones)
    for b in blocks:
        out[at : at + 2, at : at + 2] = b
        at += 2
    return out


def star_form(
    rng: np.random.Generator,
    ray_counts: list[int],
    mu_counts: list[int],
    n_elementary: int = 0,
    n_zero: int = 0,
) -> Form:
    """Squared-normal form: 1-by-1 blocks on len(ray_counts) rays, pair
    blocks sharing len(mu_counts) values of mu, and a singular part."""
    for _ in range(10000):
        thetas = list(rng.uniform(0.0, math.pi, len(ray_counts)))
        mus = [
            complex(cmath.rect(rng.uniform(*MU_MODULUS), rng.uniform(-math.pi, math.pi)))
            for _ in mu_counts
        ]
        eigs = [cmath.exp(2j * t) for t in thetas]
        eigs += [m for m in mus] + [1.0 / m.conjugate() for m in mus]
        if _well_separated(eigs, [e.real for e in eigs]):
            break
    else:
        raise RuntimeError("could not place separated star parameters")
    ones: list[complex] = []
    for theta, count in zip(thetas, ray_counts):
        ones += [r * cmath.exp(1j * theta) for r in _log_uniform(rng, count)]
    twos = [(t, m) for m, count in zip(mus, mu_counts) for t in _log_uniform(rng, count)]
    twos += [(t, 0j) for t in _log_uniform(rng, n_elementary)]
    ones += [0j] * n_zero
    return Form("star", tuple(ones), tuple(twos))


def congruence_form(
    rng: np.random.Generator,
    sigma_counts: list[int],
    minus_counts: list[int],
    phi_counts: list[int],
    mu_counts: list[int],
    n_elementary: int = 0,
    n_zero: int = 0,
) -> Form:
    """Congruence-normal form.

    sigma_counts lists the multiplicity of each 1-by-1 value sigma (the
    +1 group of the cosquare), minus_counts of each tau with mu = -1,
    phi_counts of each unimodular mu = e^{i phi}, mu_counts of each
    interior mu.
    """
    for _ in range(10000):
        phis = list(rng.uniform(0.3, math.pi - 0.3, len(phi_counts)))
        mus = [
            complex(cmath.rect(rng.uniform(*MU_MODULUS), rng.uniform(-math.pi, math.pi)))
            for _ in mu_counts
        ]
        eigs, real_classes = [], []
        if sigma_counts:
            eigs.append(1.0 + 0j)
            real_classes.append(1.0)
        if minus_counts:
            eigs.append(-1.0 + 0j)
            real_classes.append(-1.0)
        for p in phis:
            eigs += [cmath.exp(1j * p), cmath.exp(-1j * p)]
            real_classes.append(math.cos(p))
        for m in mus:
            eigs += [m, 1.0 / m]
            real_classes += [m.real, (1.0 / m).real]
        if _well_separated(eigs, real_classes):
            break
    else:
        raise RuntimeError("could not place separated congruence parameters")
    ones: list[complex] = []
    for s, count in zip(_log_uniform(rng, len(sigma_counts)), sigma_counts):
        ones += [complex(s)] * count
    twos: list[tuple[float, complex]] = []
    for t, count in zip(_log_uniform(rng, len(minus_counts)), minus_counts):
        twos += [(t, -1.0 + 0j)] * count
    for p, count in zip(phis, phi_counts):
        twos += [(t, cmath.exp(1j * p)) for t in _log_uniform(rng, count)]
    for m, count in zip(mus, mu_counts):
        twos += [(t, m) for t in _log_uniform(rng, count)]
    twos += [(t, 0j) for t in _log_uniform(rng, n_elementary)]
    ones += [0j] * n_zero
    return Form("congruence", tuple(ones), tuple(twos))


def star_layout(
    rng: np.random.Generator, n: int, singular: bool = False, pairs: bool = True
) -> Form:
    """A squared-normal form of order n whose block counts depend on n
    only; the parameter values come from rng."""
    n_zero = n_elem = 1 if singular else 0
    rest = n - n_zero - 2 * n_elem
    n_two = max(1, rest // 3) if pairs else 0
    n_one = rest - 2 * n_two
    if n_one < 0:
        raise ValueError(f"order {n} too small for this layout")
    return star_form(
        rng,
        _split(n_one, _palette_size(n_one)),
        _split(n_two, _palette_size(n_two)),
        n_elem,
        n_zero,
    )


def congruence_layout(
    rng: np.random.Generator, n: int, singular: bool = False, interior: bool = True
) -> Form:
    """A congruence-normal form of order n with block counts depending
    on n only; interior=False leaves the cosquare spectrum unimodular."""
    n_zero = n_elem = 1 if singular else 0
    rest = n - n_zero - 2 * n_elem
    n_mu = max(1, rest // 6) if interior else 0
    rest -= 2 * n_mu
    n_minus = rest // 6
    n_phi = rest // 6
    n_sigma = rest - 2 * n_minus - 2 * n_phi
    if n_sigma < 0:
        raise ValueError(f"order {n} too small for this layout")
    # One sigma value is repeated when there is room for it.
    sigma_counts = [2] + [1] * (n_sigma - 2) if n_sigma >= 4 else [1] * n_sigma
    return congruence_form(
        rng,
        sigma_counts,
        [1] * n_minus,
        _split(n_phi, _palette_size(n_phi)),
        _split(n_mu, _palette_size(n_mu)),
        n_elem,
        n_zero,
    )


def hide(form: Form, v: np.ndarray) -> np.ndarray:
    """v F v* (star) or v F v^T (congruence)."""
    f = form.matrix()
    if form.kind == "star":
        return v @ f @ v.conj().T
    return v @ f @ v.T


def nudge(form: Form, pick: int, delta: float) -> Form:
    """The form with one planted parameter moved by delta.

    The parameters are the nonzero 1-by-1 entries, moved along their
    ray, then the tau of each pair block; pick indexes them cyclically,
    so the same pick moves a block of the same role for every seed.  The
    canonical form changes, so the result is not equivalent to the
    input.
    """
    ones, twos = list(form.ones), list(form.twos)
    nonzero = [i for i, v in enumerate(ones) if v != 0]
    pick %= len(nonzero) + len(twos)
    if pick < len(nonzero):
        i = nonzero[pick]
        ones[i] = ones[i] * (1.0 + delta / abs(ones[i]))
    else:
        t, m = twos[pick - len(nonzero)]
        twos[pick - len(nonzero)] = (t + delta, m)
    return replace(form, ones=tuple(ones), twos=tuple(twos))


def scale_free_residual(x: np.ndarray, y: np.ndarray) -> float:
    """||x - y||_F / (||x||_F + ||y||_F), with no absolute floor."""
    den = np.linalg.norm(x) + np.linalg.norm(y)
    return float(np.linalg.norm(x - y) / den) if den > 0 else 0.0


def generic_distances(a: np.ndarray) -> dict[str, float]:
    """Scale-free distance of a from the classes a generic matrix
    must be outside: defining identities evaluated without a floor."""
    s = a.conj().T
    sq = a @ a
    ab = a.conj() @ a
    return {
        "normal": scale_free_residual(s @ a, a @ s),
        "conjugate_normal": scale_free_residual(s @ a, (a @ s).conj()),
        "congruence_normal": scale_free_residual(ab.conj().T @ ab, ab @ ab.conj().T),
        "squared_normal": scale_free_residual(sq.conj().T @ sq, sq @ sq.conj().T),
    }


def generic_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian matrix at distance at least GENERIC_MARGIN from the normal,
    conjugate-normal, congruence-normal and squared-normal classes, and
    nonsingular (condition number below 1e6)."""
    for _ in range(1000):
        a = gaussian(n, rng)
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] > 1e-6 * s[0] and min(generic_distances(a).values()) >= GENERIC_MARGIN:
            return a
    raise RuntimeError("could not draw a generic matrix")
