"""Seeded random constructors for the matrix families.

Every sampler takes a numpy Generator so suites stay reproducible, and
keeps block parameters apart by construction, so it reaches any n: a
spread puts one value in each of count equal bins, at a seeded offset
in [0.2, 0.8] of the bin, so neighbours lie at least 0.4 bin widths
apart.  Unimodular angles stay away from 0 and pi, and interior mu
have moduli in [0.15, 0.8].  Forms reuse a palette of star rays and of
mu values, so clusters of any multiplicity occur; distinct mu from a
palette of size values lie at least 0.3 sin(0.4 pi/size) apart, about
0.38/size, far above cluster_rtol.  That is deliberate; the pipelines
are exact on these families and the tests should fail on logic
errors, not on manufactured near-degeneracies.
"""

from __future__ import annotations

import numpy as np

from .blocks import direct_sum
from .canon_congruence import CongruenceCanonicalForm
from .canon_star import StarCanonicalForm

__all__ = [
    "default_rng",
    "random_unitary",
    "random_nonsingular",
    "random_matrix",
    "random_normal",
    "random_vector",
    "random_congruence_form",
    "random_congruence_instance",
    "random_star_form",
    "random_star_instance",
    "random_conjugate_normal_instance",
    "random_coninvolutory",
    "random_involution",
    "random_lambda_projection",
    "random_quadratic_instance",
]


def default_rng(seed: int | None = None) -> np.random.Generator:
    return np.random.default_rng(seed)


def _gaussian(n: int, gen: np.random.Generator) -> np.ndarray:
    return gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))


def random_matrix(n: int, gen: np.random.Generator) -> np.ndarray:
    return _gaussian(n, gen) / np.sqrt(2.0)


def random_vector(n: int, gen: np.random.Generator) -> np.ndarray:
    v = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    return v / np.linalg.norm(v)


def random_unitary(n: int, gen: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR."""
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    q, r = np.linalg.qr(_gaussian(n, gen))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_nonsingular(
    n: int, gen: np.random.Generator, cond: float = 4.0
) -> np.ndarray:
    """Random matrix with condition number about cond."""
    u = random_unitary(n, gen)
    v = random_unitary(n, gen)
    lo, hi = 1.0 / np.sqrt(cond), np.sqrt(cond)
    s = np.exp(gen.uniform(np.log(lo), np.log(hi), size=n))
    if n:
        s[0], s[-1] = hi, lo  # pin the extremes so cond is exact
    return u @ np.diag(s.astype(np.complex128)) @ v.conj().T


def random_normal(n: int, gen: np.random.Generator) -> np.ndarray:
    u = random_unitary(n, gen)
    lam = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    return u @ np.diag(lam) @ u.conj().T


def _spread(
    gen: np.random.Generator, count: int, lo: float, hi: float
) -> list[float]:
    """count increasing values in [lo, hi], one in each of count equal
    bins at a seeded offset in [0.2, 0.8] of it, so neighbours lie at
    least 0.4 bin widths apart."""
    width = (hi - lo) / max(count, 1)
    return [lo + width * (j + float(gen.uniform(0.2, 0.8))) for j in range(count)]


def _hide(x: np.ndarray, gen: np.random.Generator, transpose: bool) -> np.ndarray:
    """u x u^T (transpose) or u x u* for a Haar unitary u drawn now."""
    u = random_unitary(x.shape[0], gen)
    return u @ x @ (u.T if transpose else u.conj().T)


def _tau(gen: np.random.Generator) -> float:
    return float(gen.uniform(0.5, 3.0))


def _singular_part(
    n: int, gen: np.random.Generator, singular: bool, nilpotent: bool = True
) -> tuple[list[float], list[tuple[float, complex]], int]:
    """(ones, twos, dimension left) of a form's zero summands.

    A singular form of positive dimension gets 1-2 zero entries, then,
    where the class allows them (nilpotent), elementary (tau, 0) blocks.
    """
    ones: list[float] = []
    twos: list[tuple[float, complex]] = []
    left = n
    if singular and n:
        zeros = min(int(gen.integers(1, 3)), n)
        ones, left = [0.0] * zeros, n - zeros
        while nilpotent and left >= 2 and gen.random() < 0.4:
            twos.append((_tau(gen), 0j))
            left -= 2
    return ones, twos, left


def _interior_mus(gen: np.random.Generator, count: int) -> list[complex]:
    """count mu with moduli in [0.15, 0.8], cycling through a palette of
    1..count values with spread arguments, so mu may repeat."""
    if count == 0:
        return []
    size = int(gen.integers(1, count + 1))
    palette = [
        complex(gen.uniform(0.15, 0.8) * np.exp(1j * phi))
        for phi in _spread(gen, size, -np.pi, np.pi)
    ]
    return [palette[i % size] for i in range(count)]


def _congruence_form(
    n: int, gen: np.random.Generator, singular: bool, conjugate_normal: bool
) -> CongruenceCanonicalForm:
    # A conjugate-normal form has no nilpotent and no interior-mu blocks.
    ones, twos, left = _singular_part(n, gen, singular, not conjugate_normal)
    pairs = int(gen.integers(0, left // 2 + 1))
    ones.extend(_tau(gen) for _ in range(left - 2 * pairs))
    weights = (0.3, 0.7, 0.0) if conjugate_normal else (0.25, 0.25, 0.5)
    n_minus, n_circle, n_inner = (int(k) for k in gen.multinomial(pairs, weights))
    twos.extend((_tau(gen), -1.0 + 0j) for _ in range(n_minus))
    twos.extend(
        (_tau(gen), complex(np.exp(1j * t)))
        for t in _spread(gen, n_circle, 0.3, np.pi - 0.3)
    )
    twos.extend((_tau(gen), mu) for mu in _interior_mus(gen, n_inner))
    return CongruenceCanonicalForm.build(ones, twos)


def random_congruence_form(
    n: int, gen: np.random.Generator, singular: bool = False
) -> CongruenceCanonicalForm:
    """Random valid congruence-form block multiset of dimension n."""
    return _congruence_form(n, gen, singular, conjugate_normal=False)


def random_congruence_instance(
    n: int, gen: np.random.Generator, singular: bool = False
) -> tuple[CongruenceCanonicalForm, np.ndarray]:
    """(form, u @ assemble(form) @ u.T) for a random unitary u."""
    form = random_congruence_form(n, gen, singular=singular)
    return form, _hide(form.assemble(), gen, transpose=True)


def random_star_form(
    n: int, gen: np.random.Generator, singular: bool = False
) -> StarCanonicalForm:
    """Random valid *congruence-form block multiset of dimension n."""
    ones, twos, left = _singular_part(n, gen, singular)
    pairs = int(gen.integers(0, left // 2 + 1))
    n_ones = left - 2 * pairs
    if n_ones:
        n_rays = int(gen.integers(1, n_ones + 1))
        rays = _spread(gen, n_rays, 0.05, np.pi - 0.05)
        for i in range(n_ones):
            sign = 1.0 if gen.random() < 0.5 else -1.0
            ones.append(
                complex(sign * gen.uniform(0.5, 2.0) * np.exp(1j * rays[i % n_rays]))
            )
    twos.extend((_tau(gen), mu) for mu in _interior_mus(gen, pairs))
    return StarCanonicalForm.build(ones, twos)


def random_star_instance(
    n: int, gen: np.random.Generator, singular: bool = False
) -> tuple[StarCanonicalForm, np.ndarray]:
    """(form, u @ assemble(form) @ u*) for a random unitary u."""
    form = random_star_form(n, gen, singular=singular)
    return form, _hide(form.assemble(), gen, transpose=False)


def random_conjugate_normal_instance(
    n: int, gen: np.random.Generator, singular: bool = False
) -> tuple[CongruenceCanonicalForm, np.ndarray]:
    """Conjugate-normal instance: positive ones, unimodular twos, zeros."""
    form = _congruence_form(n, gen, singular, conjugate_normal=True)
    return form, _hide(form.assemble(), gen, transpose=True)


def random_coninvolutory(n: int, gen: np.random.Generator) -> np.ndarray:
    """Random coninvolutory matrix (conj(a) a = I)."""
    q = int(gen.integers(0, n // 2 + 1))
    blocks = [np.eye(n - 2 * q, dtype=np.complex128)]
    blocks.extend(
        np.array([[0.0, 1.0 / s], [s, 0.0]], dtype=np.complex128)
        for s in _spread(gen, q, 1.2, 2.5)
    )
    return _hide(direct_sum(blocks), gen, transpose=True)


def random_involution(
    n: int,
    gen: np.random.Generator,
    plus: int | None = None,
    sigmas: list[float] | None = None,
) -> np.ndarray:
    """Random involution with given +1-multiplicity and singular values.

    plus counts the +1 eigenvalues; sigmas lists the singular values
    above 1 (each contributes one 2-by-2 block, so plus must leave room
    for len(sigmas) blocks on both eigenvalue sides).
    """
    if sigmas is None:
        q = int(gen.integers(0, n // 2 + 1))
        sigmas = [float(gen.uniform(1.3, 2.5)) for _ in range(q)]
    q = len(sigmas)
    if plus is None:
        plus = int(gen.integers(q, n - q + 1))
    if not q <= plus <= n - q:
        raise ValueError(f"plus={plus} incompatible with q={q}, n={n}")
    blocks = [np.array([[1.0]], dtype=np.complex128) for _ in range(plus - q)]
    blocks.extend(
        np.array([[-1.0]], dtype=np.complex128) for _ in range(n - plus - q)
    )
    blocks.extend(
        np.array([[0.0, 1.0 / s], [s, 0.0]], dtype=np.complex128) for s in sigmas
    )
    return _hide(direct_sum(blocks), gen, transpose=False)


def random_lambda_projection(
    n: int, gen: np.random.Generator, lam: complex | None = None
) -> np.ndarray:
    """Random matrix with a^2 = lam a."""
    if lam is None:
        lam = complex(
            gen.uniform(0.5, 1.5) * np.exp(1j * gen.uniform(-np.pi, np.pi))
        )
    lam = complex(lam)
    m2 = int(gen.integers(0, n // 2 + 1))
    rest = n - 2 * m2
    eig_count = int(gen.integers(0, rest + 1)) if lam != 0 else 0
    blocks = [np.array([[lam]], dtype=np.complex128) for _ in range(eig_count)]
    blocks.extend(
        np.array([[lam, gen.uniform(0.4, 2.0)], [0.0, 0.0]], dtype=np.complex128)
        for _ in range(m2)
    )
    blocks.append(np.zeros((rest - eig_count, rest - eig_count), dtype=np.complex128))
    return _hide(direct_sum(blocks), gen, transpose=False)


def random_quadratic_instance(
    n: int,
    gen: np.random.Generator,
    roots: tuple[complex, complex] | None = None,
    opposite: bool = False,
) -> tuple[np.ndarray, tuple[complex, complex]]:
    """Random matrix with minimal polynomial (t - l1)(t - l2), l1 != l2.

    opposite=True forces l2 = -l1, which keeps the square normal so the
    canonical *congruence pipeline applies as well.  Returns the matrix
    and the roots.  Needs n >= 2.
    """
    if n < 2:
        raise ValueError(f"a quadratic minimal polynomial needs n >= 2, got n={n}")
    if roots is None:
        l1 = complex(
            gen.uniform(1.0, 2.0) * np.exp(1j * gen.uniform(-np.pi, np.pi))
        )
        if opposite:
            l2 = -l1
        else:
            l2 = complex(
                gen.uniform(0.4, 0.8) * np.exp(1j * gen.uniform(-np.pi, np.pi))
            )
    else:
        l1, l2 = complex(roots[0]), complex(roots[1])
    m = int(gen.integers(1, n // 2 + 1))
    rest = n - 2 * m
    n1_extra = int(gen.integers(0, rest + 1))
    blocks = [np.array([[l1]], dtype=np.complex128) for _ in range(n1_extra)]
    blocks.extend(
        np.array(
            [[l1, gen.uniform(0.5, 2.0)], [0.0, l2]], dtype=np.complex128
        )
        for _ in range(m)
    )
    blocks.extend(
        np.array([[l2]], dtype=np.complex128) for _ in range(rest - n1_extra)
    )
    return _hide(direct_sum(blocks), gen, transpose=False), (l1, l2)
