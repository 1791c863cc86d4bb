"""Closed-form reference derivations of the special-class canonical forms.

The library renders every special-class form from canon_congruence or
canon_star.  The functions here derive the same blocks the classical
way, from a spectrum or an SVD of the input and plain numpy, so a test
that compares the two compares independent routes.  They assume the
instances of canonica.sampling, whose forms reuse a palette of mu and
of star rays: a block parameter either repeats exactly or lies far from
every other one.  So every cut below is a fixed relative radius, and no
cluster of nearby but unequal values needs resolving.
"""

from __future__ import annotations

import numpy as np

from canonica.canon_congruence import CongruenceCanonicalForm

# Relative radius that separates zero, one and the block parameters of
# the sampled instances.
CUT = 1e-6


def _sigmas(a: np.ndarray) -> np.ndarray:
    return np.linalg.svd(a, compute_uv=False)


def gram_spectrum_form(a: np.ndarray) -> CongruenceCanonicalForm:
    """Congruence form of a conjugate-normal a from the eigenvalues of
    conj(a) a: v > 0 gives [sqrt(v)], v = 0 gives [0], a conjugate pair
    rho e^{+-i theta} gives (sqrt(rho), e^{i theta}), and each pair of
    equal negative eigenvalues -rho gives (sqrt(rho), -1)."""
    lam = np.linalg.eigvals(a.conj() @ a)
    cut = CUT * max(1.0, float(_sigmas(a)[0]) ** 2)
    ones, twos, negatives = [], [], []
    for v in lam:
        if abs(v) <= cut:
            ones.append(0.0)
        elif abs(v.imag) <= cut:
            if v.real > 0.0:
                ones.append(float(np.sqrt(v.real)))
            else:
                negatives.append(-v.real)
        elif v.imag > 0.0:
            twos.append((float(np.sqrt(abs(v))), complex(v / abs(v))))
    twos.extend((float(np.sqrt(r)), complex(-1.0)) for r in sorted(negatives)[::2])
    return CongruenceCanonicalForm.build(ones, twos)


def unitary_blocks(u: np.ndarray) -> list[np.ndarray]:
    """h2 blocks of a unitary u from the eigenvalues of conj(u) u: [1]
    per eigenvalue 1, then [[0, 1], [e^{i theta}, 0]] per conjugate pair
    e^{+-i theta} and per two eigenvalues -1 (theta = pi), by ascending
    theta."""
    lam = np.linalg.eigvals(u.conj() @ u)
    fixed = sum(1 for v in lam if abs(v - 1.0) <= CUT)
    minus = sum(1 for v in lam if abs(v + 1.0) <= CUT)
    thetas = sorted(
        [float(np.angle(v)) for v in lam if v.imag > CUT] + [np.pi] * (minus // 2)
    )
    blocks = [np.eye(1, dtype=np.complex128) for _ in range(fixed)]
    blocks.extend(
        np.array([[0.0, 1.0], [np.exp(1j * t), 0.0]], dtype=np.complex128)
        for t in thetas
    )
    return blocks


def coninvolutory_form(a: np.ndarray) -> CongruenceCanonicalForm:
    """Congruence form of a coninvolutory a from its singular values,
    which pair as (s, 1/s): (tau, mu) = (s, s^{-2}) per s > 1, and [1]
    for the rest."""
    s = _sigmas(a)
    n = len(s)
    big = [float(v) for v in s if v > 1.0 + CUT]
    for i, v in enumerate(big):
        assert abs(v * s[n - 1 - i] - 1.0) <= CUT, "singular values do not pair"
    return CongruenceCanonicalForm.build(
        [1.0] * (n - 2 * len(big)), [(v, complex(v ** -2)) for v in big]
    )


def involution_blocks(a: np.ndarray, variant: str) -> list[np.ndarray]:
    """*Congruence blocks of an involution from the trace and the
    singular values: p = (n + tr a) / 2 eigenvalues +1, one block per
    singular value sigma > 1, and I_{p-q} + (-I_{n-p-q}) for the rest."""
    n = a.shape[0]
    p = int(round((n + np.trace(a).real) / 2.0))
    sigmas = [float(v) for v in _sigmas(a) if v > 1.0 + CUT]
    q = len(sigmas)
    blocks = [np.eye(1, dtype=np.complex128) for _ in range(p - q)]
    blocks.extend(-np.eye(1, dtype=np.complex128) for _ in range(n - p - q))
    for s in sigmas:
        if variant == "antidiag":
            blk = [[0.0, 1.0 / s], [s, 0.0]]
        else:
            blk = [[1.0, s - 1.0 / s], [0.0, -1.0]]
        blocks.append(np.array(blk, dtype=np.complex128))
    return blocks


def lambda_projection_blocks(a: np.ndarray, lam: complex) -> list[np.ndarray]:
    """*Congruence blocks of an a with a^2 = lam a from its SVD: one
    [[lam, sqrt(tau^2 - |lam|^2)], [0, 0]] per singular value
    tau > |lam|, [lam] up to the rank, and zeros up to the nullity."""
    n = a.shape[0]
    s = _sigmas(a)
    cut = CUT * max(1.0, float(s[0]))
    m1 = sum(1 for v in s if v <= cut)
    taus = [float(v) for v in s if v > abs(lam) + cut]
    blocks = [np.full((1, 1), lam, dtype=np.complex128) for _ in range(n - m1 - len(taus))]
    blocks.extend(
        np.array([[lam, np.sqrt(t * t - abs(lam) ** 2)], [0.0, 0.0]], dtype=np.complex128)
        for t in taus
    )
    blocks.extend(np.zeros((1, 1), dtype=np.complex128) for _ in range(m1 - len(taus)))
    return blocks


def quadratic_blocks(
    a: np.ndarray, lam1: complex, lam2: complex
) -> tuple[list[np.ndarray], list[float]]:
    """Blocks and singular values of an a with minimal polynomial
    (t - lam1)(t - lam2), lam1 != lam2 and |lam1| >= |lam2|, from its
    SVD and trace.

    One [[lam1, gamma], [0, lam2]] per singular value sv > |lam1|, with
    gamma^2 = sv^2 + (|lam1 lam2| / sv)^2 - |lam1|^2 - |lam2|^2, and the
    trace fixes how many of the remaining entries are lam1.
    """
    n = a.shape[0]
    s = _sigmas(a)
    svs = [float(v) for v in s if v > abs(lam1) + CUT * max(1.0, float(s[0]))]
    m = len(svs)
    n2 = int(round(((n * lam1 - np.trace(a)) / (lam1 - lam2)).real))
    p = abs(lam1 * lam2)
    blocks = [np.full((1, 1), lam1, dtype=np.complex128) for _ in range(n - n2 - m)]
    predicted = [abs(lam1)] * (n - n2 - m) + [abs(lam2)] * (n2 - m)
    for sv in svs:
        gamma = np.sqrt(sv * sv + (p / sv) ** 2 - abs(lam1) ** 2 - abs(lam2) ** 2)
        blocks.append(np.array([[lam1, gamma], [0.0, lam2]], dtype=np.complex128))
        predicted.extend((sv, p / sv))
    blocks.extend(np.full((1, 1), lam2, dtype=np.complex128) for _ in range(n2 - m))
    return blocks, sorted(predicted, reverse=True)
