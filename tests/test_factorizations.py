"""Decompositions behind the canonical forms.

Each factorization is checked by reconstruction against the matrix it
came from, plus the structural claims its consumers rely on (unitarity,
ordering, symmetry class of the factors).
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import canonica.factorizations as factorizations
from canonica.canon_congruence import _CONGRUENCE
from canonica.canon_star import _STAR
from canonica.errors import ConvergenceError, PreconditionError
from canonica.factorizations import (
    cluster_complex,
    cluster_real_sorted,
    eig_normal,
    hua_skew,
    polar,
    svd,
    takagi_symmetric,
)
from canonica.matrix import (
    DEFAULT_TOL,
    ToleranceConfig,
    _norm,
    _unit_scale,
    norm,
    rank,
    rel_residual,
)
from canonica.sampling import default_rng, random_matrix, random_unitary
from recorders import record_rotations

gen = np.random.default_rng(20260819)


def random_complex(rows, cols):
    return gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))


def assert_unitary(u, tol=1e-10):
    assert norm(u.conj().T @ u - np.eye(u.shape[1])) <= tol


def test_svd_reconstruction_square():
    a = random_complex(5, 5)
    f = svd(a)
    assert_unitary(f.u)
    assert_unitary(f.v)
    assert norm(f.u @ np.diag(f.sigma) @ f.v.conj().T - a) <= 1e-10 * norm(a)
    assert np.all(np.diff(f.sigma) <= 0)


def test_svd_reconstruction_rectangular():
    a = random_complex(3, 5)
    f = svd(a)
    assert f.u.shape == (3, 3)
    assert f.v.shape == (5, 5)
    sig = np.zeros((3, 5))
    sig[:3, :3] = np.diag(f.sigma)
    assert norm(f.u @ sig @ f.v.conj().T - a) <= 1e-10 * norm(a)


def test_cluster_complex_chain_links():
    # 0 and 1.8 join only through 0.9: single linkage, not diameter.
    groups = cluster_complex(np.array([0.0, 1.8, 0.9]), radius=1.0)
    assert groups == [[0, 1, 2]]


def test_cluster_complex_separated():
    groups = cluster_complex(np.array([0.0, 5.0, 5.0 + 1e-12j]), radius=1e-6)
    assert groups == [[0], [1, 2]]


def test_cluster_complex_empty():
    assert cluster_complex(np.array([]), radius=1.0) == []


def _single_linkage_reference(values, radius):
    # O(k^2) over all pairs; each label is the smallest index of its
    # component.
    k = len(values)
    label = list(range(k))
    for i in range(k):
        for j in range(i + 1, k):
            if abs(values[i] - values[j]) <= radius:
                old, new = max(label[i], label[j]), min(label[i], label[j])
                label = [new if x == old else x for x in label]
    groups = {}
    for i in range(k):
        groups.setdefault(label[i], []).append(i)
    return [groups[key] for key in sorted(groups)]


# A quarter-step grid makes duplicates and pairs exactly at the radius
# common; free values cover the generic case.
_grid = st.integers(-6, 6).map(lambda m: 0.25 * m)
_values = st.lists(
    st.one_of(
        st.builds(complex, _grid, _grid),
        st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
    ),
    max_size=24,
)


# Doubled by "conjugate_pairs": 40 equal values, and conjugate pairs two
# of which share a real part; many near pairs in one window, as the +-1
# clusters and the conjugate partners of a cosquare give.
_CROWDED = [1.0] * 20 + [0.5 + 0.25j, 0.5 + 0.5j, -1.0 + 0.75j]


@settings(deadline=None)
@example([], "as_is", 1.0, False)
@example([1.0 + 1.0j], "as_is", 0.0, False)
@example([0.5, 0.5, 0.0, 0.5j], "as_is", 0.5, False)
@example(_CROWDED, "conjugate_pairs", 0.25, False)
@example(_CROWDED, "conjugate_pairs", 1.0, False)
@given(
    _values,
    st.sampled_from(["as_is", "imaginary", "conjugate_pairs"]),
    st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(1e-12, 4.0)),
    st.booleans(),
)
def test_cluster_complex_matches_all_pairs_reference(values, shape, radius, at_pair):
    if shape == "imaginary":
        values = [complex(0.0, v.imag) for v in values]
    elif shape == "conjugate_pairs":
        values = [w for v in values for w in (v, v.conjugate())]
    arr = np.array(values, dtype=np.complex128)
    if at_pair and len(arr) >= 2:
        # A radius equal to one pair's distance puts that pair exactly
        # on the boundary.
        radius = float(abs(arr[0] - arr[-1]))
    assert cluster_complex(arr, radius) == _single_linkage_reference(arr, radius)


def test_cluster_real_sorted_adjacent_gaps():
    groups = cluster_real_sorted(np.array([5.0, 5.0 - 1e-12, 2.0, 0.0]), radius=1e-8)
    assert groups == [[0, 1], [2], [3]]


def test_eig_normal_hermitian():
    b = random_complex(4, 4)
    a = b + b.conj().T
    lam, u = eig_normal(a)
    assert_unitary(u)
    assert norm((u * lam) @ u.conj().T - a) <= 1e-9 * norm(a)
    assert np.max(np.abs(lam.imag)) <= 1e-10 * norm(a)


def test_eig_normal_unitary_input():
    q = np.linalg.qr(random_complex(4, 4))[0]
    lam, u = eig_normal(q)
    assert norm((u * lam) @ u.conj().T - q) <= 1e-9
    assert np.max(np.abs(np.abs(lam) - 1.0)) <= 1e-9


def test_eig_normal_skew_hermitian():
    b = random_complex(3, 3)
    a = b - b.conj().T
    lam, u = eig_normal(a)
    assert norm((u * lam) @ u.conj().T - a) <= 1e-9 * norm(a)
    assert np.max(np.abs(lam.real)) <= 1e-10 * norm(a)


def test_eig_normal_clustered_eigenvalues():
    # Repeated eigenvalues within cluster radius must not break the
    # second diagonalization pass.
    d = np.diag([1.0, 1.0 + 1e-12, 2.0 + 1j])
    q = np.linalg.qr(random_complex(3, 3))[0]
    a = q @ d @ q.conj().T
    lam, u = eig_normal(a)
    assert norm((u * lam) @ u.conj().T - a) <= 1e-9 * norm(a)


def test_eig_normal_resolves_hermitian_eigenvalues_inside_a_cluster():
    # 0.05 and 0.05 + 5e-9 share a cluster (radius 1e-8) whose skew part
    # is rounding noise; its eigh alone mixes their eigenvectors and
    # missed the residual bound on 19 of these 20 bases.
    lam = np.array([1.0, 0.05, 0.05 + 5e-9])
    for seed in range(20):
        q = random_unitary(3, default_rng(seed))
        a = (q * lam) @ q.conj().T
        got, u = eig_normal(a)
        assert_unitary(u)
        assert norm((u * got) @ u.conj().T - a) <= DEFAULT_TOL.residual_rtol
        expected = pytest.approx(np.sort(lam), abs=DEFAULT_TOL.residual_rtol)
        assert np.sort(got.real) == expected


def test_eig_normal_rejects_nonnormal():
    with pytest.raises(PreconditionError):
        eig_normal([[0.0, 1.0], [0.0, 2.0]])


def test_eig_normal_reports_a_missed_reconstruction():
    # A Jordan-like block passes the normality pre-check (residual about
    # 5e-11), but no unitary u diagonalizes it to within the bound: the
    # reconstruction check, on both tries, must raise.
    a = [[1.0, 1e-5], [0.0, 1.0]]
    with pytest.raises(
        ConvergenceError,
        match=r"^eigendecomposition residual 7\.071e-06 exceeds 1\.414e-09$",
    ):
        eig_normal(a)


def test_eig_normal_retries_only_with_clusters(monkeypatch):
    # Without clusters the retry would rebuild the same u from the same
    # eigh and raise the same error: it is skipped.
    eighs, rayleighs = [], []
    eigh, rayleigh = np.linalg.eigh, factorizations._rayleigh

    def counted_eigh(x, *args, **kwargs):
        eighs.append(x.shape)
        return eigh(x, *args, **kwargs)

    def counted_rayleigh(a, u, e):
        rayleighs.append(a.shape)
        return rayleigh(a, u, e)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(factorizations, "_rayleigh", counted_rayleigh)
    with pytest.raises(
        ConvergenceError,
        match=r"^eigendecomposition residual 7\.071e-06 exceeds 1\.414e-09$",
    ):
        eig_normal([[1.0, 1e-5], [0.0, 1.0]])
    assert (len(eighs), len(rayleighs)) == (1, 1)


def _eig_normal_checked_first(a, tol=DEFAULT_TOL):
    # eig_normal with its normality check taken first, before any
    # reconstruction could prove it, at unit scale as eig_normal takes it.
    a = np.asarray(a, dtype=np.complex128)
    x = _unit_scale(a)[0]
    res = rel_residual(x.conj().T @ x, x @ x.conj().T)
    if res > tol.residual_rtol:
        raise PreconditionError("matrix is not normal", residual=res)
    return eig_normal(a, tol)


def _outcome(decompose, a):
    try:
        lam, u = decompose(a)
    except (PreconditionError, ConvergenceError) as exc:
        return type(exc), str(exc)
    return lam.tobytes(), u.tobytes()


def _just_above_the_residual_bound():
    # A normal matrix plus t e_0 e_1^T, hidden; the normality residual
    # grows linearly in t, which puts it just above residual_rtol.
    base = np.diag([1.0, 2.0, 3.0j, -1.0 + 0.5j]).astype(np.complex128)
    q = random_unitary(4, default_rng(20261023))

    def pushed(t):
        b = base.copy()
        b[0, 1] = t
        return q @ b @ q.conj().T

    def residual(x):
        return rel_residual(x.conj().T @ x, x @ x.conj().T)

    slope = residual(pushed(1e-6)) / 1e-6
    a = pushed(1.2 * DEFAULT_TOL.residual_rtol / slope)
    assert DEFAULT_TOL.residual_rtol < residual(a) < 1.5 * DEFAULT_TOL.residual_rtol
    return a


def _seeded_complex(n, seed):
    g = np.random.default_rng(seed)
    return g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))


NON_NORMAL = {
    "gaussian 1e-3": lambda: 1e-3 * _seeded_complex(6, 20261024),
    "gaussian 1": lambda: _seeded_complex(6, 20261024),
    "gaussian 1e3": lambda: 1e3 * _seeded_complex(6, 20261024),
    "nilpotent jordan": lambda: np.diag(np.ones(2), 1),
    "jordan": lambda: 2.0 * np.eye(3) + np.diag(np.ones(2), 1),
    "just above": _just_above_the_residual_bound,
}


@pytest.mark.parametrize("kind", list(NON_NORMAL))
def test_eig_normal_deferred_check_raises_as_checking_first(kind):
    # The normality check now runs after the first reconstruction, and
    # only when that cannot prove it; non-normal input must still raise
    # the same PreconditionError with the same residual.
    a = NON_NORMAL[kind]()
    expected = _outcome(_eig_normal_checked_first, a)
    assert expected[0] is PreconditionError
    assert _outcome(eig_normal, a) == expected


@settings(deadline=None, max_examples=80)
@example(3, -9.0, 0.0, 1)
@example(5, -6.0, -6.0, 2)
@given(
    st.integers(1, 9),
    st.floats(-15.0, -3.0),
    st.floats(-6.0, 6.0),
    st.integers(0, 2**32 - 1),
)
def test_eig_normal_deferred_check_matches_checking_first(n, log_push, log_scale, seed):
    # Normal input pushed off the class by 10^log_push relative, across
    # the residual bound: same eigenpairs bit for bit, or the same error.
    g = np.random.default_rng(seed)
    lam = g.standard_normal(n) + 1j * g.standard_normal(n)
    scale = 10.0**log_scale
    a = _hidden_normal(lam, seed, scale)
    a = a + 10.0**log_push * scale * _seeded_complex(n, seed + 1)
    assert _outcome(eig_normal, a) == _outcome(_eig_normal_checked_first, a)


@pytest.mark.parametrize("n", [2, 12, 64])
def test_eig_normal_proves_normality_without_its_products(monkeypatch, n):
    def unexpected(*args):
        raise AssertionError("normality residual evaluated")

    monkeypatch.setattr(factorizations, "_normality_residual", unexpected)
    lam = np.arange(1, n + 1) * np.exp(0.3j * np.arange(n))
    eig_normal(_hidden_normal(lam, n, 1.0))


def test_eig_normal_empty():
    lam, u = eig_normal(np.zeros((0, 0)))
    assert lam.shape == (0,)
    assert u.shape == (0, 0)


@pytest.mark.parametrize("factor", [takagi_symmetric, hua_skew], ids=lambda f: f.__name__)
def test_symmetric_factorizations_of_an_empty_matrix(factor):
    values, v = factor(np.zeros((0, 0)))
    assert (values.shape, values.dtype) == ((0,), np.float64)
    assert (v.shape, v.dtype) == ((0, 0), np.complex128)


def _eig_normal_exact_radius(a, tol=DEFAULT_TOL):
    # eig_normal with every cluster radius taken from the spectral norm
    # itself (one more SVD), as it was before the bracket.  Its norms
    # are the library's own, uncounted by _count_spectral_norms.
    exact = tol.cluster_rtol * norm(np.asarray(a, dtype=np.complex128), "spectral")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factorizations, "_norm", _norm)
        mp.setattr(
            factorizations,
            "cluster_real_sorted",
            lambda values, radius: cluster_real_sorted(values, exact),
        )
        return eig_normal(a, tol)


def _count_spectral_norms(monkeypatch) -> list:
    """Record eig_normal's exact spectral norms (its bracket misses)."""
    calls = []

    def counted(a, kind="frobenius"):
        if kind == "spectral":
            calls.append(np.shape(a))
        return _norm(a, kind)

    monkeypatch.setattr(factorizations, "_norm", counted)
    return calls


def _hidden_normal(lam, seed, scale):
    q = random_unitary(len(lam), default_rng(seed))
    return scale * (q * np.asarray(lam, dtype=np.complex128)) @ q.conj().T


def _assert_same_bits(a):
    lam, u = eig_normal(a)
    ref_lam, ref_u = _eig_normal_exact_radius(a)
    assert lam.tobytes() == ref_lam.tobytes()
    assert u.tobytes() == ref_u.tobytes()


@settings(deadline=None, max_examples=60)
@example(1, "generic", 1.0, 0)
@example(4, "skew", 1.0, 1)
@example(5, "clustered", 1e-6, 2)
@example(5, "clustered", 1e6, 3)
@given(
    st.integers(1, 8),
    st.sampled_from(["generic", "clustered", "skew", "hermitian"]),
    st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
    st.integers(0, 2**32 - 1),
)
def test_eig_normal_bracket_matches_exact_radius(n, kind, scale, seed):
    gen = default_rng(seed)
    lam = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    if kind == "clustered":
        # Repeated eigenvalues, some split far inside the radius.
        lam = gen.choice(lam[: max(1, n // 2)], n) + 1e-13 * gen.standard_normal(n)
    elif kind == "skew":
        lam = 1j * lam.imag
    elif kind == "hermitian":
        lam = lam.real
    _assert_same_bits(_hidden_normal(lam, seed, scale))


def _planted_gap_spectrum(g):
    # ||a||_2 = 1 from the eigenvalue 1j; two eigenvalues with real parts
    # 0.05 and 0.05 + gap, gap = g * cluster_rtol * ||a||_2, and apart
    # in imaginary part so that they separate when they cluster; filler
    # on the imaginary axis puts the gap strictly inside the bracket
    # (max(max|Re|, ||a||_F / sqrt(n)) < g < ||a||_F).
    gap = g * DEFAULT_TOL.cluster_rtol
    if g < 1.0:
        filler = [0.05j, -0.05j] * 4
    else:
        filler = [1j, -1j] * int(np.ceil(0.55 * g * g))
    lam = np.array([1j, 0.05 + 0.3j, 0.05 + gap - 0.3j] + filler)
    fro = np.sqrt(np.sum(np.abs(lam) ** 2))
    assert max(0.05 + gap, fro / np.sqrt(len(lam))) < 0.9 * g and fro > 1.04 * g
    return lam


@pytest.mark.parametrize("g", [0.5, 1.0, 2.0, 5.0, 20.0])
@pytest.mark.parametrize("scale, seed", [(1e-6, 11), (1.0, 12), (1e6, 13)])
def test_eig_normal_bracket_miss_takes_the_exact_radius(g, scale, seed):
    # Single linkage flips on the planted gap somewhere between the two
    # ends of the bracket, so eig_normal has to take the exact norm.
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_spectral_norms(mp)
        a = _hidden_normal(_planted_gap_spectrum(g), seed, scale)
        _assert_same_bits(a)
    assert calls == [a.shape]


def test_eig_normal_bracket_hit_takes_no_spectral_norm(monkeypatch):
    calls = _count_spectral_norms(monkeypatch)
    _assert_same_bits(_hidden_normal([2.0, 1j, -1.0 + 0.5j], 7, 1.0))
    assert calls == []


@settings(deadline=None, max_examples=60)
@example(0.3, 2, 3, 1.0, 0)
@example(1.2, 1, 1, 1e-6, 1)
@given(
    st.floats(0.05, 1.5),
    st.integers(1, 4),
    st.integers(1, 4),
    st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
    st.integers(0, 2**32 - 1),
)
def test_eig_normal_rotates_where_the_skew_part_separates(theta, m1, m2, scale, seed):
    # Conjugate eigenvalues exp(+-i theta) share a real part, so they
    # share a cluster of the Hermitian part, and only its rotation by
    # the skew part tells them apart: the cosquare eigenvalues of star
    # rays at theta / 2 and pi - theta / 2, and of a unimodular
    # congruence mu with its partner conj(mu).  The cluster must still
    # be rotated.
    z = np.exp(1j * theta)
    lam = np.array([z] * m1 + [z.conjugate()] * m2 + [3.0, -2.0 + 0.5j])
    with pytest.MonkeyPatch.context() as mp:
        rotated = record_rotations(mp)
        got, u = eig_normal(_hidden_normal(lam, seed, scale))
    # One rotation, before any reconstruction missed the bound.
    assert len(rotated) == 1
    shared = [idx for idx in rotated[0] if len(idx) == m1 + m2]
    assert shared and np.allclose(got[shared[0]].real, scale * z.real)
    assert_unitary(u)
    for part in (np.real, np.imag):
        expected = np.sort(part(scale * lam))
        assert np.allclose(np.sort(part(got)), expected, rtol=0.0, atol=1e-9 * scale)


@pytest.mark.parametrize("seed", range(8))
def test_eig_normal_rotates_a_pair_a_few_radii_apart_at_a_tight_radius(seed):
    # exp(+-i eps), among 62 other unimodular eigenvalues, share an
    # eigenvalue of the Hermitian part.  With 2 sin eps three radii at
    # cluster_rtol = 1e-13, their mixed Rayleigh residual lies below the
    # rounding error of a u at n = 64, but above the cap at 2^-10 of the
    # radius: the cluster must be rotated, and each of the two come back
    # within a quarter radius.
    tol = ToleranceConfig(cluster_rtol=1e-13)
    z = np.exp(1j * np.arcsin(1.5 * tol.cluster_rtol))
    g = default_rng(seed)
    lam = np.concatenate([[z, z.conjugate()], np.exp(1j * g.uniform(0.5, 2.5, 62))])
    got, u = eig_normal(_hidden_normal(lam, seed, 1.0), tol)
    assert_unitary(u)
    for want in (z, z.conjugate()):
        assert np.min(np.abs(got - want)) <= tol.cluster_rtol / 4.0


@pytest.mark.parametrize("side", ["right", "left"])
def test_polar_reconstruction(side):
    a = random_complex(4, 4)
    f = polar(a, side=side)
    assert f.side == side
    assert_unitary(f.w)
    assert norm(f.q - f.q.conj().T) == 0.0
    assert np.min(np.linalg.eigvalsh(f.q)) >= -1e-10 * norm(a)
    recon = f.w @ f.q if side == "right" else f.q @ f.w
    assert norm(recon - a) <= 1e-9 * norm(a)


def test_polar_singular_input():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = polar(a)
    assert_unitary(f.w)
    assert norm(f.w @ f.q - a) <= 1e-12


def test_polar_rejects_bad_side():
    with pytest.raises(ValueError):
        polar(np.eye(2), side="middle")


def test_takagi_reconstruction():
    b = random_complex(5, 5)
    a = b + b.T
    sigma, v = takagi_symmetric(a)
    assert_unitary(v)
    assert np.all(np.diff(sigma) <= 0)
    assert norm((v * sigma) @ v.T - a) <= 1e-9 * norm(a)


def test_takagi_rank_deficient():
    c = random_complex(4, 2)
    a = c @ c.T
    sigma, v = takagi_symmetric(a)
    assert norm((v * sigma) @ v.T - a) <= 1e-9 * norm(a)
    assert sigma[2] <= 1e-10 * norm(a)
    assert sigma[3] <= 1e-10 * norm(a)


def test_takagi_repeated_singular_values():
    # An identity block leaves the whole gauge freedom to the eigh.
    a = np.eye(3, dtype=np.complex128)
    sigma, v = takagi_symmetric(a)
    assert norm((v * sigma) @ v.T - a) <= 1e-9


def _takagi_input(n, kind, seed):
    """A complex symmetric n x n input u diag(s) u^T of the named kind."""
    g = default_rng(seed)
    s = g.uniform(0.1, 2.0, n)
    if kind == "palette":
        # Repeated values: every eigenspace of the embedding has
        # multiplicity above one.
        s = g.choice([0.5, 1.0, 1.5], n)
    elif kind == "inside_radius":
        s = g.choice([0.5, 1.5], n) * (1.0 + 1e-13 * g.standard_normal(n))
    elif kind == "rank_deficient":
        s[: n // 2] = 0.0
    elif kind == "zero":
        s[:] = 0.0
    elif kind == "above_cutoff":
        # Two values just above the rank cutoff rank_rtol n sigma_1: the
        # embedding mixes their vectors with those of -sigma by about
        # u / 1e-9 unless they are orthonormalized.
        top = float(np.max(s))
        s[: min(n - 1, 2)] = DEFAULT_TOL.rank_rtol * n * top * (1.0 + 1e-3 * g.random())
    elif kind == "below_tail":
        # Values just above 2^-10 sigma_1, the smallest ones kept as
        # the embedding gives them.
        s[: n // 2] = 2.0**-10 * float(np.max(s)) * (1.0 + 1e-3 * g.random(n // 2))
    u = random_unitary(n, g)
    a = (u * s) @ u.T
    if kind == "generic":
        b = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        a = b + b.T
    elif kind == "one_by_one":
        a = np.array([[g.choice([-2.5, -1.0 + 0.5j, 3j, -1e-3j])]], dtype=np.complex128)
    return (a + a.T) / 2.0


TAKAGI_KINDS = [
    "generic",
    "palette",
    "inside_radius",
    "rank_deficient",
    "zero",
    "above_cutoff",
    "below_tail",
    "one_by_one",
]


@settings(deadline=None, max_examples=150)
@example(3, "zero", 0)
@example(1, "one_by_one", 0)
@example(6, "above_cutoff", 1)
@example(13, "palette", 2)
@given(st.integers(1, 13), st.sampled_from(TAKAGI_KINDS), st.integers(0, 2**32 - 1))
def test_takagi_factorizes_every_kind_of_symmetric_input(n, kind, seed):
    a = _takagi_input(1 if kind == "one_by_one" else n, kind, seed)
    n = a.shape[0]
    sigma, v = takagi_symmetric(a)
    fro = norm(a)
    # Kept vectors are orthonormal to about u ||a|| / 2^-10 sigma_1, the
    # replaced ones to rounding.
    assert norm(v.conj().T @ v - np.eye(n)) <= 2.0**12 * n * factorizations._UNIT
    assert norm((v * sigma) @ v.T - a) <= DEFAULT_TOL.residual_rtol * fro
    assert np.all(np.diff(sigma) <= 0.0) and np.all(sigma >= 0.0)
    expected = np.linalg.svd(a, compute_uv=False)
    assert np.max(np.abs(sigma - expected)) <= factorizations._value_error(n) * fro


def test_takagi_takes_one_eigh_and_no_svd_on_a_repeated_palette(monkeypatch):
    # The embedding's eigh gives every Takagi vector, repeated values
    # included: no SVD, and no eig_normal per cluster.
    calls = []
    for name in ("eigh", "svd"):
        original = getattr(np.linalg, name)

        def counted(x, *args, _name=name, _f=original, **kwargs):
            calls.append((_name, np.shape(x)))
            return _f(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    a = _takagi_input(9, "palette", 3)
    takagi_symmetric(a)
    assert calls == [("eigh", (18, 18))]


def test_takagi_rejects_nonsymmetric():
    with pytest.raises(PreconditionError):
        takagi_symmetric([[0.0, 1.0], [0.0, 0.0]])


def test_hua_skew_reconstruction():
    b = random_complex(6, 6)
    a = b - b.T
    tau, v = hua_skew(a)
    assert_unitary(v)
    s = np.zeros((6, 6), dtype=np.complex128)
    for j, t in enumerate(tau):
        s[2 * j, 2 * j + 1] = t
        s[2 * j + 1, 2 * j] = -t
    assert norm(v @ s @ v.T - a) <= 1e-9 * norm(a)
    assert np.all(tau > 0)


def test_hua_skew_oracle_2x2():
    tau, v = hua_skew([[0.0, 3.0], [-3.0, 0.0]])
    assert tau == pytest.approx([3.0])


def test_hua_skew_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        hua_skew(np.eye(2))
    with pytest.raises(PreconditionError):
        hua_skew(np.zeros((2, 2)))
    with pytest.raises(PreconditionError):
        hua_skew(np.zeros((3, 3)))


def _hidden_skew(taus, seed):
    v = random_unitary(2 * len(taus), default_rng(seed))
    s = np.zeros((2 * len(taus),) * 2, dtype=np.complex128)
    for j, t in enumerate(taus):
        s[2 * j, 2 * j + 1] = t
        s[2 * j + 1, 2 * j] = -t
    return v @ s @ v.T


@pytest.mark.parametrize("log_tau", [0.0, -4.0, -7.0, -8.5, -9.0, -9.5, -10.0, -12.0, -16.0])
def test_hua_skew_rank_decision_matches_rank(log_tau):
    # Hua's rank check is rank()'s, on either side of the rank cutoff.
    a = _hidden_skew([1.0, 2.0, 10.0**log_tau], 20261025)
    if rank(a) < a.shape[0]:
        with pytest.raises(PreconditionError, match="^matrix is singular$"):
            hua_skew(a)
    else:
        try:
            hua_skew(a)
        except ConvergenceError:
            pass


RADIUS = 1e-8
Z = 2.0 + 1.0j
PAIRING_CASES = {
    # map: (partner, mu_first, values, fixed (mean, indices),
    #       pairs (mu indices, partner indices))
    "reciprocal": (
        _CONGRUENCE.partner,
        _CONGRUENCE.mu_first,
        [Z, 1.0, -1.0, -2.0j, 1.0 / Z, -1.0 + 1e-12j, Z * (1.0 + 1e-12), 1.0 / Z,
         0.5j, np.exp(-0.7j), np.exp(0.7j)],
        [(1.0, [1]), (-1.0, [2, 5])],
        [([4, 7], [0, 6]), ([8], [3]), ([10], [9])],
    ),
    "conjugate_reciprocal": (
        _STAR.partner,
        _STAR.mu_first,
        [1.0 / (-0.3j), np.exp(0.7j), 0.3j, np.exp(0.7j) * (1.0 + 1e-12)],
        [(np.exp(0.7j), [1, 3])],
        [([2], [0])],
    ),
    "conjugate": (
        np.conj,
        lambda z, radius: z.imag > 0.0,
        [1.0 - 1.0j, 2.0, 1.0 + 1.0j, -3.0, -3.0 + 1e-12j],
        [(2.0, [1]), (-3.0, [3, 4])],
        [([2], [0])],
    ),
}


@pytest.mark.parametrize("kind", PAIRING_CASES)
def test_pair_clusters_fixed_clusters_and_pairs(kind):
    partner, mu_first, values, want_fixed, want_pairs = PAIRING_CASES[kind]
    values = np.array(values, dtype=np.complex128)
    fixed, pairs = factorizations._pair_clusters(values, partner, mu_first, RADIUS)
    # A cluster that is its own image is fixed, with the mean of its
    # values as given (not as folded); a pair lists its mu-side indices
    # first, and the pairs come by their smallest index.
    assert [idx for _, idx in fixed] == [idx for _, idx in want_fixed]
    assert [m for m, _ in fixed] == pytest.approx([m for m, _ in want_fixed])
    assert [m for m, _ in fixed] == [complex(np.mean(values[idx])) for _, idx in fixed]
    assert pairs == want_pairs


@pytest.mark.parametrize(
    "partner,mu_first,lonely,twin",
    [
        (_CONGRUENCE.partner, _CONGRUENCE.mu_first, 0.5, 2.0),
        (_STAR.partner, _STAR.mu_first, 0.5j, 2.0j),
        (np.conj, lambda z, radius: z.imag > 0.0, 1.0 + 1.0j, 1.0 - 1.0j),
    ],
    ids=list(PAIRING_CASES),
)
def test_pair_clusters_rejects_a_missing_partner_and_a_size_mismatch(
    partner, mu_first, lonely, twin
):
    # A lone cluster and clusters of unequal size are one error: the two
    # sides of a folded cluster differ in size.
    for values in ([lonely], [lonely, twin, twin], [twin, twin, lonely]):
        with pytest.raises(PreconditionError, match="do not pair up"):
            factorizations._pair_clusters(
                np.array(values, dtype=np.complex128), partner, mu_first, RADIUS
            )


@pytest.mark.parametrize("scale", [1e80, 1e100, 1e140])
def test_eig_normal_rejects_non_normal_input_at_any_scale(scale):
    # The norms of a* a overflow at these scales; the normality residual
    # is measured on a scaled copy and names the real cause.
    a = scale * random_matrix(5, default_rng(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            PreconditionError, match=r"^matrix is not normal \(residual 5\.319e-01\)$"
        ):
            eig_normal(a)
