"""Scale: every entry point works on its input scaled by a power of two.

Scaling by 2^k is exact while the entries stay normal, and the forms are
homogeneous: tau, sigma and the 1-by-1 entries scale by 2^k, mu and the
transforms do not.  Each entry point scales its input to unit size
first, so its answer at 2^k a is that at a, scaled back, bit for bit.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonica import (
    canon_congruence,
    canon_quadratic,
    canon_star,
    classify,
    decide_unitary_congruence,
    decide_unitary_star_congruence,
    regularize,
)
from canonica.blocks import antidiag_block, direct_sum
from canonica.equivalence import forms_match
from canonica.errors import CanonicaError, PreconditionError
from canonica.factorizations import eig_normal, hua_skew, takagi_symmetric
from canonica.matrix import DEFAULT_TOL
from canonica.sampling import (
    default_rng,
    random_congruence_instance,
    random_matrix,
    random_quadratic_instance,
    random_star_instance,
    random_unitary,
)

KS = (-1000, -600, -520, -300, 0, 200, 256, 300, 520, 1000)
MODES = {
    "star": (random_star_instance, canon_star, decide_unitary_star_congruence),
    "congruence": (
        random_congruence_instance,
        canon_congruence,
        decide_unitary_congruence,
    ),
}
TINY = float(np.finfo(np.float64).tiny)
HUGE = float(np.finfo(np.float64).max)


def _instances():
    gen = default_rng(11)
    out = {}
    for mode, (sample, _, _) in MODES.items():
        for n in (6, 40, 128):
            for singular in (False, True):
                out[mode, n, singular] = sample(n, gen, singular=singular)[1]
    return out


INSTANCES = _instances()


def _normal_at(a: np.ndarray, k: int) -> bool:
    """Whether every nonzero part of 2^k a is a normal float."""
    parts = np.abs(a.view(np.float64))
    parts = parts[parts > 0.0]
    return math.ldexp(float(parts.min()), k) >= TINY and (
        math.ldexp(float(parts.max()), k) <= HUGE / 2.0
    )


def _scaled(x, k: int):
    """2^k x for a float, a complex number or an array of either."""
    parts = np.ascontiguousarray(x)
    return np.ldexp(parts.view(np.float64), k).view(parts.dtype)


def _form_at(form, k: int):
    ones = [complex(v) for v in form.one_by_one]
    return (
        [complex(_scaled(np.array([v]), k)[0]) for v in ones],
        [(math.ldexp(t, k), m) for t, m in form.two_by_two],
    )


def _same_form(got, want, k: int) -> None:
    assert [complex(v) for v in got.one_by_one] == _form_at(want, k)[0]
    assert list(got.two_by_two) == _form_at(want, k)[1]


def _ks(a):
    return [k for k in KS if _normal_at(a, k)]


@pytest.mark.parametrize("key", list(INSTANCES), ids=lambda key: "-".join(map(str, key)))
def test_canon_is_exactly_equivariant(key):
    mode = key[0]
    canon = MODES[mode][1]
    a = INSTANCES[key]
    base, t0 = canon(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in _ks(a):
            form, t = canon(_scaled(a, k))
            assert np.array_equal(t, t0), k
            _same_form(form, base, k)


@pytest.mark.parametrize("key", list(INSTANCES), ids=lambda key: "-".join(map(str, key)))
def test_regularize_is_exactly_equivariant(key):
    mode = key[0]
    a = INSTANCES[key]
    base = regularize(a, mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in _ks(a):
            reduced = regularize(_scaled(a, k), mode)
            assert (reduced.m1, reduced.m2) == (base.m1, base.m2)
            assert np.array_equal(reduced.transform, base.transform), k
            assert np.array_equal(reduced.core, _scaled(base.core, k)), k
            assert np.array_equal(reduced.sigma, _scaled(base.sigma, k)), k


@pytest.mark.parametrize("key", list(INSTANCES), ids=lambda key: "-".join(map(str, key)))
def test_decide_gives_the_same_verdict_at_every_scale(key):
    mode, n, _ = key
    decide = MODES[mode][2]
    a = INSTANCES[key]
    u = random_unitary(n, default_rng(n))
    b = u @ a @ (u.T if mode == "congruence" else u.conj().T)
    # Out of class, and in class but not equivalent.
    moved = a.copy()
    moved[0, 0] += 1e-3 * np.abs(a).max()
    for other in (b, moved, (1.0 + 1e-3) * a):
        base = decide(a, other)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in _ks(a):
                if _normal_at(other, k):
                    got = decide(_scaled(a, k), _scaled(other, k))
                    assert (got.verdict, got.method) == (base.verdict, base.method), k
    assert decide(a, b).verdict == "equivalent"
    assert decide(a, (1.0 + 1e-3) * a).verdict == "not_equivalent"


# ----- inputs that failed at extreme scales or under the floor ----------


def test_small_generic_input_is_in_no_gate_class():
    # At 1e-3 the absolute floor used to swamp the gate identities of a
    # generic matrix, and canon_star then failed inside eig_normal.
    g = 1e-3 * random_matrix(6, default_rng(0))
    report = classify(g)
    assert not report["congruence_normal"]
    assert not report["squared_normal"]
    with pytest.raises(PreconditionError, match="^input is not squared normal "):
        canon_star(g)


def test_huge_input_is_classified_and_reduced():
    x = random_star_instance(6, default_rng(5))[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residuals = classify(1e80 * x).residuals
        report = classify(1e160 * x)
        form, t = canon_star(1e160 * x)
    assert not any(math.isnan(r) for r in residuals.values())
    assert report["squared_normal"]
    base, _ = canon_star(x)
    taus = [tau for tau, _ in form.two_by_two]
    assert taus == pytest.approx([1e160 * tau for tau, _ in base.two_by_two], rel=1e-12)


@pytest.mark.parametrize("scale", [1e-160, 1e-200])
def test_tiny_singular_input_is_reduced(scale):
    xc = random_congruence_instance(6, default_rng(5), singular=True)[1]
    base, _ = canon_congruence(xc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        form, _ = canon_congruence(scale * xc)
    assert len(form.one_by_one) == len(base.one_by_one)
    assert [tau for tau, _ in form.two_by_two] == pytest.approx(
        [scale * tau for tau, _ in base.two_by_two], rel=1e-12, abs=0.0
    )


PEARCY_X = np.array([[1.0, 2.0], [0.0, 3.0]])
PEARCY_Y = np.array([[1.0, 2.5], [0.0, 3.0]])


@pytest.mark.parametrize("scale", [1e-5, 2.0**-600, 1.0, 1e3])
def test_pearcy_compares_traces_at_unit_scale(scale):
    # tr x* x and tr y* y differ by 2.25 scale^2: at 1e-5 that is below
    # the trace test's floor of 1 times residual_rtol, and at 2^-600 it
    # underflows, so at the input's scale the pair was called equivalent.
    x, y = scale * PEARCY_X, scale * PEARCY_Y
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = decide_unitary_star_congruence(x, y)
        same = decide_unitary_star_congruence(x, x.T)
    assert (got.verdict, got.method) == ("not_equivalent", "pearcy")
    assert (same.verdict, same.method) == ("equivalent", "pearcy")
    # The reported traces, taken at unit scale and scaled back, are
    # those at the input's scale bit for bit.
    traces = got.detail["traces"]
    assert traces["a"] == [[t.real, t.imag] for t in map(complex, _traces(x))]
    assert traces["b"] == [[t.real, t.imag] for t in map(complex, _traces(y))]


def test_pearcy_traces_past_the_float_range_read_inf():
    # At 1e160 tr x^2 and tr x* x lie past the float range.  Taken at
    # the input's scale, their imaginary parts read nan.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = decide_unitary_star_congruence(1e160 * PEARCY_X, 1e160 * PEARCY_Y)
    assert (got.verdict, got.method) == ("not_equivalent", "pearcy")
    for traces in got.detail["traces"].values():
        assert traces[0] == pytest.approx([4e160, 0.0], rel=1e-15)
        assert traces[1:] == [[math.inf, 0.0], [math.inf, 0.0]]


def _traces(x):
    return np.trace(x), np.trace(x @ x), np.trace(x.conj().T @ x)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e160])
def test_canon_quadratic_runs_at_unit_scale(scale):
    # At the input's scale its scalar test called 1e-12 q scalar under
    # its floor of 1, and 1e160 q once its norms overflowed.  At unit
    # scale the roots, blocks and singular values come back 2^k times
    # those of 2^-k a.
    a = scale * random_quadratic_instance(4, default_rng(1))[0]
    k = math.frexp(float(np.abs(a).max()))[1] - 1
    want = canon_quadratic(_scaled(a, -k))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = canon_quadratic(a)
    assert got.roots == tuple(_scaled(np.array(want.roots), k).tolist())
    assert len(got.blocks) == len(want.blocks)
    for block, base in zip(got.blocks, want.blocks):
        assert np.array_equal(block, _scaled(base, k))
    assert got.predicted_singular_values == tuple(
        math.ldexp(s, k) for s in want.predicted_singular_values
    )


# ----- the public factorizations -----------------------------------------

FACTOR_KS = (-1000, -600, 0, 600, 1000)
X = random_matrix(4, default_rng(0))
FACTORIZATIONS = {"takagi_symmetric": (takagi_symmetric, X + X.T), "hua_skew": (hua_skew, X - X.T)}


@pytest.mark.parametrize("name", list(FACTORIZATIONS))
def test_symmetric_factorizations_are_exactly_equivariant(name):
    # sigma (tau) scales with the input and v does not, bit for bit.
    factor, a = FACTORIZATIONS[name]
    values, v = factor(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in FACTOR_KS:
            assert _normal_at(a, k) and _normal_at(values, k), k
            got, w = factor(_scaled(a, k))
            assert np.array_equal(got, _scaled(values, k)), k
            assert np.array_equal(w, v), k


def test_eig_normal_measures_the_same_residual_at_every_scale():
    with pytest.raises(PreconditionError) as base:
        eig_normal(X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in FACTOR_KS:
            with pytest.raises(PreconditionError) as info:
                eig_normal(_scaled(X, k))
            assert info.value.residual == base.value.residual, k


@pytest.mark.parametrize("scale", [2.0**-600, 1e160])
def test_eig_normal_decomposes_at_the_input_scale(scale):
    # Only the checks run at unit scale; lam and u are computed on the
    # input itself, so they are not pinned bit for bit against 2^-e a.
    lam = np.array([3.0, -1.0 + 2.0j, 0.5j, 2.0 - 1.0j])
    q = random_unitary(4, default_rng(3))
    a = (q * lam) @ q.conj().T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, u = eig_normal(scale * a)
        assert np.linalg.norm((u * (got / scale)) @ u.conj().T - a) <= 1e-12
    assert sorted(got / scale, key=lambda z: (z.real, z.imag)) == pytest.approx(
        sorted(lam, key=lambda z: (z.real, z.imag)), abs=1e-12
    )


@pytest.mark.parametrize("factor", [takagi_symmetric, hua_skew, eig_normal])
@pytest.mark.parametrize("scale", [1e-12, 1e-6])
def test_small_input_outside_a_factorization_class_is_rejected(factor, scale):
    # With the floor of 1 at the input's scale, each call at 1e-12
    # returned a factorization, and eig_normal at 1e-6 raised
    # ConvergenceError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError):
            factor(scale * X)


def test_eig_normal_names_the_normality_residual_at_1e_6():
    with pytest.raises(PreconditionError, match=r"^matrix is not normal \(residual 4\.604e-01\)$"):
        eig_normal(1e-6 * X)


def test_huge_factorization_input_is_measured_at_unit_scale():
    # At 1e160 hua_skew's Gram matrix overflowed into numpy's LinAlgError.
    tau, _ = hua_skew(X - X.T)
    with pytest.raises(PreconditionError) as base:
        eig_normal(X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _ = hua_skew(1e160 * (X - X.T))
        with pytest.raises(PreconditionError) as info:
            eig_normal(1e160 * X)
    assert np.max(np.abs(got - 1e160 * tau) / (1e160 * tau)) <= 1e-15
    assert info.value.residual == pytest.approx(base.value.residual, rel=1e-12)


# ----- metamorphic stress family -----------------------------------------


def _stressed(mode: str, seed: int, gap: float, shave: float, theta: float):
    """A planted form with two mu one gap * cluster_rtol apart and one mu
    within shave of the unit circle, behind a random unitary."""
    rtol = DEFAULT_TOL.cluster_rtol
    mu = 0.3 * np.exp(1j * theta)
    blocks = [
        np.array([[1.5]], dtype=np.complex128),
        antidiag_block(1.0, mu),
        antidiag_block(1.25, mu + gap * rtol),
        antidiag_block(0.75, (1.0 - shave) * np.exp(1j * (theta + 1.0))),
    ]
    b = direct_sum(blocks)
    u = random_unitary(b.shape[0], default_rng(seed))
    return u @ b @ (u.T if mode == "congruence" else u.conj().T)


def _outcome(canon, a):
    try:
        return canon(a)
    except CanonicaError as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from(sorted(MODES)),
    st.integers(0, 2**32 - 1),
    st.sampled_from([10.0, 1.0, 0.1]),
    st.floats(0.0, 1e-9),
    st.floats(0.0, 2.0 * math.pi),
)
def test_stressed_forms_scale_exactly_or_fail_alike(mode, seed, gap, shave, theta):
    canon = MODES[mode][1]
    a = _stressed(mode, seed, gap, shave, theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = _outcome(canon, a)
        for k in (-500, 500):
            got = _outcome(canon, _scaled(a, k))
            if isinstance(base[0], type):
                assert got == base
            else:
                assert np.array_equal(got[1], base[1])
                _same_form(got[0], base[0], k)


# ----- metamorphic: unitary invariance and scales off the powers of two ---

CS = (1e-8, 1e-3, 0.7, 1e3, 1e8)


def _metamorphic_cases():
    gen = default_rng(23)
    return [
        (mode, n, singular, MODES[mode][0](n, gen, singular=singular)[1], random_unitary(n, gen))
        for mode in sorted(MODES)
        for n in range(3, 9)
        for singular in (False, True)
    ]


METAMORPHIC = _metamorphic_cases()


def _times(form, c: float):
    """c times the form: c scales tau and the 1-by-1 entries, not mu."""
    return type(form).build([c * v for v in form.one_by_one], [(c * t, m) for t, m in form.two_by_two])


@pytest.mark.parametrize(
    "mode, n, singular, a, u", METAMORPHIC, ids=[f"{m}-{n}-{s}" for m, n, s, _, _ in METAMORPHIC]
)
def test_canon_and_decide_are_metamorphic(mode, n, singular, a, u):
    # canon(u a u^{T/*}) = canon(a), canon(c a) = c canon(a), and
    # decide(c a, c u a u^{T/*}) is equivalent, within the block-match
    # tolerance, for scales c that are not powers of two.
    _, canon, decide = MODES[mode]
    b = u @ a @ (u.T if mode == "congruence" else u.conj().T)
    base, _ = canon(a)
    assert forms_match(canon(b)[0], base)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in CS:
            assert forms_match(canon(c * a)[0], _times(base, c))[0], c
            assert decide(c * a, c * b).verdict == "equivalent", c
