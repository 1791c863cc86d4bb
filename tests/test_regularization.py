"""Reduction of singular matrices and the in-class block split."""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canonica.regularization as regularization
from canonica.canon_congruence import canon_congruence
from canonica.canon_star import canon_star
from canonica.errors import ConvergenceError, PreconditionError
from canonica.factorizations import svd
from canonica.matrix import DEFAULT_TOL, norm, rank
from canonica.predicates import classify
from canonica.regularization import regularize, split_regular_singular
from canonica.blocks import direct_sum
from canonica.sampling import (
    default_rng,
    random_congruence_instance,
    random_star_instance,
    random_unitary,
)

J2 = np.array([[0.0, 1.0], [0.0, 0.0]])


def apply(t, a, mode):
    return t @ a @ (t.T if mode == "congruence" else t.conj().T)


def nullity_intersection(a, mode):
    """dim of null(a) ∩ null(a^T) (congruence) or null(a) ∩ null(a*)."""
    other = a.T if mode == "congruence" else a.conj().T
    return a.shape[0] - rank(np.vstack([a, other]), scale=norm(a, kind="spectral"))


@pytest.mark.parametrize("mode", ["congruence", "star"])
def test_nilpotent_jordan_block(mode):
    red = regularize(J2, mode)
    assert (red.m1, red.m2) == (1, 1)
    assert red.sigma == pytest.approx([1.0])
    assert red.core.shape == (1, 1)
    assert norm(apply(red.transform, J2, mode) - red.assembled()) <= 1e-10
    assert norm(red.assembled() - J2) <= 1e-10


def test_nonsingular_input_is_untouched():
    a = np.diag([1.0, 2.0])
    red = regularize(a, "congruence")
    assert (red.m1, red.m2) == (0, 0)
    assert np.array_equal(red.core, a)
    assert np.array_equal(red.transform, np.eye(2))
    assert len(red.sigma) == 0


def test_zero_input():
    red = regularize(np.zeros((3, 3)), "star")
    assert (red.m1, red.m2) == (3, 0)
    assert red.core.shape == (0, 0)
    assert np.array_equal(red.assembled(), np.zeros((3, 3)))


def test_symmetric_rank_one_has_no_coupling():
    # Shared left and right null spaces force m2 = 0.
    u = np.array([[1.0], [2.0]]) / np.sqrt(5.0)
    a = u @ u.T
    red = regularize(a, "congruence")
    assert (red.m1, red.m2) == (1, 0)
    assert abs(red.core[0, 0]) == pytest.approx(1.0)


def test_mode_validation():
    with pytest.raises(ValueError):
        regularize(J2, "both")
    with pytest.raises(ValueError):
        split_regular_singular(J2, "both")


@pytest.mark.parametrize("mode", ["congruence", "star"])
def test_generic_singular_reduction(mode):
    gen = np.random.default_rng(11 if mode == "congruence" else 12)
    for trial in range(10):
        n = 3 + trial % 3
        r = 1 + trial % (n - 1)
        c = gen.standard_normal((n, r)) + 1j * gen.standard_normal((n, r))
        d = gen.standard_normal((r, n)) + 1j * gen.standard_normal((r, n))
        a = c @ d
        red = regularize(a, mode)
        assert red.m1 == n - r
        assert norm(red.transform.conj().T @ red.transform - np.eye(n)) <= 1e-9
        got = apply(red.transform, a, mode)
        assert norm(got - red.assembled()) <= 1e-8 * max(1.0, norm(a))
        assert all(s > 0 for s in red.sigma)
        assert len(red.sigma) == red.m2
        # The coupling count is the nullity minus the shared null space.
        assert red.m2 == red.m1 - nullity_intersection(a, mode)


@pytest.mark.parametrize("mode", ["congruence", "star"])
def test_reduction_shape_is_transformation_invariant(mode):
    # (m1, m2, sigma) must not depend on the unitary presentation.
    gen = np.random.default_rng(21 if mode == "congruence" else 22)
    for trial in range(5):
        n = 4 + trial % 2
        if mode == "congruence":
            _, a = random_congruence_instance(n, gen, singular=True)
        else:
            _, a = random_star_instance(n, gen, singular=True)
        u = random_unitary(n, gen)
        b = apply(u, a, mode)
        red_a = regularize(a, mode)
        red_b = regularize(b, mode)
        assert (red_a.m1, red_a.m2) == (red_b.m1, red_b.m2)
        assert np.sort(red_a.sigma) == pytest.approx(np.sort(red_b.sigma), abs=1e-8)


def test_reduced_form_json_shape():
    obj = regularize(J2, "star").to_json()
    assert set(obj) == {"mode", "m1", "m2", "core", "sigma", "transform"}
    assert obj["sigma"] == pytest.approx([1.0])
    assert obj["core"]["rows"] == 1


def test_split_mixed_example():
    a = direct_sum([J2, np.array([[5.0]])])
    split = split_regular_singular(a, "star")
    assert split.regular.shape == (1, 1)
    assert abs(split.regular[0, 0]) == pytest.approx(5.0)
    assert split.singular_sigmas == pytest.approx([1.0])
    assert split.zero_count == 0
    got = apply(split.transform, a, "star")
    assert norm(got - split.assembled()) <= 1e-8


def test_split_with_zero_rows():
    a = direct_sum([J2, np.zeros((1, 1))])
    split = split_regular_singular(a, "star")
    assert split.regular.shape == (0, 0)
    assert split.singular_sigmas == pytest.approx([1.0])
    assert split.zero_count == 1


def test_split_nonsingular_is_all_regular():
    a = np.diag([2.0, 3.0])
    split = split_regular_singular(a, "congruence")
    assert split.regular.shape == (2, 2)
    assert len(split.singular_sigmas) == 0
    assert split.zero_count == 0


def test_split_requires_class_membership():
    a = np.array([[0.0, 1.0], [0.0, 2.0]])
    for mode, flag in (("congruence", "congruence_normal"), ("star", "squared_normal")):
        with pytest.raises(PreconditionError) as info:
            split_regular_singular(a, mode)
        # The gate's residual is classify's, bit for bit.
        assert info.value.residual == classify(a).residuals[flag]


def test_split_random_instances_round_trip():
    gen = np.random.default_rng(31)
    for trial in range(5):
        n = 4 + trial % 3
        mode = "congruence" if trial % 2 == 0 else "star"
        if mode == "congruence":
            _, a = random_congruence_instance(n, gen, singular=True)
        else:
            _, a = random_star_instance(n, gen, singular=True)
        split = split_regular_singular(a, mode)
        got = apply(split.transform, a, mode)
        assert norm(got - split.assembled()) <= 1e-7 * max(1.0, norm(a))
        assert rank(split.regular) == split.regular.shape[0]


def test_split_json_shape():
    obj = split_regular_singular(J2, "star").to_json()
    assert set(obj) == {
        "mode",
        "regular",
        "singular_sigmas",
        "zero_count",
        "transform",
    }


@pytest.mark.parametrize("coupling", [1e-9, 1e-8, 1e-7])
@pytest.mark.parametrize("mode,name", [("congruence", "cosquare"), ("star", "star_cosquare")])
def test_split_rejects_a_singular_regular_part(mode, name, coupling):
    # The bordering entry passes the vanishing test and lends the rank
    # identity's product the rank that the regular part [[0]] lacks.
    a = np.zeros((3, 3))
    a[0, 1] = coupling
    a[1, 2] = 1.0
    with pytest.raises(PreconditionError, match=f"^{name} requires a nonsingular"):
        split_regular_singular(a, mode)


def _svd_of_gate_product(a, mode):
    return np.linalg.svd(regularization._gate_product(a, mode), compute_uv=False)


def _by_reduction(a, mode):
    """The split through regularize, checked by the singular values of
    the gate product whatever they prove."""
    return regularization._split_by_reduction(
        a, mode, DEFAULT_TOL, _svd_of_gate_product(a, mode)
    )


def _by_svd(a, mode):
    """The split as the gate product's singular values decide it: the
    test of _weyl_terms proves it trivial, or the reduction route is
    checked by them."""
    s_product = _svd_of_gate_product(a, mode)
    _, slack, cutoff = regularization._weyl_terms(a, DEFAULT_TOL)
    if a.shape[0] > 0 and float(s_product[-1]) - slack > cutoff:
        return regularization._trivial_split(a, mode)
    return _by_reduction(a, mode)


def _bits(split):
    return (
        split.regular.tobytes(),
        split.transform.tobytes(),
        split.singular_sigmas.tobytes(),
        split.zero_count,
    )


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.sampled_from(["congruence", "star"]),
    st.floats(-6.0, 6.0),
)
def test_proved_split_equals_the_reduction_route(seed, n, mode, log_scale):
    gen = default_rng(seed)
    if mode == "congruence":
        _, a = random_congruence_instance(n, gen)
    else:
        _, a = random_star_instance(n, gen)
    a = a * 10.0 ** log_scale
    # The certificate proves a nonsingular: no regularize.
    with mock.patch.object(regularization, "regularize", side_effect=AssertionError):
        split = split_regular_singular(a, mode)
    assert _bits(split) == _bits(_by_reduction(a, mode))
    assert split.regular.tobytes() == a.tobytes()
    assert len(split.singular_sigmas) == 0 and split.zero_count == 0


def _outcome(split_at):
    try:
        return _bits(split_at())
    except (PreconditionError, ConvergenceError) as exc:
        return type(exc), str(exc)


def _swept(n, mode, log_gap, gen):
    """v diag(d) adj(v) with sigma_min(p) = 10^log_gap ||a||_F^2 for its
    gate product p, whose singular values are d^2."""
    d = gen.uniform(0.5, 2.0, n)
    if n > 1:
        rest = float(np.sum(d[1:] ** 2))
        d[0] = np.sqrt(10.0**log_gap * rest / (1.0 - 10.0**log_gap))
    v = random_unitary(n, gen)
    return apply(v, np.diag(d).astype(np.complex128), mode)


@settings(deadline=None, max_examples=150)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 10),
    st.sampled_from(["congruence", "star"]),
    st.sampled_from(["sampled", "singular", "swept"]),
    st.floats(-14.0, -1.0),
    st.floats(-150.0, 150.0),
)
def test_certificate_never_proves_a_split_the_svd_would_not(
    seed, n, mode, kind, log_gap, log_scale
):
    gen = default_rng(seed)
    if kind == "swept":
        a = _swept(n, mode, log_gap, gen)
    else:
        sample = random_congruence_instance if mode == "congruence" else random_star_instance
        a = sample(n, gen, singular=kind == "singular")[1]
    a = a * 10.0**log_scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # Past about 1e77 the Gram matrix p* p of the gate product
        # overflows: the gate raises, and no split runs.  The
        # certificate is checked on what the gate hands on.
        try:
            _, gram = regularization._gate(a, mode)
        except ConvergenceError:
            assert log_scale > 70.0
            return
        product = regularization._gate_product(a, mode)
        certified = regularization._certifies_trivial_split(a, gram, DEFAULT_TOL)
        if certified:
            s_product = np.linalg.svd(product, compute_uv=False)
            _, slack, cutoff = regularization._weyl_terms(a, DEFAULT_TOL)
            assert float(s_product[-1]) - slack > cutoff
        by_svd = _outcome(lambda: _by_svd(a, mode))
        by_certificate = _outcome(lambda: regularization._split(
            a, mode, DEFAULT_TOL, certified
        ))
        assert by_certificate == by_svd
        if certified:
            assert by_certificate == _outcome(lambda: _by_reduction(a, mode))


@pytest.mark.parametrize("mode", ["congruence", "star"])
def test_certificate_decides_well_conditioned_input_only(mode):
    # The certificate proves the split trivial far from the SVD test's
    # threshold (sigma_min(p) about 1e-10 n ||a||_F^2) and leaves input
    # near it to the SVD.
    gen = default_rng(20261027)
    for log_gap, expected in ((-2.0, True), (-5.0, True), (-9.0, False), (-12.0, False)):
        a = _swept(12, mode, log_gap, gen)
        _, gram = regularization._gate(a, mode)
        got = regularization._certifies_trivial_split(a, gram, DEFAULT_TOL)
        assert got is expected, log_gap


def _reduced_layout(n, gen, log_gap, log_border):
    """A singular matrix in reduced coordinates: a regular part r of
    order k0 whose smallest singular value is 10^log_gap, one or two
    elementary blocks sigma [[0, 1], [0, 0]], zeros, and bordering
    entries of size 10^log_border between r and the blocks' nonzero
    row and column, which keep the blocks' zero row and column zero."""
    m2 = int(gen.integers(1, min(2, (n - 1) // 2) + 1))
    k0 = int(gen.integers(1, n - 2 * m2 + 1))
    x = np.zeros((n, n), dtype=np.complex128)
    q = random_unitary(k0, gen)
    d = gen.uniform(0.5, 2.0, k0)
    d[0] = 10.0**log_gap
    x[:k0, :k0] = (q * d) @ random_unitary(k0, gen)
    border = 10.0**log_border
    for i in range(m2):
        row, col = k0 + 2 * i, k0 + 2 * i + 1
        x[row, col] = gen.uniform(0.5, 2.0)
        x[:k0, col] = border * gen.standard_normal(k0)
        x[row, :k0] = border * gen.standard_normal(k0)
    return x


@settings(deadline=None, max_examples=300)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 10),
    st.sampled_from(["congruence", "star"]),
    st.sampled_from(["sampled", "layout"]),
    st.floats(-9.0, -1.0),
    st.one_of(st.just(-300.0), st.floats(-14.0, -6.0)),
    st.floats(-150.0, 150.0),
)
def test_rank_identity_proof_agrees_with_the_svd_route(
    seed, n, mode, kind, log_gap, log_border, log_scale
):
    # The route that proves the rank identity from regularize's singular
    # values gives the same split bits, or the same error, as the route
    # that takes the singular values of the gate product, on singular
    # input whose sigma_r sweeps across the proof's threshold, whose
    # bordering blocks are perturbed, and whose scale spans 1e-150 to
    # 1e150.
    gen = default_rng(seed)
    if kind == "layout":
        x = _reduced_layout(n, gen, log_gap, log_border)
        a = apply(random_unitary(n, gen), x, mode)
    else:
        sample = random_congruence_instance if mode == "congruence" else random_star_instance
        a = sample(n, gen, singular=True)[1]
    a = a * 10.0**log_scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        by_proof = _outcome(lambda: regularization._split(a, mode, DEFAULT_TOL, False))
        assert by_proof == _outcome(lambda: _by_svd(a, mode))


def _values_only_svds(monkeypatch, n):
    """Record each values-only SVD of an n x n matrix."""
    record = []
    original = np.linalg.svd

    def counted(x, *args, **kwargs):
        if np.shape(x) == (n, n) and not kwargs.get("compute_uv", True):
            record.append(1)
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return record


@pytest.mark.parametrize("mode", ["congruence", "star"])
def test_rank_identity_is_proved_without_the_gate_products_svd(monkeypatch, mode):
    gen = default_rng(20261030)
    sample = random_congruence_instance if mode == "congruence" else random_star_instance
    cases = [sample(n, gen, singular=True)[1] for n in (3, 8, 24, 64)]
    cases.append(_reduced_layout(9, gen, -1.0, -12.0))
    for a in cases:
        expected = _by_svd(a, mode)
        svds = _values_only_svds(monkeypatch, a.shape[0])
        split = regularization._split(a, mode, DEFAULT_TOL, False)
        monkeypatch.undo()
        assert svds == []
        assert _bits(split) == _bits(expected)


@pytest.mark.parametrize(
    "log_gap,log_border", [(-6.0, -300.0), (-1.0, -8.0), (-1.0, -6.0)]
)
@pytest.mark.parametrize("mode", ["congruence", "star"])
def test_split_takes_the_gate_products_svd_when_the_proof_fails(
    monkeypatch, mode, log_gap, log_border
):
    # A regular part with sigma_min = 1e-6, whose square is below the
    # rank identity's cutoff (about 1e-10 n ||a||_2^2), or bordering
    # blocks of 1e-8 or 1e-6, leave the proof undecided: the split forms
    # the gate product once, takes its values-only SVD, and decides as
    # that route does (a mismatched rank identity, a split, and
    # bordering blocks that did not vanish).
    gen = default_rng(20261031)
    a = apply(random_unitary(9, gen), _reduced_layout(9, gen, log_gap, log_border), mode)
    expected = _outcome(lambda: _by_svd(a, mode))
    proofs = []
    original = regularization._proves_rank_identity

    def recorded(*args):
        proofs.append(original(*args))
        return proofs[-1]

    monkeypatch.setattr(regularization, "_proves_rank_identity", recorded)
    svds = _values_only_svds(monkeypatch, 9)
    got = _outcome(lambda: regularization._split(a, mode, DEFAULT_TOL, False))
    assert proofs == [False]
    assert svds == [1]
    assert got == expected


@pytest.mark.parametrize("mode", ["congruence", "star"])
def test_ill_conditioned_nonsingular_input_takes_the_reduction_route(mode):
    # sigma_min(p) = 2.5e-9 misses the proof's threshold (n ||a||_F^2
    # rank_rtol = 9e-9) but clears the rank cutoffs (1e-9), so the split
    # runs regularize, which finds a nonsingular and leaves it as is.
    d = np.array([1.0] * 9 + [5e-5])
    u = random_unitary(10, default_rng(20261022))
    a = (u * d) @ (u.T if mode == "congruence" else u.conj().T)
    calls = []
    original = regularization.regularize

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    with mock.patch.object(regularization, "regularize", counted):
        split = split_regular_singular(a, mode)
        form, _ = (canon_congruence if mode == "congruence" else canon_star)(a)
    assert len(calls) == 2
    assert _bits(split) == _bits(_by_reduction(a, mode))
    assert split.regular.tobytes() == a.tobytes()
    assert split.transform.tobytes() == np.eye(10, dtype=np.complex128).tobytes()
    assert len(split.singular_sigmas) == 0 and split.zero_count == 0
    assert form.two_by_two == ()
    assert sorted(abs(v) for v in form.one_by_one) == pytest.approx(
        sorted(d), rel=1e-9
    )


def _regularize_and_reference(a, mode):
    """regularize(a, mode), and the reduction it should give from the
    two-step formulas: m = v1^H a adj(v1^H), core = x^H m adj(x^H) and
    transform = direct_sum(x^H, adj(y)) U^H, with m1, m2 and sigma
    from the rank of a and the SVD of the coupling v1^H a adj(v2^H).
    The reference rotates by the SVDs that regularize took: the
    coupling's left singular vectors of sigma = 0 are only defined up
    to a unitary."""
    taken = []

    def recording_svd(m):
        taken.append(svd(m))
        return taken[-1]

    with mock.patch.object(regularization, "svd", recording_svd):
        red = regularize(a, mode)
    adj = (lambda m: m.T) if mode == "congruence" else (lambda m: m.conj().T)
    f = taken[0]
    n = a.shape[0]
    r = rank(a, scale=float(f.sigma[0]))
    v1, v2 = f.u[:, :r], f.u[:, r:]
    m = v1.conj().T @ a @ adj(v1.conj().T)
    nmat = v1.conj().T @ a @ adj(v2.conj().T)
    m2 = rank(nmat, scale=float(f.sigma[0]))
    sigma = np.linalg.svd(nmat, compute_uv=False)[:m2]
    if m2 == 0:
        return red, (n - r, 0, sigma, m, f.u.conj().T)
    g = taken[1]
    x = np.column_stack([g.u[:, m2:], g.u[:, :m2]])
    core = x.conj().T @ m @ adj(x.conj().T)
    z = direct_sum([x.conj().T, adj(g.v)])
    return red, (n - r, m2, sigma, core, z @ f.u.conj().T)


def _hidden_singular(n, r, coupled, mode, gen):
    """A rank-r matrix of order n, with coupling (m2 > 0) when coupled,
    otherwise v diag(b, 0) adj(v), whose null spaces coincide (m2 = 0)."""
    if coupled:
        c = gen.standard_normal((n, r)) + 1j * gen.standard_normal((n, r))
        d = gen.standard_normal((r, n)) + 1j * gen.standard_normal((r, n))
        return c @ d
    b = np.zeros((n, n), dtype=np.complex128)
    b[:r, :r] = gen.standard_normal((r, r)) + 1j * gen.standard_normal((r, r))
    return apply(random_unitary(n, gen), b, mode)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("mode", ["congruence", "star"])
def test_regularize_agrees_with_the_reduction_formulas(mode, coupled, scale):
    gen = np.random.default_rng(20261018)
    for n, r in ((5, 3), (7, 5), (8, 4)):
        a = scale * _hidden_singular(n, r, coupled, mode, gen)
        red, (m1, m2, sigma, core, transform) = _regularize_and_reference(a, mode)
        assert (m2 > 0) == coupled
        assert (red.m1, red.m2) == (m1, m2)
        bound = 1e-13 * norm(a)
        assert red.sigma == pytest.approx(sigma, rel=0, abs=bound)
        assert norm(red.core - core) <= bound
        assert norm(red.transform - transform) <= bound


@pytest.mark.parametrize("n", [3, 9, 33, 64])
@pytest.mark.parametrize("mode", ["congruence", "star"])
def test_core_is_the_transform_leading_rows_applied_to_a(mode, n):
    # regularize reads the core off the image transform a adj(transform);
    # the reference forms it from the leading rows t1 alone, t1 a adj(t1).
    gen = np.random.default_rng(20261019 + n)
    sample = random_congruence_instance if mode == "congruence" else random_star_instance
    cases = [_hidden_singular(n, r, coupled, mode, gen)
             for coupled in (False, True) for r in sorted({1, n // 2, n - 1})]
    cases += [sample(n, gen, singular=True)[1] for _ in range(2)]
    assert any(regularize(a, mode).m2 > 0 for a in cases)
    for a in cases:
        red = regularize(a, mode)
        t1 = red.transform[: n - red.m1]
        assert norm(red.core - apply(t1, a, mode)) <= 1e-13 * norm(a)


@pytest.mark.parametrize("mode", ["congruence", "star"])
def test_split_checks_the_reduction_against_its_own_image(mode):
    # The split checks its residual on the image that regularize formed,
    # transform a adj(transform), not on the reduced form: a core that
    # no longer matches that image fails the split.
    gen = np.random.default_rng(41)
    sample = random_congruence_instance if mode == "congruence" else random_star_instance
    _, a = sample(6, gen, singular=True)
    reduced = regularize(a, mode)
    k0 = reduced.core.shape[0] - reduced.m2
    assert k0 > 0 and reduced.m1 > 0
    # Only the regular block moves, so the bordering blocks still vanish.
    core = reduced.core.copy()
    core[:k0, :k0] += 1e-3 * norm(a) * np.eye(k0) / np.sqrt(k0)
    perturbed = dataclasses.replace(reduced, core=core)
    assert perturbed._image is reduced._image
    split_regular_singular(a, mode)
    with mock.patch.object(regularization, "regularize", return_value=perturbed):
        with pytest.raises(ConvergenceError, match="^split residual"):
            split_regular_singular(a, mode)


def test_reduced_form_keeps_its_image_private():
    red = regularize(J2, "star")
    assert red._image is not None
    assert "_image" not in repr(red)
    assert "_image" not in red.to_json()
    compared = {f.name for f in dataclasses.fields(red) if f.compare}
    assert "_image" not in compared


def test_rank_identity_proof_is_exactly_its_documented_bound():
    # _proves_rank_identity succeeds exactly when its documented bounds
    # clear the cutoffs: s_k0+1 <= 2 (d + w) <= c, and s_k0 >= l^2 -
    # 2 (d + w) > c with l = sigma_r - 2 (h + e).  Both are probed one
    # part in 1e6 (the residual) and 1e9 (sigma_r) either side of
    # where they bind, which pins every error term at its full size.
    gen = default_rng(20261101)
    a = apply(random_unitary(9, gen), _reduced_layout(9, gen, -1.0, -300.0), "star")
    reduced = regularize(a, "star")
    fro, slack, cutoff = regularization._weyl_terms(a, DEFAULT_TOL)
    n, r = 9, 9 - reduced.m1
    s1 = float(reduced._sigma[0])
    u = np.finfo(np.float64).eps / 2
    h = 8 * n * n * u * fro
    w = (4 * (n + 2) * u + 8 * n * n * u) * fro**2
    c = DEFAULT_TOL.rank_rtol * s1**2 * n

    def noise(res):
        e = res + 1e-12 * n * s1
        return 2 * ((2 * (s1 + h + e) + e) * e + w)

    def proves(res, sigma_r=None):
        sigma = reduced._sigma.copy()
        if sigma_r is not None:
            sigma[r - 1] = sigma_r
        trial = dataclasses.replace(reduced, _sigma=sigma)
        return regularization._proves_rank_identity(
            trial, res, fro, slack, cutoff, DEFAULT_TOL
        )

    # The residual at which 2 (d + w) = c: 3 e^2 + 2 (s1 + h) e + w - c/2 = 0.
    e = (-(s1 + h) + np.sqrt((s1 + h) ** 2 - 3 * (w - c / 2))) / 3
    res_bound = e - 1e-12 * n * s1
    assert noise(res_bound) == pytest.approx(c, rel=1e-9)
    assert proves(res_bound * (1 - 1e-6))
    assert not proves(res_bound * (1 + 1e-6))

    e = 1e-12 * n * s1
    sigma_bound = 2 * (h + e) + np.sqrt(c + noise(0.0))
    assert sigma_bound < reduced._sigma[r - 1]
    assert proves(0.0, sigma_bound * (1 + 1e-9))
    assert not proves(0.0, sigma_bound * (1 - 1e-9))


def _nilpotent_at(scale):
    a = np.zeros((3, 3))
    a[0, 1] = scale
    return a


@pytest.mark.parametrize("canon", [canon_congruence, canon_star])
def test_split_threshold_overflow_is_a_convergence_error(canon):
    # The gate product of this nilpotent matrix is zero, so it passes the
    # gate; ||a||_F^2, the scale of the split's thresholds, overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            ConvergenceError,
            match="^the split's threshold overflows float64 at the input's scale$",
        ):
            canon(_nilpotent_at(1e160))
        # Within range the same matrix reduces to one elementary block.
        form, _ = canon(_nilpotent_at(1e150))
        assert form.two_by_two[0][0] == pytest.approx(1e150)


@pytest.mark.parametrize("mode", ["congruence", "star"])
def test_gate_overflow_is_a_convergence_error(mode):
    sample = random_congruence_instance if mode == "congruence" else random_star_instance
    a = 1e80 * sample(6, default_rng(5))[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            ConvergenceError,
            match="^the class gate overflows float64 at the input's scale$",
        ):
            split_regular_singular(a, mode)


@pytest.mark.parametrize("mode", ["congruence", "star"])
def test_gate_measures_past_where_its_norms_overflow(mode):
    # From about ||a||_F = 1e38 on, the Frobenius norms of p* p overflow
    # although p* p does not.  The gate then measures its relative
    # residual on p scaled by a power of two: scaling a by 2^166 (about
    # 1e50) is exact, so residual and Gram matrix are a's to the bit.
    sample = random_congruence_instance if mode == "congruence" else random_star_instance
    a = sample(6, default_rng(5))[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residual, gram = regularization._gate(a, mode)
        big_residual, big_gram = regularization._gate(2.0**166 * a, mode)
        split = split_regular_singular(2.0**166 * a, mode)
    assert big_residual == residual
    assert np.array_equal(big_gram, 2.0**664 * gram)
    expected = 2.0**166 * split_regular_singular(a, mode).assembled()
    assert norm(split.assembled() - expected) <= 1e-12 * norm(expected)
