"""Canonical forms under congruence a -> t a t^T."""

import numpy as np
import pytest

from canonica.blocks import antidiag_block, direct_sum
from canonica.canon_congruence import (
    CongruenceCanonicalForm,
    canon_congruence,
    canon_coninvolutory,
    canon_conjugate_normal,
    canon_hermitian_cosquare,
    canon_unitary,
    cosquare,
)
from canonica.equivalence import decide_unitary_congruence, forms_match
from canonica.errors import ConvergenceError, PreconditionError
from canonica.matrix import ToleranceConfig, norm
from canonica.sampling import (
    default_rng,
    random_congruence_instance,
    random_conjugate_normal_instance,
    random_unitary,
)
from oracles import gram_spectrum_form, unitary_blocks

H2_I = np.array([[0.0, 1.0], [1.0j, 0.0]])


def assert_realizes(form, transform, a):
    assert norm(transform.conj().T @ transform - np.eye(a.shape[0])) <= 1e-9
    assert norm(transform @ a @ transform.T - form.assemble()) <= 1e-8 * max(
        1.0, norm(a)
    )


def test_cosquare_oracle():
    c = cosquare(H2_I)
    assert c == pytest.approx(np.diag([1.0j, -1.0j]))


def test_cosquare_requires_nonsingular():
    with pytest.raises(PreconditionError):
        cosquare([[0.0, 1.0], [0.0, 0.0]])


def test_cosquare_rejects_numerically_singular():
    with pytest.raises(PreconditionError, match="cosquare requires a nonsingular"):
        cosquare(np.diag([1.0, 1e-14]))


def test_canon_congruence_nearly_singular_fails_the_rank_identity():
    # rank(a) = 2 but the product a uses in its rank identity has rank 1.
    with pytest.raises(ConvergenceError, match="rank identity"):
        canon_congruence(np.diag([1.0, 1e-6]))


def test_canon_congruence_checks_a_regular_part_the_rank_identity_misses():
    # The bordering entry 1e-8 passes the split's vanishing test and
    # lends the product its rank, while the regular part is [[0]]: the
    # split cannot vouch for it, so the cosquare's own check runs.
    a = np.zeros((3, 3))
    a[0, 1] = 1e-8
    a[1, 2] = 1.0
    with pytest.raises(PreconditionError, match="cosquare requires a nonsingular"):
        canon_congruence(a)


def test_form_build_sorts_and_normalizes():
    form = CongruenceCanonicalForm.build([1.0, 3.0], [(1.0, 0.5), (2.0, 0.25j)])
    assert form.one_by_one == (3.0, 1.0)
    assert form.two_by_two == ((2.0, 0.25j), (1.0, 0.5))
    assert form.dimension == 6
    obj = form.to_json()
    assert obj["one_by_one"] == [3.0, 1.0]
    assert obj["two_by_two"][0] == {"tau": 2.0, "mu": [0.0, 0.25]}


def test_assemble_layout():
    form = CongruenceCanonicalForm.build([2.0], [(1.0, 0.5)])
    a = form.assemble()
    assert a.shape == (3, 3)
    assert a[0, 0] == 2.0
    assert a[1, 2] == 1.0
    assert a[2, 1] == 0.5


@pytest.mark.parametrize(
    "a, ones, twos",
    [
        (np.diag([3.0, 1.0, 2.0]), (3.0, 2.0, 1.0), ()),
        (np.array([[0.0, 2.0], [-2.0, 0.0]]), (), ((2.0, -1.0),)),
        (np.array([[0.0, 0.5], [2.0, 0.0]]), (), ((2.0, 0.25),)),
        (np.array([[0.0, 2.0], [4.0, 0.0]]), (), ((4.0, 0.5),)),
        (H2_I, (), ((1.0, 1.0j),)),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), (), ((1.0, 0.0),)),
        (np.zeros((2, 2)), (0.0, 0.0), ()),
    ],
)
def test_canon_congruence_oracles(a, ones, twos):
    form, t = canon_congruence(a)
    assert form.one_by_one == pytest.approx(ones)
    assert len(form.two_by_two) == len(twos)
    for (tau, mu), (wtau, wmu) in zip(form.two_by_two, twos):
        assert tau == pytest.approx(wtau)
        assert mu == pytest.approx(wmu)
    assert_realizes(form, t, a)


def test_canon_congruence_mixed_singular():
    a = direct_sum([np.diag([2.0]), np.array([[0.0, 3.0], [0.0, 0.0]]), np.zeros((1, 1))])
    form, t = canon_congruence(a)
    assert form.one_by_one == pytest.approx((2.0, 0.0))
    assert form.two_by_two[0][0] == pytest.approx(3.0)
    assert form.two_by_two[0][1] == 0.0
    assert_realizes(form, t, a)


def test_canon_congruence_random_instances_agree():
    gen = default_rng(41)
    for trial in range(5):
        n = 3 + trial
        form, a = random_congruence_instance(n, gen, singular=trial % 2 == 1)
        got, t = canon_congruence(a)
        assert got.one_by_one == pytest.approx(form.one_by_one, abs=1e-7)
        assert len(got.two_by_two) == len(form.two_by_two)
        for (tau, mu), (wtau, wmu) in zip(got.two_by_two, form.two_by_two):
            assert tau == pytest.approx(wtau, abs=1e-7)
            assert abs(mu - wmu) <= 1e-6
        assert_realizes(got, t, a)


# Planted forms (ones, twos) whose cosquare has repeated clusters: mu
# repeated at |mu| = 0.04, 0.5 and 0.9, unimodular pairs (mu and 1/mu
# both on the unit circle), and the +1 and -1 summands.
CLUSTER_LAYOUTS = {
    "repeated_mu": (
        [2.0],
        [
            (1.5, 0.04j),
            (1.5, 0.04j),
            (0.7, 0.04j),
            (1.1, 0.5),
            (1.1, 0.5),
            (0.9, 0.9 * np.exp(2.0j)),
            (1.3, 0.9 * np.exp(2.0j)),
        ],
    ),
    "unimodular_pairs": (
        [1.0],
        [(1.0, np.exp(0.7j)), (1.0, np.exp(0.7j)), (2.0, 1.0j), (0.6, np.exp(2.5j))],
    ),
    "plus_minus_one": ([3.0, 1.0, 1.0, 0.5], [(2.0, -1.0), (2.0, -1.0), (0.7, -1.0)]),
}


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("layout", CLUSTER_LAYOUTS)
def test_canon_congruence_recovers_clustered_layouts(layout, seed):
    want = CongruenceCanonicalForm.build(*CLUSTER_LAYOUTS[layout])
    b = want.assemble()
    u = random_unitary(b.shape[0], default_rng(900 + seed))
    a = u @ b @ u.T
    got, t = canon_congruence(a)
    assert got.one_by_one == pytest.approx(want.one_by_one, abs=1e-7)
    assert len(got.two_by_two) == len(want.two_by_two)
    for (tau, mu), (wtau, wmu) in zip(got.two_by_two, want.two_by_two):
        assert tau == pytest.approx(wtau, abs=1e-7)
        assert abs(mu - wmu) <= 1e-7
    assert_realizes(got, t, a)


def test_canon_congruence_close_mu_fails_to_converge():
    # Two mu 4e-8 apart near 0.04 fall into one cluster of the cosquare
    # spectrum while their partners near 25 stay apart.  The input is in
    # class, so the failure must not claim otherwise.
    u = random_unitary(4, default_rng(1))
    b = direct_sum([antidiag_block(1.0, 0.04), antidiag_block(1.0, 0.04 * (1.0 + 1e-6))])
    with pytest.raises(ConvergenceError):
        canon_congruence(u @ b @ u.T)


@pytest.mark.parametrize("radii", [2.5, 3.5])
def test_canon_congruence_keeps_a_close_unimodular_pair_at_n_640(radii):
    # A pair mu = exp(i eps) and its partner conj(mu), 2 sin eps a few
    # cluster radii apart, among 319 unimodular pairs: the cosquare is
    # unitary, and the pair shares one eigenvalue of its Hermitian part.
    # Only the rotation by the skew part tells the two apart, and at
    # n = 640 their mixed Rayleigh residual is a small multiple of the
    # radius, far above rounding: eig_normal must still rotate it.  The
    # pair's eigenvectors are accurate only to about n u / (2 sin eps),
    # so the canonical form's residual bound is loosened to 1e-6.
    tol = ToleranceConfig(residual_rtol=1e-6)
    radius = tol.cluster_rtol
    mu = np.exp(1j * np.arcsin(radii * radius / 2.0))
    gen = default_rng(1)
    angles = np.linspace(0.05, np.pi - 0.05, 319)
    b = direct_sum(
        [antidiag_block(t, np.exp(1j * p)) for t, p in zip(gen.uniform(1.0, 2.0, 319), angles)]
        + [antidiag_block(1.5, mu)]
    )
    u, v = random_unitary(640, gen), random_unitary(640, gen)
    a = u @ b @ u.T
    got, t = canon_congruence(a, tol)
    assert got.one_by_one == ()
    assert [tau for tau, m in got.two_by_two if abs(m - mu) <= radius / 4.0] == [
        pytest.approx(1.5)
    ]
    verdict = decide_unitary_congruence(a, v @ b @ v.T, tol)
    assert verdict.verdict == "equivalent"


@pytest.mark.parametrize(
    "a",
    [
        np.array([[1.0, 2.0], [0.0, 3.0]]),
        np.array([[0.0, 1.0], [0.0, 2.0]]),
    ],
)
def test_canon_congruence_rejects_out_of_class(a):
    with pytest.raises(PreconditionError):
        canon_congruence(a)


def test_canon_conjugate_normal_diagonal():
    form = canon_conjugate_normal(np.diag([1.0, 0.0]))
    assert form.one_by_one == pytest.approx((1.0, 0.0))
    assert form.two_by_two == ()


def test_canon_conjugate_normal_rotation():
    form = canon_conjugate_normal(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert form.one_by_one == ()
    assert len(form.two_by_two) == 1
    assert form.two_by_two[0][0] == pytest.approx(1.0)
    assert form.two_by_two[0][1] == pytest.approx(-1.0)


def test_canon_conjugate_normal_gate():
    with pytest.raises(PreconditionError):
        canon_conjugate_normal([[0.0, 1.0], [2.0, 0.0]])


ROT90 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_canon_unitary_styles():
    h2 = canon_unitary(ROT90, style="h2")
    assert len(h2) == 1
    assert h2[0] == pytest.approx(ROT90)
    orth = canon_unitary(ROT90, style="real_orthogonal")
    assert orth[0] == pytest.approx(ROT90)
    herm = canon_unitary(ROT90, style="hermitian_unitary")
    assert herm[0] == pytest.approx(np.array([[0.0, -1.0j], [1.0j, 0.0]]))


def test_canon_unitary_identity():
    blocks = canon_unitary(np.eye(3))
    assert len(blocks) == 3
    for b in blocks:
        assert b == pytest.approx(np.eye(1))


def test_canon_unitary_mixed_angles():
    # One fixed line plus a rotation pair: blocks come back sorted with
    # the 1-by-1 part first.
    u = direct_sum([np.eye(1), ROT90])
    blocks = canon_unitary(u)
    assert [b.shape[0] for b in blocks] == [1, 2]


@pytest.mark.parametrize("seed", range(10))
def test_canon_conjugate_normal_agrees_with_canon_congruence(seed):
    gen = default_rng(500 + seed)
    _, a = random_conjugate_normal_instance(3 + seed % 5, gen, singular=seed % 2 == 1)
    form, _ = canon_congruence(a)
    special = canon_conjugate_normal(a)
    for want in (form, gram_spectrum_form(a)):
        ok, detail = forms_match(special, want)
        assert ok, detail


@pytest.mark.parametrize("seed", range(6))
def test_canon_unitary_agrees_with_canon_congruence(seed):
    # Repeated angles give conj(u) u eigenvalue clusters of size 2 and 3.
    gen = default_rng(600 + seed)
    thetas = [0.8, 0.8, 2.1, 2.1, 2.1, np.pi, np.pi][: 3 + seed % 5]
    d = direct_sum(
        [np.eye(1 + seed % 3)]
        + [antidiag_block(1.0, np.exp(1j * t)) for t in thetas]
    )
    v = random_unitary(d.shape[0], gen)
    u = v @ d @ v.T
    blocks = canon_unitary(u)
    # h2 blocks are [[0, 1], [mu, 0]]: read the form they spell.
    direct = CongruenceCanonicalForm.build(
        [b[0, 0].real for b in blocks if b.shape == (1, 1)],
        [(b[0, 1].real, b[1, 0]) for b in blocks if b.shape == (2, 2)],
    )
    form, _ = canon_congruence(u)
    ok, detail = forms_match(direct, form)
    assert ok, detail
    for got, want in zip(blocks, unitary_blocks(u), strict=True):
        assert got == pytest.approx(want, abs=1e-7)


def test_canon_unitary_rejects_nonunitary():
    with pytest.raises(PreconditionError):
        canon_unitary(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        canon_unitary(np.eye(2), style="schur")


def test_canon_coninvolutory_oracle():
    form = canon_coninvolutory(np.array([[0.0, 0.5], [2.0, 0.0]]))
    assert form.one_by_one == ()
    assert len(form.two_by_two) == 1
    assert form.two_by_two[0][0] == pytest.approx(2.0)
    assert form.two_by_two[0][1] == pytest.approx(0.25)


def test_canon_coninvolutory_identity():
    form = canon_coninvolutory(np.eye(2))
    assert form.one_by_one == (1.0, 1.0)
    assert form.two_by_two == ()


def test_canon_coninvolutory_gate():
    with pytest.raises(PreconditionError):
        canon_coninvolutory([[0.0, 1.0], [0.0, 0.0]])


def test_canon_hermitian_cosquare_oracle():
    form = canon_hermitian_cosquare(np.array([[0.0, 1.0], [0.5, 0.0]]))
    assert form.two_by_two[0][0] == pytest.approx(1.0)
    assert form.two_by_two[0][1] == pytest.approx(0.5)
    assert form.two_by_two[0][1].imag == 0.0


def test_canon_hermitian_cosquare_gate():
    # conj(a) a = i I is not Hermitian.
    with pytest.raises(PreconditionError):
        canon_hermitian_cosquare(H2_I)
