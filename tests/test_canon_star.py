"""Canonical forms under *congruence a -> t a t*.

The golden ratio shows up below because it is the larger singular value
of [[1, 1], [0, -1]], an involution with one nontrivial block.
"""

import numpy as np
import pytest

from canonica.blocks import antidiag_block, direct_sum, h2_to_triangular
from canonica.canon_star import (
    QuadraticForm,
    StarCanonicalForm,
    canon_hermitian_square,
    canon_involution,
    canon_lambda_projection,
    canon_quadratic,
    canon_shifted_quadratic_normal,
    canon_star,
    pearcy_equal_2x2,
    star_cosquare,
)
from canonica.errors import ConvergenceError, ParseError, PreconditionError
from canonica.matrix import norm
from canonica.sampling import default_rng, random_star_instance, random_unitary

J2 = np.array([[0.0, 1.0], [0.0, 0.0]])
HALF = np.array([[0.0, 1.0], [0.5, 0.0]])
INVOL = np.array([[1.0, 1.5], [0.0, -1.0]])


def assert_realizes(form, transform, a):
    n = a.shape[0]
    assert norm(transform.conj().T @ transform - np.eye(n)) <= 1e-9
    got = transform @ a @ transform.conj().T
    assert norm(got - form.assemble()) <= 1e-8 * max(1.0, norm(a))


def test_star_cosquare_oracle():
    c = star_cosquare(HALF)
    assert c == pytest.approx(np.diag([0.5, 2.0]))


def test_star_cosquare_requires_nonsingular():
    with pytest.raises(PreconditionError):
        star_cosquare(J2)


def test_star_cosquare_rejects_numerically_singular():
    with pytest.raises(PreconditionError, match="star_cosquare requires a nonsingular"):
        star_cosquare(np.diag([1.0, 1e-14]))


def test_canon_star_nearly_singular_fails_the_rank_identity():
    # rank(a) = 2 but the product a uses in its rank identity has rank 1.
    with pytest.raises(ConvergenceError, match="rank identity"):
        canon_star(np.diag([1.0, 1e-6]))


def test_canon_star_checks_a_regular_part_the_rank_identity_misses():
    # The bordering entry 1e-8 passes the split's vanishing test and
    # lends the product its rank, while the regular part is [[0]]: the
    # split cannot vouch for it, so the cosquare's own check runs.
    a = np.zeros((3, 3))
    a[0, 1] = 1e-8
    a[1, 2] = 1.0
    with pytest.raises(PreconditionError, match="star_cosquare requires a nonsingular"):
        canon_star(a)


def test_form_build_sorts():
    form = StarCanonicalForm.build([2.0, -3.0j], [(1.0, 0.2), (1.0, 0.8)])
    assert form.one_by_one == (-3.0j, 2.0)
    assert form.two_by_two == ((1.0, 0.8), (1.0, 0.2))
    with pytest.raises(ValueError):
        StarCanonicalForm.build([], [], representation="jordan")


def test_assemble_h2_and_triangular():
    form = StarCanonicalForm.build([], [(1.0, -0.25)])
    assert np.array_equal(form.assemble(), np.array([[0.0, 1.0], [-0.25, 0.0]]))
    tri = StarCanonicalForm.build([], [(1.0, -0.25)], representation="triangular")
    assert tri.assemble() == pytest.approx(
        np.array([[0.5j, 0.75], [0.0, -0.5j]])
    )


def test_form_json_includes_triangular_parameters():
    tri = StarCanonicalForm.build([2.0], [(1.0, -0.25)], representation="triangular")
    obj = tri.to_json()
    assert obj["representation"] == "triangular"
    assert obj["one_by_one"] == [[2.0, 0.0]]
    entry = obj["two_by_two"][0]
    assert entry["tau"] == 1.0
    assert entry["mu"] == [-0.25, 0.0]
    assert entry["nu"] == pytest.approx([0.0, 0.5])
    assert entry["r"] == pytest.approx(0.75)


def test_canon_star_weighted_antidiagonal():
    form, t = canon_star(HALF)
    assert form.one_by_one == ()
    assert form.two_by_two[0][0] == pytest.approx(1.0)
    assert form.two_by_two[0][1] == pytest.approx(0.5)
    assert_realizes(form, t, HALF)


def test_canon_star_nilpotent():
    form, t = canon_star(J2)
    assert form.two_by_two[0][0] == pytest.approx(1.0)
    assert form.two_by_two[0][1] == 0.0
    assert_realizes(form, t, J2)


def test_canon_star_normal_diagonal():
    a = np.diag([2.0, -3.0j])
    form, t = canon_star(a)
    assert form.two_by_two == ()
    assert form.one_by_one[0] == pytest.approx(-3.0j)
    assert form.one_by_one[1] == pytest.approx(2.0)
    assert_realizes(form, t, a)


def test_canon_star_triangular_representation():
    form, t = canon_star(HALF, representation="triangular")
    nu, r = h2_to_triangular(1.0, 0.5)
    got = t @ HALF @ t.conj().T
    assert got == pytest.approx(np.array([[nu, r], [0.0, -nu]]), abs=1e-9)
    assert nu == pytest.approx(np.sqrt(0.5))
    assert r == pytest.approx(0.5)


def test_canon_star_random_instances_agree():
    gen = default_rng(43)
    for trial in range(5):
        n = 3 + trial
        form, a = random_star_instance(n, gen, singular=trial % 2 == 1)
        got, t = canon_star(a)
        assert len(got.one_by_one) == len(form.one_by_one)
        for v, w in zip(got.one_by_one, form.one_by_one):
            assert abs(v - w) <= 1e-6
        assert len(got.two_by_two) == len(form.two_by_two)
        for (tau, mu), (wtau, wmu) in zip(got.two_by_two, form.two_by_two):
            assert tau == pytest.approx(wtau, abs=1e-6)
            assert abs(mu - wmu) <= 1e-6
        assert_realizes(got, t, a)


# Planted forms (ones, twos) whose *cosquare has repeated clusters: mu
# repeated at |mu| = 0.04, 0.5 and 0.9, and the +1 and -1 summands
# (real and imaginary 1-by-1 entries).
CLUSTER_LAYOUTS = {
    "repeated_mu": (
        [2.0 * np.exp(0.3j)],
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
    "plus_minus_one": ([2.0, 2.0, -1.0, 0.5j, -3.0j], [(1.2, 0.5j)]),
}


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("layout", CLUSTER_LAYOUTS)
def test_canon_star_recovers_clustered_layouts(layout, seed):
    want = StarCanonicalForm.build(*CLUSTER_LAYOUTS[layout])
    b = want.assemble()
    u = random_unitary(b.shape[0], default_rng(910 + seed))
    a = u @ b @ u.conj().T
    got, t = canon_star(a)
    assert len(got.one_by_one) == len(want.one_by_one)
    for v, w in zip(got.one_by_one, want.one_by_one):
        assert abs(v - w) <= 1e-7
    assert len(got.two_by_two) == len(want.two_by_two)
    for (tau, mu), (wtau, wmu) in zip(got.two_by_two, want.two_by_two):
        assert tau == pytest.approx(wtau, abs=1e-7)
        assert abs(mu - wmu) <= 1e-7
    assert_realizes(got, t, a)


def test_canon_star_close_mu_fails_to_converge():
    # Two mu 4e-8 apart near 0.04 fall into one cluster of the *cosquare
    # spectrum while their partners near 25 stay apart.  The input is in
    # class, so the failure must not claim otherwise.
    u = random_unitary(4, default_rng(1))
    b = direct_sum([antidiag_block(1.0, 0.04), antidiag_block(1.0, 0.04 * (1.0 + 1e-6))])
    with pytest.raises(ConvergenceError):
        canon_star(u @ b @ u.conj().T)


def test_canon_star_rejects_out_of_class():
    with pytest.raises(PreconditionError):
        canon_star([[1.0, 1.0], [0.0, 2.0]])
    with pytest.raises(ValueError):
        canon_star(J2, representation="jordan")


class TestPearcy:
    def test_transpose_pair_is_equivalent(self):
        assert pearcy_equal_2x2(J2, J2.T)

    def test_detects_trace_shift(self):
        assert not pearcy_equal_2x2(J2, J2 + 0.01 * np.eye(2))

    def test_detects_gram_change(self):
        assert not pearcy_equal_2x2(J2, 1.1 * J2)

    def test_requires_2x2(self):
        with pytest.raises(PreconditionError):
            pearcy_equal_2x2(np.eye(3), np.eye(3))


def test_canon_involution_antidiag():
    blocks = canon_involution(INVOL)
    assert len(blocks) == 1
    assert blocks[0] == pytest.approx(np.array([[0.0, 0.5], [2.0, 0.0]]))


def test_canon_involution_triangular_fixed_point():
    # sigma - 1/sigma = 1.5, so this involution is its own form.
    blocks = canon_involution(INVOL, variant="triangular")
    assert blocks[0] == pytest.approx(INVOL)


def test_canon_involution_diagonal():
    blocks = canon_involution(np.diag([1.0, -1.0, 1.0]))
    assert [b.shape[0] for b in blocks] == [1, 1, 1]
    assert [b[0, 0] for b in blocks] == [1.0, 1.0, -1.0]


def test_canon_involution_gates():
    with pytest.raises(PreconditionError):
        canon_involution(J2)
    with pytest.raises(ValueError):
        canon_involution(INVOL, variant="jordan")


def test_canon_hermitian_square_diagonal():
    form = canon_hermitian_square(np.diag([2.0, 3.0j]))
    assert form.one_by_one[0] == pytest.approx(3.0j)
    assert form.one_by_one[0].real == 0.0
    assert form.one_by_one[1] == pytest.approx(2.0)
    assert form.one_by_one[1].imag == 0.0


def test_canon_hermitian_square_antidiagonal():
    form = canon_hermitian_square(np.array([[0.0, 1.0], [0.5, 0.0]]))
    assert form.two_by_two[0][1] == pytest.approx(0.5)
    assert form.two_by_two[0][1].imag == 0.0


def test_canon_hermitian_square_gate():
    with pytest.raises(PreconditionError):
        canon_hermitian_square(np.diag([2.0, np.exp(0.25j * np.pi)]))


def test_canon_lambda_projection_oracle():
    blocks = canon_lambda_projection(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert len(blocks) == 1
    assert blocks[0] == pytest.approx(np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_canon_lambda_projection_nilpotent():
    blocks = canon_lambda_projection(J2)
    assert blocks[0] == pytest.approx(J2)


def test_canon_lambda_projection_scalar_multiple_of_identity():
    blocks = canon_lambda_projection(0.5j * np.eye(3))
    assert [b.shape for b in blocks] == [(1, 1)] * 3
    for b in blocks:
        assert b[0, 0] == pytest.approx(0.5j)


def test_canon_lambda_projection_zero():
    blocks = canon_lambda_projection(np.zeros((2, 2)))
    assert [b.shape for b in blocks] == [(1, 1), (1, 1)]
    assert all(b[0, 0] == 0.0 for b in blocks)


def test_canon_lambda_projection_gate():
    with pytest.raises(PreconditionError):
        canon_lambda_projection([[1.0, 1.0], [0.0, 1.0]])


def test_canon_quadratic_involution():
    q = canon_quadratic(INVOL)
    assert isinstance(q, QuadraticForm)
    assert q.roots[0] == pytest.approx(1.0)
    assert q.roots[1] == pytest.approx(-1.0)
    # s - 1/s = 1.5 pins the coupling at s = 2
    assert q.predicted_singular_values == pytest.approx((2.0, 0.5))
    assert q.assemble() == pytest.approx(np.array([[1.0, 1.5], [0.0, -1.0]]))


def test_canon_quadratic_normal_case():
    q = canon_quadratic(np.diag([1.0, 2.0]))
    assert q.predicted_singular_values == pytest.approx((2.0, 1.0))
    assert q.assemble() == pytest.approx(np.diag([2.0, 1.0]))


def test_canon_quadratic_predicts_singular_values():
    gen = default_rng(47)
    u = np.linalg.qr(gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4)))[0]
    base = np.array(
        [
            [1.0 + 0.5j, 0.0, 0.0, 0.0],
            [0.0, 1.0 + 0.5j, 2.0, 0.0],
            [0.0, 0.0, -1.0 - 0.5j, 0.0],
            [0.0, 0.0, 0.0, -1.0 - 0.5j],
        ]
    )
    a = u @ base @ u.conj().T
    q = canon_quadratic(a)
    actual = np.linalg.svd(a, compute_uv=False)
    assert np.asarray(q.predicted_singular_values) == pytest.approx(actual, abs=1e-8)


@pytest.mark.parametrize(
    "a",
    [
        3.0 * np.eye(2),
        np.diag([1.0, 2.0, 3.0]),
        np.array([[2.0]]),
    ],
)
def test_canon_quadratic_gates(a):
    with pytest.raises(PreconditionError):
        canon_quadratic(a)


def test_canon_shifted_quadratic_normal_oracle():
    a = np.eye(2) + np.array([[0.0, 1.0], [-0.25, 0.0]])
    blocks = canon_shifted_quadratic_normal(a, shift=1.0)
    assert len(blocks) == 1
    assert blocks[0] == pytest.approx(
        np.array([[1.0 + 0.5j, 0.75], [0.0, 1.0 - 0.5j]])
    )


def test_canon_shifted_quadratic_normal_nilpotent():
    blocks = canon_shifted_quadratic_normal(J2, shift=0.0)
    assert blocks[0] == pytest.approx(J2)


def test_canon_shifted_quadratic_normal_gate():
    with pytest.raises(PreconditionError):
        canon_shifted_quadratic_normal([[1.0, 1.0], [0.0, 2.0]], 0.0)


@pytest.mark.parametrize("shift", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_canon_shifted_quadratic_normal_rejects_a_non_finite_shift(shift):
    with pytest.raises(ParseError, match="shift must be finite"):
        canon_shifted_quadratic_normal(J2, shift)
