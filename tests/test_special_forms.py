"""The special-class canonical forms: rendered from the two general forms.

Each special path gates on its one class identity, calls canon_congruence
or canon_star once, and renders the result.  The tests below check the
renderings against the closed-form derivations in oracles.py on seeded
instances of several sizes, with repeated block parameters and
lambda = 0 among them, and check that no path goes through classify.
"""

import sys

import numpy as np
import pytest

from canonica import predicates
from canonica.blocks import antidiag_block, direct_sum
from canonica.canon_congruence import (
    canon_congruence,
    canon_coninvolutory,
    canon_conjugate_normal,
    canon_hermitian_cosquare,
    canon_unitary,
)
from canonica.canon_star import (
    canon_hermitian_square,
    canon_involution,
    canon_lambda_projection,
    canon_quadratic,
    canon_shifted_quadratic_normal,
    canon_star,
)
from canonica.equivalence import forms_match
from canonica.errors import ConvergenceError, PreconditionError
from canonica.matrix import ToleranceConfig, rel_residual
from canonica.sampling import (
    default_rng,
    random_coninvolutory,
    random_conjugate_normal_instance,
    random_involution,
    random_lambda_projection,
    random_matrix,
    random_quadratic_instance,
    random_star_instance,
    random_unitary,
)
from oracles import (
    coninvolutory_form,
    gram_spectrum_form,
    involution_blocks,
    lambda_projection_blocks,
    quadratic_blocks,
    unitary_blocks,
)

SIZES = (2, 3, 5, 8)
SEEDS = range(3)


def assert_blocks_close(got, want, atol=1e-7):
    assert [b.shape for b in got] == [b.shape for b in want]
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= atol, (g, w)


def _hidden(blocks, gen, star: bool):
    d = direct_sum(blocks)
    v = random_unitary(d.shape[0], gen)
    return v @ d @ (v.conj().T if star else v.T)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("singular", [False, True])
def test_conjugate_normal_matches_gram_spectrum(n, seed, singular):
    _, a = random_conjugate_normal_instance(n, default_rng(700 + 10 * n + seed), singular)
    ok, detail = forms_match(canon_conjugate_normal(a), gram_spectrum_form(a))
    assert ok, detail


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_unitary_matches_gram_spectrum(n, seed):
    gen = default_rng(710 + 10 * n + seed)
    # Haar unitaries, and ones with repeated angles (theta = pi included).
    u = random_unitary(n, gen)
    thetas = [0.8, 0.8, 2.1, np.pi, np.pi][: n // 2]
    rep = _hidden(
        [np.eye(n - 2 * len(thetas))] + [antidiag_block(1.0, np.exp(1j * t)) for t in thetas],
        gen,
        star=False,
    )
    for x in (u, rep):
        assert_blocks_close(canon_unitary(x), unitary_blocks(x))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_coninvolutory_matches_singular_value_pairing(n, seed):
    gen = default_rng(720 + 10 * n + seed)
    s = 1.7
    repeated = _hidden(
        [np.eye(n % 2)] + [np.array([[0.0, 1.0 / s], [s, 0.0]])] * (n // 2),
        gen,
        star=False,
    )
    for a in (random_coninvolutory(n, gen), repeated):
        ok, detail = forms_match(canon_coninvolutory(a), coninvolutory_form(a))
        assert ok, detail


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("variant", ["antidiag", "triangular"])
def test_involution_matches_trace_and_singular_values(n, seed, variant):
    gen = default_rng(730 + 10 * n + seed)
    for sigmas in (None, [1.7] * (n // 2)):
        a = random_involution(n, gen, sigmas=sigmas)
        assert_blocks_close(canon_involution(a, variant=variant), involution_blocks(a, variant))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("lam", [0.0, 1.0, 0.7j, 1.2 * np.exp(2j)])
def test_lambda_projection_matches_svd(n, lam):
    a = random_lambda_projection(n, default_rng(740 + n), lam=lam)
    assert_blocks_close(canon_lambda_projection(a), lambda_projection_blocks(a, lam))


@pytest.mark.parametrize("lam", [0.0, 1.0, 0.7j])
def test_lambda_projection_repeated_blocks_match_svd(lam):
    gen = default_rng(750)
    blocks = [np.array([[lam]])] * (lam != 0) + [np.array([[lam, 1.2], [0.0, 0.0]])] * 2
    a = _hidden(blocks + [np.zeros((2, 2))], gen, star=True)
    got = canon_lambda_projection(a)
    assert_blocks_close(got, lambda_projection_blocks(a, lam))
    # lambda = 0: every 1-by-1 block is a trailing zero.
    assert got[-1].shape == (1, 1) and got[-1][0, 0] == 0.0


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("opposite", [False, True])
def test_quadratic_matches_svd(n, seed, opposite):
    a, roots = random_quadratic_instance(n, default_rng(760 + 10 * n + seed), opposite=opposite)
    q = canon_quadratic(a)
    # Opposite roots have equal moduli; the one above the real axis
    # comes first.
    if opposite and roots[0].imag < 0.0:
        roots = roots[::-1]
    assert q.roots == pytest.approx(roots, abs=1e-7)
    blocks, sigmas = quadratic_blocks(a, *roots)
    assert_blocks_close(list(q.blocks), blocks)
    assert np.allclose(q.predicted_singular_values, sigmas, rtol=0.0, atol=1e-7)


def test_quadratic_opposite_roots_come_in_one_order_on_every_basis():
    lam = 1.2 * np.exp(0.7j)
    b = np.array([[lam, 0.9], [0.0, -lam]])
    for seed in range(40):
        u = random_unitary(2, default_rng(seed))
        q = canon_quadratic(u @ b @ u.conj().T)
        assert q.roots == pytest.approx((lam, -lam), abs=1e-9)
        assert_blocks_close(list(q.blocks), [b])


def test_quadratic_repeated_blocks_match_svd():
    roots = (1.5 + 0.5j, -0.4)
    blk = np.array([[roots[0], 0.9], [0.0, roots[1]]])
    a = _hidden([blk, blk, np.array([[roots[1]]])], default_rng(770), star=True)
    q = canon_quadratic(a)
    assert q.roots == pytest.approx(roots)
    blocks, sigmas = quadratic_blocks(a, *roots)
    assert_blocks_close(list(q.blocks), blocks)
    assert np.allclose(q.predicted_singular_values, sigmas, rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("seed", range(4))
def test_quadratic_double_root_is_merged_or_fails_loudly(seed):
    # (t - 1)^2 annihilates a.  The fitted roots split by about
    # sqrt(eps); unless they are merged, the [1] entry lies halfway
    # between them and cannot be placed.
    b = direct_sum([np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(1)])
    a = b if seed == 0 else _hidden([b], default_rng(800 + seed), star=True)
    try:
        q = canon_quadratic(a)
    except ConvergenceError:
        return
    assert q.roots[0] == q.roots[1]
    assert q.roots[0] == pytest.approx(1.0)


ROT90 = np.array([[0.0, 1.0], [-1.0, 0.0]])
INVOL = np.array([[1.0, 1.5], [0.0, -1.0]])

# Each canon path on one in-class input.
CANON_PATHS = [
    (canon_conjugate_normal, ROT90),
    (canon_unitary, ROT90),
    (canon_coninvolutory, np.array([[0.0, 0.5], [2.0, 0.0]])),
    (canon_hermitian_cosquare, np.array([[0.0, 1.0], [0.5, 0.0]])),
    (canon_involution, INVOL),
    (canon_hermitian_square, np.diag([2.0, 3.0j])),
    (canon_lambda_projection, np.array([[1.0, 1.0], [0.0, 0.0]])),
    (canon_quadratic, INVOL),
    (lambda a: canon_shifted_quadratic_normal(a, 1.0), np.eye(2) + [[0.0, 1.0], [-0.25, 0.0]]),
    (canon_congruence, np.diag([2.0, 1.0])),
    (canon_star, random_star_instance(6, default_rng(780))[1]),
]


def test_no_canon_path_calls_classify(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a canon path called classify")

    for name, module in list(sys.modules.items()):
        if name.startswith("canonica") and hasattr(module, "classify"):
            monkeypatch.setattr(module, "classify", refuse)
    for path, a in CANON_PATHS:
        path(a)


GENERIC = random_matrix(4, default_rng(790))

# (path, flag it gates on, out-of-class input, the matrix the flag is
# measured on)
GATES = [
    (canon_conjugate_normal, "conjugate_normal", GENERIC, GENERIC),
    (canon_unitary, "unitary", GENERIC, GENERIC),
    (canon_coninvolutory, "coninvolutory", GENERIC, GENERIC),
    (canon_involution, "involutory", GENERIC, GENERIC),
    (canon_hermitian_square, "hermitian_square", GENERIC, GENERIC),
    (canon_lambda_projection, "lambda_projection", GENERIC, GENERIC),
    (canon_congruence, "congruence_normal", GENERIC, GENERIC),
    (canon_star, "squared_normal", GENERIC, GENERIC),
    (
        lambda a: canon_shifted_quadratic_normal(a, 0.5),
        "squared_normal",
        GENERIC,
        GENERIC - 0.5 * np.eye(4),
    ),
]


@pytest.mark.parametrize(
    "path, flag, a, measured", GATES, ids=[g[1] + f"-{i}" for i, g in enumerate(GATES)]
)
def test_gate_residual_is_classify_residual(path, flag, a, measured):
    with pytest.raises(PreconditionError) as err:
        path(a)
    assert err.value.residual == predicates.classify(measured).residuals[flag]


@pytest.mark.parametrize("path", [canon_hermitian_square, canon_hermitian_cosquare])
def test_real_mu_paths_refuse_a_mu_off_the_real_axis(path):
    # At residual_rtol 1e-3 the block's class identity passes, and its
    # mu, 0.5 e^{1e-4 i}, lies past cluster_rtol off the real axis.
    a = antidiag_block(1.0, 0.5 * np.exp(1e-4j))
    tol = ToleranceConfig(residual_rtol=1e-3)
    with pytest.raises(ConvergenceError) as err:
        path(a, tol)
    assert str(err.value) == (
        "expected a real block parameter, got (0.4999999975+4.999999991666667e-05j)"
    )


def test_hermitian_cosquare_gate_residual_is_its_identity():
    # conj(a) a Hermitian is not a classify flag; the gate reports the
    # identity's own residual.
    g = GENERIC.conj() @ GENERIC
    with pytest.raises(PreconditionError) as err:
        canon_hermitian_cosquare(GENERIC)
    assert err.value.residual == rel_residual(g, g.conj().T)
