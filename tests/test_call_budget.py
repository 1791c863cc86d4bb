"""Factorization budget of the canonical-form paths.

The class gate is one identity, never the full classify, and decide_*
evaluate it once per input.  When it passes, the gate tries one
Cholesky factorization of the shifted Gram matrix of its own product,
which it has formed for the normality residual, and hands the verdict
on to the split.  On well-conditioned nonsingular input that
certificate proves the split trivial, so regularize does not run; a
pair with an input outside the class stops at the gates.
Otherwise regularize takes one full SVD of the input, and on singular
input its singular values prove the rank identity, so the split takes
no values-only SVD of the gate product.  The rank identity also proves
the regular part nonsingular here, so the cosquare takes no SVD;
eig_normal brackets its cluster radius and takes no SVD when the
bracket decides the clusters.  The budgets count SVDs whose input has
the size of the matrix handed in.
"""

import inspect
import sys

import numpy as np
import pytest

import canonica.predicates as predicates
import canonica.regularization as regularization
from canonica.blocks import antidiag_block, direct_sum
from canonica.canon_star import canon_star
from canonica.equivalence import (
    decide_unitary_congruence,
    decide_unitary_star_congruence,
)
from canonica.factorizations import eig_normal
from canonica.sampling import (
    default_rng,
    random_congruence_instance,
    random_matrix,
    random_star_instance,
    random_unitary,
)

# regularize: one full SVD of a, after the certificate's Cholesky
# factorization fails on singular input; its singular values prove the
# rank identity.
CANON_STAR_SINGULAR_BUDGET = 1
# Per canon_congruence of nonsingular input: none, as the certificate
# proves the split trivial.
DECIDE_CONGRUENCE_BUDGET = 0
# Per decide_unitary_star_congruence of two singular inputs: one full
# SVD of each, in regularize.
DECIDE_STAR_SINGULAR_BUDGET = 2


@pytest.fixture
def counts(monkeypatch):
    """Record the shape of every SVD and Cholesky input and every
    classify and regularize call."""
    record = {"svd": [], "cholesky": [], "classify": 0, "regularize": 0}
    # numpy.linalg.norm calls svd from the implementation module.
    spaces = [np.linalg] + [
        getattr(np.linalg, inner)
        for inner in ("_linalg", "linalg")
        if inspect.ismodule(getattr(np.linalg, inner, None))
    ]
    for space in spaces:
        for name in ("svd", "cholesky"):
            def counted(a, *args, _name=name, _f=getattr(space, name), **kwargs):
                record[_name].append(np.shape(a))
                return _f(a, *args, **kwargs)

            monkeypatch.setattr(space, name, counted)

    for owner, name in ((predicates, "classify"), (regularization, "regularize")):
        original = getattr(owner, name)

        def counted_call(*args, _name=name, _f=original, **kwargs):
            record[_name] += 1
            return _f(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("canonica") and getattr(
                module, name, None
            ) is original:
                monkeypatch.setattr(module, name, counted_call)
    return record


def _full_size(record, n):
    return sum(1 for shape in record["svd"] if shape == (n, n))


def _singular_star_instance(n=32):
    # Three rays of repeated 1-by-1 blocks, two mu values shared by four
    # pair blocks, one elementary singular block and two zeros.
    gen = default_rng(20261018)
    ones = [
        r * np.exp(1j * theta)
        for theta in (0.4, 1.3, 2.5)
        for r in (0.8, 0.8, 1.5, 1.5, 1.5, 2.0)
    ] + [1.0, 1.0] + [0.0, 0.0]
    twos = [(1.2, 0.3 + 0.2j), (1.2, 0.3 + 0.2j), (2.0, -0.5j), (2.5, -0.5j)]
    twos += [(1.7, 0.0)]
    form = direct_sum(
        [np.array([[v]], dtype=np.complex128) for v in ones]
        + [antidiag_block(t, m) for t, m in twos]
    )
    assert form.shape == (n, n)
    u = random_unitary(n, gen)
    return u @ form @ u.conj().T


def _congruence_pair(n=24):
    gen = default_rng(20261019)
    ones = [0.7, 0.7, 1.1, 1.9, 2.4, 2.4]
    twos = [(1.3, -1.0)] * 2 + [(0.9, np.exp(0.8j))] * 3
    twos += [(1.6, 0.4 - 0.3j)] * 2 + [(2.2, 0.1 + 0.6j)] * 2
    form = direct_sum(
        [np.array([[s]], dtype=np.complex128) for s in ones]
        + [antidiag_block(t, m) for t, m in twos]
    )
    assert form.shape == (n, n)
    u = random_unitary(n, gen)
    v = random_unitary(n, gen)
    a = u @ form @ u.T
    return a, v @ a @ v.T


def _star_pair():
    a = _singular_star_instance()
    v = random_unitary(a.shape[0], default_rng(20261021))
    return a, v @ a @ v.conj().T


def test_canon_star_singular_budget(counts):
    a = _singular_star_instance()
    form, _ = canon_star(a)
    assert form.dimension == a.shape[0]
    assert counts["classify"] == 0
    assert _full_size(counts, a.shape[0]) == CANON_STAR_SINGULAR_BUDGET
    assert counts["cholesky"] == [a.shape]
    # Nothing factorizes the regular part (20 nonzero 1-by-1 blocks and
    # 4 pair blocks, order 28) or its cosquare: neither a rank check
    # nor a spectral norm for the cluster radius.
    assert _full_size(counts, 28) == 0


def test_decide_unitary_congruence_budget(counts):
    a, b = _congruence_pair()
    verdict = decide_unitary_congruence(a, b)
    assert verdict.verdict == "equivalent"
    assert counts["classify"] == 0
    assert _full_size(counts, a.shape[0]) == DECIDE_CONGRUENCE_BUDGET
    assert counts["cholesky"] == [a.shape, b.shape]


def test_decide_unitary_star_congruence_singular_budget(counts):
    a, b = _star_pair()
    verdict = decide_unitary_star_congruence(a, b)
    assert verdict.verdict == "equivalent"
    assert counts["classify"] == 0
    assert _full_size(counts, a.shape[0]) == DECIDE_STAR_SINGULAR_BUDGET
    assert counts["cholesky"] == [a.shape, b.shape]
    assert _full_size(counts, 28) == 0


@pytest.mark.parametrize(
    "decide,sample",
    [
        (decide_unitary_congruence, random_congruence_instance),
        (decide_unitary_star_congruence, random_star_instance),
    ],
)
def test_a_pair_that_fails_the_gate_stops_at_the_gate(counts, decide, sample):
    # b is out of class: both gates are measured, only a passes, so at
    # most a's certificate is tried, and nothing is split or reduced.
    gen = default_rng(20261022)
    a = sample(16, gen)[1]
    b = random_matrix(16, gen)
    assert decide(a, b).verdict == "unsupported"
    assert counts["classify"] == 0
    assert counts["regularize"] == 0
    assert _full_size(counts, a.shape[0]) == 0
    assert counts["cholesky"] in ([], [a.shape])


@pytest.fixture
def gate_residuals(monkeypatch):
    """Count evaluations of the class gate's normality residual."""
    record = []
    original = predicates._normality_residual

    def counted(x):
        record.append(np.shape(x))
        return original(x)

    for name, module in list(sys.modules.items()):
        if name.startswith("canonica") and getattr(
            module, "_normality_residual", None
        ) is original:
            monkeypatch.setattr(module, "_normality_residual", counted)
    return record


@pytest.mark.parametrize(
    "decide,instance",
    [
        (decide_unitary_congruence, _congruence_pair),
        (decide_unitary_star_congruence, _star_pair),
    ],
)
def test_decide_evaluates_each_gate_once(gate_residuals, decide, instance):
    # The split reuses each input's gate product and residual.
    a, b = instance()
    assert decide(a, b).verdict == "equivalent"
    assert gate_residuals == [a.shape, b.shape]


def test_eig_normal_takes_no_svd_on_a_separated_spectrum(counts):
    gen = default_rng(20261020)
    lam = np.array([3.0, -2.0, 1.0j, -1.5 + 0.5j, 0.5 - 2.0j, 0.25, 2.0 + 2.0j])
    u = random_unitary(len(lam), gen)
    eig_normal((u * lam) @ u.conj().T)
    assert counts["svd"] == []


@pytest.mark.parametrize("n", [0, 6, 32])
def test_classify_takes_one_svd(counts, n):
    # range_hermitian reads the rank off the singular values of the one
    # full SVD it takes for the projectors.
    a = random_matrix(n, default_rng(0)) if n != 32 else _singular_star_instance()
    predicates.classify(a)
    assert counts["svd"] == [(n, n)]


def test_budget_counter_sees_the_gate(counts):
    # The counters see a direct classify call, the SVD inside the
    # spectral norm and a Cholesky factorization, so a zero above is not
    # a blind spot.
    from canonica.matrix import norm

    a = _singular_star_instance()
    predicates.classify(a)
    norm(a, "spectral")
    np.linalg.cholesky(np.eye(3))
    regularization.split_regular_singular(a, "star")
    assert counts["classify"] == 1
    assert counts["regularize"] == 1
    # One SVD each in classify, the spectral norm and regularize.
    assert _full_size(counts, a.shape[0]) == 3
    assert counts["cholesky"] == [(3, 3), a.shape]
