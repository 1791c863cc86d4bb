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
bracket decides the clusters, and it rotates only the clusters whose
Rayleigh residual is above rounding noise.  The budgets count SVDs whose
input has the size of the matrix handed in.  Each matrix argument is
validated once, by the entry point, and once more by each factorization
layer it reaches.
"""

import inspect
import sys

import numpy as np
import pytest

import canonica.factorizations as factorizations
import canonica.matrix as matrix
import canonica.pipeline as pipeline
import canonica.predicates as predicates
import canonica.regularization as regularization
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
from canonica.equivalence import (
    decide_unitary_congruence,
    decide_unitary_star_congruence,
    forms_match,
    quadratic_invariants_equal,
)
from canonica.factorizations import eig_normal
from canonica.predicates import bar_block_dualities, classify
from canonica.regularization import regularize
from canonica.sampling import (
    _hide,
    default_rng,
    random_congruence_instance,
    random_conjugate_normal_instance,
    random_coninvolutory,
    random_involution,
    random_lambda_projection,
    random_matrix,
    random_quadratic_instance,
    random_star_instance,
    random_unitary,
)
from recorders import record_rotations

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


@pytest.fixture
def rotations(monkeypatch):
    """Per eig_normal call of the pipeline: its eigenvalues, and those of
    each cluster it rotated by the skew part."""
    rotated, calls = record_rotations(monkeypatch), []
    decompose = pipeline.eig_normal

    def recorded_decompose(a, tol):
        first = len(rotated)
        lam, u = decompose(a, tol)
        calls.append((lam, [lam[idx] for batch in rotated[first:] for idx in batch]))
        return lam, u

    monkeypatch.setattr(pipeline, "eig_normal", recorded_decompose)
    return calls


def test_singular_canon_congruence_rotates_no_plus_or_minus_one_cluster(rotations):
    # On the +1 and -1 summands the skew part of the cosquare is rounding
    # noise; the Takagi and Hua factorizations of those summands do the
    # reduction, and eig_normal takes no eigh of them.
    a = random_congruence_instance(256, default_rng(0), singular=True)[1]
    canon_congruence(a)
    ((lam, rotated),) = rotations
    for one in (1.0, -1.0):
        assert np.count_nonzero(np.abs(lam - one) <= 1e-6) > 1
        assert not any(np.any(np.abs(values - one) <= 1e-6) for values in rotated)


def _shared_real_part_star(theta):
    # Rays at theta and pi - theta: cosquare eigenvalues exp(+-2i theta),
    # one cluster of the Hermitian part, told apart only by the rotation.
    ones = [r * np.exp(1j * t) for t in (theta, np.pi - theta) for r in (0.8, 1.5, 1.5)]
    ones += [2.0, 2.0]
    return ones, [(1.2, 0.3 + 0.2j), (1.2, 0.3 + 0.2j)]


def _unimodular_congruence(phi):
    # A repeated unimodular mu: cosquare eigenvalues mu and conj(mu).
    return [0.7, 0.7, 1.9], [(0.9, np.exp(1j * phi))] * 3 + [(1.6, 0.4 - 0.3j)]


@pytest.mark.parametrize("angle", [0.35, 0.8, 1.2])
@pytest.mark.parametrize("mode", ["star", "congruence"])
def test_rotation_fires_where_the_skew_part_separates(rotations, mode, angle):
    ones, twos = (_shared_real_part_star if mode == "star" else _unimodular_congruence)(angle)
    form = direct_sum(
        [np.array([[v]], dtype=np.complex128) for v in ones]
        + [antidiag_block(t, m) for t, m in twos]
    )
    n = form.shape[0]
    u = random_unitary(n, default_rng(20261026))
    if mode == "star":
        planted = canon_star(form)[0]
        got = canon_star(u @ form @ u.conj().T)[0]
        shared = np.exp(2j * angle)
    else:
        planted = canon_congruence(form)[0]
        got = canon_congruence(u @ form @ u.T)[0]
        shared = np.exp(1j * angle)
    assert forms_match(got, planted)[0]
    # The hidden input's eig_normal is the last one.
    rotated = rotations[-1][1]
    assert any(
        np.any(np.abs(values - shared) <= 1e-6) and np.any(np.abs(values - shared.conjugate()) <= 1e-6)
        for values in rotated
    )


# The factorization layers that keep their own as_matrix: the tracer
# and the tests hook them by their public names.
LAYERS = (
    (matrix, "rank"),
    (factorizations, "svd"),
    (factorizations, "eig_normal"),
    (factorizations, "takagi_symmetric"),
    (factorizations, "hua_skew"),
    (factorizations, "polar"),
    (regularization, "regularize"),
)


@pytest.fixture
def boundary(monkeypatch):
    """Count the calls of as_matrix and of the layers, and refuse the
    validating norm and rel_residual, in every canonica namespace."""
    record = {"as_matrix": 0, "layers": 0}

    def counted(f, key):
        def call(*args, **kwargs):
            record[key] += 1
            return f(*args, **kwargs)

        return call

    def refuse(*args, **kwargs):
        raise AssertionError("library code called norm or rel_residual")

    patches = [(matrix, "as_matrix", counted(matrix.as_matrix, "as_matrix"))]
    patches += [(owner, name, counted(getattr(owner, name), "layers")) for owner, name in LAYERS]
    patches += [(matrix, "norm", refuse), (matrix, "rel_residual", refuse)]
    for owner, name, new in patches:
        original = getattr(owner, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("canonica") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, new)
    return record


def _real_mu(n, gen, singular, star):
    # 1-by-1 entries and pair blocks with real mu: conj(a) a and a^2 are
    # Hermitian.
    blocks = [np.zeros((1, 1)), antidiag_block(1.7, 0.0)] if singular else []
    left = n - 3 if singular else n
    blocks += [antidiag_block(1.2, (0.3, -0.5)[i % 2]) for i in range(left // 3)]
    blocks += [np.array([[0.6 + 0.3 * i]]) for i in range(left - 2 * (left // 3))]
    return _hide(direct_sum(blocks), gen, transpose=not star)


def _quadratic(n, gen, singular):
    return random_quadratic_instance(n, gen, (1.5 + 0.5j, 0.0 if singular else 0.6j))[0]


def _pair(sample, star):
    def build(n, gen, singular):
        a = sample(n, gen, singular)
        v = random_unitary(n, gen)
        return a, v @ a @ (v.conj().T if star else v.T)

    return build


def _one(sample):
    return lambda n, gen, singular: (sample(n, gen, singular),)


def _star(n, gen, singular):
    return random_star_instance(n, gen, singular)[1]


def _congruence(n, gen, singular):
    return random_congruence_instance(n, gen, singular)[1]


# Entry point: (call, in-class arguments (n, gen, singular), whether the
# class has singular members).
BOUNDARY_CASES = {
    "canon_star": (canon_star, _one(_star), True),
    "canon_congruence": (canon_congruence, _one(_congruence), True),
    "decide_unitary_congruence": (decide_unitary_congruence, _pair(_congruence, False), True),
    "decide_unitary_star_congruence": (decide_unitary_star_congruence, _pair(_star, True), True),
    "classify": (classify, _one(_star), True),
    # regularize is a layer too: its own as_matrix is the boundary's.
    "regularize": (lambda a: regularize(a, "star"), _one(_star), True),
    "canon_conjugate_normal": (
        canon_conjugate_normal,
        _one(lambda n, gen, s: random_conjugate_normal_instance(n, gen, s)[1]),
        True,
    ),
    "canon_unitary": (canon_unitary, _one(lambda n, gen, s: random_unitary(n, gen)), False),
    "canon_coninvolutory": (
        canon_coninvolutory, _one(lambda n, gen, s: random_coninvolutory(n, gen)), False
    ),
    "canon_hermitian_cosquare": (
        canon_hermitian_cosquare, _one(lambda n, gen, s: _real_mu(n, gen, s, False)), True
    ),
    "canon_involution": (
        canon_involution, _one(lambda n, gen, s: random_involution(n, gen)), False
    ),
    "canon_hermitian_square": (
        canon_hermitian_square, _one(lambda n, gen, s: _real_mu(n, gen, s, True)), True
    ),
    # The one nonsingular lambda-projection is lam I.
    "canon_lambda_projection": (
        canon_lambda_projection,
        _one(lambda n, gen, s: random_lambda_projection(n, gen) if s else 1.2j * np.eye(n)),
        True,
    ),
    "canon_quadratic": (canon_quadratic, _one(_quadratic), True),
    "canon_shifted_quadratic_normal": (
        canon_shifted_quadratic_normal,
        lambda n, gen, s: (_star(n, gen, s) + 0.75 * np.eye(n), 0.75),
        True,
    ),
    "quadratic_invariants_equal": (quadratic_invariants_equal, _pair(_quadratic, True), True),
    "bar_block_dualities": (bar_block_dualities, _one(_star), True),
}


@pytest.mark.parametrize("singular", [False, True], ids=["regular", "singular"])
@pytest.mark.parametrize("n", [5, 12])
@pytest.mark.parametrize("entry", list(BOUNDARY_CASES))
def test_each_matrix_is_validated_once_at_the_boundary(boundary, entry, n, singular):
    # Each matrix argument is validated once, by the entry point, and
    # each layer validates its own argument once more; nothing else
    # revalidates, and the validating norm and rel_residual stay unused.
    call, build, has_singular = BOUNDARY_CASES[entry]
    if singular and not has_singular:
        pytest.skip("the class has no singular members")
    args = build(n, default_rng(20261027 + n), singular)
    call(*args)
    matrices = sum(1 for x in args if isinstance(x, np.ndarray))
    assert boundary["as_matrix"] == matrices + boundary["layers"]


def test_boundary_counter_sees_the_checks(boundary):
    # A public helper that validates is counted, and so is a layer, so
    # the equality above is no blind spot.
    import canonica

    factorizations.svd(np.eye(3))
    assert boundary == {"as_matrix": 1, "layers": 1}
    with pytest.raises(AssertionError, match="norm or rel_residual"):
        canonica.norm(np.eye(3))
    with pytest.raises(AssertionError, match="norm or rel_residual"):
        canonica.rel_residual(np.eye(3), np.eye(3))
