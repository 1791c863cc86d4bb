"""The seeded samplers: every family at every size, and spread parameters."""

import numpy as np
import pytest

from canonica.canon_congruence import canon_congruence
from canonica.canon_star import canon_star
from canonica.equivalence import forms_match
from canonica.iteration import classify_bounded
from canonica.matrix import DEFAULT_TOL, rel_residual
from canonica.predicates import _class_residual
from canonica.sampling import (
    _spread,
    default_rng,
    random_congruence_form,
    random_congruence_instance,
    random_coninvolutory,
    random_conjugate_normal_instance,
    random_involution,
    random_lambda_projection,
    random_matrix,
    random_nonsingular,
    random_normal,
    random_quadratic_instance,
    random_star_form,
    random_star_instance,
    random_unitary,
    random_vector,
)

SIZES = list(range(9)) + [32, 64, 128, 256]
SEEDS = range(12)


def _quadratic_residual(n, gen, opposite):
    a, (l1, l2) = random_quadratic_instance(n, gen, opposite=opposite)
    eye = np.eye(n, dtype=np.complex128)
    return a, rel_residual((a - l1 * eye) @ (a - l2 * eye), 0.0 * eye)


def _cond_residual(n, gen):
    a = random_nonsingular(n, gen)
    s = np.linalg.svd(a, compute_uv=False)
    return a, abs(s[0] / s[-1] - 4.0) / 4.0 if n > 1 else 0.0


def _vector_residual(n, gen):
    v = random_vector(n, gen)
    return v, abs(np.linalg.norm(v) - 1.0) if n else 0.0


# name -> (n, gen) -> (instance, residual of its class identity), where
# the identity of a nonsingular matrix is cond = 4 and of a vector norm 1.
SAMPLERS = {
    "unitary": lambda n, g: _flagged(random_unitary(n, g), "unitary"),
    "normal": lambda n, g: _flagged(random_normal(n, g), "normal"),
    "nonsingular": _cond_residual,
    "matrix": lambda n, g: (random_matrix(n, g), 0.0),
    "vector": _vector_residual,
    "congruence_form": lambda n, g: _flagged(
        random_congruence_form(n, g, singular=n % 2 == 1).assemble(),
        "congruence_normal",
    ),
    "congruence_instance": lambda n, g: _flagged(
        random_congruence_instance(n, g, singular=n % 2 == 0)[1], "congruence_normal"
    ),
    "star_form": lambda n, g: _flagged(
        random_star_form(n, g, singular=n % 2 == 1).assemble(), "squared_normal"
    ),
    "star_instance": lambda n, g: _flagged(
        random_star_instance(n, g, singular=n % 2 == 0)[1], "squared_normal"
    ),
    "conjugate_normal_instance": lambda n, g: _flagged(
        random_conjugate_normal_instance(n, g, singular=n % 2 == 0)[1],
        "conjugate_normal",
    ),
    "coninvolutory": lambda n, g: _flagged(random_coninvolutory(n, g), "coninvolutory"),
    "involution": lambda n, g: _flagged(random_involution(n, g), "involutory"),
    "lambda_projection": lambda n, g: _flagged(
        random_lambda_projection(n, g), "lambda_projection"
    ),
    "quadratic": lambda n, g: _quadratic_residual(n, g, opposite=False),
    "quadratic_opposite": lambda n, g: _quadratic_residual(n, g, opposite=True),
}


def _flagged(a, flag):
    return a, _class_residual(a, flag)


@pytest.mark.parametrize(
    "name, n",
    [
        (name, n)
        for name in sorted(SAMPLERS)
        for n in SIZES
        if n >= 2 or not name.startswith("quadratic")  # see the ValueError test
    ],
)
def test_every_sampler_reaches_every_size_inside_its_class(name, n):
    for seed in SEEDS:
        a, res = SAMPLERS[name](n, default_rng(1000 * n + seed))
        assert a.shape == ((n,) if name == "vector" else (n, n))
        assert res <= DEFAULT_TOL.residual_rtol, (seed, res)


@pytest.mark.parametrize("count", [1, 2, 3, 7, 50, 1000])
@pytest.mark.parametrize("lo, hi", [(0.3, np.pi - 0.3), (-np.pi, np.pi), (1.2, 2.5)])
def test_spread_keeps_neighbours_apart(count, lo, hi):
    width = (hi - lo) / count
    for seed in range(5):
        vals = np.array(_spread(default_rng(seed), count, lo, hi))
        assert len(vals) == count
        assert vals[0] >= lo + 0.2 * width and vals[-1] <= hi - 0.2 * width
        assert np.all(np.diff(vals) >= 0.4 * width * (1 - 1e-12))


def test_spread_of_nothing_draws_nothing():
    gen = default_rng(5)
    assert _spread(gen, 0, 0.0, 1.0) == []
    assert gen.random() == default_rng(5).random()


@pytest.mark.parametrize("singular", [False, True])
@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize(
    "sample, canon",
    [
        (random_congruence_instance, canon_congruence),
        (random_star_instance, canon_star),
        (random_conjugate_normal_instance, canon_congruence),
    ],
    ids=["congruence", "star", "conjugate_normal"],
)
def test_large_planted_forms_are_recovered(sample, canon, n, singular):
    for seed in range(5):
        form, a = sample(n, default_rng([n, seed]), singular=singular)
        got, _ = canon(a)
        ok, report = forms_match(form, got)
        assert ok, (seed, report)


def test_nonsingular_of_size_zero_is_empty():
    a = random_nonsingular(0, default_rng(0))
    assert a.shape == (0, 0) and a.dtype == np.complex128


@pytest.mark.parametrize("n", [0, 1])
def test_quadratic_instance_needs_two_dimensions(n):
    with pytest.raises(ValueError, match="n >= 2"):
        random_quadratic_instance(n, default_rng(0))


@pytest.mark.parametrize("mode", ["congruence", "star"])
def test_empty_recurrence_is_bounded(mode):
    assert classify_bounded(np.zeros((0, 0)), mode=mode) == "bounded"
