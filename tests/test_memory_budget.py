"""Working-set budget of the canonical-form paths.

Each stage frees or overwrites its n x n temporaries as soon as they
are folded into the next result: the gate forms one conjugate transpose
for both products of its normality residual, regularize keeps only u
and the singular values of its SVD and writes the transform's row
blocks in place, the residual checks subtract the assembled form's
nonzero entries in place, eig_normal drops its Hermitian parts before
the reconstruction, and the pipeline releases each factor once it is
folded into the next product.  decide_* hold one scaled input at a time,
and canon_* and decide_* pass a trivial split on without copying it.

The budget is the tracemalloc peak of one call, in units of one n x n
complex matrix (16 n^2 bytes), on singular input at n = 256, where
every stage runs: the class gate, regularize, the split's rank
identity, the cosquare, eig_normal and the per-summand reductions; and
on nonsingular input for canon_*, whose split is then trivial.  It
counts numpy's arrays (which numpy reports to tracemalloc), not LAPACK
workspaces, and does not depend on where the allocator places them.
"""

import tracemalloc

import numpy as np
import pytest

from canonica.canon_congruence import canon_congruence
from canonica.canon_star import canon_star
from canonica.equivalence import decide_unitary_congruence
from canonica.regularization import regularize
from canonica.sampling import (
    default_rng,
    random_congruence_instance,
    random_star_instance,
)

N = 256
# Peaks before these trims: canon_star 11.8, canon_congruence 10.9,
# decide_unitary_congruence 12.1, regularize 12.9.
BUDGET_UNITS = 9.0
# Nonsingular canon_* before the trivial split was passed on uncopied:
# canon_star 7.15, canon_congruence 7.62.
NONSINGULAR_BUDGET_UNITS = 6.0


def _peak_units(call, n: int) -> float:
    """The tracemalloc peak of call(), over 16 n^2 bytes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / (16.0 * n * n)
    finally:
        if not tracing:
            tracemalloc.stop()


def _star(seed):
    return random_star_instance(N, default_rng(seed), singular=True)[1]


def _congruence(seed):
    return random_congruence_instance(N, default_rng(seed), singular=True)[1]


def _call(name: str):
    """A call of the named entry point on singular input, which is made
    here, before tracing starts: only what the call allocates, its
    result included, counts."""
    if name == "canon_star":
        a = _star(0)
        return lambda: canon_star(a)
    if name == "canon_congruence":
        a = _congruence(0)
        return lambda: canon_congruence(a)
    if name == "regularize":
        a = _star(0)
        return lambda: regularize(a, "star")
    a, b = _congruence(0), _congruence(1)
    return lambda: decide_unitary_congruence(a, b)


@pytest.mark.parametrize(
    "name", ["canon_star", "canon_congruence", "regularize", "decide_unitary_congruence"]
)
def test_peak_working_set_within_budget(name):
    peak = _peak_units(_call(name), N)
    assert peak <= BUDGET_UNITS, f"{name}: peak {peak:.2f} units of 16 n^2 bytes"


@pytest.mark.parametrize(
    "canon, sample",
    [(canon_star, random_star_instance), (canon_congruence, random_congruence_instance)],
)
def test_nonsingular_canon_peak_within_budget(canon, sample):
    # The certificate proves the split trivial: neither a copy of the
    # input nor an identity transform is formed.
    a = sample(N, default_rng(0))[1]
    peak = _peak_units(lambda: canon(a), N)
    assert peak <= NONSINGULAR_BUDGET_UNITS, (
        f"{canon.__name__}: peak {peak:.2f} units of 16 n^2 bytes"
    )


def test_budget_meter_sees_numpy_arrays():
    # Three live n x n complex arrays read as three units, so a small
    # peak above is not a blind spot of the meter.
    def three():
        return [np.ones((N, N), dtype=np.complex128) for _ in range(3)]

    assert 3.0 <= _peak_units(three, N) < 3.1
