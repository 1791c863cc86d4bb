"""Boundedness of the alternating recurrence and its simulator."""

import warnings

import numpy as np
import pytest

from canonica.blocks import antidiag_block
from canonica.errors import PreconditionError
from canonica.iteration import classify_bounded, simulate
from canonica.predicates import classify
from canonica.sampling import (
    default_rng,
    random_congruence_instance,
    random_nonsingular,
    random_star_instance,
    random_unitary,
)

ROT90 = np.array([[0.0, 1.0], [-1.0, 0.0]])
H2_TWO = np.array([[0.0, 1.0], [2.0, 0.0]])
CONINV = np.array([[0.0, 0.5], [2.0, 0.0]])


def test_unitary_input_is_bounded():
    assert classify_bounded(ROT90) == "bounded"
    assert classify_bounded(ROT90, mode="star") == "bounded"


def test_interior_parameter_is_unbounded():
    assert classify_bounded(H2_TWO) == "unbounded"


def test_involution_is_unbounded_in_star_mode():
    # Singular values (2, 1/2) push the *cosquare spectrum off the
    # circle even though the transpose cosquare is harmless.
    assert classify_bounded(CONINV, mode="star") == "unbounded"


def test_in_class_nonunimodular_cosquare():
    a = np.array([[1.0, 1.0], [0.0, -1.0]])
    assert classify_bounded(a) == "unbounded"


def test_out_of_class_unimodular_spectrum_is_unsupported():
    gen = default_rng(73)
    s = random_nonsingular(2, gen)
    a = s @ antidiag_block(1.5, np.exp(0.7j)) @ s.T
    assert not classify(a)["congruence_normal"]
    assert classify_bounded(a) == "unsupported"


def test_classifier_gates():
    with pytest.raises(PreconditionError):
        classify_bounded(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        classify_bounded(ROT90, mode="conjugate")


def test_simulate_bounded_orbit():
    trace = simulate(ROT90, [1.0, 0.0], 200)
    assert trace.growth_classification == "bounded"
    assert len(trace.norms) == 201
    assert max(trace.norms) <= 1.0 + 1e-9


def test_simulate_growth_and_overflow_guard():
    trace = simulate(H2_TWO, [1.0, 0.0], 200)
    assert trace.growth_classification == "unbounded"
    # Doubling reaches the overflow guard long before 200 steps.
    assert len(trace.norms) < 201
    assert trace.norms[1] == pytest.approx(2.0)


def test_simulate_direction_matters():
    trace = simulate(H2_TWO, [0.0, 1.0], 50)
    assert trace.growth_classification == "bounded"
    assert trace.norms[-1] < 1e-9


def test_simulate_inconclusive_window():
    trace = simulate(H2_TWO, [1.0, 0.0], 15)
    assert trace.growth_classification == "inconclusive"


def test_simulate_zero_start():
    trace = simulate(ROT90, [0.0, 0.0], 10)
    assert trace.growth_classification == "bounded"
    assert set(trace.norms) == {0.0}


def test_simulate_star_mode():
    trace = simulate(CONINV, [1.0, 0.0], 12, mode="star")
    assert trace.growth_classification == "unbounded"
    assert trace.norms[1] == pytest.approx(4.0)


def test_simulate_input_validation():
    with pytest.raises(PreconditionError):
        simulate(ROT90, [1.0, 0.0, 0.0], 10)
    with pytest.raises(ValueError):
        simulate(ROT90, [1.0, 0.0], 0)
    with pytest.raises(ValueError):
        simulate(ROT90, [1.0, 0.0], 2.5)


def test_trace_json():
    obj = simulate(ROT90, [1.0, 0.0], 3).to_json()
    assert set(obj) == {"norms", "growth_classification"}
    assert len(obj["norms"]) == 4


@pytest.mark.parametrize("mode", ["congruence", "star"])
@pytest.mark.parametrize("k", [130, 166, 230])
def test_verdict_does_not_depend_on_the_scale(mode, k):
    # The recurrence is the same at 2^k a, and so is the class gate that
    # lets the normal cosquare's spectrum decide it.
    gen = default_rng(7)
    sample = random_congruence_instance if mode == "congruence" else random_star_instance
    inputs = [random_unitary(6, gen), sample(6, gen)[1], random_nonsingular(6, gen)]
    verdicts = [classify_bounded(a, mode) for a in inputs]
    assert verdicts[0] == "bounded"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [classify_bounded(2.0**k * a, mode) for a in inputs] == verdicts
