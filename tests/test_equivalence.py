"""Equivalence decisions and the polar-factor upgrade."""

import sys

import numpy as np
import pytest

from canonica.canon_congruence import canon_congruence
from canonica.canon_star import canon_star
from canonica.equivalence import (
    decide_unitary_congruence,
    decide_unitary_star_congruence,
    forms_match,
    quadratic_invariants_equal,
    upgrade_congruence_to_unitary,
)
from canonica.errors import PreconditionError
from canonica.matrix import norm
from canonica.predicates import classify
from canonica.sampling import (
    default_rng,
    random_congruence_instance,
    random_quadratic_instance,
    random_star_instance,
    random_unitary,
)

J2 = np.array([[0.0, 1.0], [0.0, 0.0]])
H2_I = np.array([[0.0, 1.0], [1.0j, 0.0]])


def test_decide_congruence_equivalent_pair():
    gen = default_rng(53)
    u = random_unitary(2, gen)
    v = decide_unitary_congruence(H2_I, u @ H2_I @ u.T)
    assert v.verdict == "equivalent"
    assert v.method == "canonical_form"
    assert v.equivalent


def test_decide_congruence_scaled_pair_differs():
    v = decide_unitary_congruence(H2_I, 2.0 * H2_I)
    assert v.verdict == "not_equivalent"
    assert not v.equivalent


def test_decide_congruence_unsupported_out_of_class():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    v = decide_unitary_congruence(a, H2_I)
    assert v.verdict == "unsupported"
    assert v.method == "none"
    assert "reason" in v.detail
    # The one-identity gate reports classify's residuals bit for bit.
    assert v.detail["residuals"] == {
        "a": classify(a).residuals["congruence_normal"],
        "b": classify(H2_I).residuals["congruence_normal"],
    }


def test_decide_congruence_shape_gate():
    with pytest.raises(PreconditionError):
        decide_unitary_congruence(np.eye(2), np.eye(3))


def test_verdict_json():
    obj = decide_unitary_congruence(H2_I, H2_I).to_json()
    assert set(obj) == {"verdict", "method", "detail"}


def test_decide_star_2x2_uses_trace_criterion():
    v = decide_unitary_star_congruence(J2, J2.T)
    assert v.verdict == "equivalent"
    assert v.method == "pearcy"
    w = decide_unitary_star_congruence(J2, 1.1 * J2)
    assert w.verdict == "not_equivalent"
    assert w.method == "pearcy"


def test_decide_star_squared_normal_route():
    gen = default_rng(59)
    a = np.diag([2.0, -1.0j, 0.5])
    u = random_unitary(3, gen)
    v = decide_unitary_star_congruence(a, u @ a @ u.conj().T)
    assert v.verdict == "equivalent"
    assert v.method == "canonical_form"
    w = decide_unitary_star_congruence(a, np.diag([2.0, -1.0j, 0.6]))
    assert w.verdict == "not_equivalent"


QUAD3 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 0.0, 3.0]])


def test_decide_star_quadratic_route():
    # Not squared normal, but annihilated by (t - 1)(t - 3).
    gen = default_rng(61)
    u = random_unitary(3, gen)
    v = decide_unitary_star_congruence(QUAD3, u @ QUAD3 @ u.conj().T)
    assert v.verdict == "equivalent"
    assert v.method == "quadratic_invariants"
    w = decide_unitary_star_congruence(QUAD3, 1.5 * QUAD3)
    assert w.verdict == "not_equivalent"


def test_decide_star_unsupported():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 3.0]])
    v = decide_unitary_star_congruence(a, a)
    assert v.verdict == "unsupported"
    assert v.method == "none"
    residual = classify(a).residuals["squared_normal"]
    assert v.detail["residuals"] == {"a": residual, "b": residual}


@pytest.mark.parametrize("s", [1e-9, 1e-7, 1.0, 1e9])
@pytest.mark.parametrize("mode", ["congruence", "star"])
def test_decide_compares_blocks_at_the_forms_scale(mode, s):
    # tau and the 1-by-1 entries are matched relative to the forms: at
    # an absolute tolerance, s = 1e-9 called the 1.5 times scaled pair
    # equivalent and s = 1e9 called the rotated pair inequivalent.
    u = random_unitary(6, default_rng(6))
    if mode == "star":
        _, x = random_star_instance(6, default_rng(5))
        y = u @ x @ u.conj().T
        decide = decide_unitary_star_congruence
    else:
        _, x = random_congruence_instance(6, default_rng(5))
        y = u @ x @ u.T
        decide = decide_unitary_congruence
    assert decide(s * x, 1.5 * s * x).verdict == "not_equivalent"
    assert decide(s * x, s * y).verdict == "equivalent"


@pytest.mark.parametrize("s", [1e-2, 1.0, 1e9])
def test_quadratic_invariants_compare_at_the_inputs_scale(s):
    # Eigenvalues and singular values are matched relative to the
    # inputs: at an absolute tolerance, s = 1e9 called the rotated pair
    # inequivalent and s = 1e-2 called the pair scaled by 1 + 1e-6
    # equivalent.
    q = random_quadratic_instance(6, default_rng(3))[0]
    u = random_unitary(6, default_rng(4))
    rotated = decide_unitary_star_congruence(s * q, s * u @ q @ u.conj().T)
    assert (rotated.verdict, rotated.method) == ("equivalent", "quadratic_invariants")
    scaled = decide_unitary_star_congruence(s * q, (1 + 1e-6) * s * q)
    assert (scaled.verdict, scaled.method) == ("not_equivalent", "quadratic_invariants")


def test_forms_match_reports_pairings():
    fa, _ = canon_congruence(H2_I)
    fb, _ = canon_congruence(H2_I)
    ok, detail = forms_match(fa, fb)
    assert ok
    assert detail["two_by_two"][0]["a"] is not None
    assert detail["two_by_two"][0]["b"] is not None


def test_forms_match_flags_leftovers():
    fa, _ = canon_congruence(H2_I)
    fb, _ = canon_congruence(np.diag([1.0, 2.0]))
    ok, detail = forms_match(fa, fb)
    assert not ok
    assert any(entry["b"] is None for entry in detail["two_by_two"])
    assert any(entry["a"] is None for entry in detail["one_by_one"])


def test_quadratic_invariants_equal_symmetry():
    ok, detail = quadratic_invariants_equal(QUAD3, QUAD3.copy())
    assert ok
    assert set(detail) == {"eigenvalues", "singular_values"}
    with pytest.raises(PreconditionError):
        quadratic_invariants_equal(np.diag([1.0, 2.0, 3.0]), QUAD3)


class TestUpgrade:
    def test_recovers_the_polar_factor(self):
        gen = default_rng(67)
        b = np.array([[0.0, 2.0], [0.5, 0.0]])
        w_true = random_unitary(2, gen)
        q = np.diag([1.5, 1.0 / 1.5])
        s = w_true @ q
        # q leaves b fixed under congruence, so s carries b to a with
        # the same unitary part that the polar decomposition recovers.
        a = s @ b @ s.T
        w = upgrade_congruence_to_unitary(a, b, s)
        assert np.allclose(w, w_true, atol=1e-8)
        assert norm(a - w @ b @ w.T) <= 1e-8 * max(1.0, norm(a))

    def test_weak_hypothesis_for_unitary_pair(self):
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        s = np.diag([2.0, 0.5])
        w = upgrade_congruence_to_unitary(b, b, s)
        assert np.allclose(w, np.eye(2), atol=1e-10)

    def test_star_mode_involutory_pair(self):
        gen = default_rng(71)
        b = np.array([[0.0, 0.5], [2.0, 0.0]])
        w_true = random_unitary(2, gen)
        s = w_true @ np.diag([2.0, 0.5])
        a = s @ b @ s.conj().T
        w = upgrade_congruence_to_unitary(a, b, s, mode="star")
        assert norm(a - w @ b @ w.conj().T) <= 1e-8 * max(1.0, norm(a))

    def test_rejects_broken_congruence(self):
        with pytest.raises(PreconditionError):
            upgrade_congruence_to_unitary(np.diag([1.0, 2.0]), np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))

    def test_rejects_missing_pair_hypothesis(self):
        # s carries b to a but not b^{-*} to a^{-*}.
        b = np.diag([1.0, 2.0])
        s = np.array([[1.0, 1.0], [0.0, 1.0]])
        a = s @ b @ s.T
        with pytest.raises(PreconditionError):
            upgrade_congruence_to_unitary(a, b, s)

    def test_rejects_singular_inputs(self):
        with pytest.raises(PreconditionError):
            upgrade_congruence_to_unitary(J2, J2, np.eye(2))
        with pytest.raises(PreconditionError):
            upgrade_congruence_to_unitary(np.eye(2), np.eye(2), J2)

    def test_reads_class_flags_without_calling_classify(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("upgrade_congruence_to_unitary called classify")

        for name, module in list(sys.modules.items()):
            if name.startswith("canonica") and hasattr(module, "classify"):
                monkeypatch.setattr(module, "classify", refuse)
        self.test_recovers_the_polar_factor()
        self.test_weak_hypothesis_for_unitary_pair()
        self.test_star_mode_involutory_pair()
        self.test_rejects_missing_pair_hypothesis()

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            upgrade_congruence_to_unitary(np.eye(2), np.eye(2), np.eye(2), mode="both")
