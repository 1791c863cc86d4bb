"""Class membership flags and the equivalence-of-conditions checks."""

import sys
import warnings

import numpy as np
import pytest

import canonica.regularization as regularization
from canonica.canon_star import canon_hermitian_square, canon_lambda_projection
from canonica.matrix import DEFAULT_TOL
from canonica.predicates import (
    FLAG_NAMES,
    bar_block_dualities,
    bar_double,
    classify,
    verify_characterizations,
)
from canonica.sampling import (
    default_rng,
    random_congruence_instance,
    random_matrix,
    random_star_instance,
    random_unitary,
)

J2 = np.array([[0.0, 1.0], [0.0, 0.0]])
ROT90 = np.array([[0.0, 1.0], [-1.0, 0.0]])
H2_TWO = np.array([[0.0, 1.0], [2.0, 0.0]])
CONINV = np.array([[0.0, 0.5], [2.0, 0.0]])
INVOL = np.array([[1.0, 1.5], [0.0, -1.0]])


def flags_of(a):
    rep = classify(a)
    return {name for name in FLAG_NAMES if rep[name]}


def test_identity_is_in_every_class():
    rep = classify(np.eye(3))
    assert all(rep[name] for name in FLAG_NAMES)
    assert rep.lam == pytest.approx(1.0)


def test_nilpotent_jordan_block():
    assert flags_of(J2) == {
        "congruence_normal",
        "squared_normal",
        "hermitian_square",
        "lambda_projection",
    }
    assert classify(J2).lam == pytest.approx(0.0)


def test_rotation_by_ninety_degrees():
    assert flags_of(ROT90) == {
        "normal",
        "conjugate_normal",
        "congruence_normal",
        "squared_normal",
        "unitary",
        "hermitian_square",
        "range_hermitian",
    }


def test_weighted_antidiagonal():
    # Congruence normal but not conjugate normal: the singular values
    # attach to the wrong axes for the conjugate condition.
    assert flags_of(H2_TWO) == {
        "congruence_normal",
        "squared_normal",
        "hermitian_square",
        "range_hermitian",
    }


def test_coninvolutory_example():
    rep = classify(CONINV)
    assert rep["coninvolutory"]
    # real entries make conjugation a no-op, so this one is also involutory
    assert rep["involutory"]


def test_coninvolutory_not_involutory():
    # i * CONINV squares to -I but conjugate-squares to I
    rep = classify([[0.0, 0.5j], [2.0j, 0.0]])
    assert rep["coninvolutory"]
    assert not rep["involutory"]


def test_involutory_example():
    rep = classify(INVOL)
    assert rep["involutory"]
    assert rep["congruence_normal"]
    assert not rep["lambda_projection"]


@pytest.mark.parametrize(
    "a, lam",
    [
        ([[1.0, 1.0], [0.0, 0.0]], 1.0),
        ([[2.0, 2.0], [0.0, 0.0]], 2.0),
        ([[0.5j, 0.0], [0.0, 0.0]], 0.5j),
    ],
)
def test_lambda_projection_recovers_scalar(a, lam):
    rep = classify(a)
    assert rep["lambda_projection"]
    assert rep.lam == pytest.approx(lam)


def test_report_json_shape():
    obj = classify(J2).to_json()
    assert set(obj) == {"flags", "residuals", "lambda"}
    assert set(obj["flags"]) == set(FLAG_NAMES)
    assert obj["lambda"] == pytest.approx([0.0, 0.0])
    assert all(isinstance(v, float) for v in obj["residuals"].values())


def test_report_getitem_unknown_flag():
    with pytest.raises(KeyError):
        classify(J2)["positive"]


def test_bar_double_layout():
    d = bar_double([[1j, 2.0], [0.0, 3.0]])
    assert d.shape == (4, 4)
    assert np.array_equal(d[:2, :2], np.zeros((2, 2)))
    assert d[0, 2] == 1j
    assert d[2, 0] == -1j


FAMILIES = (
    "congruence_normal_idents",
    "squared_normal_idents",
    "conjugate_normal_afd",
    "congruence_normal_afd",
)

PROBES = (
    J2,
    ROT90,
    H2_TWO,
    CONINV,
    INVOL,
    np.array([[0.0, 1.0], [0.0, 2.0]]),
    np.array([[1.0, 2.0], [3.0, 4.0]]),
    np.diag([1.0, 0.0, 2.0]),
)


# The conditions each family reports, in order; the idents families
# measure cosquare normality on nonsingular input only.
CONDITIONS = {
    "congruence_normal_idents": ["gram_normal", "cubic_identity", "cosquare_normal"],
    "squared_normal_idents": ["square_normal", "cubic_identity", "cosquare_normal"],
    "conjugate_normal_afd": [
        "part_identity",
        "definition",
        "polar_conjugate",
        "polar_intertwine",
        "unitary_sum",
        "orthogonal_sum",
    ],
    "congruence_normal_afd": [
        "part_commute",
        "definition",
        "polar_intertwine",
        "polar_family",
    ],
}


@pytest.mark.parametrize("which", FAMILIES)
def test_characterization_conditions_agree(which):
    # The listed conditions are equivalent, in and out of class alike.
    for a in PROBES:
        res = verify_characterizations(a, which)
        assert res["agree"], (which, a)
        assert isinstance(res["nonsingular"], bool)
        assert list(res["conditions"]) == [
            name
            for name in CONDITIONS[which]
            if res["nonsingular"] or name != "cosquare_normal"
        ]
        for cond in res["conditions"].values():
            assert set(cond) == {"residual", "holds"}


def test_characterization_holds_in_class():
    res = verify_characterizations(H2_TWO, "congruence_normal_idents")
    assert all(c["holds"] for c in res["conditions"].values())


def test_characterization_fails_out_of_class():
    res = verify_characterizations(
        np.array([[0.0, 1.0], [0.0, 2.0]]), "congruence_normal_idents"
    )
    assert res["agree"]
    assert not any(c["holds"] for c in res["conditions"].values())


def test_characterizations_unknown_family():
    with pytest.raises(ValueError):
        verify_characterizations(J2, "unitary_idents")


def test_bar_block_dualities_agree_on_probes():
    for a in PROBES:
        assert bar_block_dualities(a)["agree"], a


DUALITY_FLAGS = {
    "squared_vs_congruence": ("squared_normal", "congruence_normal"),
    "congruence_vs_squared": ("congruence_normal", "squared_normal"),
    "normal_vs_conjugate": ("normal", "conjugate_normal"),
    "conjugate_vs_normal": ("conjugate_normal", "normal"),
}


def test_bar_block_dualities_reads_classify_residuals_without_calling_it(monkeypatch):
    want = {}
    for i, a in enumerate(PROBES):
        rep_a, rep_d = classify(a), classify(bar_double(a))
        for key, (left, right) in DUALITY_FLAGS.items():
            want[i, key] = (rep_a.residuals[left], rep_d.residuals[right])

    def refuse(*args, **kwargs):
        raise AssertionError("bar_block_dualities called classify")

    for name, module in list(sys.modules.items()):
        if name.startswith("canonica") and hasattr(module, "classify"):
            monkeypatch.setattr(module, "classify", refuse)
    for i, a in enumerate(PROBES):
        out = bar_block_dualities(a)
        for key in DUALITY_FLAGS:
            got = (out[key]["left_residual"], out[key]["right_residual"])
            assert got == want[i, key], (a, key)


def test_bar_block_dualities_extra_entries_need_inverses():
    singular = set(bar_block_dualities(J2))
    nonsingular = set(bar_block_dualities(H2_TWO))
    assert "squared_vs_congruence" in singular
    assert "congruence_vs_squared" in singular
    assert singular < nonsingular


def _gate_instances():
    gen = default_rng(5)
    return {
        "congruence_normal": random_congruence_instance(6, gen)[1],
        "squared_normal": random_star_instance(6, gen)[1],
        "out_of_class": random_matrix(6, gen),
    }


@pytest.mark.parametrize("kind", ["congruence_normal", "squared_normal", "out_of_class"])
@pytest.mark.parametrize("k", [130, 166, 230])
def test_class_gate_residuals_do_not_depend_on_the_scale(kind, k):
    # Scaling by 2^k is exact, and the gate identities are relative: the
    # residuals at 2^k a are those at a to the bit, past where the norms
    # of the gate products' Gram matrices overflow, and the canonical
    # forms' class gate measures the same numbers.
    a = _gate_instances()[kind]
    base = classify(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = classify(2.0**k * a)
        gates = {
            flag: regularization._gate(2.0**k * a, mode, DEFAULT_TOL)[0]
            for mode, flag in regularization._GATE_FLAGS.items()
        }
    for flag, gate in gates.items():
        assert scaled.residuals[flag] == base.residuals[flag]
        assert scaled.flags[flag] == base.flags[flag]
        assert gate == base.residuals[flag]
    assert base.flags["congruence_normal"] == (kind == "congruence_normal")
    assert base.flags["squared_normal"] == (kind == "squared_normal")


# ----- one rule: every identity at unit scale, with the gate's floor -----

SCALE_KS = (-900, -20, 20, 500, 900)
# The three identities against the input's I are not homogeneous.
HOMOGENEOUS = [name for name in FLAG_NAMES if name not in ("unitary", "coninvolutory", "involutory")]


def _hidden_nilpotent():
    # u N u* with N^2 = 0: squared normal, a Hermitian square and a
    # lambda-projection with lam = 0 at every scale, but not involutory.
    u = random_unitary(4, default_rng(0))
    n = np.zeros((4, 4), dtype=complex)
    n[0, 1], n[2, 3] = 1.0, 0.7
    return u @ n @ u.conj().T


def _scale_inputs():
    gen = default_rng(3)
    return {
        "generic": random_matrix(6, default_rng(0)),
        "congruence": random_congruence_instance(4, default_rng(1))[1],
        "star": random_star_instance(5, gen)[1],
        "singular_congruence": random_congruence_instance(5, gen, singular=True)[1],
        "hidden_nilpotent": _hidden_nilpotent(),
    }


SCALE_INPUTS = _scale_inputs()


def _scaled(x, k: int):
    """2^k x, exactly."""
    return np.ldexp(x.view(np.float64), k).view(x.dtype)


@pytest.mark.parametrize("which", FAMILIES)
@pytest.mark.parametrize("name", ["generic", "congruence"])
def test_characterizations_do_not_depend_on_the_scale(which, name):
    # Every condition is measured at unit scale, so 2^k x reports what x
    # does, bit for bit, and its conditions agree.
    x = SCALE_INPUTS[name]
    base = verify_characterizations(x, which)
    assert base["agree"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in SCALE_KS:
            assert verify_characterizations(_scaled(x, k), which) == base, k


@pytest.mark.parametrize("name", ["generic", "congruence"])
def test_dualities_do_not_depend_on_the_scale(name):
    x = SCALE_INPUTS[name]
    base = bar_block_dualities(x)
    assert base["agree"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in SCALE_KS:
            assert bar_block_dualities(_scaled(x, k)) == base, k


@pytest.mark.parametrize("scale", [1e-8, 1e80])
def test_characterizations_agree_far_from_unit_scale(scale):
    # At 1e-8 the polar and part conditions of a generic matrix held under
    # the floor of 1 at the input's scale, and at 1e80 its products
    # overflowed.
    x = scale * SCALE_INPUTS["generic"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for which in FAMILIES:
            assert verify_characterizations(x, which)["agree"], which


@pytest.mark.parametrize("name", sorted(SCALE_INPUTS))
def test_homogeneous_classify_residuals_do_not_depend_on_the_scale(name):
    x = SCALE_INPUTS[name]
    base = classify(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in SCALE_KS:
            got = classify(_scaled(x, k))
            assert {f: got.residuals[f] for f in HOMOGENEOUS} == {
                f: base.residuals[f] for f in HOMOGENEOUS
            }, k


@pytest.mark.parametrize("scale", [1e5, 1e8, 1e150])
def test_hidden_nilpotent_keeps_its_classes_at_every_scale(scale):
    # Its square is of rounding size: at the input's scale the floor of
    # 1 shrank by scale^-2 and the rounding then read as a relative
    # residual near 1.  Against its I it is no involution, at any scale.
    a = _hidden_nilpotent()
    base = classify(a)
    assert flags_of(a) == {"squared_normal", "hermitian_square", "lambda_projection"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = classify(scale * a)
        assert report.flags == base.flags
        assert report.lam == 0.0
        canon_hermitian_square(scale * a)
        canon_lambda_projection(scale * a)


@pytest.mark.parametrize("name", sorted(SCALE_INPUTS))
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e8])
def test_classify_measures_the_gate_residual(name, scale):
    # classify and the canonical forms' class gate measure one number.
    a = scale * SCALE_INPUTS[name]
    residuals = classify(a).residuals
    for mode, flag in regularization._GATE_FLAGS.items():
        assert residuals[flag] == regularization._gate(a, mode, DEFAULT_TOL)[0]
