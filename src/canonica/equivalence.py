"""Equivalence decisions and congruence upgrades.

Inside the classes with a complete canonical form, unitary congruence
and *congruence are decidable by comparing block multisets; outside
them the honest verdict is "unsupported".  The module also provides the
polar-factor upgrade: when a congruence between two matrices respects
their inverse conjugate transposes, the unitary polar factor of the
congruence already realizes a unitary congruence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canon_congruence import _CONGRUENCE, CongruenceCanonicalForm
from .canon_star import _STAR, StarCanonicalForm, _canon_quadratic, _traces_close, _unit_traces
from .errors import ConvergenceError, PreconditionError
from .factorizations import polar, svd
from .matrix import (
    DEFAULT_TOL,
    ToleranceConfig,
    _adjoint,
    _norm,
    _unit_scale,
    _unit_scale_pair,
    as_matrix,
    rank,
)
from .pipeline import _canon
from .predicates import _class_residual
from .regularization import MODES, _gate

__all__ = [
    "BLOCK_ATOL",
    "EquivalenceVerdict",
    "decide_unitary_congruence",
    "decide_unitary_star_congruence",
    "forms_match",
    "quadratic_invariants_equal",
    "upgrade_congruence_to_unitary",
]

# Tolerance for comparing canonical block parameters: forms_match
# matches tau and the 1-by-1 entries within BLOCK_ATOL times the larger
# spectral norm of the two forms, and mu, which is scale-free, within
# BLOCK_ATOL; quadratic_invariants_equal matches eigenvalues and
# singular values within BLOCK_ATOL times the larger spectral norm of
# the two inputs.  The canonical pipelines are accurate well past this.
BLOCK_ATOL = 1e-7


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of a decision: the verdict, the route taken, and a
    per-block match report for the JSON side."""

    verdict: str  # equivalent | not_equivalent | unsupported
    method: str  # canonical_form | pearcy | quadratic_invariants | none
    detail: dict

    @property
    def equivalent(self) -> bool:
        return self.verdict == "equivalent"

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "method": self.method, "detail": self.detail}


def _verdict(ok: bool, method: str, detail: dict) -> EquivalenceVerdict:
    """The verdict of a decision that took the route method."""
    return EquivalenceVerdict("equivalent" if ok else "not_equivalent", method, detail)


def _greedy_match(avals, bvals, close) -> tuple[bool, list[dict]]:
    """Match two canonically sorted block lists, av with the first
    untaken bv for which close(av, bv) holds.

    Greedy first-fit is exact here because both lists arrive in
    canonical order; the report lists every pairing and leftover.
    """
    report: list[dict] = []
    taken = [False] * len(bvals)
    ok = len(avals) == len(bvals)
    for av in avals:
        hit = None
        for j, bv in enumerate(bvals):
            if not taken[j] and close(av, bv):
                hit = j
                break
        if hit is None:
            ok = False
            report.append({"a": _block_json(av), "b": None})
        else:
            taken[hit] = True
            report.append({"a": _block_json(av), "b": _block_json(bvals[hit])})
    for j, bv in enumerate(bvals):
        if not taken[j]:
            ok = False
            report.append({"a": None, "b": _block_json(bv)})
    return ok, report


def _block_json(v):
    if isinstance(v, tuple):
        t, m = v
        return {"tau": float(t), "mu": [m.real, m.imag]}
    v = complex(v)
    return [v.real, v.imag]


def forms_match(
    fa: CongruenceCanonicalForm | StarCanonicalForm,
    fb: CongruenceCanonicalForm | StarCanonicalForm,
) -> tuple[bool, dict]:
    """Compare two canonical forms block by block at BLOCK_ATOL, relative
    to the larger form for tau and the 1-by-1 entries."""
    atol = BLOCK_ATOL * max(_spectral_norm(fa), _spectral_norm(fb))
    ones_ok, ones_report = _greedy_match(
        fa.one_by_one,
        fb.one_by_one,
        lambda x, y: abs(complex(x) - complex(y)) <= atol,
    )
    twos_ok, twos_report = _greedy_match(
        fa.two_by_two,
        fb.two_by_two,
        lambda x, y: abs(x[0] - y[0]) <= atol and abs(x[1] - y[1]) <= BLOCK_ATOL,
    )
    detail = {"one_by_one": ones_report, "two_by_two": twos_report}
    return ones_ok and twos_ok, detail


def _spectral_norm(f: CongruenceCanonicalForm | StarCanonicalForm) -> float:
    """||f.assemble()||_2, that of its largest block: |v| for a 1-by-1
    block v, tau max(1, |mu|) for tau [[0, 1], [mu, 0]]."""
    return max(
        [abs(complex(v)) for v in f.one_by_one]
        + [t * max(1.0, abs(m)) for t, m in f.two_by_two],
        default=0.0,
    )


def _shape_gate(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = as_matrix(a, square=True)
    b = as_matrix(b, square=True)
    if a.shape != b.shape:
        raise PreconditionError(
            f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}"
        )
    return a, b


def _gated_forms(a, b, mode, tol: ToleranceConfig):
    """(ra, rb, verdict): the class-gate residuals of a and b and, when
    both pass, the verdict of comparing their canonical forms under the
    pipeline mode (forms_match); None when either fails.

    Both run scaled by one 2^-e (_unit_scale_pair).  Each input's gate is
    evaluated once, and its certificate is handed on to the split.  The
    scaled copies are dropped after the gates and each is formed again,
    bit for bit, for its own form, so that one is held at a time.
    """
    (scaled_a, scaled_b), e = _unit_scale_pair(a, b)
    ra, certified_a = _gate(scaled_a, mode.name, tol)
    rb, certified_b = _gate(scaled_b, mode.name, tol)
    del scaled_a, scaled_b
    if not (ra <= tol.residual_rtol and rb <= tol.residual_rtol):
        return ra, rb, None

    def form(x, certified):
        return _canon(_unit_scale(x, e)[0], e, certified, mode, tol)[0]

    ok, detail = forms_match(form(a, certified_a), form(b, certified_b))
    return ra, rb, _verdict(ok, "canonical_form", detail)


def decide_unitary_congruence(
    a, b, tol: ToleranceConfig = DEFAULT_TOL
) -> EquivalenceVerdict:
    """Decide whether a and b are unitarily congruent.

    Both congruence normal: compare canonical forms.  Anything else is
    out of the decidable class and reported as unsupported rather than
    guessed.
    """
    a, b = _shape_gate(a, b)
    ra, rb, verdict = _gated_forms(a, b, _CONGRUENCE, tol)
    if verdict is not None:
        return verdict
    return EquivalenceVerdict(
        "unsupported",
        "none",
        {
            "reason": "input outside the congruence-normal class",
            "residuals": {"a": ra, "b": rb},
        },
    )


def decide_unitary_star_congruence(
    a, b, tol: ToleranceConfig = DEFAULT_TOL
) -> EquivalenceVerdict:
    """Decide whether a and b are unitarily *congruent.

    Dispatch: 2-by-2 inputs use the trace criterion (complete for that
    size, no class gate needed); otherwise both squared normal compares
    canonical forms; otherwise both with a degree-2 minimal polynomial
    compares eigenvalues plus singular values; otherwise unsupported.
    """
    a, b = _shape_gate(a, b)
    if a.shape == (2, 2):
        # pearcy_equal_2x2 on traces taken once, which the report shares.
        (ta, tb), e = _unit_traces(a, b)
        traces = {"a": _traces(ta, e), "b": _traces(tb, e)}
        return _verdict(_traces_close(ta, tb, tol), "pearcy", {"traces": traces})
    ra, rb, verdict = _gated_forms(a, b, _STAR, tol)
    if verdict is not None:
        return verdict
    try:
        ok, detail = _quadratic_invariants_equal(a, b, tol)
    except (PreconditionError, ConvergenceError):
        return EquivalenceVerdict(
            "unsupported",
            "none",
            {
                "reason": "inputs are neither squared normal nor of "
                "quadratic minimal polynomial",
                "residuals": {"a": ra, "b": rb},
            },
        )
    return _verdict(ok, "quadratic_invariants", detail)


def quadratic_invariants_equal(
    a, b, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[bool, dict]:
    """Unitary *congruence test for degree-2 minimal polynomials.

    Eigenvalue multiset plus singular value multiset is a complete
    invariant in this class, so no canonical form is needed; both are
    matched within BLOCK_ATOL times the larger spectral norm.  Raises
    PreconditionError when either input has no quadratic annihilator.
    The SVDs run on both scaled by one 2^-e (_unit_scale_pair).
    """
    return _quadratic_invariants_equal(*_shape_gate(a, b), tol)


def _quadratic_invariants_equal(
    a: np.ndarray, b: np.ndarray, tol: ToleranceConfig
) -> tuple[bool, dict]:
    """quadratic_invariants_equal of two square matrices of one shape
    (_shape_gate)."""
    ea, eb = (_eigenvalue_multiset(_canon_quadratic(x, tol)) for x in (a, b))
    (a, b), e = _unit_scale_pair(a, b)
    sa, sb = (np.ldexp(svd(x).sigma, e) for x in (a, b))
    # Eigenvalues and singular values scale with the matrix: compare
    # them relative to the larger spectral norm.
    atol = BLOCK_ATOL * float(max([*sa[:1], *sb[:1]], default=0.0))
    eigs_ok, eig_report = _greedy_match(
        ea, eb, lambda x, y: abs(complex(x) - complex(y)) <= atol
    )
    svs_ok, sv_report = _greedy_match(
        [float(v) for v in sa], [float(v) for v in sb],
        lambda x, y: abs(x - y) <= atol,
    )
    detail = {"eigenvalues": eig_report, "singular_values": sv_report}
    return eigs_ok and svs_ok, detail


def _eigenvalue_multiset(q) -> list[complex]:
    lam1, lam2 = q.roots
    pairs = sum(1 for blk in q.blocks if blk.shape[0] == 2)
    ones1 = sum(
        1 for blk in q.blocks if blk.shape[0] == 1 and blk[0, 0] == lam1
    )
    ones2 = len(q.blocks) - pairs - ones1
    eigs = [lam1] * (ones1 + pairs) + [lam2] * (ones2 + pairs)
    return sorted(eigs, key=lambda z: (z.real, z.imag))


def _traces(t: np.ndarray, e: int) -> list[list[float]]:
    """[re, im] of tr y, tr y^2 and tr y* y for y = 2^e x, from the
    traces t of x (_unit_traces) scaled back by 2^e and 4^e; a trace
    past the float range reads inf, with no NaN beside it."""
    with np.errstate(over="ignore"):
        return np.ldexp(t.view(np.float64).reshape(3, 2), [[e], [2 * e], [2 * e]]).tolist()


def upgrade_congruence_to_unitary(
    a,
    b,
    s,
    mode: str = "congruence",
    tol: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Unitary polar factor of a congruence, verified to work.

    Given nonsingular a, b and a congruence a = s b s^T (mode
    "congruence") or a = s b s* (mode "star") that also transports
    b^{-*} to a^{-*}, the unitary factor w of the right polar
    decomposition s = w q satisfies a = w b w^T (resp. w b w*).  When
    both matrices are unitary or both coninvolutory (congruence mode) /
    both involutory (star mode), the single-matrix congruence already
    implies the pair hypothesis and the extra check is skipped.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be 'congruence' or 'star', got {mode!r}")
    a, b = _shape_gate(a, b)
    s = as_matrix(s, square=True)
    if s.shape != a.shape:
        raise PreconditionError("transform shape does not match the matrices")
    n = a.shape[0]
    for name, m in (("a", a), ("b", b), ("s", s)):
        if rank(m, tol) < n:
            raise PreconditionError(f"matrix {name} must be nonsingular")

    other = "coninvolutory" if mode == "congruence" else "involutory"
    weak = any(
        all(_class_residual(m, flag, tol) <= tol.residual_rtol for m in (a, b))
        for flag in ("unitary", other)
    )
    # Both hypotheses are homogeneous in (a, b) jointly: measure them at
    # unit scale, where no norm overflows; s and w need no scaling.
    (a, b), _ = _unit_scale_pair(a, b)

    scale_s = _norm(s, kind="spectral")
    res = _norm(a - s @ b @ _adjoint(s, mode))
    bound = tol.residual_rtol * max(1.0, _norm(a) + scale_s ** 2 * _norm(b))
    PreconditionError._check("congruence hypothesis a = s b s^T(*) fails", res, bound)
    if not weak:
        ai = np.linalg.inv(a).conj().T
        bi = np.linalg.inv(b).conj().T
        res_inv = _norm(ai - s @ bi @ _adjoint(s, mode))
        bound_inv = tol.residual_rtol * max(1.0, _norm(ai) + scale_s ** 2 * _norm(bi))
        PreconditionError._check(
            "pair hypothesis on the inverse conjugate transposes fails", res_inv, bound_inv
        )

    w = polar(s, side="right").w
    res_final = _norm(a - w @ b @ _adjoint(w, mode))
    # The hypothesis held, so a miss is numerical breakdown rather than
    # bad input.
    ConvergenceError._check("polar factor", res_final, 1e-8 * max(1.0, _norm(a)))
    return w
