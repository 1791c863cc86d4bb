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
from .canon_star import _STAR, StarCanonicalForm, canon_quadratic, pearcy_equal_2x2
from .errors import ConvergenceError, PreconditionError
from .factorizations import polar, svd
from .matrix import DEFAULT_TOL, ToleranceConfig, as_matrix, norm, rank
from .pipeline import _canon
from .predicates import _class_residual
from .regularization import (
    MODES,
    _adjoint,
    _certifies_trivial_split,
    _gate,
    _split,
)

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
    """(ra, rb, forms): the class-gate residuals of a and b and, when
    both pass, their canonical forms under the pipeline mode.

    Each input's gate is evaluated once.  The split needs only the
    certificate drawn from the gate's Gram matrix, and dropping that as
    soon as the certificate is decided keeps it out of the pipelines'
    peak memory.
    """
    ra, gram_a = _gate(a, mode.name)
    rb, gram_b = _gate(b, mode.name)
    if not (ra <= tol.residual_rtol and rb <= tol.residual_rtol):
        return ra, rb, None
    certified_a = _certifies_trivial_split(a, gram_a, tol)
    del gram_a
    certified_b = _certifies_trivial_split(b, gram_b, tol)
    del gram_b
    return ra, rb, tuple(
        _canon(x, mode, tol, _split(x, mode.name, tol, certified))[0]
        for x, certified in ((a, certified_a), (b, certified_b))
    )


def decide_unitary_congruence(
    a, b, tol: ToleranceConfig = DEFAULT_TOL
) -> EquivalenceVerdict:
    """Decide whether a and b are unitarily congruent.

    Both congruence normal: compare canonical forms.  Anything else is
    out of the decidable class and reported as unsupported rather than
    guessed.
    """
    a, b = _shape_gate(a, b)
    ra, rb, forms = _gated_forms(a, b, _CONGRUENCE, tol)
    if forms is not None:
        ok, detail = forms_match(*forms)
        return EquivalenceVerdict(
            "equivalent" if ok else "not_equivalent", "canonical_form", detail
        )
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
        ok = pearcy_equal_2x2(a, b, tol)
        traces = {
            "a": [_c(np.trace(a)), _c(np.trace(a @ a)), _c(np.trace(a.conj().T @ a))],
            "b": [_c(np.trace(b)), _c(np.trace(b @ b)), _c(np.trace(b.conj().T @ b))],
        }
        return EquivalenceVerdict(
            "equivalent" if ok else "not_equivalent", "pearcy", {"traces": traces}
        )
    ra, rb, forms = _gated_forms(a, b, _STAR, tol)
    if forms is not None:
        ok, detail = forms_match(*forms)
        return EquivalenceVerdict(
            "equivalent" if ok else "not_equivalent", "canonical_form", detail
        )
    try:
        ok, detail = quadratic_invariants_equal(a, b, tol)
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
    return EquivalenceVerdict(
        "equivalent" if ok else "not_equivalent", "quadratic_invariants", detail
    )


def quadratic_invariants_equal(
    a, b, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[bool, dict]:
    """Unitary *congruence test for degree-2 minimal polynomials.

    Eigenvalue multiset plus singular value multiset is a complete
    invariant in this class, so no canonical form is needed; both are
    matched within BLOCK_ATOL times the larger spectral norm.  Raises
    PreconditionError when either input has no quadratic annihilator.
    """
    qa = canon_quadratic(a, tol)
    qb = canon_quadratic(b, tol)
    sa = svd(np.asarray(a, dtype=np.complex128)).sigma
    sb = svd(np.asarray(b, dtype=np.complex128)).sigma
    # Eigenvalues and singular values scale with the matrix: compare
    # them relative to the larger spectral norm.
    atol = BLOCK_ATOL * float(max([*sa[:1], *sb[:1]], default=0.0))
    eigs_ok, eig_report = _greedy_match(
        _eigenvalue_multiset(qa), _eigenvalue_multiset(qb),
        lambda x, y: abs(complex(x) - complex(y)) <= atol,
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


def _c(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


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

    scale_s = norm(s, kind="spectral")
    res = norm(a - s @ b @ _adjoint(s, mode))
    bound = tol.residual_rtol * max(1.0, norm(a) + scale_s ** 2 * norm(b))
    if res > bound:
        raise PreconditionError(
            "congruence hypothesis a = s b s^T(*) fails", residual=res
        )
    if not weak:
        ai = np.linalg.inv(a).conj().T
        bi = np.linalg.inv(b).conj().T
        res_inv = norm(ai - s @ bi @ _adjoint(s, mode))
        bound_inv = tol.residual_rtol * max(
            1.0, norm(ai) + scale_s ** 2 * norm(bi)
        )
        if res_inv > bound_inv:
            raise PreconditionError(
                "pair hypothesis on the inverse conjugate transposes fails",
                residual=res_inv,
            )

    w = polar(s, side="right").w
    res_final = norm(a - w @ b @ _adjoint(w, mode))
    if res_final > 1e-8 * max(1.0, norm(a)):
        # The hypothesis held, so this is numerical breakdown rather
        # than bad input.
        raise ConvergenceError(
            f"polar factor misses the unitary congruence by {res_final:.3e}"
        )
    return w
