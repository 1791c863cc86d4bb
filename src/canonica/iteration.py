"""The bounded iteration x_{k+1} = -A^{-T} A x_k and its * twin.

Boundedness of every solution is equivalent to the (star) cosquare
being diagonalizable with unimodular spectrum.  For congruence-normal
or squared-normal A the cosquare is normal, so the spectrum decides;
outside those classes only spectral blow-up is decidable at tolerance
and the classifier says so instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .matrix import DEFAULT_TOL, ToleranceConfig, _cosquare, _unit_scale, as_matrix, rank
from .factorizations import eig_normal
from .predicates import _class_residual
from .regularization import _GATE_FLAGS, MODES

__all__ = ["IterationTrace", "classify_bounded", "simulate"]

# Growth thresholds for the simulator's verdict, relative to ||x0||.
BOUNDED_FACTOR = 1e3
UNBOUNDED_FACTOR = 1e6
OVERFLOW_FACTOR = 1e15


def _gate(a, mode: str, tol: ToleranceConfig) -> np.ndarray:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    a, _ = _unit_scale(as_matrix(a, square=True))  # the cosquare stays as it is
    if rank(a, tol) < a.shape[0]:
        raise PreconditionError("the recurrence needs a nonsingular matrix")
    return a


def classify_bounded(
    a, mode: str = "congruence", tol: ToleranceConfig = DEFAULT_TOL
) -> str:
    """Decide boundedness of the recurrence: bounded, unbounded, or
    unsupported.

    In-class inputs (congruence normal for congruence mode, squared
    normal for star mode) have a normal cosquare, so unimodularity of
    its spectrum is the complete answer.  Out of class, an eigenvalue
    beyond the unit circle still proves blow-up, but a unimodular
    spectrum proves nothing without diagonalizability, which is not
    decidable at tolerance.
    """
    a = _gate(a, mode, tol)
    if a.shape[0] == 0:
        return "bounded"
    cos = _cosquare(a, mode)
    threshold = 1.0 + tol.cluster_rtol
    if _class_residual(a, _GATE_FLAGS[mode], tol) <= tol.residual_rtol:
        try:
            lam, _ = eig_normal(cos, tol)
        except PreconditionError:
            lam = None  # cosquare too ill-conditioned to certify normal
        if lam is not None:
            return (
                "unbounded"
                if float(np.max(np.abs(lam))) > threshold
                else "bounded"
            )
    lam = np.linalg.eigvals(cos)
    if float(np.max(np.abs(lam))) > threshold:
        return "unbounded"
    return "unsupported"


@dataclass(frozen=True)
class IterationTrace:
    """Norm history of a simulated run and its growth verdict."""

    norms: tuple[float, ...]
    growth_classification: str  # bounded | unbounded | inconclusive

    def to_json(self) -> dict:
        return {
            "norms": list(self.norms),
            "growth_classification": self.growth_classification,
        }


def simulate(
    a,
    x0,
    steps: int,
    mode: str = "congruence",
    tol: ToleranceConfig = DEFAULT_TOL,
) -> IterationTrace:
    """Run the recurrence for the given number of steps.

    The verdict is empirical: bounded if no iterate exceeded
    1e3 * ||x0||, unbounded if the last computed iterate reached
    1e6 * ||x0||, inconclusive otherwise.  The run stops early once
    norms pass 1e15 * max(1, ||x0||) to stay clear of overflow.
    """
    if int(steps) != steps or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    steps = int(steps)
    a = _gate(a, mode, tol)
    x = np.asarray(x0, dtype=np.complex128).reshape(-1)
    if x.shape[0] != a.shape[0]:
        raise PreconditionError(
            f"start vector has length {x.shape[0]}, expected {a.shape[0]}"
        )
    m = -_cosquare(a, mode)

    norms = [float(np.linalg.norm(x))]
    limit = OVERFLOW_FACTOR * max(1.0, norms[0])
    for _ in range(steps):
        x = m @ x
        norms.append(float(np.linalg.norm(x)))
        if norms[-1] > limit:
            break

    base = norms[0]
    if base == 0.0:
        verdict = "bounded"
    elif norms[-1] >= UNBOUNDED_FACTOR * base:
        verdict = "unbounded"
    elif max(norms) <= BOUNDED_FACTOR * base:
        verdict = "bounded"
    else:
        verdict = "inconclusive"
    return IterationTrace(norms=tuple(norms), growth_classification=verdict)
