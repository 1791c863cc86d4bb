"""Membership tests for the matrix classes the canonical forms cover.

Every flag is the comparison of a defining identity's relative residual
against residual_rtol, with the residual reported alongside the flag so
borderline calls are visible to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import PreconditionError
from .factorizations import SvdResult, cluster_real_sorted, svd
from .matrix import (
    DEFAULT_TOL,
    ToleranceConfig,
    _cosquare,
    _normality_residual,
    _rank_of_values,
    _relative,
    _unit_scale,
    as_matrix,
    norm,
    rank,
    rel_residual,
)

__all__ = [
    "ClassReport",
    "classify",
    "bar_double",
    "verify_characterizations",
    "bar_block_dualities",
]

FLAG_NAMES = (
    "normal",
    "conjugate_normal",
    "congruence_normal",
    "squared_normal",
    "unitary",
    "coninvolutory",
    "involutory",
    "hermitian_square",
    "range_hermitian",
    "lambda_projection",
)


@dataclass(frozen=True)
class ClassReport:
    """Flags and residuals for the standard matrix classes.

    lam is the recovered scalar when the lambda_projection flag is set,
    None otherwise.
    """

    flags: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    lam: complex | None = None

    def __getitem__(self, name: str) -> bool:
        return bool(self.flags[name])

    def to_json(self) -> dict:
        lam = None if self.lam is None else [self.lam.real, self.lam.imag]
        return {
            "flags": {k: bool(v) for k, v in self.flags.items()},
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "lambda": lam,
        }


def _commutator_residual(x: np.ndarray, y: np.ndarray) -> float:
    return rel_residual(x @ y, y @ x)


class _Products:
    """The products the class identities are measured on, each formed on
    first use and shared by every identity that needs it.  They are
    products of a scaled by 2^-e (_unit_scale); lam is that of 2^-e a."""

    def __init__(self, a: np.ndarray, tol: ToleranceConfig):
        self.a, self.e = _unit_scale(a)
        self.tol = tol

    def residual(self, lhs: np.ndarray, rhs: np.ndarray, degree: int) -> float:
        """rel_residual(lhs, rhs) of products of the given degree in 2^-e a,
        its floor of 1 at the input's scale, or at unit scale below it."""
        return _relative(lhs, rhs, math.ldexp(1.0, -degree * max(self.e, 0)))

    @cached_property
    def a_star(self) -> np.ndarray:
        return self.a.conj().T

    @cached_property
    def gram_right(self) -> np.ndarray:
        return self.a_star @ self.a

    @cached_property
    def gram_left(self) -> np.ndarray:
        return self.a @ self.a_star

    @cached_property
    def a_bar_a(self) -> np.ndarray:
        return self.a.conj() @ self.a

    @cached_property
    def a_sq(self) -> np.ndarray:
        return self.a @ self.a

    @cached_property
    def cosquare(self) -> np.ndarray:
        return _cosquare(self.a, "congruence")

    @cached_property
    def star_cosquare(self) -> np.ndarray:
        return _cosquare(self.a, "star")

    @cached_property
    def eye(self) -> np.ndarray:
        # The input's I, 4^-e I, capped where it dwarfs every product.
        return math.ldexp(1.0, -2 * max(self.e, -200)) * np.eye(len(self.a), dtype=complex)

    @cached_property
    def lam(self) -> complex:
        # The lam of a^2 = lam a, read off tr(a^2) = lam tr(a).
        tr = complex(np.trace(self.a))
        if abs(tr) <= self.tol.residual_rtol * norm(self.a):
            return 0.0 + 0.0j
        return complex(np.trace(self.a_sq)) / tr


# The defining identity of each class, as a residual of the products.
# classify reports those in FLAG_NAMES; "hermitian_cosquare" (conj(a) a
# Hermitian) gates canon_hermitian_cosquare, and the rest serve the
# characterizations and the dualities.
_IDENTITIES = {
    "normal": lambda p: p.residual(p.gram_right, p.gram_left, 2),
    "conjugate_normal": lambda p: p.residual(p.gram_right, p.gram_left.conj(), 2),
    "congruence_normal": lambda p: _normality_residual(p.a_bar_a, 2 * max(p.e, 0))[0],
    "squared_normal": lambda p: _normality_residual(p.a_sq, 2 * max(p.e, 0))[0],
    "unitary": lambda p: p.residual(p.gram_right, p.eye, 2),
    "coninvolutory": lambda p: p.residual(p.a_bar_a, p.eye, 2),
    "involutory": lambda p: p.residual(p.a_sq, p.eye, 2),
    "hermitian_square": lambda p: p.residual(p.a_sq, p.a_sq.conj().T, 2),
    "range_hermitian": lambda p: _range_projector_residual(p.a, p.tol),
    "lambda_projection": lambda p: p.residual(p.a_sq, p.lam * p.a, 2),
    "hermitian_cosquare": lambda p: p.residual(p.a_bar_a, p.a_bar_a.conj().T, 2),
    "congruence_cubic": lambda p: p.residual(p.a @ p.a.conj() @ p.a.T, p.a.T @ p.a.conj() @ p.a, 3),
    "squared_cubic": lambda p: p.residual(p.a_sq @ p.a_star, p.a_star @ p.a_sq, 3),
    "hermitian": lambda p: p.residual(p.a, p.a_star, 1),
}


def _class_residual(
    a: np.ndarray, flag: str, tol: ToleranceConfig = DEFAULT_TOL
) -> float:
    """Residual of the one identity behind flag.

    The canonical-form paths gate on this alone rather than on the
    full classify; the value is bit-identical to classify's residual.
    """
    return _IDENTITIES[flag](_Products(a, tol))


def _require_class(
    a: np.ndarray, flag: str, tol: ToleranceConfig, message: str
) -> _Products:
    """Raise PreconditionError(message) with the residual unless a
    passes the identity of flag; return the products it was measured on."""
    products = _Products(a, tol)
    PreconditionError._check(message, _IDENTITIES[flag](products), tol.residual_rtol)
    return products


def _range_projector_residual(a: np.ndarray, tol: ToleranceConfig) -> float:
    # range(a) vs range(a*) compared through their orthogonal projectors
    f = svd(a)
    r = _rank_of_values(f.sigma, len(a), tol) if len(a) else 0
    p_col = f.u[:, :r] @ f.u[:, :r].conj().T
    p_row = f.v[:, :r] @ f.v[:, :r].conj().T
    return rel_residual(p_col, p_row)


def classify(a, tol: ToleranceConfig = DEFAULT_TOL) -> ClassReport:
    """Evaluate all class memberships of a square matrix at once."""
    products = _Products(as_matrix(a, square=True), tol)
    residuals = {name: _IDENTITIES[name](products) for name in FLAG_NAMES}
    flags = {name: residuals[name] <= tol.residual_rtol for name in FLAG_NAMES}
    lam = complex(*np.ldexp([products.lam.real, products.lam.imag], products.e))
    return ClassReport(
        flags=flags, residuals=residuals, lam=lam if flags["lambda_projection"] else None
    )


def bar_double(a) -> np.ndarray:
    """The doubled matrix [[0, a], [conj(a), 0]]."""
    a = as_matrix(a, square=True)
    n = a.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    out[:n, n:] = a
    out[n:, :n] = a.conj()
    return out


def _polar_parts(f: SvdResult) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # a = p w = w q from the SVD f of a: w unitary (for singular a too),
    # p the left and q the right positive factor.
    w = f.u @ f.v.conj().T
    p = (f.u * f.sigma) @ f.u.conj().T
    q = (f.v * f.sigma) @ f.v.conj().T
    return w, (p + p.conj().T) / 2.0, (q + q.conj().T) / 2.0


def _sigma_cluster_blocks(sigma: np.ndarray, tol: ToleranceConfig) -> list[list[int]]:
    radius = tol.cluster_rtol * float(sigma[0]) if len(sigma) else 0.0
    return cluster_real_sorted(sigma, radius)


def _condition(residual: float, tol: ToleranceConfig) -> dict:
    return {"residual": float(residual), "holds": bool(residual <= tol.residual_rtol)}


def verify_characterizations(
    a, which: str, tol: ToleranceConfig = DEFAULT_TOL
) -> dict:
    """Evaluate a family of equivalent class characterizations.

    which selects the family:

    * ``congruence_normal_idents``: conj(a) a normal, the cubic identity
      a conj(a) a^T = a^T conj(a) a, and for nonsingular input normality
      of the transpose cosquare.
    * ``squared_normal_idents``: a^2 normal, a^2 a* = a* a^2, and for
      nonsingular input normality of the star cosquare.
    * ``conjugate_normal_afd``: symmetric/skew part identity, the
      definition, the polar conditions q = conj(p) and p a = a conj(p),
      and the scaled-unitary direct sum conditions.
    * ``congruence_normal_afd``: commutation of the Hermitian and skew
      parts of conj(a) a, the definition, and the polar conditions
      a conj(p) = conj(q) a and the family {conj(p), q, conj(w) w}.

    Returns {"conditions": {name: {residual, holds}}, "nonsingular",
    "agree"}; "agree" states whether all evaluated flags coincide, with
    the polar-based conditions only required to match on nonsingular
    input.
    """
    a = as_matrix(a, square=True)
    n = a.shape[0]
    nonsingular = rank(a, tol) == n
    conditions: dict[str, dict] = {}
    # Conditions whose equivalence to the rest is only asserted for
    # nonsingular input; they are still evaluated and reported.
    nonsingular_only: set[str] = set()

    products = _Products(a, tol)

    def identity(name: str) -> dict:
        return _condition(_IDENTITIES[name](products), tol)

    if which == "congruence_normal_idents":
        conditions["gram_normal"] = identity("congruence_normal")
        conditions["cubic_identity"] = identity("congruence_cubic")
        nonsingular_only.add("cosquare_normal")
        if nonsingular:
            conditions["cosquare_normal"] = _condition(
                _normality_residual(products.cosquare)[0], tol
            )
    elif which == "squared_normal_idents":
        conditions["square_normal"] = identity("squared_normal")
        conditions["cubic_identity"] = identity("squared_cubic")
        nonsingular_only.add("cosquare_normal")
        if nonsingular:
            conditions["cosquare_normal"] = _condition(
                _normality_residual(products.star_cosquare)[0], tol
            )
    elif which == "conjugate_normal_afd":
        s = (a + a.T) / 2.0
        c = (a - a.T) / 2.0
        conditions["part_identity"] = _condition(
            rel_residual(s @ c.conj(), c @ s.conj()), tol
        )
        conditions["definition"] = identity("conjugate_normal")
        f = svd(a)
        w, p, q = _polar_parts(f)
        nonsingular_only.update(("polar_conjugate", "polar_intertwine"))
        conditions["polar_conjugate"] = _condition(rel_residual(q, p.conj()), tol)
        conditions["polar_intertwine"] = _condition(
            rel_residual(p @ a, a @ p.conj()), tol
        )
        # Scaled-unitary direct sum: in the left singular basis x, the
        # unitary polar factor must be block diagonal along singular
        # value clusters (sum condition), with unitary blocks (real
        # orthogonal rendering exists per block).
        m = f.v.conj().T @ f.u.conj()
        blocks = _sigma_cluster_blocks(f.sigma, tol)
        mask = np.zeros((n, n), dtype=bool)
        for idx in blocks:
            mask[np.ix_(idx, idx)] = True
        off_mass = norm(np.where(mask, 0.0, m))
        conditions["unitary_sum"] = _condition(
            off_mass / max(1.0, norm(m)), tol
        )
        block_res = 0.0
        for idx in blocks:
            mb = m[np.ix_(idx, idx)]
            block_res = max(
                block_res, rel_residual(mb.conj().T @ mb, np.eye(len(idx)))
            )
        conditions["orthogonal_sum"] = _condition(block_res, tol)
    elif which == "congruence_normal_afd":
        s = (a + a.T) / 2.0
        c = (a - a.T) / 2.0
        herm_part = s.conj() @ s + c.conj() @ c
        skew_part = s.conj() @ c + c.conj() @ s
        conditions["part_commute"] = _condition(
            _commutator_residual(herm_part, skew_part), tol
        )
        conditions["definition"] = identity("congruence_normal")
        w, p, q = _polar_parts(svd(a))
        nonsingular_only.update(("polar_intertwine", "polar_family"))
        conditions["polar_intertwine"] = _condition(
            rel_residual(a @ p.conj(), q.conj() @ a), tol
        )
        ww = w.conj() @ w
        family_res = max(
            _commutator_residual(p.conj(), q),
            _commutator_residual(p.conj(), ww),
            _commutator_residual(q, ww),
        )
        conditions["polar_family"] = _condition(family_res, tol)
    else:
        raise ValueError(f"unknown characterization family {which!r}")

    binding = [
        cond["holds"]
        for name, cond in conditions.items()
        if nonsingular or name not in nonsingular_only
    ]
    agree = len(set(binding)) <= 1
    return {"conditions": conditions, "nonsingular": nonsingular, "agree": agree}


def bar_block_dualities(a, tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Check the dualities between a and its doubled matrix.

    Each entry pairs a condition on a with the equivalent condition on
    [[0, a], [conj(a), 0]], both computed independently; "agree" states
    whether the two flags coincide.  The inverse-based pairs (g*, h*)
    appear only for nonsingular input.
    """
    a = as_matrix(a, square=True)
    n = a.shape[0]
    d = bar_double(a)
    pa, pd = _Products(a, tol), _Products(d, tol)

    def entry(left: float, right: float) -> dict:
        lh = left <= tol.residual_rtol
        rh = right <= tol.residual_rtol
        return {
            "left_residual": float(left),
            "right_residual": float(right),
            "left_holds": bool(lh),
            "right_holds": bool(rh),
            "agree": bool(lh == rh),
        }

    out = {
        name: entry(_IDENTITIES[left](p), _IDENTITIES[right](q))
        for name, p, left, q, right in (
            ("squared_vs_congruence", pa, "squared_normal", pd, "congruence_normal"),
            ("congruence_vs_squared", pa, "congruence_normal", pd, "squared_normal"),
            ("normal_vs_conjugate", pa, "normal", pd, "conjugate_normal"),
            ("conjugate_vs_normal", pa, "conjugate_normal", pd, "normal"),
            ("cubic_transpose", pd, "congruence_cubic", pa, "squared_cubic"),
            ("cubic_star", pd, "squared_cubic", pa, "congruence_cubic"),
        )
    }

    if rank(a, tol) == n:
        # Each cosquare of a against the other one of the doubled matrix.
        pairs = {
            "transpose_cosquare": (pa.cosquare, pd.star_cosquare),
            "star_cosquare": (pa.star_cosquare, pd.cosquare),
        }
        checks = {
            "normal": lambda x: _normality_residual(x)[0],
            "hermitian": lambda x: _IDENTITIES["hermitian"](_Products(x, tol)),
            "unitary": lambda x: _IDENTITIES["unitary"](_Products(x, tol)),
        }
        for kind, fn in checks.items():
            for name, (x, y) in pairs.items():
                out[f"{name}_{kind}"] = entry(fn(x), fn(y))

    out["agree"] = all(v["agree"] for k, v in out.items() if isinstance(v, dict))
    return out
