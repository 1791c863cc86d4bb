"""Membership tests for the matrix classes the canonical forms cover.

Every flag is the comparison of a defining identity's relative residual,
measured at unit scale, against residual_rtol, with the residual reported
alongside the flag so borderline calls are visible to the caller.
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


class _Products:
    """The products the class identities are measured on, each formed on
    first use and shared by every identity that needs it.  They are
    products of a scaled by 2^-e (_unit_scale), so no identity depends on
    the scale of a; lam is that of 2^-e a."""

    def __init__(self, a: np.ndarray, tol: ToleranceConfig):
        self.a, self.e = _unit_scale(a)
        self.tol = tol

    def residual(self, lhs: np.ndarray, rhs: np.ndarray) -> float:
        """rel_residual(lhs, rhs), its floor of 1 at unit scale."""
        return _relative(lhs, rhs, 1.0)

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

    @property
    def input_lam(self) -> complex:
        """lam at the input's scale, 2^e lam."""
        return complex(*np.ldexp([self.lam.real, self.lam.imag], self.e))

    @cached_property
    def svd(self) -> SvdResult:
        return svd(self.a)

    @cached_property
    def rank(self) -> int:
        return _rank_of_values(self.svd.sigma, len(self.a), self.tol) if len(self.a) else 0

    @cached_property
    def polar(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # a = p w = w q: w unitary (for singular a too), p the left and q
        # the right positive factor.
        f = self.svd
        p, q = ((x * f.sigma) @ x.conj().T for x in (f.u, f.v))
        return f.u @ f.v.conj().T, (p + p.conj().T) / 2.0, (q + q.conj().T) / 2.0

    @cached_property
    def parts(self) -> tuple[np.ndarray, np.ndarray]:
        # The symmetric and the skew part of a.
        return (self.a + self.a.T) / 2.0, (self.a - self.a.T) / 2.0

    @cached_property
    def singular_blocks(self) -> tuple[np.ndarray, list[list[int]]]:
        # The unitary v* conj(u) of the SVD u diag(sigma) v* of a, and the
        # clusters of sigma.
        f = self.svd
        radius = self.tol.cluster_rtol * float(f.sigma[0]) if len(f.sigma) else 0.0
        return f.v.conj().T @ f.u.conj(), cluster_real_sorted(f.sigma, radius)


def _range_hermitian(p: _Products) -> float:
    # range(a) vs range(a*) compared through their orthogonal projectors
    u, v = p.svd.u[:, : p.rank], p.svd.v[:, : p.rank]
    return p.residual(u @ u.conj().T, v @ v.conj().T)


def _congruence_parts(p: _Products) -> float:
    # The Hermitian and the skew part of conj(a) a, from the parts of a,
    # commute.
    s, c = p.parts
    herm = s.conj() @ s + c.conj() @ c
    skew = s.conj() @ c + c.conj() @ s
    return p.residual(herm @ skew, skew @ herm)


def _polar_family(p: _Products) -> float:
    # conj(p), q and conj(w) w commute pairwise.
    w, left, right = p.polar
    pbar, ww = left.conj(), w.conj() @ w
    return max(p.residual(x @ y, y @ x) for x, y in ((pbar, right), (pbar, ww), (right, ww)))


def _unitary_sum(p: _Products) -> float:
    # In the left singular basis, the unitary polar factor is block
    # diagonal along the singular value clusters.
    m, blocks = p.singular_blocks
    mask = np.zeros(m.shape, dtype=bool)
    for idx in blocks:
        mask[np.ix_(idx, idx)] = True
    return norm(np.where(mask, 0.0, m)) / max(1.0, norm(m))


def _orthogonal_sum(p: _Products) -> float:
    # Its diagonal blocks are unitary, so each has a real orthogonal
    # rendering.
    m, clusters = p.singular_blocks
    blocks = (m[np.ix_(idx, idx)] for idx in clusters)
    return max((p.residual(b.conj().T @ b, np.eye(len(b))) for b in blocks), default=0.0)


# The defining identity of each class, as a residual of the products of a
# at unit scale, with rel_residual's floor of 1 there.  classify reports
# those in FLAG_NAMES; "hermitian_cosquare" (conj(a) a Hermitian) gates
# canon_hermitian_cosquare, and the rest are the conditions of
# verify_characterizations (_FAMILIES) and bar_block_dualities.  The
# three against the input's I, 4^-e I, take no floor: a floor of 1 would
# swamp that I above unit scale and call a nilpotent involutory.
_IDENTITIES = {
    "normal": lambda p: p.residual(p.gram_right, p.gram_left),
    "conjugate_normal": lambda p: p.residual(p.gram_right, p.gram_left.conj()),
    "congruence_normal": lambda p: _normality_residual(p.a_bar_a)[0],
    "squared_normal": lambda p: _normality_residual(p.a_sq)[0],
    "unitary": lambda p: _relative(p.gram_right, p.eye, 0.0),
    "coninvolutory": lambda p: _relative(p.a_bar_a, p.eye, 0.0),
    "involutory": lambda p: _relative(p.a_sq, p.eye, 0.0),
    "hermitian_square": lambda p: p.residual(p.a_sq, p.a_sq.conj().T),
    "range_hermitian": _range_hermitian,
    "lambda_projection": lambda p: p.residual(p.a_sq, p.lam * p.a),
    "hermitian_cosquare": lambda p: p.residual(p.a_bar_a, p.a_bar_a.conj().T),
    "congruence_cubic": lambda p: p.residual(p.a @ p.a.conj() @ p.a.T, p.a.T @ p.a.conj() @ p.a),
    "squared_cubic": lambda p: p.residual(p.a_sq @ p.a_star, p.a_star @ p.a_sq),
    "cosquare_normal": lambda p: _normality_residual(p.cosquare)[0],
    "cosquare_hermitian": lambda p: p.residual(p.cosquare, p.cosquare.conj().T),
    "cosquare_unitary": lambda p: p.residual(p.cosquare.conj().T @ p.cosquare, np.eye(len(p.a))),
    "star_cosquare_normal": lambda p: _normality_residual(p.star_cosquare)[0],
    "star_cosquare_hermitian": lambda p: p.residual(p.star_cosquare, p.star_cosquare.conj().T),
    "star_cosquare_unitary": lambda p: p.residual(p.star_cosquare.conj().T @ p.star_cosquare, np.eye(len(p.a))),
    "conjugate_parts": lambda p: p.residual(p.parts[0] @ p.parts[1].conj(), p.parts[1] @ p.parts[0].conj()),
    "congruence_parts": _congruence_parts,
    "polar_conjugate": lambda p: p.residual(p.polar[2], p.polar[1].conj()),
    "polar_left_intertwines": lambda p: p.residual(p.polar[1] @ p.a, p.a @ p.polar[1].conj()),
    "polar_right_intertwines": lambda p: p.residual(p.a @ p.polar[1].conj(), p.polar[2].conj() @ p.a),
    "polar_family": _polar_family,
    "unitary_sum": _unitary_sum,
    "orthogonal_sum": _orthogonal_sum,
}

# The families of verify_characterizations, condition: identity.  The
# polar conditions hold or fail with the rest on nonsingular input only;
# the cosquare ones need an inverse and are measured on nonsingular input
# only.
_FAMILIES = {
    "congruence_normal_idents": {
        "gram_normal": "congruence_normal", "cubic_identity": "congruence_cubic",
        "cosquare_normal": "cosquare_normal",
    },
    "squared_normal_idents": {
        "square_normal": "squared_normal", "cubic_identity": "squared_cubic",
        "cosquare_normal": "star_cosquare_normal",
    },
    "conjugate_normal_afd": {
        "part_identity": "conjugate_parts", "definition": "conjugate_normal",
        "polar_conjugate": "polar_conjugate", "polar_intertwine": "polar_left_intertwines",
        "unitary_sum": "unitary_sum", "orthogonal_sum": "orthogonal_sum",
    },
    "congruence_normal_afd": {
        "part_commute": "congruence_parts", "definition": "congruence_normal",
        "polar_intertwine": "polar_right_intertwines", "polar_family": "polar_family",
    },
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


def classify(a, tol: ToleranceConfig = DEFAULT_TOL) -> ClassReport:
    """Evaluate all class memberships of a square matrix at once."""
    products = _Products(as_matrix(a, square=True), tol)
    residuals = {name: _IDENTITIES[name](products) for name in FLAG_NAMES}
    flags = {name: residuals[name] <= tol.residual_rtol for name in FLAG_NAMES}
    return ClassReport(
        flags=flags,
        residuals=residuals,
        lam=products.input_lam if flags["lambda_projection"] else None,
    )


def bar_double(a) -> np.ndarray:
    """The doubled matrix [[0, a], [conj(a), 0]]."""
    a = as_matrix(a, square=True)
    n = a.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    out[:n, n:] = a
    out[n:, :n] = a.conj()
    return out


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

    Every condition is measured on a at unit scale, as classify does.
    Returns {"conditions": {name: {residual, holds}}, "nonsingular",
    "agree"}; "agree" states whether all evaluated flags coincide, with
    the polar-based conditions only required to match on nonsingular
    input.
    """
    if which not in _FAMILIES:
        raise ValueError(f"unknown characterization family {which!r}")
    products = _Products(as_matrix(a, square=True), tol)
    nonsingular = products.rank == len(products.a)
    conditions = {}
    for name, row in _FAMILIES[which].items():
        if nonsingular or not name.startswith("cosquare_"):
            residual = _IDENTITIES[row](products)
            conditions[name] = {"residual": float(residual), "holds": bool(residual <= tol.residual_rtol)}
    binding = {
        cond["holds"]
        for name, cond in conditions.items()
        if nonsingular or not name.startswith("polar_")
    }
    return {"conditions": conditions, "nonsingular": nonsingular, "agree": len(binding) <= 1}


def bar_block_dualities(a, tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Check the dualities between a and its doubled matrix.

    Each entry pairs a condition on a with the equivalent condition on
    [[0, a], [conj(a), 0]], both computed independently; "agree" states
    whether the two flags coincide.  The inverse-based pairs (g*, h*)
    appear only for nonsingular input.
    """
    a = as_matrix(a, square=True)
    pa, pd = _Products(a, tol), _Products(bar_double(a), tol)

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

    pairs = [
        ("squared_vs_congruence", pa, "squared_normal", pd, "congruence_normal"),
        ("congruence_vs_squared", pa, "congruence_normal", pd, "squared_normal"),
        ("normal_vs_conjugate", pa, "normal", pd, "conjugate_normal"),
        ("conjugate_vs_normal", pa, "conjugate_normal", pd, "normal"),
        ("cubic_transpose", pd, "congruence_cubic", pa, "squared_cubic"),
        ("cubic_star", pd, "squared_cubic", pa, "congruence_cubic"),
    ]
    if pa.rank == len(a):
        # Each cosquare of a against the other one of the doubled matrix.
        pairs += [
            (f"{name}_{kind}", pa, f"{left}_{kind}", pd, f"{right}_{kind}")
            for kind in ("normal", "hermitian", "unitary")
            for name, left, right in (
                ("transpose_cosquare", "cosquare", "star_cosquare"),
                ("star_cosquare", "star_cosquare", "cosquare"),
            )
        ]
    out = {
        name: entry(_IDENTITIES[left](p), _IDENTITIES[right](q))
        for name, p, left, q, right in pairs
    }
    out["agree"] = all(v["agree"] for v in out.values())
    return out
