"""The canonical-form pipeline of unitary congruence and *congruence.

Both canonical forms come out of one method: split off the singular
part, take the cosquare adj(r)^{-1} r of the nonsingular part r,
diagonalize it, fold its eigenvalues onto the mu side of the pairing
map of the transformation kind, cluster them once, and reduce each
spectral summand of r to blocks.  The two kinds differ only in the
adjoint (transpose or conjugate transpose) and in what the _Mode record
below holds; canon_congruence and canon_star each define one record and
call _canon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .blocks import direct_sum, permutation_matrix
from .errors import ConvergenceError
from .factorizations import _pair_clusters, eig_normal, svd
from .matrix import ToleranceConfig, _adjoint, _cosquare, _norm, _unit_scale
from .regularization import _split


@dataclass(frozen=True)
class _Mode:
    """What the pipeline needs to know about one transformation kind.

    name is the regularization mode, which also selects the adjoint.
    partner maps cosquare eigenvalues to the ones they pair with, and
    mu_first(values, radius) marks those that are the mu of their pair.
    normalize_pair, one_key and two_key pick the canonical
    representative of a 2-by-2 block and sort the blocks, and form is
    the canonical-form class.  fixed_groups turns the clusters
    that are their own partner into (eigenvalue, indices) summands, and
    reduce_fixed(eigenvalue, block, tol) reduces one of those summands
    to (local unitary, 1-by-1 entries, 2-by-2 (tau, mu) pairs), with
    the 1-by-1 entries first in its rows.
    """

    name: str
    partner: Callable[[np.ndarray], np.ndarray]
    mu_first: Callable[[np.ndarray, float], np.ndarray]
    normalize_pair: Callable
    one_key: Callable
    two_key: Callable
    form: type
    fixed_groups: Callable
    reduce_fixed: Callable


def _canon(a: np.ndarray, e: int, certified: bool, mode: _Mode, tol: ToleranceConfig):
    """(form, t) with t unitary and t (2^e a) adj(t) equal to
    form.assemble(), for an a at unit scale (_unit_scale) that passed
    the class gate of the mode with the certificate certified
    (regularization._gated).  It splits a and scales tau and the 1-by-1
    entries back by 2^e.
    """
    n = a.shape[0]
    split = _split(a, mode.name, tol, certified)
    k = split.regular.shape[0]

    def adj(m: np.ndarray) -> np.ndarray:
        return _adjoint(m, mode.name)

    # Records (value, indices): value is a 1-by-1 entry or a (tau, mu)
    # pair, indices are its rows in the direct sum before sorting.
    ones: list[tuple[object, list[int]]] = []
    twos: list[tuple[tuple[float, complex], list[int]]] = []
    if k > 0:
        reg = split.regular
        # The split has checked that reg is nonsingular.
        lam, u_eig = eig_normal(_cosquare(reg, mode.name), tol)
        radius = tol.cluster_rtol * max(float(np.max(np.abs(lam))), 1.0)
        fixed, pairs = _pair_clusters(lam, mode.partner, mode.mu_first, radius)
        groups = mode.fixed_groups(fixed)

        order = [i for _, idx in groups for i in idx]
        order += [i for idx_mu, idx_inv in pairs for i in idx_mu + idx_inv]
        u_g = u_eig[:, order]
        del u_eig
        # The summands are the diagonal blocks of adj(u_g) reg u_g; each
        # is formed from its own columns of one product reg u_g.
        ru = reg @ u_g

        def summand(lo: int, hi: int) -> np.ndarray:
            return adj(u_g[:, lo:hi]) @ ru[:, lo:hi]

        # t_reg = direct_sum(locals) @ adj(u_g), one row block per
        # summand.  np.dot, unlike @, multiplies by a 1-by-1 local as by
        # a scalar, which rounds as the dense product does.
        t_reg = np.empty_like(ru)
        offset = 0
        for value, idx in groups:
            c = len(idx)
            local, values, taus = mode.reduce_fixed(
                value, summand(offset, offset + c), tol
            )
            t_reg[offset : offset + c] = np.dot(local, adj(u_g[:, offset : offset + c]))
            for v in values:
                ones.append((v, [offset]))
                offset += 1
            for t in taus:
                twos.append((t, [offset, offset + 1]))
                offset += 2
        for idx_mu, _ in pairs:
            g = len(idx_mu)
            bj = summand(offset, offset + 2 * g)
            y = bj[:g, g:]
            z = bj[g:, :g]
            # Least squares fit of z = mu * adj(y).
            ref = adj(y)
            mu_fit = complex(np.sum(ref.conj() * z) / float(np.sum(np.abs(ref) ** 2)))
            f = svd(y)
            interleave = []
            for i in range(g):
                interleave.extend((i, g + i))
            local = permutation_matrix(interleave) @ direct_sum(
                [f.u.conj().T, adj(f.v)]
            )
            t_reg[offset : offset + 2 * g] = np.dot(
                local, adj(u_g[:, offset : offset + 2 * g])
            )
            for i in range(g):
                pair = mode.normalize_pair(float(f.sigma[i]), mu_fit, tol)
                twos.append((pair, [offset + 2 * i, offset + 2 * i + 1]))
            offset += 2 * g
        del reg, ru, u_g
    else:
        t_reg = np.zeros((0, 0), dtype=np.complex128)

    for i, s in enumerate(split.singular_sigmas):
        twos.append(((float(s), 0.0 + 0.0j), [k + 2 * i, k + 2 * i + 1]))
    m2 = len(split.singular_sigmas)
    for j in range(split.zero_count):
        ones.append((0.0, [k + 2 * m2 + j]))

    if k == n:
        # The split is trivial and holds no transform (the identity).
        # Adding 0.0 turns a -0.0 entry into 0.0, as a product with it does.
        t_pre = t_reg + 0.0
    else:
        t_pre = direct_sum([t_reg, np.eye(n - k, dtype=np.complex128)]) @ split.transform
    # Each n x n temporary is released once folded into the next product.
    del t_reg, split
    ones.sort(key=lambda rec: mode.one_key(rec[0]))
    twos.sort(key=lambda rec: mode.two_key(rec[0]))
    transform = permutation_matrix([i for _, idx in ones + twos for i in idx]) @ t_pre
    del t_pre

    form = mode.form.build([v for v, _ in ones], [p for p, _ in twos])
    image = transform @ a @ adj(transform)
    image -= form.assemble()
    res = _norm(image)
    ConvergenceError._check("canonical form", res, tol.residual_rtol * _norm(a))
    # The exact scaling leaves the sort keys, tau and |entry|, in order.
    return replace(
        form,
        one_by_one=tuple(_unit_scale(np.array(form.one_by_one), -e)[0].tolist()),
        two_by_two=tuple((math.ldexp(t, e), m) for t, m in form.two_by_two),
    ), transform


def _real_mu(pairs, tol: ToleranceConfig) -> list[tuple[float, complex]]:
    """The (tau, mu) pairs with each mu snapped onto the real axis, or
    ConvergenceError for a mu off it by more than cluster_rtol max(1, |mu|)."""
    out = []
    for t, m in pairs:
        if abs(m.imag) > tol.cluster_rtol * max(1.0, abs(m)):
            raise ConvergenceError(f"expected a real block parameter, got {m!r}")
        out.append((t, complex(m.real)))
    return out
