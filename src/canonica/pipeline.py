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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .blocks import direct_sum, permutation_matrix
from .errors import ConvergenceError
from .factorizations import _pair_clusters, eig_normal, svd
from .matrix import ToleranceConfig, as_matrix, norm
from .regularization import RegularSplit, _adjoint, split_regular_singular


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


def _canon(a, mode: _Mode, tol: ToleranceConfig, split: RegularSplit | None = None):
    """(form, t) with t unitary and t a adj(t) equal to form.assemble().

    A caller that has already passed a through the class gate
    (regularization._gate) hands on the split of a, so that the gate
    is not evaluated twice.
    """
    a = as_matrix(a, square=True)
    n = a.shape[0]
    if split is None:
        split = split_regular_singular(a, mode.name, tol)
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
        lam, u_eig = eig_normal(np.linalg.solve(adj(reg), reg), tol)
        radius = tol.cluster_rtol * max(float(np.max(np.abs(lam))), 1.0)
        fixed, pairs = _pair_clusters(lam, mode.partner, mode.mu_first, radius)
        groups = mode.fixed_groups(fixed)

        order = [i for _, idx in groups for i in idx]
        order += [i for idx_mu, idx_inv in pairs for i in idx_mu + idx_inv]
        u_g = u_eig[:, order]
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
    else:
        t_reg = np.zeros((0, 0), dtype=np.complex128)

    for i, s in enumerate(split.singular_sigmas):
        twos.append(((float(s), 0.0 + 0.0j), [k + 2 * i, k + 2 * i + 1]))
    m2 = len(split.singular_sigmas)
    for j in range(split.zero_count):
        ones.append((0.0, [k + 2 * m2 + j]))

    if k == n:
        # The split is trivial and its transform the identity.  Adding
        # 0.0 turns a -0.0 entry into 0.0, as a product with it does.
        t_pre = t_reg + 0.0
    else:
        t_pre = direct_sum([t_reg, np.eye(n - k, dtype=np.complex128)]) @ split.transform
    ones.sort(key=lambda rec: mode.one_key(rec[0]))
    twos.sort(key=lambda rec: mode.two_key(rec[0]))
    transform = permutation_matrix([i for _, idx in ones + twos for i in idx]) @ t_pre

    form = mode.form.build([v for v, _ in ones], [p for p, _ in twos])
    res = norm(transform @ a @ adj(transform) - form.assemble())
    bound = tol.residual_rtol * max(1.0, norm(a))
    if res > bound:
        raise ConvergenceError(
            f"canonical form residual {res:.3e} exceeds {bound:.3e}"
        )
    return form, transform
