"""Vector-space gauges.

Kinds
-----
L1Gauge
    The l1 norm.
AnalysisL1Gauge
    J(x) = ||D^T x||_1 for a dictionary D with rows indexed by x.
SortedWeightedL1Gauge
    J(x) = sum_i w_i |x|_[i] with nonincreasing nonnegative weights
    (the sorted weighted l1 norm).
GroupL12Gauge
    Sum of Euclidean norms over a partition of the coordinates.
NonnegL1Gauge
    l1 norm plus the indicator of the nonnegative orthant (conic kind).
"""

import itertools
import math

import numpy as np
from scipy.linalg import block_diag, helmert
from scipy.optimize import isotonic_regression, lsq_linear

from .. import config
from ..cones import ConeSpec, lp_solve, negligible, range_basis
from .base import (Gauge, SubdiffFace, VertexCapExceeded, construct,
                   point_certificate, sparse_draw, spec_array, spec_int)

__all__ = [
    "L1Gauge",
    "AnalysisL1Gauge",
    "SortedWeightedL1Gauge",
    "GroupL12Gauge",
    "NonnegL1Gauge",
]

def _l1_form(M, g0):
    """``descent_form`` of J'(x0; h) = <sign(g0_I), g_I> + ||g_{I^c}||_1 at
    g = h @ M (h when M is None), I the support of g0 = x0 @ M."""
    on = ~negligible(g0)
    return M, [("lin", np.flatnonzero(on), np.sign(g0[on])),
               ("abs", np.flatnonzero(~on), None)]


def _min_abs_bound(F, P, rhs):
    """The LP min t over (y, u, t) subject to F y + P u = rhs and |u| <= t."""
    k, nv = P.shape[1], F.shape[1] + P.shape[1] + 1
    E, ones = np.eye(k), np.ones((k, 1))
    A_ub = np.hstack([np.zeros((2 * k, F.shape[1])),
                      np.block([[E, -ones], [-E, -ones]])])
    c = np.zeros(nv)
    c[-1] = 1.0
    return lp_solve(c, A_ub=A_ub, b_ub=np.zeros(2 * k),
                    A_eq=np.hstack([F, P, np.zeros((len(P), 1))]), b_eq=rhs)


# ---------------------------------------------------------------------------
# l1 (its orthant face serves nonnegative l1 too)
# ---------------------------------------------------------------------------

class OrthantFace(SubdiffFace):
    """∂J(x0) at x0 with support I: {z : z_I = sign(x0_I), |z_off| <= 1}
    for l1 (``two_sided``), {z : z_I = 1, z_off <= 1} for nonneg_l1."""

    def __init__(self, x0, two_sided):
        # the support and its signs as the l1 descent form splits them
        (_, self.support, self.signs), (_, self.off, _) = _l1_form(None, x0)[1]
        self.two_sided = two_sided
        self.base = np.zeros(x0.size)
        self.base[self.support] = self.signs
        self.tangent = np.eye(x0.size)[:, self.off]

    def margin(self, z):
        z = np.asarray(z, dtype=float)
        if self.support.size and np.max(np.abs(z[self.support] - self.signs)) > 1e-9:
            return -math.inf
        if self.off.size == 0:
            return math.inf
        v = z[self.off]
        return 1.0 - float(np.max(np.abs(v) if self.two_sided else v))

    def sample(self, rng, count):
        Z = np.tile(self.base, (count, 1))
        shape = (count, self.off.size)
        Z[:, self.off] = rng.uniform(-1.0, 1.0, size=shape) if self.two_sided \
            else 1.0 - rng.exponential(1.0, size=shape)
        return Z

    def certificate(self, A):
        """Max-margin LP: z_I fixed by the base point, +-z_off <= 1 - t
        (z_off <= 1 - t when one-sided), minimize t."""
        m = A.shape[0]
        sup, off = self.support, self.off
        target = self.base[sup]
        if off.size == 0:
            return point_certificate(A[:, sup].T, target)
        # vars (y, t): minimize t, A_I^T y = target, +/- A_off^T y <= t
        Aoff = A[:, off].T
        if self.two_sided:
            Aoff = np.vstack([Aoff, -Aoff])
        A_ub = np.hstack([Aoff, -np.ones((len(Aoff), 1))])
        b_ub = np.zeros(A_ub.shape[0])
        A_eq = np.hstack([A[:, sup].T, np.zeros((sup.size, 1))]) \
            if sup.size else None
        b_eq = target if sup.size else None
        c = np.zeros(m + 1)
        c[m] = 1.0
        res = lp_solve(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
        if res.status == "unbounded":
            # one-sided off-support constraints (the conic kind) can be
            # pushed arbitrarily low: the margin has no finite maximum.
            # Re-solve with a floor to extract a concrete certificate.
            res = lp_solve(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                           bounds=[(None, None)] * m + [(-1.0, None)])
            if res.status != "optimal":
                return None
            return {"y0": res.x[:m], "ri_margin": math.inf,
                    "margin_is_max": True,
                    "note": "max-margin LP (margin unbounded)"}
        if res.status != "optimal":
            return None
        y = res.x[:m]
        return {"y0": y, "ri_margin": float(self.margin(A.T @ y)),
                "margin_is_max": True, "note": "max-margin LP"}


class L1Gauge(Gauge):
    kind = "l1"
    is_polyhedral = True

    def value_batch(self, X):
        return np.abs(X).sum(axis=-1)

    def prox(self, x, tau):
        x = self.flat(x)
        return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)

    def polar(self, z):
        return float(np.max(np.abs(self.flat(z)), initial=0.0))

    def descent_form(self, x0):
        return _l1_form(None, self.flat(x0))

    def face(self, x0):
        return OrthantFace(self.flat(x0), two_sided=True)

    def lipschitz(self):
        return math.sqrt(self.n)

    def primal_lp(self, A, b0):
        # variables (x+, x-) >= 0
        n = self.n
        lp = {"c": np.ones(2 * n), "A_eq": np.hstack([A, -A]), "b_eq": b0,
              "bounds": [(0.0, None)] * (2 * n)}
        return lp, lambda v: v[:n] - v[n:]

    def exposed_face(self, z):
        if np.max(np.abs(z)) > 1.0 + 1e-9:
            return None
        act = np.where(np.abs(z) >= 1.0 - 1e-9)[0]
        return act, np.sign(z[act])


# ---------------------------------------------------------------------------
# analysis l1
# ---------------------------------------------------------------------------

class AnalysisL1Face(SubdiffFace):
    """D-image of the box face {u : u_I = sign, |u_{I^c}| <= 1}.

    Margins are measured in coefficient (u) space via an LP; when the
    off-support columns of D are linearly dependent this can understate the
    geometric margin.
    """

    def __init__(self, D, x0):
        self.D = D
        (_, self.active, self.signs), (_, self.inactive, _) = \
            _l1_form(D, D.T @ x0)[1]
        self.base = D[:, self.active] @ self.signs
        self.tangent = range_basis(D[:, self.inactive]) if self.inactive.size \
            else np.zeros((D.shape[0], 0))

    def margin(self, z):
        """1 minus the least inf-norm of feasible inactive coefficients."""
        z = np.asarray(z, dtype=float)
        k = self.inactive.size
        if k == 0:
            resid = np.max(np.abs(z - self.base), initial=0.0)
            return math.inf if resid <= 1e-9 else -math.inf
        # D_off u = z - base, |u| <= s, minimize s
        res = _min_abs_bound(np.zeros((z.size, 0)), self.D[:, self.inactive],
                             z - self.base)
        if res.status != "optimal":
            return -math.inf
        return 1.0 - res.value

    def sample(self, rng, count):
        U = rng.uniform(-1.0, 1.0, size=(count, self.inactive.size))
        Z = np.tile(self.base, (count, 1))
        if self.inactive.size:
            Z += U @ self.D[:, self.inactive].T
        return Z

    def certificate(self, A):
        if self.inactive.size == 0:
            return point_certificate(A.T, self.base)
        # A^T y - D_off u_off = D_act s_act, |u_off| <= t, minimize t
        res = _min_abs_bound(A.T, -self.D[:, self.inactive], self.base)
        if res.status != "optimal":
            return None
        y = res.x[:A.shape[0]]
        return {"y0": y, "ri_margin": float(self.margin(A.T @ y)),
                "margin_is_max": True, "note": "max-margin LP (coefficient space)"}


class AnalysisL1Gauge(Gauge):
    kind = "analysis_l1"
    is_polyhedral = True
    param_field = "D"

    def __init__(self, D):
        D = np.atleast_2d(np.asarray(D, dtype=float))
        super().__init__(D.shape[0])
        self.D = D

    @classmethod
    def from_spec(cls, spec):
        n = spec_int(spec, "n")
        D = spec_array(spec, "D", 2)
        if D.shape[0] != n:
            raise ValueError(f"D: expected {n} rows to match n, got {D.shape[0]}")
        return construct(cls, "D", D)

    def value_batch(self, X):
        return np.abs(np.asarray(X) @ self.D).sum(axis=-1)

    def prox(self, x, tau):
        """Evaluated through the dual: u* solves the box-constrained least
        squares min_{|u|<=tau} 0.5||x - D u||^2, exactly by BVLS (Stark &
        Parker 1995), and prox = x - D u*."""
        x = self.flat(x)
        if tau <= 0:
            return x.copy()
        Du = self.D @ lsq_linear(self.D, x, bounds=(-tau, tau), method="bvls").x
        p = x - Du
        # an entry that cancels to a few ulps is 0, which J weighs by tau
        p[np.abs(p) <= 4 * np.finfo(float).eps * np.maximum(np.abs(x), np.abs(Du))] = 0.0
        return p

    def polar(self, z):
        """inf-norm of the smallest coefficient representation (LP);
        +inf when z is outside the column span of D."""
        res = _min_abs_bound(np.zeros((self.n, 0)), self.D, self.flat(z))
        if res.status != "optimal":
            return math.inf
        return max(0.0, float(res.value))

    def descent_form(self, x0):
        """As for l1, on the dictionary coefficients h @ D."""
        return _l1_form(self.D, self.D.T @ self.flat(x0))

    def face(self, x0):
        return AnalysisL1Face(self.D, self.flat(x0))

    def descent_pieces(self, x0):
        """The sign vertices of the form, rounded and deduplicated: columns
        of D can repeat or cancel."""
        return np.unique(np.round(super().descent_pieces(x0), 12), axis=0)

    def lipschitz(self):
        return math.sqrt(self.D.shape[1]) * float(np.linalg.norm(self.D, 2))

    def primal_lp(self, A, b0):
        m, n = A.shape
        p = self.D.shape[1]
        # variables (x, u+, u-): D^T x = u+ - u-, then A x = b0
        nv = n + 2 * p
        c = np.zeros(nv)
        c[n:] = 1.0
        A_eq = np.zeros((p + m, nv))
        A_eq[:p, :n] = self.D.T
        A_eq[:p, n:n + p] = -np.eye(p)
        A_eq[:p, n + p:] = np.eye(p)
        A_eq[p:, :n] = A
        lp = {"c": c, "A_eq": A_eq, "b_eq": np.concatenate([np.zeros(p), b0]),
              "bounds": [(None, None)] * n + [(0.0, None)] * (2 * p)}
        return lp, lambda v: v[:n].copy()


# ---------------------------------------------------------------------------
# sorted weighted l1
# ---------------------------------------------------------------------------

def _top_k_lift(P, ks, two_sided=False):
    """Lift of the top-k sums T_k of v = P x, of |v| when ``two_sided``
    (Ogryczak & Tamir 2003): T_k(v) = min k th + sum(xi) over xi >= v - th
    (and xi >= -v - th), xi >= 0.  Returns ``(G_x, G_u, cost)``: the rows
    G_x x + G_u u <= 0 over u = (th_1..th_K, xi_1..xi_K) for k in ``ks``,
    and cost[j] @ u = k_j th_j + sum(xi_j).  xi >= 0 is the caller's."""
    r, E = P.shape[0], np.eye(len(ks))
    S = np.vstack([P, -P]) if two_sided else P
    G_u = -np.hstack([np.kron(E, np.ones((len(S), 1))),
                      np.kron(E, np.tile(np.eye(r), (len(S) // r, 1)))])
    cost = np.hstack([np.diag(ks), np.kron(E, np.ones((1, r)))])
    return np.tile(S, (len(ks), 1)), G_u, cost


class SortedFace(SubdiffFace):
    """∂J(x0) for the sorted weighted l1 norm, by the tie groups of |x0|.

    With T_k the sum of the k largest entries and W_k that of the group's
    weight block (Rado 1952): on a group of nonzeros with signs s,
    z_g = s * u with sum(u) = W_|g| and T_k(u) <= W_k for k < |g| (the
    permutahedron); on the zero group, T_k(|z_g|) <= W_k for every k.  A
    block of equal weights (of zeros, on the zero group) pins z_g; every
    other inequality has slack at the centroid, the base point, and
    ``margin`` is the smallest of these slacks.
    """

    def __init__(self, blocks, n):
        self.parts, self.base, cols = [], np.zeros(n), [np.zeros((n, 0))]
        for idx, sign, wg in blocks:
            if sign is None:
                ks = np.arange(1, idx.size + 1) if wg[0] > 0 else np.arange(0)
                basis = np.eye(idx.size)
            else:
                ks = np.arange(1, idx.size) if wg[0] > wg[-1] else np.arange(0)
                self.base[idx] = sign * (wg.mean() if ks.size else wg)
                basis = sign[:, None] * helmert(idx.size).T
            self.parts.append((idx, sign, wg, ks))
            if ks.size:
                cols.append(np.eye(n)[:, idx] @ basis)
        self.tangent = np.hstack(cols)

    def margin(self, z):
        z = np.asarray(z, dtype=float)
        slack = math.inf
        for idx, sign, wg, ks in self.parts:
            v = np.abs(z[idx]) if sign is None else sign * z[idx]
            W = np.cumsum(wg)
            tol = 1e-9 * max(1.0, W[-1])
            if not ks.size:
                if np.max(np.abs(v - wg)) > tol:
                    return -math.inf
                continue
            if sign is not None and abs(v.sum() - W[-1]) > tol:
                return -math.inf
            T = np.cumsum(np.sort(v)[::-1])
            slack = min(slack, float(np.min(W[ks - 1] - T[ks - 1])))
        return slack

    def sample(self, rng, count):
        """Mixtures of dim + 1 random vertices: each block permuted, with
        random signs on the zero group."""
        r = self.dim + 1
        V = np.zeros((count * r, self.base.size))
        for idx, sign, wg, _ in self.parts:
            P = rng.permuted(np.tile(wg, (count * r, 1)), axis=1)
            V[:, idx] = P * (rng.choice([-1.0, 1.0], size=P.shape)
                             if sign is None else sign)
        lam = rng.dirichlet(np.ones(r), size=count)
        return np.einsum("cr,crn->cn", lam, V.reshape(count, r, -1))

    def certificate(self, A):
        if not self.dim:
            return point_certificate(A.T, self.base)
        # vars (y, t, u): maximize t >= 0 with A^T y on the affine hull and
        # T_k + t <= W_k, each top-k sum lifted by ``_top_k_lift``
        m = A.shape[0]
        eq, eq_rhs = [np.zeros((0, m))], [np.zeros(0)]
        ub_y, ub_t, ub_u, ub_rhs = [], [], [], []
        bounds = [(None, None)] * m + [(0.0, None)]
        for idx, sign, wg, ks in self.parts:
            P, W = A[:, idx].T, np.cumsum(wg)
            if sign is not None:
                P = sign[:, None] * P
            if not ks.size:
                eq.append(P)
                eq_rhs.append(wg)
                continue
            if sign is not None:
                eq.append(P.sum(axis=0, keepdims=True))
                eq_rhs.append(W[-1:])
            G_y, G_u, cost = _top_k_lift(P, ks, two_sided=sign is None)
            ub_y += [G_y, np.zeros((ks.size, m))]
            ub_t += [np.zeros(len(G_y)), np.ones(ks.size)]
            ub_u.append(np.vstack([G_u, cost]))
            ub_rhs += [np.zeros(len(G_y)), W[ks - 1]]
            bounds += [(None, None)] * ks.size + [(0.0, None)] * (ks.size * idx.size)
        A_ub = np.hstack([np.vstack(ub_y), np.concatenate(ub_t)[:, None],
                          block_diag(*ub_u)])
        A_eq = np.vstack(eq)
        c = np.zeros(A_ub.shape[1])
        c[m] = -1.0
        res = lp_solve(c, A_ub=A_ub, b_ub=np.concatenate(ub_rhs),
                       A_eq=np.hstack([A_eq, np.zeros((len(A_eq), c.size - m))]),
                       b_eq=np.concatenate(eq_rhs), bounds=bounds)
        if res.status != "optimal":
            return None
        y = res.x[:m]
        return {"y0": y, "ri_margin": float(self.margin(A.T @ y)),
                "margin_is_max": True,
                "note": "max-slack LP over the majorization inequalities"}


def _distinct_perms(vals):
    """Distinct permutations of a value multiset, in lexicographic order:
    each is the next permutation of the one before."""
    p = sorted(vals)
    out = [tuple(p)]
    while True:
        i = max((i for i in range(len(p) - 1) if p[i] < p[i + 1]), default=-1)
        if i < 0:
            return out
        j = max(j for j in range(i + 1, len(p)) if p[j] > p[i])
        p[i], p[j] = p[j], p[i]
        p[i + 1:] = p[:i:-1]
        out.append(tuple(p))


def _tie_blocks(x0, w):
    """The tie groups of |x0|, largest first, as (indices, signs, the block
    of w they take); the zero group has no signs."""
    ax = np.abs(x0)
    order = np.argsort(-ax, kind="stable")
    zero = negligible(ax)
    blocks, start = [], 0
    while start < ax.size:
        # ties: drops below the group's top that are negligible beside
        # max |x0| (appended as the unit); they come first, as |x0| descends
        drop = ax[order[start]] - ax[order[start:]]
        stop = start + int(np.sum(negligible(np.append(drop, ax.max()))[:-1]))
        grp = order[start:stop]
        blocks.append((grp, None if zero[grp[0]] else np.sign(x0[grp]),
                       w[start:stop]))
        start = stop
    return blocks


class SortedWeightedL1Gauge(Gauge):
    kind = "wsl1"
    is_polyhedral = True
    param_field = "w"

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float).ravel()
        if w.size == 0:
            raise ValueError("weights must be nonempty")
        if np.any(w < 0) or np.any(np.diff(w) > 1e-14):
            raise ValueError("weights must be nonnegative and nonincreasing")
        if w[0] <= 0:
            raise ValueError("the leading weight must be positive")
        super().__init__(w.size)
        self.w = w
        self._cumw = np.cumsum(w)
        #: the weights as the face and its vertices use them
        self._wr = np.round(w, 14)

    @classmethod
    def from_spec(cls, spec):
        w = spec_array(spec, "w", 1, size=spec_int(spec, "n"))
        return construct(cls, "w", w)

    def value_batch(self, X):
        return np.sort(np.abs(X), axis=-1)[..., ::-1] @ self.w

    def prox(self, x, tau):
        """The isotonic regression of |x|_sorted - tau*w, nonincreasing and
        clipped at 0, mapped back through the sort order and the signs
        (Bogdan et al. 2015)."""
        x = self.flat(x)
        ax = np.abs(x)
        order = np.argsort(-ax, kind="stable")
        z = isotonic_regression(ax[order] - tau * self.w, increasing=False).x
        out = np.empty_like(ax)
        out[order] = np.maximum(z, 0.0)
        return np.sign(x) * out

    def polar(self, z):
        az = np.sort(np.abs(self.flat(z)))[::-1]
        return float(np.max(np.cumsum(az) / self._cumw))

    def dir_deriv_batch(self, x0, H):
        H = np.atleast_2d(np.asarray(H, dtype=float))
        total = np.zeros(H.shape[0])
        for grp, sign, wg in _tie_blocks(self.flat(x0), self.w):
            d = np.abs(H[:, grp]) if sign is None else H[:, grp] * sign
            total += np.sort(d, axis=1)[:, ::-1] @ wg
        return total

    def dir_subgrad_batch(self, x0, H):
        """The maximizing vertex of ∂J(x0) for each row: on each tie group
        of |x0| the weights go to the coordinates in decreasing order of
        sign(x0) h (of |h| on the zero group, signed by h)."""
        H = np.atleast_2d(np.asarray(H, dtype=float))
        G = np.zeros_like(H)
        rows = np.arange(H.shape[0])[:, None]
        for grp, sign, wg in _tie_blocks(self.flat(x0), self._wr):
            if sign is None:
                sign = np.where(H[:, grp] >= 0.0, 1.0, -1.0)
            order = np.argsort(-(H[:, grp] * sign), axis=1, kind="stable")
            W = np.empty((H.shape[0], grp.size))
            W[rows, order] = wg
            G[:, grp] = W * sign
        return G

    def descent_pieces(self, x0):
        """The extreme subgradients consistent with x0 (deduplicated)."""
        blocks = _tie_blocks(self.flat(x0), self._wr)
        count = 1
        for _, sign, wg in blocks:
            _, reps = np.unique(wg, return_counts=True)
            count *= math.factorial(wg.size) // math.prod(map(math.factorial, reps))
            if sign is None:
                count *= 2 ** int(np.sum(wg > 0))
            if count > config.VERTEX_CAP:
                raise VertexCapExceeded(
                    f"face vertex count exceeds cap {config.VERTEX_CAP}")
        per_group = []
        for grp, sign, wg in blocks:
            assignments = []
            for perm in _distinct_perms(wg.tolist()):
                if sign is not None:
                    assignments.append(sign * perm)
                    continue
                nz = [j for j, v in enumerate(perm) if v > 0]
                for signs in itertools.product((1.0, -1.0), repeat=len(nz)):
                    vals = np.array(perm)
                    vals[nz] *= signs
                    assignments.append(vals)
            per_group.append((grp, assignments))
        verts = []
        for combo in itertools.product(*[a for _, a in per_group]):
            z = np.zeros(self.n)
            for (grp, _), vals in zip(per_group, combo):
                z[grp] = vals
            verts.append(z)
        return np.unique(np.round(np.array(verts), 14), axis=0)

    def face(self, x0):
        return SortedFace(_tie_blocks(self.flat(x0), self._wr), self.n)

    def descent_lift(self, x0):
        # J'(x0; h) = sum over the tie groups of sum_k d_k T_k(s h_g) (of
        # |h_g| on the zero group), d_k = w_k - w_{k+1} within the block;
        # each T_k is lifted by ``_top_k_lift``, its xi >= 0 kept as rows
        G_h, G_u, cost = [np.zeros((1, self.n))], [], []
        for idx, sign, wg in _tie_blocks(self.flat(x0), self._wr):
            d = wg - np.append(wg[1:], 0.0)
            ks = np.flatnonzero(d > 0) + 1
            P = np.eye(self.n)[idx] * (1.0 if sign is None else sign[:, None])
            G_x, G_t, C = _top_k_lift(P, ks, two_sided=sign is None)
            nxi = ks.size * idx.size
            G_h += [G_x, np.zeros((nxi, self.n))]
            G_u.append(np.vstack([G_t, np.hstack([np.zeros((nxi, ks.size)),
                                                   -np.eye(nxi)])]))
            cost.append(d[ks - 1] @ C)
        return np.vstack(G_h), np.vstack([np.concatenate(cost), block_diag(*G_u)])

    def lipschitz(self):
        return float(np.linalg.norm(self.w))

    def primal_lp(self, A, b0):
        m, n = A.shape
        d = self.w - np.concatenate([self.w[1:], [0.0]])
        ks = np.flatnonzero(d > 1e-15) + 1
        # variables (x, v, th, xi): |x| <= v and the top-k lift of v
        G_v, G_u, cost = _top_k_lift(np.eye(n), ks)
        A_ub = np.block([
            [np.kron(np.eye(n), [[1.0], [-1.0]]), -np.kron(np.eye(n), [[1.0], [1.0]]),
             np.zeros((2 * n, G_u.shape[1]))],
            [np.zeros((G_v.shape[0], n)), G_v, G_u]])
        nv = A_ub.shape[1]
        c = np.zeros(nv)
        c[2 * n:] = d[ks - 1] @ cost
        A_eq = np.zeros((m, nv))
        A_eq[:, :n] = A
        bounds = ([(None, None)] * n + [(0.0, None)] * n + [(None, None)] * ks.size
                  + [(0.0, None)] * (ks.size * n))
        lp = {"c": c, "A_ub": A_ub, "b_ub": np.zeros(A_ub.shape[0]),
              "A_eq": A_eq, "b_eq": b0, "bounds": bounds}
        return lp, lambda v: v[:n].copy()


# ---------------------------------------------------------------------------
# group l1/l2
# ---------------------------------------------------------------------------

class GroupFace(SubdiffFace):
    """The unit block x0_g / ||x0_g|| on each support group, a Euclidean
    ball on each zero group."""

    note = "largest zero-group norm"

    def __init__(self, groups, blocks, n):
        """``blocks``: the gauge's ``descent_form`` blocks, one per group."""
        self.groups = groups
        self.sup = [gi for gi, blk in enumerate(blocks) if blk[0] == "lin"]
        self.zero = [gi for gi, blk in enumerate(blocks) if blk[0] == "l2"]
        self.base = np.zeros(n)
        for gi in self.sup:
            self.base[groups[gi]] = blocks[gi][2]
        self.tangent = np.eye(n)[:, self._coords(self.zero)]

    def _coords(self, gis):
        """The coordinates of the groups ``gis``, in group order."""
        return np.concatenate([self.groups[gi] for gi in gis]
                              + [np.zeros(0, dtype=int)])

    def margin(self, z):
        z = np.asarray(z, dtype=float)
        for gi in self.sup:
            idx = self.groups[gi]
            if np.linalg.norm(z[idx] - self.base[idx]) > 1e-9:
                return -math.inf
        if not self.zero:
            return math.inf
        worst = max(np.linalg.norm(z[self.groups[gi]]) for gi in self.zero)
        return 1.0 - float(worst)

    def sample(self, rng, count):
        Z = np.tile(self.base, (count, 1))
        for gi in self.zero:
            idx = self.groups[gi]
            dirs = rng.standard_normal((count, idx.size))
            dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-30)
            radii = rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / idx.size)
            Z[:, idx] = dirs * radii
        return Z

    def affine_part(self, A):
        sup = self._coords(self.sup)
        target = self.base[sup]
        return A[:, sup].T, target, 1e-8 * max(1.0, np.abs(target).max(initial=0.0))

    def pencil(self, A):
        """The block-diagonal dilations [[0, z_g^T], [z_g, 0]] of the zero
        groups z_g of A^T y, whose largest eigenvalue is the largest zero-group
        norm."""
        cols = [self.groups[gi] for gi in self.zero]
        ends = np.cumsum([idx.size + 1 for idx in cols])

        def dilations(Y):
            Z = Y @ A
            out = np.zeros((len(Z), ends[-1], ends[-1]))
            for idx, end in zip(cols, ends):
                head = end - idx.size - 1
                out[:, head, head + 1:end] = out[:, head + 1:end, head] = Z[:, idx]
            return out

        return dilations


class GroupL12Gauge(Gauge):
    kind = "group_l12"
    is_polyhedral = False
    param_field = "partition"

    def __init__(self, n, groups):
        super().__init__(n)
        seen = np.zeros(n, dtype=bool)
        self.groups = []
        for idx in groups:
            idx = np.asarray(sorted(int(i) for i in idx), dtype=int)
            if idx.size == 0:
                raise ValueError("empty group")
            if idx.min() < 0 or idx.max() >= n or np.any(seen[idx]):
                raise ValueError("groups must partition range(n)")
            seen[idx] = True
            self.groups.append(idx)
        if not np.all(seen):
            raise ValueError("groups must cover every coordinate")
        # the coordinates in group order, and where each group starts there
        self._order = np.concatenate(self.groups)
        self._starts = np.cumsum([0] + [idx.size for idx in self.groups[:-1]])
        # the group of each coordinate, and which coordinates share one
        self._group_of = np.empty(n, dtype=int)
        for gi, idx in enumerate(self.groups):
            self._group_of[idx] = gi
        self._same = self._group_of[:, None] == self._group_of[None, :]

    @classmethod
    def from_spec(cls, spec):
        n = spec_int(spec, "n")
        part = spec.get("partition")
        if (not isinstance(part, (list, tuple))
                or not all(isinstance(g, (list, tuple)) for g in part)):
            raise ValueError("partition: expected a list of index lists")
        return construct(cls, "partition", n, part)

    def _block_norms(self, X):
        """The Euclidean norm of each group along the last axis of X."""
        X = np.asarray(X)
        return np.sqrt(np.add.reduceat(X[..., self._order] ** 2, self._starts,
                                       axis=-1))

    def value_batch(self, X):
        return self._block_norms(X).sum(axis=-1)

    def _shrink(self, v, tau):
        """The block soft threshold's factor 1 - tau / ||v_g|| at each
        coordinate (0 where ||v_g|| <= tau) and the group norm there."""
        norms = self._block_norms(v)[self._group_of]
        return 1.0 - np.divide(tau, norms, out=np.ones(self.n),
                               where=norms > tau), norms

    def prox(self, x, tau):
        x = self.flat(x)
        return self._shrink(x, tau)[0] * x

    def prox_jacobian(self, v, tau):
        """The block soft threshold and, on each group with ||v_g|| > tau,
        its derivative (1 - tau / ||v_g||) I + tau v_g v_g^T / ||v_g||^3
        (0 on the other groups)."""
        v = self.flat(v)
        factor, norms = self._shrink(v, tau)
        # s s^T on the same-group mask is the rank-one part of each block
        s = np.zeros(self.n)
        np.divide(math.sqrt(tau) * v, norms ** 1.5, out=s, where=norms > tau)
        D = s[:, None] * s
        D *= self._same
        D.flat[::self.n + 1] += factor
        return factor * v, D

    def polar(self, z):
        return float(np.max(self._block_norms(self.flat(z)), initial=0.0))

    def descent_form(self, x0):
        """One block per group: <x0_g / ||x0_g||, h_g> on a support group,
        ||h_g|| on a zero group."""
        x0 = self.flat(x0)
        norms = np.array([np.linalg.norm(x0[idx]) for idx in self.groups])
        return None, [("l2", idx, None) if zero else ("lin", idx, x0[idx] / nb)
                      for idx, nb, zero in zip(self.groups, norms,
                                               negligible(norms))]

    def face(self, x0):
        return GroupFace(self.groups, self.descent_form(x0)[1], self.n)

    def lipschitz(self):
        return math.sqrt(len(self.groups))


# ---------------------------------------------------------------------------
# nonnegative l1
# ---------------------------------------------------------------------------

class NonnegL1Gauge(Gauge):
    kind = "nonneg_l1"
    is_polyhedral = True
    is_conic = True

    def domain_residual(self, x):
        return float(max(0.0, -np.min(self.flat(x), initial=0.0)))

    def value_batch(self, X):
        X = np.asarray(X)
        vals = np.maximum(X, 0.0).sum(axis=-1)
        return np.where(X.min(axis=-1, initial=0.0) < -1e-12, math.inf, vals)

    def prox(self, x, tau):
        return np.maximum(self.flat(x) - tau, 0.0)

    def polar(self, z):
        return float(max(0.0, np.max(self.flat(z), initial=0.0)))

    def dir_deriv_batch(self, x0, H):
        x0 = self.flat(x0)
        H = np.atleast_2d(np.asarray(H, dtype=float))
        off = negligible(x0)
        bad = H[:, off].min(axis=1, initial=0.0) < -1e-12
        return np.where(bad, math.inf, self.finite_dir_deriv_batch(x0, H))

    def finite_dir_deriv_batch(self, x0, H):
        return np.atleast_2d(np.asarray(H, dtype=float)).sum(axis=1)

    def dir_subgrad_batch(self, x0, H):
        return np.ones_like(np.atleast_2d(np.asarray(H, dtype=float)))

    def face(self, x0):
        x0 = self.flat(x0)
        if np.min(x0, initial=0.0) < -1e-12:
            raise ValueError("x0 must be nonnegative")
        return OrthantFace(x0, two_sided=False)

    def domain_tangent_cone(self, x0):
        x0 = self.flat(x0)
        off = np.where(negligible(x0))[0]
        G = -np.eye(self.n)[off]
        anchor = np.ones(self.n)
        return ConeSpec.from_rows(G, anchor=anchor,
                                  note="orthant tangent cone at x0")

    def critical_cone(self, x0):
        x0 = self.flat(x0)
        off = np.where(negligible(x0))[0]
        G = np.vstack([-np.eye(self.n)[off], np.ones((1, self.n))])
        anchor = -x0 if self.value(x0) > 0 else None
        return ConeSpec.from_rows(G, anchor=anchor,
                                  note="orthant-restricted descent cone")

    def lipschitz(self):
        return math.sqrt(self.n)

    def draw_x0(self, rng, sparsity=1, rank=1):
        return sparse_draw(rng, self.n, sparsity, signed=False)

    def primal_lp(self, A, b0):
        lp = {"c": np.ones(self.n), "A_eq": A, "b_eq": b0,
              "bounds": [(0.0, None)] * self.n}
        return lp, lambda v: v.copy()

    def exposed_face(self, z):
        if np.max(z, initial=0.0) > 1.0 + 1e-9:
            return None
        act = np.where(z >= 1.0 - 1e-9)[0]
        return act, np.ones(act.size)
