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

from .. import config
from ..cones import (ConeSpec, affine_solve, lp_solve, range_basis,
                     subgradient_min)
from .base import (Gauge, SubdiffFace, VertexCapExceeded, construct,
                   sparse_draw, spec_array, spec_int)

__all__ = [
    "L1Gauge",
    "AnalysisL1Gauge",
    "SortedWeightedL1Gauge",
    "GroupL12Gauge",
    "NonnegL1Gauge",
]

_SUPP_TOL = 1e-12


def _support(x):
    return np.abs(x) > _SUPP_TOL * max(1.0, float(np.max(np.abs(x), initial=0.0)))


def _orthant_certificate(face, A, two_sided):
    """Max-margin LP for the l1 face (``two_sided``) and the nonnegative-l1
    face: z_I fixed by the base point, +-z_off <= 1 - t, minimize t."""
    m = A.shape[0]
    sup = face.support
    off = face.off
    target = face.base[sup]
    if off.size == 0:
        y, _, resid = affine_solve(A[:, sup].T, target)
        if resid > 1e-9 * max(1.0, np.abs(target).max(initial=0.0)):
            return None
        return {"y0": y, "ri_margin": math.inf, "margin_is_max": True,
                "note": "face is a singleton"}
    # vars (y, t): minimize t, A_I^T y = target, +/- A_off^T y <= t
    Aoff = A[:, off].T
    if two_sided:
        A_ub = np.vstack([np.hstack([Aoff, -np.ones((off.size, 1))]),
                          np.hstack([-Aoff, -np.ones((off.size, 1))])])
    else:
        A_ub = np.hstack([Aoff, -np.ones((off.size, 1))])
    b_ub = np.zeros(A_ub.shape[0])
    A_eq = np.hstack([A[:, sup].T, np.zeros((sup.size, 1))]) \
        if sup.size else None
    b_eq = target if sup.size else None
    c = np.zeros(m + 1)
    c[m] = 1.0
    bounds = [(None, None)] * (m + 1)
    res = lp_solve(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                   bounds=bounds)
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
    return {"y0": y, "ri_margin": float(face.margin(A.T @ y)),
            "margin_is_max": True, "note": "max-margin LP"}


# ---------------------------------------------------------------------------
# l1
# ---------------------------------------------------------------------------

class L1Face(SubdiffFace):
    """∂||.||_1(x0): sign vector on the support, a box on the rest."""

    def __init__(self, x0):
        x0 = np.asarray(x0, dtype=float)
        self.support = np.where(_support(x0))[0]
        self.off = np.where(~_support(x0))[0]
        self.signs = np.sign(x0[self.support])
        base = np.zeros(x0.size)
        base[self.support] = self.signs
        self.base = base
        self.tangent = np.eye(x0.size)[:, self.off]
        self.param_desc = "inf-norm ball on the off-support coordinates"

    def margin(self, z):
        z = np.asarray(z, dtype=float)
        if self.support.size and np.max(np.abs(z[self.support] - self.signs)) > 1e-9:
            return -math.inf
        if self.off.size == 0:
            return math.inf
        return 1.0 - float(np.max(np.abs(z[self.off])))

    def contains(self, z, tol=1e-9):
        m = self.margin(z)
        return m >= -tol

    def sample(self, rng, count):
        Z = np.tile(self.base, (count, 1))
        Z[:, self.off] = rng.uniform(-1.0, 1.0, size=(count, self.off.size))
        return Z

    def certificate(self, A):
        return _orthant_certificate(self, A, two_sided=True)


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

    def dir_deriv_batch(self, x0, H):
        x0 = self.flat(x0)
        H = np.atleast_2d(np.asarray(H, dtype=float))
        on = _support(x0)
        return H[:, on] @ np.sign(x0[on]) + np.abs(H[:, ~on]).sum(axis=1)

    def dir_subgrad_batch(self, x0, H):
        x0 = self.flat(x0)
        H = np.atleast_2d(np.asarray(H, dtype=float))
        on = _support(x0)
        return np.where(on, np.sign(x0), np.where(H >= 0.0, 1.0, -1.0))

    def face(self, x0):
        return L1Face(self.flat(x0))

    def descent_pieces(self, x0):
        face = self.face(x0)
        k = face.off.size
        if 2 ** k > config.VERTEX_CAP:
            raise VertexCapExceeded(f"2^{k} subdifferential vertices exceed cap")
        combos = np.array(list(itertools.product((1.0, -1.0), repeat=k)))
        if k == 0:
            return face.base[None, :]
        Z = np.tile(face.base, (combos.shape[0], 1))
        Z[:, face.off] = combos
        return Z

    def descent_lift(self, x0):
        # J'(x0; h) <= 0 as <sign, h_I> + sum u <= 0 with |h_off| <= u
        face = self.face(x0)
        k = face.off.size
        G_h = np.zeros((1 + 2 * k, self.n))
        G_u = np.zeros((1 + 2 * k, k))
        G_h[0, face.support] = face.signs
        G_u[0, :] = 1.0
        for j, i in enumerate(face.off):
            G_h[1 + 2 * j, i] = 1.0
            G_u[1 + 2 * j, j] = -1.0
            G_h[2 + 2 * j, i] = -1.0
            G_u[2 + 2 * j, j] = -1.0
        return G_h, G_u

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
    geometric margin, flagged by ``rank_deficient``.
    """

    def __init__(self, D, x0):
        D = np.asarray(D, dtype=float)
        x0 = np.asarray(x0, dtype=float)
        g = D.T @ x0
        self.D = D
        self.active = np.where(_support(g))[0]
        self.inactive = np.where(~_support(g))[0]
        self.signs = np.sign(g[self.active])
        u0 = np.zeros(D.shape[1])
        u0[self.active] = self.signs
        self.base = D @ u0
        self.tangent = range_basis(D[:, self.inactive]) if self.inactive.size \
            else np.zeros((D.shape[0], 0))
        Doff = D[:, self.inactive]
        self.rank_deficient = (
            self.inactive.size > 0
            and np.linalg.matrix_rank(Doff, tol=None) < self.inactive.size
        )
        self.param_desc = "inf-norm ball on the inactive dictionary coefficients"

    def _coeff_margin(self, z):
        """1 minus the least inf-norm of feasible inactive coefficients."""
        z = np.asarray(z, dtype=float)
        k = self.inactive.size
        if k == 0:
            resid = np.max(np.abs(z - self.base), initial=0.0)
            return math.inf if resid <= 1e-9 else -math.inf
        Doff = self.D[:, self.inactive]
        # variables (u_off, s): D_off u = z - base, |u| <= s, minimize s
        n = self.D.shape[0]
        A_eq = np.hstack([Doff, np.zeros((n, 1))])
        b_eq = z - self.base
        A_ub = np.zeros((2 * k, k + 1))
        A_ub[:k, :k] = np.eye(k)
        A_ub[:k, k] = -1.0
        A_ub[k:, :k] = -np.eye(k)
        A_ub[k:, k] = -1.0
        c = np.zeros(k + 1)
        c[k] = 1.0
        res = lp_solve(c, A_ub=A_ub, b_ub=np.zeros(2 * k), A_eq=A_eq, b_eq=b_eq)
        if res.status != "optimal":
            return -math.inf
        return 1.0 - res.value

    def margin(self, z):
        return self._coeff_margin(z)

    def contains(self, z, tol=1e-9):
        return self._coeff_margin(z) >= -tol

    def sample(self, rng, count):
        U = rng.uniform(-1.0, 1.0, size=(count, self.inactive.size))
        Z = np.tile(self.base, (count, 1))
        if self.inactive.size:
            Z += U @ self.D[:, self.inactive].T
        return Z

    def certificate(self, A):
        m = A.shape[0]
        D = self.D
        act, inact = self.active, self.inactive
        rhs = D[:, act] @ self.signs if act.size else np.zeros(D.shape[0])
        if inact.size == 0:
            y, _, resid = affine_solve(A.T, rhs)
            if resid > 1e-9 * max(1.0, np.abs(rhs).max(initial=0.0)):
                return None
            return {"y0": y, "ri_margin": math.inf, "margin_is_max": True,
                    "note": "face is a singleton"}
        # vars (y, u_off, t): A^T y - D_off u_off = D_act s_act, |u_off| <= t
        p_off = inact.size
        n = D.shape[0]
        A_eq = np.hstack([A.T, -D[:, inact], np.zeros((n, 1))])
        b_eq = rhs
        E = np.eye(p_off)
        A_ub = np.vstack([
            np.hstack([np.zeros((p_off, m)), E, -np.ones((p_off, 1))]),
            np.hstack([np.zeros((p_off, m)), -E, -np.ones((p_off, 1))]),
        ])
        b_ub = np.zeros(2 * p_off)
        c = np.zeros(m + p_off + 1)
        c[-1] = 1.0
        res = lp_solve(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                       bounds=[(None, None)] * (m + p_off + 1))
        if res.status != "optimal":
            return None
        y = res.x[:m]
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
        self._prox_lip = float(np.linalg.norm(D, 2) ** 2) if D.size else 1.0

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
        squares min_{|u|<=tau} 0.5||x - D u||^2 and prox = x - D u*."""
        x = self.flat(x)
        if tau <= 0:
            return x.copy()
        D = self.D
        p = D.shape[1]
        u = np.zeros(p)
        v = u.copy()
        t = 1.0
        L = max(self._prox_lip, 1e-12)
        last = math.inf
        for _ in range(5000):
            grad = D.T @ (D @ v - x)
            u_next = np.clip(v - grad / L, -tau, tau)
            obj = 0.5 * float(np.sum((x - D @ u_next) ** 2))
            if obj > last:  # momentum overshoot: restart from the last point
                v, t = u, 1.0
                last = math.inf
                continue
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            v = u_next + ((t - 1.0) / t_next) * (u_next - u)
            u, t, last = u_next, t_next, obj
            # fixed point of the projected gradient map = dual optimality
            step = np.clip(u - D.T @ (D @ u - x) / L, -tau, tau) - u
            if float(np.max(np.abs(step))) <= 1e-12 * max(1.0, tau):
                break
        return x - D @ u

    def polar(self, z):
        """inf-norm of the smallest coefficient representation (LP);
        +inf when z is outside the column span of D."""
        z = self.flat(z)
        D = self.D
        n, p = D.shape
        A_eq = np.hstack([D, np.zeros((n, 1))])
        A_ub = np.zeros((2 * p, p + 1))
        A_ub[:p, :p] = np.eye(p)
        A_ub[:p, p] = -1.0
        A_ub[p:, :p] = -np.eye(p)
        A_ub[p:, p] = -1.0
        c = np.zeros(p + 1)
        c[p] = 1.0
        res = lp_solve(c, A_ub=A_ub, b_ub=np.zeros(2 * p), A_eq=A_eq, b_eq=z)
        if res.status != "optimal":
            return math.inf
        return max(0.0, float(res.value))

    def dir_deriv_batch(self, x0, H):
        g0 = self.D.T @ self.flat(x0)
        G = np.atleast_2d(H) @ self.D
        on = _support(g0)
        return G[:, on] @ np.sign(g0[on]) + np.abs(G[:, ~on]).sum(axis=1)

    def dir_subgrad_batch(self, x0, H):
        g0 = self.D.T @ self.flat(x0)
        G = np.atleast_2d(H) @ self.D
        on = _support(g0)
        U = np.where(on, np.sign(g0), np.where(G >= 0.0, 1.0, -1.0))
        return U @ self.D.T

    def face(self, x0):
        return AnalysisL1Face(self.D, self.flat(x0))

    def descent_pieces(self, x0):
        face = self.face(x0)
        k = face.inactive.size
        if 2 ** k > config.VERTEX_CAP:
            raise VertexCapExceeded(f"2^{k} dictionary sign patterns exceed cap")
        combos = np.array(list(itertools.product((1.0, -1.0), repeat=k)))
        if k == 0:
            Z = face.base[None, :]
        else:
            Z = face.base[None, :] + combos @ self.D[:, face.inactive].T
        return np.unique(np.round(Z, 12), axis=0)

    def descent_lift(self, x0):
        # as for l1, on the dictionary coefficients D^T h
        face = self.face(x0)
        D, k = self.D, face.inactive.size
        G_h = np.zeros((1 + 2 * k, self.n))
        G_u = np.zeros((1 + 2 * k, k))
        if face.active.size:
            G_h[0] = D[:, face.active] @ face.signs
        G_u[0, :] = 1.0
        for j, i in enumerate(face.inactive):
            G_h[1 + 2 * j] = D[:, i]
            G_u[1 + 2 * j, j] = -1.0
            G_h[2 + 2 * j] = -D[:, i]
            G_u[2 + 2 * j, j] = -1.0
        return G_h, G_u

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

class SortedFace(SubdiffFace):
    """conv of the signed weight-permutation vertices consistent with x0."""

    def __init__(self, vertices):
        V = np.atleast_2d(np.asarray(vertices, dtype=float))
        self.vertices = V
        self.base = V.mean(axis=0)
        diffs = V - self.base
        self.tangent = range_basis(diffs.T)
        self.param_desc = "convex hull of the consistent signed weight assignments"

    def margin(self, z):
        """Largest minimal barycentric weight over representations of z."""
        V = self.vertices
        N = V.shape[0]
        n = V.shape[1]
        if N == 1:
            resid = np.max(np.abs(np.asarray(z, dtype=float) - V[0]), initial=0.0)
            return math.inf if resid <= 1e-9 else -math.inf
        # variables (lam, m): V^T lam = z, sum lam = 1, lam >= m, max m
        A_eq = np.zeros((n + 1, N + 1))
        A_eq[:n, :N] = V.T
        A_eq[n, :N] = 1.0
        b_eq = np.concatenate([np.asarray(z, dtype=float), [1.0]])
        A_ub = np.zeros((N, N + 1))
        A_ub[:, :N] = -np.eye(N)
        A_ub[:, N] = 1.0
        c = np.zeros(N + 1)
        c[N] = -1.0
        res = lp_solve(c, A_ub=A_ub, b_ub=np.zeros(N), A_eq=A_eq, b_eq=b_eq,
                       bounds=[(0.0, None)] * N + [(None, None)])
        if res.status != "optimal":
            return -math.inf
        return float(-res.value)

    def contains(self, z, tol=1e-9):
        return self.margin(z) >= -tol

    def sample(self, rng, count):
        lam = rng.dirichlet(np.ones(self.vertices.shape[0]), size=count)
        return lam @ self.vertices

    def certificate(self, A):
        m = A.shape[0]
        V = self.vertices
        N = V.shape[0]
        n = V.shape[1]
        if N == 1:
            y, _, resid = affine_solve(A.T, V[0])
            if resid > 1e-9 * max(1.0, np.abs(V).max()):
                return None
            return {"y0": y, "ri_margin": math.inf, "margin_is_max": True,
                    "note": "face is a singleton"}
        # vars (y, lam, t): maximize t, A^T y = V^T lam, 1^T lam = 1,
        # lam_i >= t
        A_eq = np.zeros((n + 1, m + N + 1))
        A_eq[:n, :m] = A.T
        A_eq[:n, m:m + N] = -V.T
        A_eq[n, m:m + N] = 1.0
        b_eq = np.zeros(n + 1)
        b_eq[n] = 1.0
        A_ub = np.zeros((N, m + N + 1))
        A_ub[:, m:m + N] = -np.eye(N)
        A_ub[:, m + N] = 1.0
        b_ub = np.zeros(N)
        c = np.zeros(m + N + 1)
        c[m + N] = -1.0
        bounds = [(None, None)] * m + [(0.0, None)] * N + [(None, None)]
        res = lp_solve(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                       bounds=bounds)
        if res.status != "optimal":
            return None
        y = res.x[:m]
        return {"y0": y, "ri_margin": float(self.margin(A.T @ y)),
                "margin_is_max": True, "note": "max-min-weight LP over the vertex set"}


def _distinct_perms(vals):
    """Distinct permutations of a value multiset (lexicographic)."""
    vals = sorted(vals)
    out = []

    def rec(prefix, remaining):
        if not remaining:
            out.append(tuple(prefix))
            return
        prev = object()
        for i, v in enumerate(remaining):
            if v == prev:
                continue
            prev = v
            rec(prefix + [v], remaining[:i] + remaining[i + 1:])

    rec([], vals)
    return out


def _tie_groups(x, tol=1e-12):
    """Indices of coordinates grouped by equal |x| value, descending."""
    ax = np.abs(np.asarray(x, dtype=float))
    order = np.argsort(-ax, kind="stable")
    groups = []
    start = 0
    while start < ax.size:
        stop = start
        while stop + 1 < ax.size and abs(ax[order[stop + 1]] - ax[order[start]]) <= tol * max(1.0, ax[order[start]]):
            stop += 1
        groups.append(order[start:stop + 1])
        start = stop + 1
    return groups


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

    @classmethod
    def from_spec(cls, spec):
        w = spec_array(spec, "w", 1, size=spec_int(spec, "n"))
        return construct(cls, "w", w)

    def value_batch(self, X):
        return np.sort(np.abs(X), axis=-1)[..., ::-1] @ self.w

    def prox(self, x, tau):
        """Stack-based pool-adjacent-violators routine on the sorted
        magnitudes (isotonic regression of |x|_sorted - tau*w clipped at 0)."""
        x = self.flat(x)
        lam = tau * self.w
        sign = np.sign(x)
        ax = np.abs(x)
        order = np.argsort(-ax, kind="stable")
        y = ax[order] - lam
        n = y.size
        # merge blocks whose averages violate the nonincreasing constraint
        starts = np.empty(n, dtype=int)
        ends = np.empty(n, dtype=int)
        sums = np.empty(n)
        k = 0
        for i in range(n):
            starts[k] = i
            ends[k] = i
            sums[k] = y[i]
            k += 1
            while k > 1 and sums[k - 2] / (ends[k - 2] - starts[k - 2] + 1) <= \
                    sums[k - 1] / (ends[k - 1] - starts[k - 1] + 1):
                sums[k - 2] += sums[k - 1]
                ends[k - 2] = ends[k - 1]
                k -= 1
        z = np.empty(n)
        for j in range(k):
            avg = max(sums[j] / (ends[j] - starts[j] + 1), 0.0)
            z[starts[j]:ends[j] + 1] = avg
        out = np.empty(n)
        out[order] = z
        return sign * out

    def polar(self, z):
        az = np.sort(np.abs(self.flat(z)))[::-1]
        cum = np.cumsum(az)
        if self._cumw[-1] <= 0.0:
            return 0.0 if cum[-1] <= 0.0 else math.inf
        valid = self._cumw > 0.0
        if np.any(~valid) and np.any(cum[~valid] > 0.0):
            return math.inf
        ratios = cum[valid] / self._cumw[valid]
        return float(max(np.max(ratios), 0.0))

    def dir_deriv_batch(self, x0, H):
        x0 = self.flat(x0)
        H = np.atleast_2d(np.asarray(H, dtype=float))
        total = np.zeros(H.shape[0])
        pos = 0
        for grp in _tie_groups(x0):
            wblock = self.w[pos:pos + grp.size]
            if np.abs(x0[grp[0]]) > _SUPP_TOL:
                d = H[:, grp] * np.sign(x0[grp])
            else:
                d = np.abs(H[:, grp])
            total += np.sort(d, axis=1)[:, ::-1] @ wblock
            pos += grp.size
        return total

    def dir_subgrad_batch(self, x0, H):
        """The maximizing vertex of ∂J(x0) for each row: on each tie group
        of |x0| the weights go to the coordinates in decreasing order of
        sign(x0) h (of |h| on the zero group, signed by h)."""
        x0 = self.flat(x0)
        H = np.atleast_2d(np.asarray(H, dtype=float))
        w = np.round(self.w, 14)  # the vertex coordinates of ``_vertices``
        G = np.zeros_like(H)
        rows = np.arange(H.shape[0])[:, None]
        pos = 0
        for grp in _tie_groups(x0):
            if np.abs(x0[grp[0]]) > _SUPP_TOL:
                sign = np.sign(x0[grp])
            else:
                sign = np.where(H[:, grp] >= 0.0, 1.0, -1.0)
            order = np.argsort(-(H[:, grp] * sign), axis=1, kind="stable")
            W = np.empty((H.shape[0], grp.size))
            W[rows, order] = w[pos:pos + grp.size]
            G[:, grp] = W * sign
            pos += grp.size
        return G

    def _vertices(self, x0):
        """The extreme subgradients consistent with x0 (deduplicated)."""
        x0 = self.flat(x0)
        groups = _tie_groups(x0)
        count = 1
        pos = 0
        for grp in groups:
            wblock = tuple(np.round(self.w[pos:pos + grp.size], 14))
            perms = math.factorial(grp.size)
            # distinct permutations of the weight multiset
            for v in set(wblock):
                perms //= math.factorial(wblock.count(v))
            count *= perms
            if np.abs(x0[grp[0]]) <= _SUPP_TOL:
                nz = sum(1 for v in wblock if v > 0)
                count *= 2 ** nz
            if count > config.VERTEX_CAP:
                raise VertexCapExceeded(
                    f"face vertex count exceeds cap {config.VERTEX_CAP}")
            pos += grp.size
        per_group = []
        pos = 0
        for grp in groups:
            wblock = self.w[pos:pos + grp.size]
            opts = _distinct_perms([float(v) for v in np.round(wblock, 14)])
            assignments = []
            zero_group = np.abs(x0[grp[0]]) <= _SUPP_TOL
            for perm in opts:
                if zero_group:
                    nz = [j for j, v in enumerate(perm) if v > 0]
                    for signs in itertools.product((1.0, -1.0), repeat=len(nz)):
                        vals = list(perm)
                        for j, s in zip(nz, signs):
                            vals[j] = s * vals[j]
                        assignments.append(vals)
                else:
                    s = np.sign(x0[grp])
                    assignments.append([si * v for si, v in zip(s, perm)])
            per_group.append((grp, assignments))
            pos += grp.size
        verts = []
        for combo in itertools.product(*[a for _, a in per_group]):
            z = np.zeros(self.n)
            for (grp, _), vals in zip(per_group, combo):
                z[grp] = vals
            verts.append(z)
        return np.unique(np.round(np.array(verts), 14), axis=0)

    def face(self, x0):
        return SortedFace(self._vertices(x0))

    def descent_pieces(self, x0):
        return self._vertices(x0)

    def descent_lift(self, x0):
        V = self._vertices(x0)
        return V, np.zeros((V.shape[0], 0))

    def lipschitz(self):
        return float(np.linalg.norm(self.w))

    def primal_lp(self, A, b0):
        m, n = A.shape
        d = self.w - np.concatenate([self.w[1:], [0.0]])
        ks = [k for k in range(n) if d[k] > 1e-15]  # k is 0-based: top (k+1) sum
        K = len(ks)
        # variables: x (n), v (n), t (K), xi (K*n)
        nv = 2 * n + K + K * n
        c = np.zeros(nv)
        for j, k in enumerate(ks):
            c[2 * n + j] = d[k] * (k + 1)
            c[2 * n + K + j * n:2 * n + K + (j + 1) * n] = d[k]
        rows = []
        rhs = []
        # |x| <= v
        for i in range(n):
            r = np.zeros(nv)
            r[i] = 1.0
            r[n + i] = -1.0
            rows.append(r)
            rhs.append(0.0)
            r = np.zeros(nv)
            r[i] = -1.0
            r[n + i] = -1.0
            rows.append(r)
            rhs.append(0.0)
        # v_i - t_j <= xi_{j,i}
        for j in range(K):
            for i in range(n):
                r = np.zeros(nv)
                r[n + i] = 1.0
                r[2 * n + j] = -1.0
                r[2 * n + K + j * n + i] = -1.0
                rows.append(r)
                rhs.append(0.0)
        A_eq = np.zeros((m, nv))
        A_eq[:, :n] = A
        bounds = ([(None, None)] * n + [(0.0, None)] * n + [(None, None)] * K
                  + [(0.0, None)] * (K * n))
        lp = {"c": c, "A_ub": np.array(rows), "b_ub": np.array(rhs),
              "A_eq": A_eq, "b_eq": b0, "bounds": bounds}
        return lp, lambda v: v[:n].copy()


# ---------------------------------------------------------------------------
# group l1/l2
# ---------------------------------------------------------------------------

class GroupFace(SubdiffFace):
    def __init__(self, groups, x0):
        x0 = np.asarray(x0, dtype=float)
        self.groups = groups
        self.sup = []
        self.zero = []
        base = np.zeros(x0.size)
        for gi, idx in enumerate(groups):
            blk = x0[idx]
            nb = np.linalg.norm(blk)
            if nb > _SUPP_TOL * max(1.0, np.max(np.abs(x0))):
                self.sup.append(gi)
                base[idx] = blk / nb
            else:
                self.zero.append(gi)
        self.base = base
        zero_coords = np.concatenate([groups[gi] for gi in self.zero]) \
            if self.zero else np.array([], dtype=int)
        self.zero_coords = zero_coords
        self.tangent = np.eye(x0.size)[:, zero_coords]
        self.param_desc = "Euclidean balls on the zero blocks"

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

    def contains(self, z, tol=1e-9):
        return self.margin(z) >= -tol

    def sample(self, rng, count):
        Z = np.tile(self.base, (count, 1))
        for gi in self.zero:
            idx = self.groups[gi]
            dirs = rng.standard_normal((count, idx.size))
            dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-30)
            radii = rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / idx.size)
            Z[:, idx] = dirs * radii
        return Z

    def certificate(self, A):
        m = A.shape[0]
        sup_coords = np.concatenate([self.groups[gi] for gi in self.sup]) \
            if self.sup else np.array([], dtype=int)
        C = A[:, sup_coords].T if sup_coords.size else np.zeros((0, m))
        target = self.base[sup_coords]
        y_p, N, resid = affine_solve(C, target)
        if resid > 1e-8 * max(1.0, np.abs(target).max(initial=0.0)):
            return None
        if not self.zero:
            return {"y0": y_p, "ri_margin": math.inf, "margin_is_max": True,
                    "note": "face is a singleton"}
        zero_groups = [self.groups[gi] for gi in self.zero]

        def worst_norm(y):
            z = A.T @ y
            return max(float(np.linalg.norm(z[idx])) for idx in zero_groups)

        def sg(y):
            z = A.T @ y
            idx = max(zero_groups, key=lambda g: np.linalg.norm(z[g]))
            zi = z[idx]
            nz = np.linalg.norm(zi)
            g = np.zeros(z.size)
            if nz > 1e-15:
                g[idx] = zi / nz
            return A @ g

        y, val = subgradient_min(worst_norm, sg, y_p, N)
        return {"y0": y, "ri_margin": float(self.margin(A.T @ y)),
                "margin_is_max": False,
                "note": "off-block norm minimized by subgradient descent (heuristic search)"}


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

    def prox(self, x, tau):
        x = self.flat(x).copy()
        for idx in self.groups:
            nb = np.linalg.norm(x[idx])
            x[idx] *= max(1.0 - tau / nb, 0.0) if nb > 0 else 0.0
        return x

    def polar(self, z):
        return float(np.max(self._block_norms(self.flat(z)), initial=0.0))

    def dir_deriv_batch(self, x0, H):
        x0 = self.flat(x0)
        H = np.atleast_2d(np.asarray(H, dtype=float))
        total = np.zeros(H.shape[0])
        scale = max(1.0, np.max(np.abs(x0), initial=0.0))
        for idx in self.groups:
            nb = np.linalg.norm(x0[idx])
            if nb > _SUPP_TOL * scale:
                total += H[:, idx] @ (x0[idx] / nb)
            else:
                total += np.linalg.norm(H[:, idx], axis=1)
        return total

    def face(self, x0):
        return GroupFace(self.groups, self.flat(x0))

    def dir_subgrad_batch(self, x0, H):
        x0 = self.flat(x0)
        H = np.atleast_2d(np.asarray(H, dtype=float))
        G = np.zeros_like(H)
        scale = max(1.0, np.max(np.abs(x0), initial=0.0))
        for idx in self.groups:
            nb = np.linalg.norm(x0[idx])
            if nb > _SUPP_TOL * scale:
                G[:, idx] = x0[idx] / nb
            else:
                nh = np.linalg.norm(H[:, idx], axis=1, keepdims=True)
                G[:, idx] = np.divide(H[:, idx], nh, where=nh > 1e-15,
                                      out=np.zeros((H.shape[0], idx.size)))
        return G

    def lipschitz(self):
        return math.sqrt(len(self.groups))

    def polar_ball_project(self, z):
        z = z.copy()
        for idx in self.groups:
            nb = np.linalg.norm(z[idx])
            if nb > 1.0:
                z[idx] /= nb
        return z


# ---------------------------------------------------------------------------
# nonnegative l1
# ---------------------------------------------------------------------------

class NonnegFace(SubdiffFace):
    """{z : z_I = 1, z_{I^c} <= 1} at a nonnegative x0 with support I."""

    def __init__(self, x0):
        x0 = np.asarray(x0, dtype=float)
        self.support = np.where(_support(x0))[0]
        self.off = np.where(~_support(x0))[0]
        base = np.zeros(x0.size)
        base[self.support] = 1.0
        self.base = base
        self.tangent = np.eye(x0.size)[:, self.off]
        self.param_desc = "nonpositive shifts on the off-support coordinates"

    def margin(self, z):
        z = np.asarray(z, dtype=float)
        if self.support.size and np.max(np.abs(z[self.support] - 1.0)) > 1e-9:
            return -math.inf
        if self.off.size == 0:
            return math.inf
        return float(np.min(1.0 - z[self.off]))

    def contains(self, z, tol=1e-9):
        return self.margin(z) >= -tol

    def sample(self, rng, count):
        Z = np.tile(self.base, (count, 1))
        Z[:, self.off] = 1.0 - rng.exponential(1.0, size=(count, self.off.size))
        return Z

    def certificate(self, A):
        return _orthant_certificate(self, A, two_sided=False)


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
        off = ~_support(x0)
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
        return NonnegFace(x0)

    def domain_tangent_cone(self, x0):
        x0 = self.flat(x0)
        off = np.where(~_support(x0))[0]
        G = -np.eye(self.n)[off]
        anchor = np.ones(self.n)
        return ConeSpec.from_rows(G, anchor=anchor,
                                  note="orthant tangent cone at x0")

    def critical_cone(self, x0):
        x0 = self.flat(x0)
        off = np.where(~_support(x0))[0]
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
