"""Matrix gauges: nuclear norm and the PSD-cone trace gauge.

Matrix variables are flattened row-major; every engine-facing method speaks
vectors of length p*q (or n*n) and reshapes internally.
"""

import math

import numpy as np
import scipy.linalg

from .. import config
from ..cones import (CallableFn, ConeSpec, affine_solve, matrix_rank,
                     subgradient_min)
from .base import Gauge, SubdiffFace, construct, spec_array, spec_int

__all__ = ["NuclearGauge", "SdpTraceGauge", "sym_basis"]


def sym_basis(n):
    """Orthonormal basis of the symmetric matrices inside vec-space.

    Returns an (n*n, n*(n+1)/2) array whose columns are vec(E_ii) and
    vec((E_ij + E_ji)/sqrt(2)) for i < j.
    """
    cols = []
    for i in range(n):
        E = np.zeros((n, n))
        E[i, i] = 1.0
        cols.append(E.ravel())
    s = 1.0 / math.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            E = np.zeros((n, n))
            E[i, j] = s
            E[j, i] = s
            cols.append(E.ravel())
    return np.array(cols).T


def _sym_mat(v, n):
    M = np.asarray(v, dtype=float).reshape(n, n)
    return 0.5 * (M + M.T)


def _low_rank_draw(rng, p, q, r, symmetric):
    """Random rank-r matrix (flattened) with singular values in [0.5, 1.5];
    PSD with shared factors when ``symmetric``."""
    U = np.linalg.qr(rng.standard_normal((p, max(r, 1))))[0][:, :r]
    if symmetric:
        V = U
    else:
        V = np.linalg.qr(rng.standard_normal((q, max(r, 1))))[0][:, :r]
    s = rng.uniform(0.5, 1.5, size=r)
    x0 = (U * s) @ V.T if r else np.zeros((p, q))
    return x0.ravel()


def _reduced_block_test(A, M0, G, H, scale):
    """Tail of ``tangent_space_test`` for both matrix kinds: with x0 = G M0
    H^T and M0 positive definite the tangent cone at x0 is the subspace
    {G S H^T : S symmetric}, and uniqueness is injectivity of A on it."""
    if np.linalg.eigvalsh(0.5 * (M0 + M0.T))[0] <= 1e-7 * scale:
        return None, "reduced block is singular; tangent cone is not a subspace"
    B = np.kron(G, H) @ sym_basis(G.shape[1])
    d = B.shape[1]
    return matrix_rank(A @ B) == d, f"rank test on the {d}-dimensional tangent space"


class NuclearFace(SubdiffFace):
    """{U1 V1^T + U2 W V2^T : sigma_1(W) <= 1} from the SVD blocks at X0."""

    def __init__(self, U1, V1, U2, V2):
        self.U1, self.V1, self.U2, self.V2 = U1, V1, U2, V2
        self.p, self.q = U1.shape[0], V1.shape[0]
        self.base = (U1 @ V1.T).ravel()
        # vec(U2 W V2^T) = kron(U2, V2) vec(W) for row-major vec
        self.tangent = np.kron(U2, V2)
        self.param_desc = "spectral-norm ball on the off-rank block"

    def _block(self, z):
        Z = np.asarray(z, dtype=float).reshape(self.p, self.q)
        W = self.U2.T @ Z @ self.V2
        model = self.U1 @ self.V1.T + self.U2 @ W @ self.V2.T
        resid = float(np.linalg.norm(Z - model))
        return W, resid

    def margin(self, z):
        W, resid = self._block(z)
        if resid > 1e-9:
            return -math.inf
        if W.size == 0:
            return math.inf
        return 1.0 - float(np.linalg.norm(W, 2))

    def contains(self, z, tol=1e-9):
        return self.margin(z) >= -tol

    def sample(self, rng, count):
        out = np.empty((count, self.p * self.q))
        k1, k2 = self.U2.shape[1], self.V2.shape[1]
        for i in range(count):
            if k1 and k2:
                G = rng.standard_normal((k1, k2))
                top = np.linalg.norm(G, 2)
                if top > 0:
                    G *= rng.uniform(0.0, 1.0) / top
                out[i] = self.base + (self.U2 @ G @ self.V2.T).ravel()
            else:
                out[i] = self.base
        return out

    def certificate(self, A):
        m = A.shape[0]
        p, q = self.p, self.q
        U1, V1, U2, V2 = self.U1, self.V1, self.U2, self.V2
        r = U1.shape[1]
        rows, rhs = [], []
        for i in range(r):
            for j in range(r):
                rows.append(A @ np.outer(U1[:, i], V1[:, j]).ravel())
                rhs.append(1.0 if i == j else 0.0)
        for i in range(r):
            for j in range(V2.shape[1]):
                rows.append(A @ np.outer(U1[:, i], V2[:, j]).ravel())
                rhs.append(0.0)
        for i in range(U2.shape[1]):
            for j in range(r):
                rows.append(A @ np.outer(U2[:, i], V1[:, j]).ravel())
                rhs.append(0.0)
        y_p, N, resid = affine_solve(np.array(rows).reshape(len(rows), m),
                                     np.array(rhs))
        if resid > 1e-8:
            return None
        if U2.shape[1] == 0 or V2.shape[1] == 0:
            return {"y0": y_p, "ri_margin": math.inf, "margin_is_max": True,
                    "note": "face is a singleton"}

        def top_sv(y):
            Z = (A.T @ y).reshape(p, q)
            return float(np.linalg.norm(U2.T @ Z @ V2, 2))

        def sg(y):
            Z = (A.T @ y).reshape(p, q)
            W = U2.T @ Z @ V2
            Uw, _, Vwt = np.linalg.svd(W)
            M = np.outer(U2 @ Uw[:, 0], V2 @ Vwt[0])
            return A @ M.ravel()

        y, val = subgradient_min(top_sv, sg, y_p, N)
        return {"y0": y, "ri_margin": float(self.margin(A.T @ y)),
                "margin_is_max": False,
                "note": "spectral norm of the free block minimized by "
                        "subgradient descent (heuristic search)"}


class NuclearGauge(Gauge):
    kind = "nuclear"
    is_polyhedral = False
    size_field = "shape"

    def __init__(self, shape):
        p, q = int(shape[0]), int(shape[1])
        super().__init__(p * q)
        self.shape = (p, q)

    @classmethod
    def from_spec(cls, spec):
        shape = spec.get("shape")
        if (not isinstance(shape, (list, tuple)) or len(shape) != 2
                or not all(isinstance(s, int) and not isinstance(s, bool)
                           and s > 0 for s in shape)):
            raise ValueError("shape: expected [p, q] with positive integers")
        return cls(tuple(shape))

    def draw_x0(self, rng, sparsity=1, rank=1):
        return _low_rank_draw(rng, *self.shape, rank, symmetric=False)

    def _mat(self, x):
        return self.flat(x).reshape(self.shape)

    def _blocks(self, x0):
        X = self._mat(x0)
        U, s, Vt = np.linalg.svd(X)
        smax = s[0] if s.size else 0.0
        r = int(np.sum(s > config.RANK_TOL * max(1.0, smax)))
        return U[:, :r], Vt[:r].T, U[:, r:], Vt[r:].T

    def value(self, x):
        return float(np.linalg.svd(self._mat(x), compute_uv=False).sum())

    def value_batch(self, X):
        X = np.atleast_2d(X)
        M = X.reshape(X.shape[0], *self.shape)
        return np.linalg.svd(M, compute_uv=False).sum(axis=1)

    def prox(self, x, tau):
        U, s, Vt = np.linalg.svd(self._mat(x), full_matrices=False)
        return (U @ np.diag(np.maximum(s - tau, 0.0)) @ Vt).ravel()

    def polar(self, z):
        s = np.linalg.svd(self._mat(z), compute_uv=False)
        return float(s[0]) if s.size else 0.0

    def dir_deriv(self, x0, h):
        U1, V1, U2, V2 = self._blocks(x0)
        H = self._mat(h)
        lin = float(np.trace(U1.T @ H @ V1))
        tail = float(np.linalg.svd(U2.T @ H @ V2, compute_uv=False).sum()) \
            if U2.shape[1] and V2.shape[1] else 0.0
        return lin + tail

    def dir_deriv_batch(self, x0, H):
        U1, V1, U2, V2 = self._blocks(x0)
        H = np.atleast_2d(np.asarray(H, dtype=float))
        M = H.reshape(H.shape[0], *self.shape)
        lin = np.einsum("kij,ij->k", M, U1 @ V1.T)
        if U2.shape[1] and V2.shape[1]:
            tails = np.linalg.svd(
                np.einsum("ri,kij,jc->krc", U2.T, M, V2),
                compute_uv=False).sum(axis=1)
        else:
            tails = 0.0
        return lin + tails

    def face(self, x0):
        return NuclearFace(*self._blocks(x0))

    def _dir_subgrad(self, blocks, h):
        """A subgradient of h -> J'(x0; h) at h, from x0's SVD blocks."""
        U1, V1, U2, V2 = blocks
        B = (U1 @ V1.T).ravel()
        if U2.shape[1] and V2.shape[1]:
            Uw, _, Vwt = np.linalg.svd(U2.T @ self._mat(h) @ V2)
            # full polar factor: steepest pieces of the nuclear tail
            k = min(Uw.shape[1], Vwt.shape[0])
            return B + (U2 @ (Uw[:, :k] @ Vwt[:k]) @ V2.T).ravel()
        return B

    def critical_cone(self, x0):
        x0 = self.flat(x0)
        blocks = self._blocks(x0)
        violation, violation_batch = self._descent_violation(x0)

        def violation_subgrad(h):
            if self.dir_deriv(x0, h) <= 0.0:
                return np.zeros(self.n)
            return self._dir_subgrad(blocks, h)

        anchor = -x0 if self.value(x0) > 0 else None
        return ConeSpec.from_violation(self.n, violation, violation_batch,
                                       violation_subgrad, anchor=anchor,
                                       note="nuclear descent cone (non-polyhedral)")

    def dir_probe(self, x0):
        x0 = np.array(self.flat(x0))
        blocks = self._blocks(x0)
        return CallableFn(lambda h: self.dir_deriv(x0, h),
                          lambda H: self.dir_deriv_batch(x0, H),
                          lambda h: self._dir_subgrad(blocks, h))

    def lipschitz(self):
        return math.sqrt(min(self.shape))

    def polar_ball_project(self, z):
        U, s, Vt = np.linalg.svd(z.reshape(self.shape), full_matrices=False)
        return (U @ np.diag(np.minimum(s, 1.0)) @ Vt).ravel()

    def tangent_space_test(self, A, x0, y0):
        """At z0 = A^T y0 the solution set lies in {U1 S V1^T : S sym PSD},
        built from the singular blocks of z0 at level one."""
        p, q = self.shape
        Z = (A.T @ y0).reshape(p, q)
        U, s, Vt = np.linalg.svd(Z)
        if s.size and s[0] > 1.0 + 1e-7:
            return None, "certificate is not dual feasible"
        lev = s >= 1.0 - 1e-7
        r = int(np.sum(lev))
        if r == 0:
            # z0 strictly inside the polar ball: J(x)=0 on the solution set
            return (True, "certificate strictly inside the polar ball") \
                if matrix_rank(A) == p * q else (None, "flat-gauge case")
        U1, V1 = U[:, :r], Vt[:r].T
        X0 = x0.reshape(p, q)
        M0 = U1.T @ X0 @ V1
        resid = float(np.linalg.norm(X0 - U1 @ M0 @ V1.T))
        scale = max(1.0, float(np.linalg.norm(X0)))
        if resid > 1e-7 * scale or np.linalg.norm(M0 - M0.T) > 1e-7 * scale:
            return None, "x0 is not aligned with the certificate's blocks"
        return _reduced_block_test(A, M0, U1, V1, scale)


class SdpFace(SubdiffFace):
    """{C + E M E^T : M <= 0} with E spanning Ker X0 and U its range.

    Points are read through their symmetric part: dom J lies in the
    symmetric matrices, so antisymmetric parts are normal to it.
    """

    def __init__(self, C, E, U):
        self.C = C
        self.E = E
        self.U = U
        n = C.shape[0]
        self.nmat = n
        d = E.shape[1]
        self.base = (C - E @ E.T).ravel()
        cols = []
        for i in range(d):
            M = np.outer(E[:, i], E[:, i])
            cols.append(M.ravel())
        s = 1.0 / math.sqrt(2.0)
        for i in range(d):
            for j in range(i + 1, d):
                M = s * (np.outer(E[:, i], E[:, j]) + np.outer(E[:, j], E[:, i]))
                cols.append(M.ravel())
        self.tangent = np.array(cols).T if cols else np.zeros((n * n, 0))
        self.param_desc = "negative-semidefinite block on Ker X0"

    def _block(self, z):
        Z = _sym_mat(z, self.nmat)
        M = self.E.T @ (Z - self.C) @ self.E
        model = self.C + self.E @ M @ self.E.T
        resid = float(np.linalg.norm(Z - model))
        return M, resid

    def margin(self, z):
        M, resid = self._block(z)
        if resid > 1e-9:
            return -math.inf
        if M.size == 0:
            return math.inf
        return float(-np.max(np.linalg.eigvalsh(M)))

    def contains(self, z, tol=1e-9):
        return self.margin(z) >= -tol

    def sample(self, rng, count):
        d = self.E.shape[1]
        n = self.nmat
        out = np.empty((count, n * n))
        for i in range(count):
            if d:
                G = rng.standard_normal((d, d))
                M = -(G @ G.T) / d
                out[i] = (self.C + self.E @ M @ self.E.T).ravel()
            else:
                out[i] = self.C.ravel()
        return out

    def certificate(self, A):
        m = A.shape[0]
        nm, E, U, C = self.nmat, self.E, self.U, self.C
        rows, rhs = [], []
        for i in range(U.shape[1]):
            for j in range(i, U.shape[1]):
                M = 0.5 * (np.outer(U[:, i], U[:, j]) + np.outer(U[:, j], U[:, i]))
                rows.append(A @ M.ravel())
                rhs.append(float(np.tensordot(M, C)))
        for i in range(U.shape[1]):
            for j in range(E.shape[1]):
                M = 0.5 * (np.outer(U[:, i], E[:, j]) + np.outer(E[:, j], U[:, i]))
                rows.append(A @ M.ravel())
                rhs.append(float(np.tensordot(M, C)))
        y_p, N, resid = affine_solve(np.array(rows).reshape(len(rows), m),
                                     np.array(rhs))
        if resid > 1e-8 * max(1.0, float(np.abs(C).max())):
            return None
        if E.shape[1] == 0:
            return {"y0": y_p, "ri_margin": math.inf, "margin_is_max": True,
                    "note": "face is a singleton"}

        def lam_max(y):
            Z = _sym_mat(A.T @ y, nm)
            return float(np.linalg.eigvalsh(E.T @ (Z - C) @ E)[-1])

        def sg(y):
            Z = _sym_mat(A.T @ y, nm)
            wv, Vv = np.linalg.eigh(E.T @ (Z - C) @ E)
            v = E @ Vv[:, -1]
            return A @ np.outer(v, v).ravel()

        y, val = subgradient_min(lam_max, sg, y_p, N)
        return {"y0": y, "ri_margin": float(self.margin(A.T @ y)),
                "margin_is_max": False,
                "note": "kernel-block eigenvalue minimized by subgradient "
                        "descent (heuristic search)"}


class SdpTraceGauge(Gauge):
    """J(X) = <C, X> + indicator of the PSD cone (conic kind)."""

    kind = "sdp_trace"
    is_polyhedral = False
    is_conic = True
    param_field = "C"

    def __init__(self, C):
        C = np.atleast_2d(np.asarray(C, dtype=float))
        if C.shape[0] != C.shape[1]:
            raise ValueError("C must be square")
        if np.max(np.abs(C - C.T)) > 1e-10 * max(1.0, np.max(np.abs(C))):
            raise ValueError("C must be symmetric")
        w = np.linalg.eigvalsh(C)
        if w[0] < -1e-10 * max(1.0, abs(w[-1])):
            raise ValueError("C must be positive semidefinite")
        super().__init__(C.shape[0] ** 2)
        self.C = 0.5 * (C + C.T)
        self.nmat = C.shape[0]

    @classmethod
    def from_spec(cls, spec):
        """``n`` is the side of C."""
        n = spec_int(spec, "n")
        C = spec_array(spec, "C", 2)
        if C.shape != (n, n):
            raise ValueError(f"C: expected shape {n} x {n}, "
                             f"got {C.shape[0]} x {C.shape[1]}")
        return construct(cls, "C", C)

    @classmethod
    def spec_n(cls, dim):
        return math.isqrt(dim)

    def draw_x0(self, rng, sparsity=1, rank=1):
        return _low_rank_draw(rng, self.nmat, self.nmat, rank, symmetric=True)

    def _mat(self, x):
        X = self.flat(x).reshape(self.nmat, self.nmat)
        return 0.5 * (X + X.T)

    def _kernel(self, x0):
        X = self._mat(x0)
        w, V = np.linalg.eigh(X)
        scale = max(1.0, float(np.max(np.abs(w))))
        if np.min(w) < -1e-9 * scale:
            raise ValueError("x0 must be positive semidefinite")
        return V[:, w <= config.RANK_TOL * scale]

    def _asym(self, X):
        return float(np.max(np.abs(X - X.T)))

    def value(self, x):
        X = self.flat(x).reshape(self.nmat, self.nmat)
        if self._asym(X) > 1e-9 * max(1.0, float(np.max(np.abs(X)))):
            return math.inf  # the domain holds symmetric PSD matrices only
        X = 0.5 * (X + X.T)
        w = np.linalg.eigvalsh(X)
        if w[0] < -1e-9 * max(1.0, abs(w[-1])):
            return math.inf
        return float(np.tensordot(self.C, X))

    def domain_residual(self, x):
        X = self.flat(x).reshape(self.nmat, self.nmat)
        w = np.linalg.eigvalsh(0.5 * (X + X.T))
        return float(max(0.0, -w[0], self._asym(X)))

    def value_batch(self, X):
        X = np.atleast_2d(X)
        n = self.nmat
        M = X.reshape(X.shape[0], n, n)
        asym = np.abs(M - np.transpose(M, (0, 2, 1))).max(axis=(1, 2))
        M = 0.5 * (M + np.transpose(M, (0, 2, 1)))
        w = np.linalg.eigvalsh(M)
        vals = np.tensordot(M, self.C, axes=([1, 2], [0, 1]))
        scale = np.maximum(1.0, np.abs(w[:, -1]))
        bad = (w[:, 0] < -1e-9 * scale) | (asym > 1e-9 * np.maximum(
            1.0, np.abs(M).max(axis=(1, 2))))
        return np.where(bad, math.inf, vals)

    def prox(self, x, tau):
        X = self._mat(x) - tau * self.C
        w, V = np.linalg.eigh(X)
        return (V @ np.diag(np.maximum(w, 0.0)) @ V.T).ravel()

    def polar(self, z):
        """max(0, largest generalized eigenvalue of (Z, C)).

        With C positive definite this is an exact generalized eigensolve;
        otherwise inf{a >= 0 : a C - Z is PSD} by bisection (+inf when no
        multiple of C dominates Z).
        """
        Z = self._mat(z)
        C = self.C
        wC = np.linalg.eigvalsh(C)
        scale = max(1.0, float(np.max(np.abs(Z))), float(np.max(np.abs(C))))
        if wC[0] > 1e-10 * max(1.0, wC[-1]):
            lam = scipy.linalg.eigh(Z, C, eigvals_only=True)[-1]
            return float(max(0.0, lam))

        def feasible(a):
            return float(np.min(np.linalg.eigvalsh(a * C - Z))) >= -1e-12 * scale

        if feasible(0.0):
            return 0.0
        hi = 1.0
        while not feasible(hi):
            hi *= 2.0
            if hi > 1e14 * scale:
                return math.inf
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                hi = mid
            else:
                lo = mid
        return float(hi)

    def dir_deriv(self, x0, h):
        E = self._kernel(x0)
        H = self._mat(h)
        if E.shape[1]:
            w = np.linalg.eigvalsh(E.T @ H @ E)
            if w[0] < -1e-9 * max(1.0, float(np.max(np.abs(w)))):
                return math.inf
        return float(np.tensordot(self.C, H))

    def dir_deriv_batch(self, x0, H):
        E = self._kernel(x0)
        H = np.atleast_2d(np.asarray(H, dtype=float))
        n = self.nmat
        M = H.reshape(H.shape[0], n, n)
        M = 0.5 * (M + np.transpose(M, (0, 2, 1)))
        vals = np.tensordot(M, self.C, axes=([1, 2], [0, 1]))
        if E.shape[1]:
            B = np.einsum("ri,kij,jc->krc", E.T, M, E)
            w = np.linalg.eigvalsh(B)
            scale = np.maximum(1.0, np.max(np.abs(w), axis=1))
            vals = np.where(w[:, 0] < -1e-9 * scale, math.inf, vals)
        return vals

    def face(self, x0):
        w, V = np.linalg.eigh(self._mat(x0))
        U = V[:, w > config.RANK_TOL * max(1.0, w.max(initial=0.0))]
        return SdpFace(self.C, self._kernel(x0), U)

    def domain_tangent_cone(self, x0):
        E = self._kernel(x0)
        n2 = self.n
        nm = self.nmat

        def violation(h):
            if not E.shape[1]:
                return 0.0
            H = self._mat(h)
            w = np.linalg.eigvalsh(E.T @ H @ E)
            return float(max(0.0, -w[0]))

        def violation_batch(H):
            H = np.atleast_2d(np.asarray(H, dtype=float))
            if not E.shape[1]:
                return np.zeros(H.shape[0])
            M = H.reshape(H.shape[0], nm, nm)
            M = 0.5 * (M + np.transpose(M, (0, 2, 1)))
            B = np.einsum("ri,kij,jc->krc", E.T, M, E)
            w = np.linalg.eigvalsh(B)
            return np.maximum(-w[:, 0], 0.0)

        def violation_subgrad(h):
            if not E.shape[1]:
                return np.zeros(n2)
            H = self._mat(h)
            w, V = np.linalg.eigh(E.T @ H @ E)
            if w[0] >= 0.0:
                return np.zeros(n2)
            v = E @ V[:, 0]
            return -np.outer(v, v).ravel()

        anchor = np.eye(nm).ravel()
        return ConeSpec.from_violation(n2, violation, violation_batch,
                                       violation_subgrad, anchor=anchor,
                                       note="PSD tangent cone at x0")

    def dir_probe(self, x0):
        Cflat = self.C.ravel()
        nm = self.nmat

        def sym_dot(H):
            H = np.atleast_2d(np.asarray(H, dtype=float))
            M = H.reshape(H.shape[0], nm, nm)
            return np.tensordot(M, self.C, axes=([1, 2], [0, 1]))

        return CallableFn(lambda h: float(Cflat @ np.asarray(h, dtype=float)),
                          sym_dot, lambda h: Cflat.copy())

    def critical_cone(self, x0):
        x0 = self.flat(x0)
        tangent = self.domain_tangent_cone(x0)
        Cflat = self.C.ravel()
        n2 = self.n

        def violation(h):
            lin = max(0.0, float(Cflat @ np.asarray(h, dtype=float)))
            return max(lin, tangent.violation(h))

        def violation_batch(H):
            H = np.atleast_2d(np.asarray(H, dtype=float))
            lin = np.maximum(H @ Cflat, 0.0)
            return np.maximum(lin, tangent.violation_batch(H))

        def violation_subgrad(h):
            lin = float(Cflat @ np.asarray(h, dtype=float))
            tv = tangent.violation(h)
            if max(lin, tv) <= 0.0:
                return np.zeros(n2)
            if lin >= tv:
                return Cflat.copy()
            return tangent.violation_subgrad(h)

        anchor = -x0 if self.value(x0) > 0 else None
        return ConeSpec.from_violation(n2, violation, violation_batch,
                                       violation_subgrad, anchor=anchor,
                                       note="PSD-restricted descent cone")

    def lipschitz(self):
        return float(np.linalg.norm(self.C))

    def polar_ball_project(self, z):
        R = self.C - _sym_mat(z, self.nmat)
        w, V = np.linalg.eigh(R)
        Rp = V @ np.diag(np.maximum(w, 0.0)) @ V.T
        return (self.C - Rp).ravel()

    def coordinate_basis(self):
        return sym_basis(self.nmat)

    def interior_feasibility(self, A, b0):
        """Probe for a strictly positive definite feasible point (projected
        supergradient ascent on the smallest eigenvalue).  Heuristic: success
        is a certificate, failure is not."""
        nm = self.nmat
        S = sym_basis(nm)
        s_p, N, resid = affine_solve(A @ S, b0)
        if resid > 1e-8 * max(1.0, float(np.linalg.norm(b0))):
            return False, "no symmetric feasible point found"

        def lam_min(s):
            return float(np.linalg.eigvalsh((S @ s).reshape(nm, nm))[0])

        best = lam_min(s_p)
        t = np.zeros(N.shape[1])
        scale = max(1.0, float(np.linalg.norm(s_p)))
        if N.shape[1] and best <= 1e-9 * scale:
            for it in range(1, 301):
                s = s_p + N @ t
                w, V = np.linalg.eigh((S @ s).reshape(nm, nm))
                v = V[:, 0]
                g = N.T @ (S.T @ np.outer(v, v).ravel())
                gn = np.linalg.norm(g)
                if gn < 1e-14:
                    break
                t = t + (0.5 * scale / math.sqrt(it)) * g / gn
                best = max(best, lam_min(s_p + N @ t))
                if best > 1e-6 * scale:
                    break
        if best > 1e-9 * scale:
            return True, f"interior feasible point found (lambda_min {best:.2e})"
        return False, "no strictly feasible point found by the ascent probe"

    def tangent_space_test(self, A, x0, y0):
        """At z0 = A^T y0 the solution set lies in {G S G^T : S sym PSD} on
        the kernel G of C - Z0."""
        nm = self.nmat
        w, V = np.linalg.eigh(self.C - _sym_mat(A.T @ y0, nm))
        scale = max(1.0, float(np.abs(w).max(initial=0.0)))
        if w[0] < -1e-7 * scale:
            return None, "certificate is not dual feasible"
        ker = np.abs(w) <= 1e-7 * scale
        d0 = int(np.sum(ker))
        if d0 == 0:
            return (True, "certificate strictly inside the polar set") \
                if matrix_rank(A @ sym_basis(nm)) == nm * (nm + 1) // 2 \
                else (None, "flat-gauge case")
        G = V[:, ker]
        X0 = _sym_mat(x0, nm)
        M0 = G.T @ X0 @ G
        resid = float(np.linalg.norm(X0 - G @ M0 @ G.T))
        xscale = max(1.0, float(np.linalg.norm(X0)))
        if resid > 1e-7 * xscale:
            return None, "x0 is not supported on the certificate's kernel block"
        return _reduced_block_test(A, M0, G, G, xscale)
