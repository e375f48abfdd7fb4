"""Matrix gauges: nuclear norm and the PSD-cone trace gauge.

Matrix variables are flattened row-major; every engine-facing method speaks
vectors of length p*q (or n*n) and reshapes internally.  The probe oracles
reach the reduced blocks at x0 (the nuclear tail U2^T h V2, the sdp kernel
block E^T h E) by one GEMM with a flat Kronecker basis cached per x0, and
solve the small ones in closed form: a tail with a side of 1 by its norm,
a kernel block of side 1 or 2 by ``_bottom_eig``, which only
``SdpTraceGauge._bottom`` calls.  Both kinds' ``tangent_space_test`` find the
certificate's contact blocks and leave the rest of the argument to
``_contact_test``.
"""

import math

import numpy as np
import scipy.linalg

from ..cones import (ConeSpec, affine_solve, matrix_rank, min_lambda_max,
                     negligible)
from .base import (Gauge, SubdiffFace, construct, per_x0, spec_array,
                   spec_int)

__all__ = ["NuclearGauge", "SdpTraceGauge", "sym_basis"]


def sym_basis(n):
    """Orthonormal basis of the symmetric matrices inside vec-space.

    Returns an (n*n, n*(n+1)/2) array whose columns are vec(E_ii) and
    vec((E_ij + E_ji)/sqrt(2)) for i < j.
    """
    B = np.zeros((n * n, n * (n + 1) // 2))
    i, j = np.triu_indices(n, 1)
    cols = np.arange(n, B.shape[1])
    B[np.arange(n) * (n + 1), np.arange(n)] = 1.0
    B[i * n + j, cols] = B[j * n + i, cols] = 1.0 / math.sqrt(2.0)
    return B


def _sym_mat(v, n):
    v = np.asarray(v, dtype=float)
    M = v.reshape(*v.shape[:-1], n, n)  # one vector or a stack of them
    return 0.5 * (M + np.swapaxes(M, -1, -2))


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


def _rows(A, Bt):
    """A b for each row b of Bt, one matrix-vector product per contiguous
    row (a single GEMM rounds differently)."""
    return np.array([A @ b for b in Bt]).reshape(len(Bt), A.shape[0])


def _contact_test(A, A_eff, X0, G, H, inside_note, off_note):
    """Shared body of both matrix kinds' ``tangent_space_test``.  G and H
    are the dual certificate's contact blocks: none when it lies strictly
    inside the polar set (then J vanishes on the solution set, and A_eff, A
    on dom J, must be injective).  Otherwise the solution set lies in
    {G S H^T : S sym PSD}; with x0 = G M0 H^T and M0 positive definite the
    tangent cone at x0 is the subspace {G S H^T : S symmetric}, and
    uniqueness is injectivity of A on it."""
    if not G.shape[1]:
        return (True, inside_note) if matrix_rank(A_eff) == A_eff.shape[1] \
            else (None, "flat-gauge case")
    M0 = G.T @ X0 @ H
    resid = float(np.linalg.norm(X0 - G @ M0 @ H.T))
    scale = float(np.linalg.norm(X0))
    if resid > 1e-7 * scale or np.linalg.norm(M0 - M0.T) > 1e-7 * scale:
        return None, off_note
    if np.linalg.eigvalsh(0.5 * (M0 + M0.T))[0] <= 1e-7 * scale:
        return None, "reduced block is singular; tangent cone is not a subspace"
    B = np.kron(G, H) @ sym_basis(G.shape[1])
    d = B.shape[1]
    return matrix_rank(A @ B) == d, f"rank test on the {d}-dimensional tangent space"


def _thin_polar(t):
    """The one singular value and the polar factor of each row of t, a flat
    block with a side of 1: its norm, and the row over its norm.  A zero
    block takes LAPACK's polar factor, the first unit vector signed as its
    first entry, so zero rows keep the bits of a full SVD."""
    s = np.linalg.norm(t, axis=1)
    P = np.zeros_like(t)
    P[:, 0] = np.copysign(1.0, t[:, 0])
    np.divide(t, s[:, None], out=P, where=(s > 0.0)[:, None])
    return s, P


def _bottom_eig(K, vectors=False):
    """The smallest eigenvalue of each symmetric block of the stack K, the
    largest |eigenvalue|, and with ``vectors`` a unit eigenvector for the
    smallest (else None).

    Blocks of side 1 are their entry, with eigenvector 1.  Blocks of side 2,
    [[a, b], [b, c]], take the 2 x 2 symmetric Schur decomposition of
    LAPACK's ``dlaev2`` (Golub & Van Loan, Matrix Computations, 8.5): with
    rt = hypot(a - c, 2b), rt1 = (a + c +- rt) / 2 is the eigenvalue of
    larger magnitude (the sign of a + c), the other is det / rt1, and the
    smallest one's eigenvector is (-2b, a - c + rt) when a >= c, else
    (a - c - rt, 2b): the pair dlaev2 divides by its larger entry, which
    has no cancellation.  Larger blocks take LAPACK's ``eigh`` or
    ``eigvalsh``.
    """
    d = K.shape[-1]
    if d == 1:
        w = K[:, 0, 0]
        return w, np.abs(w), np.ones((len(w), 1)) if vectors else None
    if d > 2:
        if vectors:
            w, V = np.linalg.eigh(K)
            return w[:, 0], np.abs(w).max(axis=1), V[:, :, 0]
        w = np.linalg.eigvalsh(K)
        return w[:, 0], np.abs(w).max(axis=1), None
    a, b, c = K[:, 0, 0], K[:, 0, 1], K[:, 1, 1]
    sm, df, tb = a + c, a - c, b + b
    rt = np.hypot(df, tb)
    neg = sm < 0.0
    rt1 = 0.5 * np.where(neg, sm - rt, sm + rt)
    # |a|, |c| <= |rt1|, so neither quotient overflows
    den = np.where(rt1 == 0.0, 1.0, rt1)
    lam = np.where(neg, rt1, (a / den) * c - (b / den) * b)
    if not vectors:
        return lam, np.abs(rt1), None
    up = df >= 0.0
    v = np.empty((len(a), 2))
    v[:, 0] = np.where(up, -tb, df - rt)
    v[:, 1] = np.where(up, df + rt, tb)
    norm = np.hypot(v[:, 0], v[:, 1])
    flat = norm == 0.0  # a multiple of the identity: any unit vector
    v[flat, 0] = norm[flat] = 1.0
    return lam, np.abs(rt1), v / norm[:, None]


class NuclearFace(SubdiffFace):
    """{U1 V1^T + U2 W V2^T : sigma_1(W) <= 1} from the SVD blocks at X0."""

    note = "spectral norm of the free block"

    def __init__(self, U1, V1, U2, V2):
        self.U1, self.V1, self.U2, self.V2 = U1, V1, U2, V2
        self.p, self.q = U1.shape[0], V1.shape[0]
        self.base = (U1 @ V1.T).ravel()
        # vec(U2 W V2^T) = kron(U2, V2) vec(W) for row-major vec
        self.tangent = np.kron(U2, V2)

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

    def affine_part(self, A):
        """<A^T y, u v^T> = <U1 V1^T, u v^T> for u v^T with u in U1 or v in
        V1 (rows U1 x V1, U1 x V2 and U2 x V1)."""
        U1, V1, U2, V2 = self.U1, self.V1, self.U2, self.V2
        r = U1.shape[1]
        Bt = np.vstack([np.kron(U1, V1).T, np.kron(U1, V2).T, np.kron(U2, V1).T])
        rhs = np.concatenate([np.eye(r).ravel(), np.zeros(len(Bt) - r * r)])
        return _rows(A, Bt), rhs, 1e-8

    def pencil(self, A):
        """The dilation [[0, W], [W^T, 0]] of the free block W = U2^T (A^T y)
        V2, whose largest eigenvalue is the spectral norm of W."""
        p, q, U2, V2 = self.p, self.q, self.U2, self.V2
        k1 = U2.shape[1]

        def dilation(Y):
            W = U2.T @ (Y @ A).reshape(-1, p, q) @ V2
            out = np.zeros((len(W), k1 + W.shape[2], k1 + W.shape[2]))
            out[:, :k1, k1:] = W
            out[:, k1:, :k1] = np.swapaxes(W, 1, 2)
            return out

        return dilation


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

    @per_x0
    def _blocks(self, x0):
        X = self._mat(x0)
        U, s, Vt = np.linalg.svd(X)
        r = int(np.sum(~negligible(s)))
        return U[:, :r], Vt[:r].T, U[:, r:], Vt[r:].T

    def value_batch(self, X):
        M = np.asarray(X).reshape(-1, *self.shape)
        return np.linalg.svd(M, compute_uv=False).sum(axis=1)

    def prox(self, x, tau):
        U, s, Vt = np.linalg.svd(self._mat(x), full_matrices=False)
        return (U @ np.diag(np.maximum(s - tau, 0.0)) @ Vt).ravel()

    def polar(self, z):
        s = np.linalg.svd(self._mat(z), compute_uv=False)
        return float(s[0]) if s.size else 0.0

    @per_x0
    def _bases(self, x0):
        """U1 V1^T, the linear part of J'(x0; .), and the flat tail basis
        kron(U2, V2): a row h of H maps to its tail block U2^T h V2
        (flattened row-major) as h @ kron(U2, V2), and a flat block w of
        that shape back to U2 W V2^T as w @ kron(U2, V2)^T."""
        U1, V1, U2, V2 = self._blocks(x0)
        return U1 @ V1.T, np.kron(U2, V2)

    def _split(self, x0, H):
        """The linear part <U1 V1^T, h> of J'(x0; h) for each row h of H,
        and the tail blocks U2^T h V2 from one GEMM (None when the tail is
        empty)."""
        _, _, U2, V2 = self._blocks(x0)
        base, K = self._bases(x0)
        H = np.atleast_2d(np.asarray(H, dtype=float))
        lin = np.einsum("kij,ij->k", H.reshape(-1, *self.shape), base)
        if not K.size:
            return lin, None
        return lin, (H @ K).reshape(-1, U2.shape[1], V2.shape[1])

    def dir_deriv_batch(self, x0, H):
        """<U1 V1^T, h> + ||U2^T h V2||_*.  A tail with a side of 1 has its
        norm as its one singular value; larger tails take LAPACK's."""
        lin, T = self._split(x0, H)
        if T is None:
            return lin + 0.0
        if min(T.shape[1:]) == 1:
            return lin + np.linalg.norm(T.reshape(len(T), -1), axis=1)
        return lin + np.linalg.svd(T, compute_uv=False).sum(axis=1)

    def face(self, x0):
        return NuclearFace(*self._blocks(x0))

    def descent_form(self, x0):
        """<U1 V1^T, h> + ||h @ kron(U2, V2)|| for a tail with a side of at
        most 1 (its nuclear norm is its Euclidean norm); larger tails have
        none, and the SVD oracles here serve every tail."""
        _, _, U2, V2 = self._blocks(x0)
        if min(U2.shape[1], V2.shape[1]) > 1:
            return None
        base, K = self._bases(x0)
        return np.hstack([base.reshape(-1, 1), K]), [
            ("lin", [0], np.ones(1)), ("l2", np.arange(1, K.shape[1] + 1), None)]

    def dir_deriv_subgrad_batch(self, x0, H):
        """J'(x0; .) and its subgradients from one pass over the tails: the
        subgradient adds the tail's full polar factor, the steepest pieces
        of the nuclear tail, to U1 V1^T.  The tail block and, for a side of
        1, its value are computed as in ``dir_deriv_batch``, and its polar
        factor by ``_thin_polar``; a larger tail takes one full SVD, whose
        singular values agree with a values-only one to rounding."""
        lin, T = self._split(x0, H)
        base, K = self._bases(x0)
        G = np.tile(base.ravel(), (lin.size, 1))
        if T is None:
            return lin + 0.0, G
        if min(T.shape[1:]) == 1:
            s, P = _thin_polar(T.reshape(len(T), -1))
        else:
            Uw, s, Vwt = np.linalg.svd(T)
            k = min(Uw.shape[2], Vwt.shape[1])
            P = (Uw[:, :, :k] @ Vwt[:, :k]).reshape(len(T), -1)
            s = s.sum(axis=1)
        G += P @ K.T
        return lin + s, G

    def lipschitz(self):
        return math.sqrt(min(self.shape))

    def tangent_space_test(self, A, x0, y0):
        """At z0 = A^T y0 the solution set lies in {U1 S V1^T : S sym PSD},
        built from the singular blocks of z0 at level one."""
        U, s, Vt = np.linalg.svd((A.T @ y0).reshape(self.shape))
        if s.size and s[0] > 1.0 + 1e-7:
            return None, "certificate is not dual feasible"
        r = int(np.sum(s >= 1.0 - 1e-7))
        return _contact_test(A, A, self._mat(x0), U[:, :r], Vt[:r].T,
                             "certificate strictly inside the polar ball",
                             "x0 is not aligned with the certificate's blocks")


class SdpFace(SubdiffFace):
    """{C + E M E^T : M <= 0} with E spanning Ker X0 and U its range.

    Points are read through their symmetric part: dom J lies in the
    symmetric matrices, so antisymmetric parts are normal to it.
    """

    note = "largest kernel-block eigenvalue"

    def __init__(self, C, E, U, kron_E):
        self.C, self.E, self.U, self.kron_E = C, E, U, kron_E
        self.nmat = C.shape[0]
        self.unit = max(1.0, float(np.abs(C).max()))  # of affine residuals
        self.base = (C - E @ E.T).ravel()
        # vec(E M E^T) = kron(E, E) vec(M) for row-major vec
        self.tangent = kron_E @ sym_basis(E.shape[1])

    def _block(self, z):
        Z = _sym_mat(z, self.nmat)
        M = self.E.T @ (Z - self.C) @ self.E
        model = self.C + self.E @ M @ self.E.T
        resid = float(np.linalg.norm(Z - model))
        return M, resid

    def margin(self, z):
        M, resid = self._block(z)
        if resid > 1e-9 * self.unit:
            return -math.inf
        if M.size == 0:
            return math.inf
        return float(-np.max(np.linalg.eigvalsh(M)))

    def sample(self, rng, count):
        d = self.E.shape[1]
        G = rng.standard_normal((count, d, d))
        M = -(G @ np.swapaxes(G, 1, 2)) / max(d, 1)
        return self.C.ravel() + M.reshape(count, d * d) @ self.kron_E.T

    def affine_part(self, A):
        """<A^T y, M> = <C, M> for the symmetric M on the U x U and U x E
        blocks."""
        E, U, C = self.E, self.U, self.C
        i, j = np.triu_indices(U.shape[1])
        Bt = np.vstack([np.kron(U, U).T[i * U.shape[1] + j], np.kron(U, E).T])
        # strided rows would move the bits of <b, C>, as in ``_rows``
        Bt = np.ascontiguousarray(_sym_mat(Bt, self.nmat)).reshape(Bt.shape)
        rhs = np.array([b @ C.ravel() for b in Bt])
        return _rows(A, Bt), rhs, 1e-8 * self.unit

    def pencil(self, A):
        """The kernel block E^T (sym A^T y - C) E."""
        nm, E, C = self.nmat, self.E, self.C
        return lambda Y: E.T @ (_sym_mat(Y @ A, nm) - C) @ E


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
        return _sym_mat(self.flat(x), self.nmat)

    @per_x0
    def _eigen_split(self, x0):
        """E spanning Ker X0 and U spanning its range, from one ``eigh``."""
        w, V = np.linalg.eigh(self._mat(x0))
        if np.min(w) < -1e-9 * np.max(np.abs(w)):
            raise ValueError("x0 must be positive semidefinite")
        # the rounding that the check above lets through counts as 0
        ker = negligible(np.maximum(w, 0.0))
        return V[:, ker], V[:, ~ker]

    def _kernel(self, x0):
        return self._eigen_split(x0)[0]

    def domain_residual(self, x):
        X = self.flat(x).reshape(self.nmat, self.nmat)
        w = np.linalg.eigvalsh(self._mat(x))
        return float(max(0.0, -w[0], np.max(np.abs(X - X.T))))

    def value_batch(self, X):
        M = np.asarray(X).reshape(-1, self.nmat, self.nmat)
        Mt = np.transpose(M, (0, 2, 1))
        asym = np.abs(M - Mt).max(axis=(1, 2))
        M = 0.5 * (M + Mt)
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

    @per_x0
    def _kernel_basis(self, x0):
        """kron(E, E): a row h of H maps to the kernel block E^T h E
        (flattened row-major) as h @ kron(E, E)."""
        E = self._kernel(x0)
        return np.kron(E, E)

    def _bottom(self, x0, H, vectors=False):
        """lambda_min and the largest |eigenvalue| of each kernel block
        E^T h E, read as a symmetric matrix (one GEMM with the flat kernel
        basis, then ``_bottom_eig``), and with ``vectors`` the subgradient
        -v v^T of -lambda_min, v its unit eigenvector mapped back by E (else
        None).  An empty kernel gives lambda_min = +inf, 0 and G = 0."""
        E, H = self._kernel(x0), np.atleast_2d(H)
        if not E.shape[1]:
            return (np.full(len(H), math.inf), np.zeros(len(H)),
                    np.zeros((len(H), self.n)) if vectors else None)
        K = _sym_mat(H @ self._kernel_basis(x0), E.shape[1])
        lam, top, v = _bottom_eig(K, vectors)
        if vectors:
            v = v @ E.T
            return lam, top, -(v[:, :, None] * v[:, None, :]).reshape(len(v), -1)
        return lam, top, None

    def dir_deriv_batch(self, x0, H):
        """<C, h>, or +inf where the kernel block E^T h E has an eigenvalue
        below -1e-9 max(1, max |eigenvalue|) (``_bottom``)."""
        lam, top, _ = self._bottom(x0, H)
        return np.where(lam < -1e-9 * np.maximum(1.0, top), math.inf,
                        self.finite_dir_deriv_batch(x0, H))

    def finite_dir_deriv_batch(self, x0, H):
        # C is symmetric, so <C, h> is <C, sym h>
        return np.atleast_2d(np.asarray(H, dtype=float)) @ self.C.ravel()

    def dir_subgrad_batch(self, x0, H):
        return np.tile(self.C.ravel(), (np.atleast_2d(H).shape[0], 1))

    def face(self, x0):
        return SdpFace(self.C, *self._eigen_split(x0), self._kernel_basis(x0))

    def _psd_violation(self, x0, H):
        """max(0, -lambda_min(E^T H E)) and one subgradient row of it for
        each row of H, both from one ``_bottom`` (no LAPACK call for blocks
        of side 2 or less)."""
        lam, _, G = self._bottom(x0, H, vectors=True)
        return np.maximum(-lam, 0.0), np.where((lam < 0.0)[:, None], G, 0.0)

    def domain_tangent_cone(self, x0):
        x0 = np.array(self.flat(x0))

        def violation_batch(H):
            return np.maximum(-self._bottom(x0, H)[0], 0.0)

        return ConeSpec.from_violation(self.n, violation_batch,
                                       lambda H: self._psd_violation(x0, H)[1],
                                       anchor=np.eye(self.nmat).ravel(),
                                       note="PSD tangent cone at x0")

    def descent_lift(self, x0):
        """A kernel E of side at most 1: the rows <C, h> <= 0 and
        -e^T h e <= 0 (e the column of E, e^T h e = h @ kron(e, e))."""
        if self._kernel(x0).shape[1] > 1:
            return None
        G = np.vstack([self.C.ravel(), -self._kernel_basis(x0).T])
        return G, np.zeros((len(G), 0))

    def critical_cone(self, x0):
        x0 = np.array(self.flat(x0))
        tangent = self.domain_tangent_cone(x0)
        Cflat = self.C.ravel()

        def violation_batch(H):
            H = np.atleast_2d(np.asarray(H, dtype=float))
            lin = np.maximum(H @ Cflat, 0.0)
            return np.maximum(lin, tangent.violation_batch(H))

        def violation_subgrad_batch(H):
            H = np.atleast_2d(np.asarray(H, dtype=float))
            lin = H @ Cflat
            tv, tg = self._psd_violation(x0, H)
            G = np.where((lin >= tv)[:, None], Cflat, tg)
            return np.where((np.maximum(lin, tv) > 0.0)[:, None], G, 0.0)

        return self._descent_cone(x0, violation_batch, violation_subgrad_batch,
                                  "PSD-restricted descent cone")

    def lipschitz(self):
        return float(np.linalg.norm(self.C))

    def coordinate_basis(self):
        return sym_basis(self.nmat)

    def interior_feasibility(self, A, b0):
        """Probe for a strictly positive definite feasible point: the
        largest lambda_min over the feasible symmetric matrices at b0 /
        ||b0|| (so alike for every scale of x0) is minus the least
        lambda_max of their negatives, which ``min_lambda_max`` lowers until
        lambda_min exceeds 1e-9 max(1, ||s_p||), s_p the least-squares
        point.  ok=True rests on a point found; ok=False, when the engine
        closed its duality gap, means that none lies above that floor."""
        nm = self.nmat
        S = sym_basis(nm)
        unit = float(np.linalg.norm(b0)) or 1.0
        s_p, N, resid = affine_solve(A @ S, b0 / unit)
        if resid > 1e-8:
            return False, "no symmetric feasible point found"
        floor = 1e-9 * max(1.0, float(np.linalg.norm(s_p)))
        res = min_lambda_max(-(S @ s_p).reshape(nm, nm),
                             -(N.T @ S.T).reshape(-1, nm, nm), stop=-floor)
        if -res.upper > floor:
            return True, f"interior feasible point found (lambda_min {-res.upper * unit:.2e})"
        return False, "no strictly feasible point found by the interior-point probe"

    def tangent_space_test(self, A, x0, y0):
        """At z0 = A^T y0 the solution set lies in {G S G^T : S sym PSD} on
        the kernel G of C - Z0."""
        nm = self.nmat
        w, V = np.linalg.eigh(self.C - _sym_mat(A.T @ y0, nm))
        scale = max(1.0, float(np.abs(w).max(initial=0.0)))
        if w[0] < -1e-7 * scale:
            return None, "certificate is not dual feasible"
        G = V[:, np.abs(w) <= 1e-7 * scale]
        return _contact_test(A, A @ sym_basis(nm), _sym_mat(x0, nm), G, G,
                             "certificate strictly inside the polar set",
                             "x0 is not supported on the certificate's kernel block")
