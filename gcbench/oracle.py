"""Reference computations made apart from gaugecert.

Nothing here imports the package under test.  Gauge values, polars and
subdifferentials are written from their textbook formulas, linear programs
go straight to ``scipy.optimize.linprog``, and kernels come from numpy's SVD.
A gauge is described by a plain ``(kind, params)`` pair, the same record the
benchmark writes into problem files.

Each ``*_violation`` function returns how far an output is from satisfying
its property (0.0 when it holds); the caller compares it with a tolerance.
"""

import math

import numpy as np
import scipy.optimize

POLYHEDRAL = ("l1", "analysis_l1", "wsl1", "nonneg_l1")


class OracleError(RuntimeError):
    """A reference linear program did not solve to optimality."""


def linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None):
    """min c @ x under the given constraints; variables free by default."""
    c = np.asarray(c, dtype=float)
    if bounds is None:
        bounds = [(None, None)] * c.size
    res = scipy.optimize.linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                                 b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0:
        raise OracleError(f"reference LP status {res.status}: {res.message}")
    return res.x, float(res.fun)


def kernel(A, rtol=1e-10):
    """Orthonormal basis of Ker A as columns."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    _, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > rtol * max(s[0], 1e-300))) if s.size else 0
    return vt[rank:].T


def sym(X):
    return 0.5 * (X + X.T)


def sym_basis(nm):
    """Orthonormal basis (flattened nm*nm columns) of the symmetric matrices."""
    cols = []
    for i in range(nm):
        for j in range(i, nm):
            E = np.zeros((nm, nm))
            E[i, j] = E[j, i] = 1.0 if i == j else math.sqrt(0.5)
            cols.append(E.ravel())
    return np.array(cols).T


def sym_kernel(A, nm):
    """Basis (flattened nm*nm columns) of the symmetric matrices in Ker A."""
    S = sym_basis(nm)
    return S @ kernel(np.atleast_2d(A) @ S)


# ---------------------------------------------------------------------------
# gauge formulas
# ---------------------------------------------------------------------------

def _top_k_sums(v):
    """Cumulative sums of the magnitudes sorted in decreasing order."""
    return np.cumsum(np.sort(np.abs(v))[::-1])


def value(kind, p, x):
    """J(x); +inf outside the domain of the conic kinds."""
    x = np.asarray(x, dtype=float).ravel()
    if kind == "l1":
        return float(np.abs(x).sum())
    if kind == "nonneg_l1":
        return math.inf if x.min() < -1e-12 else float(x.sum())
    if kind == "analysis_l1":
        return float(np.abs(np.asarray(p["D"]).T @ x).sum())
    if kind == "wsl1":
        # sum_k (w_k - w_{k+1}) * top_k(|x|), with w_{n+1} = 0
        w = np.asarray(p["w"], dtype=float)
        d = w - np.append(w[1:], 0.0)
        return float(d @ _top_k_sums(x))
    if kind == "group_l12":
        return float(sum(np.linalg.norm(x[g]) for g in p["partition"]))
    if kind == "nuclear":
        return float(np.linalg.svd(x.reshape(p["shape"]), compute_uv=False).sum())
    if kind == "sdp_trace":
        C = np.asarray(p["C"], dtype=float)
        X = x.reshape(C.shape)
        scale = max(1.0, float(np.abs(X).max()))
        if np.abs(X - X.T).max() > 1e-9 * scale or \
                np.linalg.eigvalsh(sym(X))[0] < -1e-9 * scale:
            return math.inf
        return float(np.tensordot(C, X))
    raise ValueError(kind)


def polar(kind, p, z):
    """J°(z) = sup {<z, x> : J(x) <= 1}."""
    z = np.asarray(z, dtype=float).ravel()
    if kind == "l1":
        return float(np.abs(z).max())
    if kind == "nonneg_l1":
        return float(max(0.0, z.max()))
    if kind == "analysis_l1":
        # min ||u||_inf  s.t.  D u = z
        D = np.asarray(p["D"], dtype=float)
        n, q = D.shape
        A_ub = np.block([[np.eye(q), -np.ones((q, 1))],
                         [-np.eye(q), -np.ones((q, 1))]])
        try:
            _, val = linprog(np.append(np.zeros(q), 1.0), A_ub=A_ub,
                             b_ub=np.zeros(2 * q),
                             A_eq=np.hstack([D, np.zeros((n, 1))]), b_eq=z)
        except OracleError:
            return math.inf
        return val
    if kind == "wsl1":
        cw = np.cumsum(np.asarray(p["w"], dtype=float))
        return float(np.max(_top_k_sums(z) / cw))
    if kind == "group_l12":
        return float(max(np.linalg.norm(z[g]) for g in p["partition"]))
    if kind == "nuclear":
        return float(np.linalg.norm(z.reshape(p["shape"]), 2))
    if kind == "sdp_trace":
        # inf {a >= 0 : a C - Z is PSD}; C is positive definite here
        C = np.asarray(p["C"], dtype=float)
        Z = sym(z.reshape(C.shape))
        L = np.linalg.cholesky(C)
        Li = np.linalg.inv(L)
        return float(max(0.0, np.linalg.eigvalsh(Li @ Z @ Li.T)[-1]))
    raise ValueError(kind)


def values(kind, p, X):
    """J on each row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if kind == "l1":
        return np.abs(X).sum(axis=1)
    if kind == "nonneg_l1":
        return np.where(X.min(axis=1) < -1e-12, math.inf, X.sum(axis=1))
    if kind == "analysis_l1":
        return np.abs(X @ np.asarray(p["D"])).sum(axis=1)
    if kind == "wsl1":
        w = np.asarray(p["w"], dtype=float)
        d = w - np.append(w[1:], 0.0)
        return np.cumsum(np.sort(np.abs(X), axis=1)[:, ::-1], axis=1) @ d
    if kind == "group_l12":
        return sum(np.linalg.norm(X[:, g], axis=1) for g in p["partition"])
    return np.array([value(kind, p, x) for x in X])


def lipschitz(kind, p, n):
    """A Lipschitz constant of J on its domain (Euclidean norm)."""
    if kind in ("l1", "nonneg_l1"):
        return math.sqrt(n)
    if kind == "group_l12":
        return math.sqrt(len(p["partition"]))
    if kind == "analysis_l1":
        D = np.asarray(p["D"], dtype=float)
        return math.sqrt(D.shape[1]) * float(np.linalg.norm(D, 2))
    if kind == "wsl1":
        return float(np.linalg.norm(p["w"]))
    if kind == "nuclear":
        return math.sqrt(min(p["shape"]))
    if kind == "sdp_trace":
        return float(np.linalg.norm(p["C"]))
    raise ValueError(kind)


def subdiff_violation(kind, p, x0, z):
    """Distance-like gap of z from dJ(x0) = {z : J°(z) <= 1, <z, x0> = J(x0)}.

    For sdp_trace the same two conditions read C - Z PSD and <C - Z, X0> = 0.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    if kind == "sdp_trace":
        C = np.asarray(p["C"], dtype=float)
        R = C - sym(z.reshape(C.shape))
        return float(max(0.0, -np.linalg.eigvalsh(R)[0],
                         abs(np.tensordot(R, x0.reshape(C.shape)))))
    if kind == "nuclear":
        Z = z.reshape(p["shape"])
        return float(max(0.0, np.linalg.norm(Z, 2) - 1.0,
                         abs(float(z @ x0) - value(kind, p, x0))))
    return float(max(0.0, polar(kind, p, z) - 1.0,
                     abs(float(z @ x0) - value(kind, p, x0))))


# ---------------------------------------------------------------------------
# LP uniqueness oracle for the polyhedral kinds
# ---------------------------------------------------------------------------

def _epigraph(kind, p, n):
    """Rows (G, h) and variable count so that J(x) <= c reads
    G @ [x, aux] <= h + c * e_last (the last row carries the level)."""
    if kind == "l1":
        # aux u: -u <= x <= u, sum u <= c
        I = np.eye(n)
        G = np.block([[I, -I], [-I, -I], [np.zeros((1, n)), np.ones((1, n))]])
        return G, 2 * n, [(None, None)] * n + [(0.0, None)] * n
    if kind == "nonneg_l1":
        G = np.ones((1, n))
        return G, n, [(0.0, None)] * n
    if kind == "analysis_l1":
        D = np.asarray(p["D"], dtype=float)
        q = D.shape[1]
        Iq = np.eye(q)
        G = np.block([[D.T, -Iq], [-D.T, -Iq],
                      [np.zeros((1, n)), np.ones((1, q))]])
        return G, n + q, [(None, None)] * n + [(0.0, None)] * q
    if kind == "wsl1":
        # top_k(|x|) <= k t_k + sum_i s_ki with s_ki >= v_i - t_k, s >= 0
        w = np.asarray(p["w"], dtype=float)
        d = w - np.append(w[1:], 0.0)
        ks = [k for k in range(n) if d[k] > 0]
        K = len(ks)
        nv = 2 * n + K + K * n
        rows = []
        I = np.eye(n)
        for sgn in (1.0, -1.0):  # +-x_i - v_i <= 0
            r = np.zeros((n, nv))
            r[:, :n] = sgn * I
            r[:, n:2 * n] = -I
            rows.append(r)
        for j in range(K):  # v_i - t_j - s_ji <= 0
            r = np.zeros((n, nv))
            r[:, n:2 * n] = I
            r[:, 2 * n + j] = -1.0
            r[:, 2 * n + K + j * n:2 * n + K + (j + 1) * n] = -I
            rows.append(r)
        last = np.zeros((1, nv))
        for j, k in enumerate(ks):
            last[0, 2 * n + j] = d[k] * (k + 1)
            last[0, 2 * n + K + j * n:2 * n + K + (j + 1) * n] = d[k]
        rows.append(last)
        bounds = ([(None, None)] * n + [(0.0, None)] * n + [(None, None)] * K
                  + [(0.0, None)] * (K * n))
        return np.vstack(rows), nv, bounds
    raise ValueError(kind)


def uniqueness(kind, p, A, x0, slack=0.0):
    """Decide by linear programming whether x0 is the unique minimizer.

    Returns a dict: ``optimum`` (min J s.t. Ax = Ax0), ``j0`` (J(x0)),
    ``spread`` (largest per-coordinate width of
    {x : Ax = Ax0, J(x) <= J(x0) + slack}) and ``verdict`` ("Yes" iff x0 is
    optimal and the spread vanishes).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    x0 = np.asarray(x0, dtype=float).ravel()
    m, n = A.shape
    b0 = A @ x0
    G, nv, bounds = _epigraph(kind, p, n)
    h = np.zeros(G.shape[0])
    A_eq = np.hstack([A, np.zeros((m, nv - n))])
    obj = G[-1]
    _, opt = linprog(obj, A_ub=G[:-1] if G.shape[0] > 1 else None,
                     b_ub=h[:-1] if G.shape[0] > 1 else None,
                     A_eq=A_eq, b_eq=b0, bounds=bounds)
    j0 = value(kind, p, x0)
    scale = max(1.0, abs(j0))
    out = {"optimum": opt, "j0": j0, "spread": math.nan}
    if opt < j0 - 1e-7 * scale:
        out["verdict"] = "No"
        out["spread"] = math.inf
        return out
    h[-1] = max(j0, opt) + slack
    spread = 0.0
    for i in range(n):
        lo_hi = []
        for sgn in (1.0, -1.0):
            c = np.zeros(nv)
            c[i] = sgn
            _, v = linprog(c, A_ub=G, b_ub=h, A_eq=A_eq, b_eq=b0, bounds=bounds)
            lo_hi.append(sgn * v)
        spread = max(spread, lo_hi[1] - lo_hi[0])
    out["spread"] = spread
    out["verdict"] = "Yes" if spread <= 1e-6 * max(1.0, np.abs(x0).max()) else "No"
    return out


def nsp(A, I):
    """max ||h_I||_1 over h in Ker A with ||h||_1 <= 1, by sign enumeration.

    Variables (h, v): A h = 0, |h| <= v, sum v <= 1; one LP per sign pattern.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    I = list(I)
    E = np.eye(n)
    A_ub = np.block([[E, -E], [-E, -E], [np.zeros((1, n)), np.ones((1, n))]])
    b_ub = np.append(np.zeros(2 * n), 1.0)
    A_eq = np.hstack([A, np.zeros((m, n))])
    best = 0.0
    for bits in range(1 << len(I)):
        c = np.zeros(2 * n)
        for j, i in enumerate(I):
            c[i] = -1.0 if (bits >> j) & 1 else 1.0
        _, v = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=np.zeros(m),
                       bounds=[(None, None)] * n + [(0.0, None)] * n)
        best = max(best, -v)
    return best


# ---------------------------------------------------------------------------
# sampled bounds on kappa and alpha
# ---------------------------------------------------------------------------

def unit_rows(rng, count, k):
    T = rng.standard_normal((count, k))
    return T / np.linalg.norm(T, axis=1, keepdims=True)


def kernel_directions(K, rng, count=2000):
    """Unit kernel directions: both ends of a line, a 0.25-degree circle in a
    plane, otherwise the basis, its negatives and ``count`` random draws."""
    k = K.shape[1]
    if k == 1:
        T = np.array([[1.0], [-1.0]])
    elif k == 2:
        th = np.linspace(0.0, 2 * np.pi, 1440, endpoint=False)
        T = np.stack([np.cos(th), np.sin(th)], axis=1)
    else:
        T = np.vstack([np.eye(k), -np.eye(k), unit_rows(rng, count, k)])
    return T @ K.T


def min_growth(kind, p, x0, H, t):
    """min over rows h of the difference quotient (J(x0 + t h) - J(x0)) / t.

    For convex J the quotient is nondecreasing in t and tends to J'(x0; h),
    so it bounds the sharpness constant kappa from above for every t > 0.
    """
    j0 = value(kind, p, x0)
    return float(np.min(values(kind, p, x0[None, :] + t * H) - j0) / t)


def descent_directions(kind, p, x0, rng, count=4000):
    """Unit h with J(x0 + s h) <= J(x0) for some s > 0.

    Draws points x on the level set {J = J(x0)} (radial rescaling of random
    points of the domain) and returns the normalized x - x0.  Every such h
    lies in the critical cone {h : J'(x0; h) <= 0}, so min ||A h|| over them
    bounds alpha from above.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    j0 = value(kind, p, x0)
    out = []
    for _ in range(count):
        v = rng.standard_normal(n)
        if kind == "nonneg_l1":
            v = np.abs(v)
        elif kind == "sdp_trace":
            nm = int(round(math.sqrt(n)))
            G = v.reshape(nm, nm)
            v = (G @ G.T).ravel()
        jv = value(kind, p, v)
        if not (jv > 0 and math.isfinite(jv)):
            continue
        x = j0 * v / jv
        h = x - x0
        nh = np.linalg.norm(h)
        if nh > 1e-9 and value(kind, p, x) <= j0 * (1 + 1e-12):
            out.append(h / nh)
    return np.array(out).reshape(-1, n)


# ---------------------------------------------------------------------------
# noisy problems
# ---------------------------------------------------------------------------

def _subdiff_projector(kind, p, x):
    """Euclidean projection onto dJ(x), for the kinds of the recovery designs."""
    x = np.asarray(x, dtype=float).ravel()
    if kind == "l1":
        on = x != 0.0

        def proj(z):
            out = np.clip(z, -1.0, 1.0)
            out[on] = np.sign(x[on])
            return out
        return proj
    if kind == "nonneg_l1":
        on = x > 0.0

        def proj(z):
            out = np.minimum(z, 1.0)
            out[on] = 1.0
            return out
        return proj
    if kind == "group_l12":
        parts = [np.asarray(g) for g in p["partition"]]

        def proj(z):
            out = np.array(z, dtype=float)
            for g in parts:
                ng = np.linalg.norm(x[g])
                if ng > 0.0:
                    out[g] = x[g] / ng
                else:
                    nz = np.linalg.norm(out[g])
                    if nz > 1.0:
                        out[g] /= nz
            return out
        return proj
    raise ValueError(kind)


def stationarity(kind, p, A, b, mu, x):
    """dist(A^T (b - A x) / mu, dJ(x)): zero exactly at the Tikhonov minimizer."""
    r = np.asarray(A).T @ (np.asarray(b) - np.asarray(A) @ x) / mu
    return float(np.linalg.norm(r - _subdiff_projector(kind, p, x)(r)))


def min_group_norm(kind, p, x):
    """Smallest nonzero block norm of x (inf when no block is curved)."""
    if kind != "group_l12":
        return math.inf
    norms = [np.linalg.norm(x[g]) for g in p["partition"]]
    norms = [v for v in norms if v > 0.0]
    return min(norms) if norms else math.inf


def pinv_norm(A):
    s = np.linalg.svd(np.atleast_2d(A), compute_uv=False)
    pos = s[s > 1e-10 * max(1.0, s[0])]
    return float(1.0 / pos[-1])


def recovery_bounds(kappa, alpha, y0_norm, L, pinv, c1, delta):
    """The paper's three linear-rate bounds at noise level delta, mu = c1 delta."""
    return {
        "mozorov": 2.0 * delta / alpha,
        "tikhonov_y0": 2.0 * (1.0 + 2.0 * c1 * y0_norm) * delta / alpha,
        "tikhonov_lip": (c1 / (2.0 * kappa)
                         * (1.0 / c1 + (kappa + L) * pinv) ** 2 * delta),
    }
