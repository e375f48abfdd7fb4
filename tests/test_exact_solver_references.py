"""Exact solvers against the iterative loops they replaced.

The reference functions below are the earlier hand-written code, kept
verbatim apart from taking D / w as arguments: Wolfe's minimum-norm point
algorithm (``cones.min_norm_point``), the restarted FISTA on the
box-constrained dual of the analysis-l1 prox, the stack-based
pool-adjacent-violators routine of the sorted weighted l1 prox, the
Helmert basis of ``SortedFace``, and the multistart subgradient loop of the
certificate searches (``cones.min_lambda_max``).  The replacements (NNLS,
BVLS, ``isotonic_regression``, ``scipy.linalg.helmert``, an interior-point
eigenvalue search) must match them within rounding or do better, and the
properties that define each solution must hold on their own.
"""

import math

import numpy as np
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import helmert

from gaugecert.cones import (affine_solve, kernel_basis, min_lambda_max,
                             min_norm_point)
from gaugecert.gauges import (AnalysisL1Gauge, GroupL12Gauge, NuclearGauge,
                              SdpTraceGauge, SortedWeightedL1Gauge)

EPS = np.finfo(float).eps


def _wolfe_min_norm_point(P):
    """Minimum-norm point of conv(rows of P) by Wolfe's algorithm."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    norms = np.einsum("ij,ij->i", P, P)
    scale = max(1.0, float(np.max(norms)))
    S = [int(np.argmin(norms))]
    lam = np.array([1.0])
    x = P[S[0]].copy()
    for _ in range(2000):
        dots = P @ x
        i = int(np.argmin(dots))
        if dots[i] >= x @ x - 1e-12 * scale:
            break
        if i in S:
            break
        S.append(i)
        lam = np.append(lam, 0.0)
        while True:
            B = P[S]
            s = len(S)
            # affine minimizer: KKT system for min ||B^T a||^2, sum a = 1
            M = np.zeros((s + 1, s + 1))
            M[:s, :s] = B @ B.T
            M[:s, s] = 1.0
            M[s, :s] = 1.0
            rhs = np.zeros(s + 1)
            rhs[s] = 1.0
            sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
            a = sol[:s]
            if np.all(a > 1e-11):
                lam = a
                x = B.T @ lam
                break
            mask = a <= 1e-11
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(mask & (lam > a), lam / (lam - a), np.inf)
            theta = float(np.min(ratios))
            theta = min(max(theta, 0.0), 1.0)
            lam = lam + theta * (a - lam)
            lam[lam < 1e-11] = 0.0
            keep = lam > 0.0
            if not np.any(keep):
                keep[int(np.argmax(a))] = True
                lam[keep] = 1.0
            S = [S[j] for j in range(s) if keep[j]]
            lam = lam[keep]
            lam = lam / lam.sum()
            x = P[S].T @ lam
    return x


def _fista_analysis_prox(D, x, tau):
    """Evaluated through the dual: u* solves the box-constrained least
    squares min_{|u|<=tau} 0.5||x - D u||^2 and prox = x - D u*."""
    if tau <= 0:
        return x.copy()
    p = D.shape[1]
    u = np.zeros(p)
    v = u.copy()
    t = 1.0
    L = max(float(np.linalg.norm(D, 2) ** 2) if D.size else 1.0, 1e-12)
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


def _pav_wsl1_prox(w, x, tau):
    """Stack-based pool-adjacent-violators routine on the sorted
    magnitudes (isotonic regression of |x|_sorted - tau*w clipped at 0)."""
    lam = tau * w
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


def _helmert_reference(s):
    """Orthonormal basis (s, s - 1) of the vectors whose entries sum to 0."""
    j = np.arange(1, s)
    i = np.arange(s)[:, None]
    return ((i < j) - j * (i == j)) / np.sqrt(j * (j + 1))


def _subgradient_steps(T, direction, step):
    """Move every row of T by step/sqrt(it) against its normalized row of
    ``direction(T)``, for it = 1..300; rows whose direction is below 1e-14
    stay put, and the loop ends once all do.  Yields T after each step, for
    the caller to read or to change in place."""
    for it in range(1, 301):
        G = direction(T)
        gn = np.linalg.norm(G, axis=1, keepdims=True)
        live = gn[:, 0] >= 1e-14
        if not np.any(live):
            return
        T[live] -= (step / math.sqrt(it)) * G[live] / gn[live]
        yield T


def subgradient_min(oracle, y0, N):
    """Minimize a convex nonsmooth f(y) over y = y0 + N t by the shared
    subgradient loop from y0 and four points drawn from ``default_rng(0)``.
    ``oracle`` maps a stack of points (rows) to ``(values, subgradients)``,
    one value and one subgradient row per point, and is called once per
    iterate: its values score the iterate, its subgradients take the next
    step.  y0 and every iterate after a step are scored, the random starts
    are not.  Heuristic; returns the best iterate seen."""
    best_y, best_v, calls = y0, math.inf, 0

    def score(T):
        nonlocal best_y, best_v, calls
        calls += 1
        Y = y0 + T @ N.T
        v, G = oracle(Y)
        if calls == 1:  # the starts: y0 alone is scored
            best_v = float(v[0])
        else:
            i = int(np.argmin(v))
            if v[i] < best_v:
                best_y, best_v = Y[i], float(v[i])
        return G @ N

    k = N.shape[1]
    T = np.vstack([np.zeros(k), np.random.default_rng(0).standard_normal((4, k))])
    step = 0.7 * max(1.0, float(np.linalg.norm(y0)))
    steps = sum(1 for _ in _subgradient_steps(T, score, step))
    if steps == calls:  # the loop ran to its end: its last iterate is unscored
        score(T)
    return best_y, best_v


# ---------------------------------------------------------- min_norm_point

_entries = st.one_of(st.integers(-3, 3).map(float),
                     st.floats(-4.0, 4.0, allow_nan=False, width=32))


@st.composite
def _point_sets(draw):
    """Point sets with the degenerate layouts the NNLS form must survive:
    0 inside the hull, 0 on an edge, duplicate rows and a single row."""
    d = draw(st.integers(1, 4))
    layout = draw(st.sampled_from(["plain", "zero-inside", "zero-on-edge",
                                   "duplicates", "single"]))
    N = 1 if layout == "single" else draw(st.integers(1, 6))
    rows = np.array(draw(st.lists(st.lists(_entries, min_size=d, max_size=d),
                                  min_size=N, max_size=N)))
    if layout == "zero-inside":
        rows = np.vstack([rows, -rows])
    elif layout == "zero-on-edge":
        # the segment [a, -2a] passes through 0; every other row lies in the
        # open half-space of the last coordinate, so 0 is on the boundary
        a = np.eye(d)[0]
        rows[:, -1] = np.abs(rows[:, -1]) + 1.0
        rows = np.vstack([a, -2.0 * a, rows]) if d > 1 else np.vstack([a, -2 * a])
    elif layout == "duplicates":
        rows = np.vstack([rows, rows[:1], rows])
    return rows


def _row_scale(P):
    return max(1.0, float(np.max(np.einsum("ij,ij->i", P, P))))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(P=_point_sets())
def test_min_norm_point_matches_wolfe(P):
    p, ref = min_norm_point(P), _wolfe_min_norm_point(P)
    scale = _row_scale(P)
    assert abs(np.linalg.norm(p) - np.linalg.norm(ref)) <= 1e-12 * scale
    # optimality: no row of P lies beyond the supporting plane at p
    assert np.all(P @ p >= p @ p - 1e-12 * scale)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(P=_point_sets(), scale=st.sampled_from([1e-6, 1.0, 1e4, 1e8]))
@example(P=np.array([[0.0, -1.0, 0.0, 1.0], [0.0, -1.0, -1.0, -1.0]]),
         scale=1e4)
def test_min_norm_point_is_optimal_at_any_scale(P, scale):
    # Wolfe's absolute 1e-11 weight threshold made it cycle on the example
    # (two rows of norm ~1e4); NNLS needs no threshold.  p is a convex
    # combination by construction, and no row lies beyond its plane
    P = scale * P
    p = min_norm_point(P)
    assert np.all(P @ p >= p @ p - 1e-12 * _row_scale(P))


# ---------------------------------------------------------- wsl1 prox

@st.composite
def _weights(draw):
    n = draw(st.integers(1, 6))
    w = np.sort(np.array(draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.5]), min_size=n,
        max_size=n))))[::-1]
    w[0] = max(w[0], 1.0)
    return w


@settings(derandomize=True, max_examples=300, deadline=None)
@given(w=_weights(), data=st.data(),
       tau=st.sampled_from([0.0, 1e-3, 0.5, 1.0, 7.0]))
def test_wsl1_prox_matches_pav(w, data, tau):
    # ties in x and zero weights included
    x = np.array(data.draw(st.lists(_entries, min_size=w.size,
                                    max_size=w.size)))
    got = SortedWeightedL1Gauge(w).prox(x, tau)
    ref = _pav_wsl1_prox(w, x, tau)
    assert np.max(np.abs(got - ref)) <= 4 * EPS * max(1.0, np.max(np.abs(x)))


# ---------------------------------------------------------- analysis prox

@st.composite
def _dictionaries(draw):
    n, p = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    D = np.array(draw(st.lists(st.lists(_entries, min_size=p, max_size=p),
                               min_size=n, max_size=n)))
    extra = draw(st.sampled_from(["none", "duplicate", "zero"]))
    if extra == "duplicate":
        D = np.hstack([D, D[:, :1]])
    elif extra == "zero":
        D = np.hstack([D, np.zeros((n, 1))])
    return D


def _box_coefficients(D, r):
    """min ||u||_inf over D u = r, by LP: (value, residual of the LP's u)."""
    n, p = D.shape
    c = np.zeros(p + 1)
    c[-1] = 1.0
    ones = np.ones((p, 1))
    A_ub = np.block([[np.eye(p), -ones], [-np.eye(p), -ones]])
    res = scipy.optimize.linprog(
        c, A_ub=A_ub, b_ub=np.zeros(2 * p), A_eq=np.hstack([D, np.zeros((n, 1))]),
        b_eq=r, bounds=[(None, None)] * (p + 1), method="highs")
    assert res.status == 0
    return res.x[-1], float(np.linalg.norm(D @ res.x[:p] - r))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(D=_dictionaries(), data=st.data(),
       tau=st.sampled_from([1e-12, 1e-3, 1.0, 1e6]),
       zero_x=st.booleans())
def test_analysis_prox_is_at_least_as_exact_as_fista(D, data, tau, zero_x):
    n = D.shape[0]
    x = np.zeros(n) if zero_x else np.array(
        data.draw(st.lists(_entries, min_size=n, max_size=n)))
    g = AnalysisL1Gauge(D)

    def objective(p):
        return 0.5 * float(np.sum((p - x) ** 2)) + tau * g.value(p)

    p = g.prox(x, tau)
    assert objective(p) <= objective(_fista_analysis_prox(D, x, tau)) + 1e-12
    # x - p = D u with |u| <= tau: p is the prox by its dual certificate
    u_inf, resid = _box_coefficients(D, x - p)
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(D))))
    assert resid <= 1e-9 * scale
    assert u_inf <= tau * (1 + 1e-9) + 1e-9 * scale


# ---------------------------------------------------------- Helmert basis

def test_helmert_basis_keeps_every_bit():
    for s in range(1, 40):
        assert np.array_equal(helmert(s).T, _helmert_reference(s))


# ---------------------------------------------------------- min_lambda_max

def test_subgradient_min_calls_its_oracle_once_per_iterate():
    # one oracle call for the starts, one per step and one for the last
    # iterate; the random starts are never scored
    rng = np.random.default_rng(3)
    B, c = rng.standard_normal((3, 6)), rng.standard_normal(6)
    y0, N = rng.standard_normal(3), kernel_basis(rng.standard_normal((1, 3)))
    calls = []

    def oracle(Y):
        calls.append(len(Y))
        R = Y @ B - c
        j = np.abs(R).argmax(axis=1)
        return (np.abs(R).max(axis=1),
                np.sign(R[np.arange(len(R)), j])[:, None] * B[:, j].T)

    subgradient_min(oracle, y0, N)
    assert calls == [5] * 301
    # zero subgradients stop the loop at its starts: y0 is returned even
    # though every random start scores lower
    calls.clear()

    def flat(Y):
        calls.append(len(Y))
        return -np.linalg.norm(Y - y0, axis=1), np.zeros_like(Y)

    y, val = subgradient_min(flat, y0, N)
    assert calls == [5]
    assert y is y0 and val == 0.0


def _face_draw(kind, seed):
    """A seeded face with one to three free directions of its certificate
    search, and its A: group_l12 on three groups of two, nuclear 2 x 3 and
    sdp_trace n = 4 at rank one."""
    rng = np.random.default_rng(seed)
    if kind == "group_l12":
        g, fixed = GroupL12Gauge(6, [[0, 1], [2, 3], [4, 5]]), 2
        x0 = np.zeros(6)
        x0[:2] = rng.uniform(0.5, 1.5, 2)
    elif kind == "nuclear":
        g, fixed = NuclearGauge((2, 3)), 4
        x0 = g.draw_x0(rng)
    else:
        G = rng.standard_normal((4, 4))
        g, fixed = SdpTraceGauge(G @ G.T / 4 + np.eye(4)), 4
        x0 = g.draw_x0(rng)
    A = rng.standard_normal((fixed + int(rng.integers(1, 4)), g.n))
    return g.face(x0), A, rng


def _pencil_oracle(pencil, m):
    """The ``(values, subgradients)`` oracle of lambda_max(pencil(y)): the
    top eigenvalue, and <L_j, v v^T> for its unit eigenvector v and the
    linear part L_j of the pencil along e_j."""
    L = pencil(np.eye(m)) - pencil(np.zeros((1, m)))

    def oracle(Y):
        w, V = np.linalg.eigh(pencil(Y))
        v = V[:, :, -1]
        return w[:, -1], np.einsum("jab,ka,kb->kj", L, v, v)

    return oracle


@settings(derandomize=True, max_examples=30, deadline=None)
@given(kind=st.sampled_from(["group_l12", "nuclear", "sdp_trace"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_min_lambda_max_beats_the_subgradient_loop(kind, seed):
    face, A, rng = _face_draw(kind, seed)
    rows, rhs, _ = face.affine_part(A)
    y_p, N, _ = affine_solve(rows, rhs)
    pencil = face.pencil(A)
    M0 = pencil(y_p[None])[0]
    res = min_lambda_max(M0, pencil(N.T) - pencil(np.zeros((1, len(y_p)))))
    scale = float(np.abs(M0).max())
    assert res.iters <= 40
    if not res.certified:
        # below lambda_min(M0) the family is unbounded: no dual point bounds it
        assert res.upper < np.linalg.eigvalsh(M0)[0]
        return
    ref = subgradient_min(_pencil_oracle(pencil, len(y_p)), y_p, N)[1]
    assert res.upper <= ref + 1e-9 * scale
    # the lower bound holds at points near and far from the minimizer
    T = res.t + rng.standard_normal((50, N.shape[1])) * np.logspace(-8, 0, 50)[:, None]
    spread = np.linalg.eigvalsh(pencil(y_p + T @ N.T))[:, -1]
    assert res.lower <= spread.min() + 1e-12 * scale
