"""Gauge invariants (homogeneity, convexity, polar duality, prox optimality)
plus frozen oracles for the closed-form special cases."""

import ast
import itertools
import math
import pickle
from copy import deepcopy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaugecert
from gaugecert.certificates import check_sharp
from gaugecert.cones import lp_solve
from gaugecert.gauges import (
    KINDS,
    AnalysisL1Gauge,
    GroupL12Gauge,
    L1Gauge,
    NonnegL1Gauge,
    NuclearGauge,
    SdpTraceGauge,
    SortedWeightedL1Gauge,
    VertexCapExceeded,
)
from gaugecert.gauges.matrix import _bottom_eig, _thin_polar

EPS = np.finfo(float).eps


def sample_domain(gauge, rng, count):
    """Draw points with J finite (PSD matrices / nonnegative vectors where
    the domain is restricted, plain Gaussians elsewhere)."""
    n = gauge.n
    if gauge.kind == "nonneg_l1":
        return np.abs(rng.standard_normal((count, n)))
    if gauge.kind == "sdp_trace":
        d = gauge.nmat
        out = np.empty((count, n))
        for i in range(count):
            G = rng.standard_normal((d, d))
            out[i] = (G @ G.T).ravel()
        return out
    return rng.standard_normal((count, n))


def make_zoo():
    rng = np.random.default_rng(11)
    D = rng.standard_normal((4, 6))
    return [
        L1Gauge(4),
        AnalysisL1Gauge(D),
        SortedWeightedL1Gauge([2.0, 1.5, 1.0, 0.5]),
        GroupL12Gauge(5, [[0, 1], [2, 3], [4]]),
        NonnegL1Gauge(4),
        NuclearGauge((2, 2)),
        SdpTraceGauge(np.array([[2.0, 0.3], [0.3, 1.0]])),
    ]


def test_zero_nonneg_homogeneous_convex():
    rng = np.random.default_rng(0)
    for gauge in make_zoo():
        assert gauge.value(np.zeros(gauge.n)) == 0.0
        X = sample_domain(gauge, rng, 60)
        Y = sample_domain(gauge, rng, 60)
        for x, y in zip(X, Y):
            jx, jy = gauge.value(x), gauge.value(y)
            assert jx >= 0.0
            t = float(rng.uniform(0.1, 5.0))
            assert gauge.value(t * x) == pytest.approx(t * jx, rel=1e-10, abs=1e-12)
            mid = gauge.value(0.5 * (x + y))
            assert mid <= 0.5 * (jx + jy) + 1e-9 * (1 + jx + jy), gauge.kind


def test_value_batch_matches_value():
    rng = np.random.default_rng(1)
    for gauge in make_zoo():
        X = sample_domain(gauge, rng, 40)
        vals = gauge.value_batch(X)
        for i in range(X.shape[0]):
            assert vals[i] == pytest.approx(gauge.value(X[i]), rel=1e-12, abs=1e-12)


def test_prox_minimizes_model():
    # prox(v, tau) must beat every sampled competitor on tau*J(u) + ||u-v||^2/2
    rng = np.random.default_rng(2)
    for gauge in make_zoo():
        for _ in range(10):
            v = rng.standard_normal(gauge.n)
            tau = float(rng.uniform(0.05, 2.0))
            p = gauge.prox(v, tau)
            assert gauge.domain_residual(p) <= 1e-8
            fp = tau * gauge.value(p) + 0.5 * np.sum((p - v) ** 2)
            comp = [np.zeros(gauge.n), v]
            comp.extend(sample_domain(gauge, rng, 30))
            comp.extend(p + 1e-3 * rng.standard_normal((30, gauge.n)))
            for u in comp:
                ju = gauge.value(u)
                if not np.isfinite(ju):
                    continue
                fu = tau * ju + 0.5 * np.sum((u - v) ** 2)
                assert fp <= fu + 1e-8, (gauge.kind, fp - fu)


def test_polar_inequality_and_homogeneity():
    rng = np.random.default_rng(3)
    for gauge in make_zoo():
        Z = rng.standard_normal((25, gauge.n))
        X = sample_domain(gauge, rng, 50)
        for z in Z:
            pz = gauge.polar(z)
            t = float(rng.uniform(0.2, 4.0))
            if np.isfinite(pz):
                assert gauge.polar(t * z) == pytest.approx(t * pz, rel=1e-9, abs=1e-12)
            for x in X:
                jx = gauge.value(x)
                assert float(z @ x) <= pz * jx + 1e-8 * (1 + abs(pz) * (1 + jx))


def test_l1_frozen():
    g = L1Gauge(3)
    assert g.value([3.0, -0.2, 0.05]) == pytest.approx(3.25)
    assert np.allclose(g.prox([3.0, -0.2, 0.05], 0.5), [2.5, 0.0, 0.0])
    assert g.polar([1.0, -4.0, 0.3]) == pytest.approx(4.0)
    assert g.lipschitz() == pytest.approx(np.sqrt(3))


def test_wsl1_frozen():
    # prox oracle from a multiscale grid search (41-point refinement, 6 stages)
    g = SortedWeightedL1Gauge([2.0, 1.0])
    assert np.allclose(g.prox([3.0, 1.5], 1.0), [1.0, 0.5], atol=1e-9)
    # polar oracle from exact enumeration of unit-ball vertices
    g3 = SortedWeightedL1Gauge([2.0, 1.5, 0.5])
    assert g3.polar([1.0, -2.0, 0.3]) == pytest.approx(1.0, abs=1e-12)
    assert g3.value([1.0, -2.0, 0.3]) == pytest.approx(2 * 2 + 1.5 * 1 + 0.5 * 0.3)
    with pytest.raises(ValueError):
        SortedWeightedL1Gauge([1.0, 2.0])  # increasing
    with pytest.raises(ValueError):
        SortedWeightedL1Gauge([0.0, 0.0])  # zero lead weight


def test_group_frozen():
    g = GroupL12Gauge(3, [[0, 1], [2]])
    assert g.value([3.0, 4.0, -2.0]) == pytest.approx(7.0)
    assert np.allclose(g.prox([3.0, 4.0, -2.0], 1.0), [2.4, 3.2, -1.0])
    assert g.polar([3.0, 4.0, -2.0]) == pytest.approx(5.0)  # max block norm


def test_group_prox_jacobian_matches_finite_differences():
    # away from the kinks ||v_g|| = tau the prox is smooth, and D must be
    # its Jacobian: symmetric, 0 on the groups the prox kills, with
    # eigenvalues in [0, 1]; the prox itself is ``prox`` to the bit
    g = GroupL12Gauge(6, [[0, 1, 2], [3, 4], [5]])
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(40):
        v = rng.standard_normal(6)
        tau = float(rng.uniform(0.1, 1.5))
        norms = [np.linalg.norm(v[idx]) for idx in g.groups]
        if min(abs(nb - tau) for nb in norms) < 1e-3:
            continue
        p, D = g.prox_jacobian(v, tau)
        assert np.array_equal(p, g.prox(v, tau))
        assert np.allclose(D, D.T, atol=1e-15)
        eig = np.linalg.eigvalsh(D)
        assert eig.min() >= -1e-12 and eig.max() <= 1.0 + 1e-12
        h = 1e-6
        fd = np.column_stack([(g.prox(v + h * e, tau) - g.prox(v - h * e, tau))
                              / (2 * h) for e in np.eye(6)])
        assert np.max(np.abs(D - fd)) <= 1e-7
        for idx, nb in zip(g.groups, norms):
            if nb <= tau:
                assert not D[idx].any() and not p[idx].any()
        checked += 1
    assert checked >= 30
    assert L1Gauge(3).prox_jacobian(np.ones(3), 0.5) is None


def test_nonneg_frozen():
    g = NonnegL1Gauge(2)
    assert g.value([1.2, 0.0]) == pytest.approx(1.2)
    assert not np.isfinite(g.value([1.0, -0.5]))
    assert np.allclose(g.prox([1.2, -0.5], 0.2), [1.0, 0.0])
    assert g.polar([0.5, -3.0]) == pytest.approx(0.5)  # max positive part
    assert g.domain_residual([1.0, -0.25]) == pytest.approx(0.25)
    assert g.domain_residual([1.0, 0.0]) == 0.0


def test_nuclear_frozen():
    g = NuclearGauge((2, 2))
    X = np.diag([3.0, 0.2]).ravel()
    assert g.value(X) == pytest.approx(3.2)
    assert np.allclose(g.prox(X, 0.5), np.diag([2.5, 0.0]).ravel())
    assert g.polar(X) == pytest.approx(3.0)  # spectral norm
    assert g.lipschitz() == pytest.approx(np.sqrt(2))


def test_sdp_frozen():
    C = np.diag([2.0, 1.0])
    g = SdpTraceGauge(C)
    X = np.array([[1.0, 0.2], [0.2, 0.5]])
    assert g.value(X.ravel()) == pytest.approx(float(np.sum(C * X)))
    assert not np.isfinite(g.value(np.diag([1.0, -0.1]).ravel()))
    assert g.domain_residual(np.diag([1.0, -0.1]).ravel()) == pytest.approx(0.1)
    # polar oracle: lambda_max(C^{-1/2} Z C^{-1/2}), floored at zero
    Z = np.array([[3.0, 0.5], [0.5, -1.0]])
    assert g.polar(Z.ravel()) == pytest.approx(1.549038105676658, abs=1e-9)
    # trace identity of the whitened matrix: lam_max + lam_min = 1/2
    assert g.polar(-Z.ravel()) == pytest.approx(1.049038105676658, abs=1e-9)
    # prox: project v - tau*C onto the PSD cone
    got = g.prox(np.diag([2.0, -1.0]).ravel(), 0.5)
    assert np.allclose(got, np.diag([1.0, 0.0]).ravel())
    with pytest.raises(ValueError):
        SdpTraceGauge(np.array([[1.0, 0.5], [0.0, 1.0]]))  # not symmetric


def test_sdp_interior_feasibility():
    g = SdpTraceGauge(np.eye(2))
    # tr X = 2: X = I is a positive definite feasible point
    ok, note = g.interior_feasibility(np.eye(2).reshape(1, 4), np.array([2.0]))
    assert ok, note
    # X_00 = 0 forces a zero first row on every PSD point: none is definite
    A = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0]])
    ok, note = g.interior_feasibility(A, np.array([0.0, 1.0]))
    assert not ok, note


def test_analysis_value_and_orthogonal_prox():
    th = 0.3
    D = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    g = AnalysisL1Gauge(D)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.standard_normal(2)
        assert g.value(x) == pytest.approx(float(np.abs(D.T @ x).sum()))
        # orthogonal D: prox = D o soft-threshold o D^T
        tau = float(rng.uniform(0.1, 1.0))
        u = D.T @ x
        soft = np.sign(u) * np.maximum(np.abs(u) - tau, 0.0)
        assert np.allclose(g.prox(x, tau), D @ soft, atol=1e-7)


def test_dir_deriv_matches_finite_differences():
    rng = np.random.default_rng(5)
    for gauge in make_zoo():
        X = sample_domain(gauge, rng, 8)
        for x0 in X:
            if gauge.kind == "sdp_trace":  # keep x0 + t*h inside the domain
                x0 = x0 + 2.0 * np.eye(gauge.nmat).ravel()
            for _ in range(4):
                h = rng.standard_normal(gauge.n)
                if gauge.kind == "sdp_trace":
                    # the domain holds symmetric matrices only, so probe
                    # along symmetric directions
                    Hm = h.reshape(gauge.nmat, gauge.nmat)
                    h = (0.5 * (Hm + Hm.T)).ravel()
                t = 1e-7
                fd = (gauge.value(x0 + t * h) - gauge.value(x0)) / t
                dd = gauge.dir_deriv(x0, h)
                assert dd == pytest.approx(fd, abs=5e-6 * (1 + np.linalg.norm(h)))
            H = rng.standard_normal((7, gauge.n))
            if gauge.kind == "sdp_trace":
                Hm = H.reshape(7, gauge.nmat, gauge.nmat)
                H = (0.5 * (Hm + np.transpose(Hm, (0, 2, 1)))).reshape(7, -1)
            got = gauge.dir_deriv_batch(x0, H)
            want = [gauge.dir_deriv(x0, h) for h in H]
            assert np.allclose(got, want, atol=1e-10)


def test_directional_subgradients_and_critical_cones():
    # each row of dir_subgrad_batch is a subgradient of h -> J'(x0; h); the
    # critical cone's violation is nonnegative (for the finite kinds zero
    # exactly where J' <= 0) with subgradient rows of its own
    rng = np.random.default_rng(12)
    for gauge in make_zoo():
        for trial in range(6):
            x0 = sample_domain(gauge, rng, 1)[0]
            if trial % 3 == 0:
                x0 = np.zeros(gauge.n)
            elif trial % 3 == 1 and not gauge.is_conic:
                x0 = x0 * (rng.random(gauge.n) < 0.5)
            # differences of domain points are tangent directions at x0;
            # -x0 is a direction with J'(x0; -x0) = -J(x0) <= 0
            H = np.vstack([sample_domain(gauge, rng, 8) - x0, -x0])
            dd = gauge.dir_deriv_batch(x0, H)
            cone = gauge.critical_cone(x0)
            viol = cone.violation_batch(H)
            assert np.all(viol >= 0.0), gauge.kind
            if not gauge.is_conic:
                assert np.array_equal(viol == 0.0, dd <= 0.0), gauge.kind
            rows = zip(H, gauge.dir_subgrad_batch(x0, H),
                       cone.violation_subgrad_batch(H))
            for h, g, vg in rows:
                tol = 1e-9 * (1.0 + np.linalg.norm(h))
                for _ in range(4):
                    d = 1e-6 * rng.standard_normal(gauge.n)
                    assert gauge.dir_deriv(x0, h + d) >= \
                        gauge.dir_deriv(x0, h) + g @ d - tol, gauge.kind
                    assert cone.violation(h + d) >= \
                        cone.violation(h) + vg @ d - tol, gauge.kind


def _two_call_subgrad(gauge, x0, H):
    """The subgradient rows of the kinds that now take them from
    ``dir_deriv_subgrad_batch`` (l1, analysis_l1 and group_l12 through
    ``descent_form``), by the formulas ``dir_subgrad_batch`` had when it was
    written on its own; None for the other kinds."""
    if gauge.kind == "nuclear":
        # the tail block taken as the gauge takes it, by one GEMM, so that
        # a tail at rounding level has the same direction in both
        U1, V1, U2, V2 = gauge._blocks(x0)
        G = np.tile((U1 @ V1.T).ravel(), (H.shape[0], 1))
        if U2.shape[1] and V2.shape[1]:
            T = (H @ np.kron(U2, V2)).reshape(-1, U2.shape[1], V2.shape[1])
            Uw, _, Vwt = np.linalg.svd(T)
            k = min(Uw.shape[2], Vwt.shape[1])
            G += (U2 @ (Uw[:, :, :k] @ Vwt[:, :k]) @ V2.T).reshape(-1, gauge.n)
        return G
    if gauge.kind == "l1":
        on = np.abs(x0) > 1e-12 * max(1.0, np.max(np.abs(x0), initial=0.0))
        return np.where(on, np.sign(x0), np.where(H >= 0.0, 1.0, -1.0))
    if gauge.kind == "analysis_l1":
        g0, G = gauge.D.T @ x0, H @ gauge.D
        on = np.abs(g0) > 1e-12 * max(1.0, np.max(np.abs(g0), initial=0.0))
        U = np.where(on, np.sign(g0), np.where(G >= 0.0, 1.0, -1.0))
        return U @ gauge.D.T
    if gauge.kind == "group_l12":
        G = np.zeros_like(H)
        scale = max(1.0, np.max(np.abs(x0), initial=0.0))
        for idx in gauge.groups:
            nb = np.linalg.norm(x0[idx])
            if nb > 1e-12 * scale:
                G[:, idx] = x0[idx] / nb
            else:
                nh = np.linalg.norm(H[:, idx], axis=1, keepdims=True)
                G[:, idx] = np.divide(H[:, idx], nh, where=nh > 1e-15,
                                      out=np.zeros((H.shape[0], idx.size)))
        return G
    return None


def _tail_free(gauge, x0, H):
    """H with its tail at x0 removed: the part of each row that J'(x0; .)
    reads through a norm (nuclear: the block U2^T h V2; sdp_trace: the
    kernel block E^T h E; vector kinds: the coordinates off the support)."""
    if gauge.kind == "nuclear":
        _, _, U2, V2 = gauge._blocks(x0)
        M = H.reshape(-1, *gauge.shape)
        return (M - U2 @ (U2.T @ M @ V2) @ V2.T).reshape(H.shape)
    if gauge.kind == "sdp_trace":
        E = gauge._kernel(x0)
        M = H.reshape(-1, gauge.nmat, gauge.nmat)
        return (M - E @ (E.T @ M @ E) @ E.T).reshape(H.shape)
    return H * (x0 != 0.0)


def test_fused_oracle_matches_the_two_oracles():
    # dir_deriv_subgrad_batch gives dir_deriv_batch's values and the rows
    # dir_subgrad_batch gave as a separate oracle, at x0 = 0, a sparse or
    # low-rank x0 and a generic one, on zero rows, +-x0, random directions
    # and directions with no tail
    rng = np.random.default_rng(18)
    for gauge in make_zoo() + [NuclearGauge((2, 3))]:
        for x0 in (np.zeros(gauge.n), gauge.draw_x0(rng),
                   sample_domain(gauge, rng, 1)[0]):
            R = rng.standard_normal((12, gauge.n))
            H = np.vstack([np.zeros((2, gauge.n)), x0, -x0, R,
                           _tail_free(gauge, x0, R)])
            vals, G = gauge.dir_deriv_subgrad_batch(x0, H)
            dd = gauge.dir_deriv_batch(x0, H)
            if gauge.kind == "nuclear":
                # its values come from the full SVD of the tail block,
                # dir_deriv_batch's from its singular values alone: equal up
                # to rounding
                assert np.allclose(vals, dd, rtol=1e-14, atol=1e-14)
                assert np.array_equal(vals > 0.0, dd > 0.0)
            else:
                assert np.array_equal(vals, dd), gauge.kind
            want = _two_call_subgrad(gauge, x0, H)
            if want is None:
                want = gauge.dir_subgrad_batch(x0, H)
            if gauge.kind == "nuclear":
                # a tail with a side of 1 takes its polar factor in closed
                # form: equal to LAPACK's to rounding, and bit for bit on
                # the zero rows, where both take the first unit vector
                assert np.array_equal(G[:2], want[:2])
                assert np.allclose(G, want, rtol=0.0, atol=1e-15)
            else:
                assert np.array_equal(G, want), gauge.kind
            assert np.array_equal(gauge.dir_subgrad_batch(x0, H), G)


def test_nuclear_dir_deriv_builds_the_tail_once():
    # both oracles build the tail block U2^T M V2 the same way; at a rank-1
    # 2 x 2 point the tail is 1 x 1, its singular value the same from either
    # SVD, so the two values agree bit for bit
    rng = np.random.default_rng(21)
    g = NuclearGauge((2, 2))
    x0 = g.draw_x0(rng, rank=1)
    H = rng.standard_normal((5000, g.n))
    assert np.array_equal(g.dir_deriv_batch(x0, H),
                          g.dir_deriv_subgrad_batch(x0, H)[0])


def _abs_lift(g, P):
    k = P.shape[0]
    return (np.vstack([g, np.kron(P, [[1.0], [-1.0]])]),
            np.vstack([np.ones(k), np.kron(np.eye(k), [[-1.0], [-1.0]])]))


def _sign_vertices(g, P):
    signs = itertools.product((1.0, -1.0), repeat=P.shape[0])
    return g + np.array(list(signs)) @ P


#: the directions at which the reference values are taken, by dimension
_HOOK_DIRS = {n: np.random.default_rng(n).standard_normal((9, n))
              for n in (1, 4, 5, 6, 9)}


def _hooks_as_written_per_kind(gauge, x0):
    """``(J'(x0; .) at the rows of _HOOK_DIRS or None, descent_lift,
    descent_soc, descent_pieces)`` by each kind's closed formulas, written
    out here as the reference for the hooks read from ``descent_form``."""
    n = gauge.n
    H = _HOOK_DIRS[n]
    if gauge.kind in ("l1", "analysis_l1"):
        D = np.eye(n) if gauge.kind == "l1" else gauge.D
        g0, G = D.T @ x0, H @ D
        on = np.abs(g0) > 1e-12 * max(1.0, np.max(np.abs(g0), initial=0.0))
        vals = G[:, on] @ np.sign(g0[on]) + np.abs(G[:, ~on]).sum(axis=1)
        if gauge.kind == "l1":
            base = np.where(on, np.sign(x0), 0.0)
            P = np.eye(n)[~on]
            pieces = _sign_vertices(base, P)
        else:
            base, P = D[:, on] @ np.sign(g0[on]), D[:, ~on].T
            pieces = np.unique(np.round(_sign_vertices(base, P), 12), axis=0)
        return vals, _abs_lift(base, P), None, pieces
    if gauge.kind == "group_l12":
        vals, b, zero = np.zeros(len(H)), np.zeros(n), []
        scale = max(1.0, np.max(np.abs(x0), initial=0.0))
        for idx in gauge.groups:
            nb = np.linalg.norm(x0[idx])
            if nb > 1e-12 * scale:
                b[idx] = x0[idx] / nb
                vals += H[:, idx] @ b[idx]
            else:
                zero.append(idx)
                vals += np.linalg.norm(H[:, idx], axis=1)
        lift = None if any(idx.size > 1 for idx in zero) else \
            _abs_lift(b, np.eye(n)[np.concatenate(zero + [np.zeros(0, int)])])
        soc = (b, np.eye(n)[zero[0]]) \
            if len(zero) == 1 and zero[0].size > 1 else None
        return vals, lift, soc, None
    U1, V1, U2, V2 = gauge._blocks(x0)
    base, K = (U1 @ V1.T).ravel(), np.kron(U2, V2)
    lift = _abs_lift(base, K.T) if K.shape[1] <= 1 else None
    soc = (base, K.T) if K.shape[1] > 1 and min(K.shape[1], U2.shape[1],
                                                 V2.shape[1]) == 1 else None
    return None, lift, soc, None


def _same(a, b):
    """Both None, or the same arrays (one or a tuple of them), bit for bit."""
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(np.array_equal, a, b))
    return np.array_equal(a, b)


def test_descent_form_gives_the_hooks_each_kind_wrote():
    # the hooks read from descent_form return what the kinds' own hooks
    # returned: seeded x0 with and without zero groups, and nuclear tails
    # of no entry, one entry, a side of 1 and a side of 2
    rng = np.random.default_rng(24)
    D = rng.standard_normal((4, 6))
    D_rep = np.hstack([np.eye(4), np.eye(4)[:, :2]])  # repeated columns
    group = GroupL12Gauge(5, [[0, 1], [2, 3], [4]])
    cases = [(L1Gauge(5), np.zeros(5)), (L1Gauge(5), rng.standard_normal(5))]
    cases += [(L1Gauge(5), L1Gauge(5).draw_x0(rng, sparsity=k)) for k in (1, 2)]
    for M in (D, D_rep):
        g = AnalysisL1Gauge(M)
        cases += [(g, np.zeros(4)), (g, rng.standard_normal(4)),
                  (g, np.array([1.0, 0.0, -2.0, 0.0]))]
    for keep in itertools.product((0.0, 1.0), repeat=3):
        x0 = rng.standard_normal(5)
        for gi, idx in enumerate(group.groups):
            x0[idx] *= keep[gi]
        cases.append((group, x0))
    for shape, rank in (((2, 3), 1), ((2, 3), 2), ((2, 2), 1), ((3, 3), 1),
                        ((3, 3), 2), ((1, 4), 0), ((1, 4), 1), ((2, 2), 0)):
        g = NuclearGauge(shape)
        cases.append((g, g.draw_x0(rng, rank=rank)))
    for gauge, x0 in cases:
        vals, lift, soc, pieces = _hooks_as_written_per_kind(gauge, x0)
        what = (gauge.kind, x0)
        if vals is not None:
            H = _HOOK_DIRS[gauge.n]
            assert np.array_equal(gauge.dir_deriv_batch(x0, H), vals), what
            assert np.array_equal(gauge.dir_deriv_subgrad_batch(x0, H)[0],
                                  vals), what
        assert _same(gauge.descent_lift(x0), lift), what
        assert _same(gauge.descent_soc(x0), soc), what
        assert _same(gauge.descent_pieces(x0), pieces), what
    # every shape of nuclear tail above, and each of lift / soc / neither
    kinds = {(g.kind, g.descent_lift(x0) is not None,
              g.descent_soc(x0) is not None) for g, x0 in cases}
    assert {("group_l12", True, False), ("group_l12", False, True),
            ("group_l12", False, False), ("nuclear", True, False),
            ("nuclear", False, True), ("nuclear", False, False)} <= kinds


def test_decomposable_kinds_give_only_a_form():
    own = {"dir_deriv_batch", "dir_subgrad_batch", "dir_deriv_subgrad_batch",
           "descent_lift", "descent_soc"}
    for cls in (L1Gauge, AnalysisL1Gauge, GroupL12Gauge):
        assert not own & set(vars(cls)), cls.__name__
        assert "descent_form" in vars(cls), cls.__name__
    assert not {"descent_lift", "descent_soc"} & set(vars(NuclearGauge))


def test_one_cap_exception():
    from gaugecert.cones import EnumerationCapExceeded
    assert VertexCapExceeded is EnumerationCapExceeded
    assert gaugecert.VertexCapExceeded is EnumerationCapExceeded


def test_sdp_polar_with_a_singular_c():
    # C = diag(1, 0) is singular: the polar inf{a >= 0 : a C - Z is PSD}
    # is found by bisection, and is +inf where no multiple of C dominates Z
    g = SdpTraceGauge(np.diag([1.0, 0.0]))
    assert g.polar(np.diag([2.0, 0.0]).ravel()) == pytest.approx(2.0, abs=1e-10)
    assert g.polar(-np.eye(2).ravel()) == 0.0
    assert g.polar(np.diag([0.0, 1.0]).ravel()) == math.inf
    assert g.polar(np.ones(4)) == math.inf
    # scaling Z scales the polar
    assert g.polar(np.diag([6.0, -1.0]).ravel()) == pytest.approx(6.0, abs=1e-9)


def test_sdp_geometry_matches_the_loop_formulas():
    # sym_basis by index is the loop's basis bit for bit; the face tangent
    # and samples through kron(E, E) are the outer-product formulas' to
    # rounding
    def sym_loop(n):
        cols = [np.outer(e, e).ravel() for e in np.eye(n)]
        cols += [(np.outer(a, b) + np.outer(b, a)).ravel() / np.sqrt(2.0)
                 for i, a in enumerate(np.eye(n)) for b in np.eye(n)[i + 1:]]
        return np.array(cols).reshape(len(cols), n * n).T

    for n in range(6):
        assert np.array_equal(gaugecert.sym_basis(n), sym_loop(n)), n
    rng = np.random.default_rng(25)
    for nm, rank in ((3, 1), (4, 2), (4, 1), (2, 2)):
        g = SdpTraceGauge(np.eye(nm))
        x0 = g.draw_x0(rng, rank=rank)
        face, E = g.face(x0), g._kernel(x0)
        d = E.shape[1]
        S = sym_loop(d)
        want = np.array([(E @ s.reshape(d, d) @ E.T).ravel() for s in S.T])
        assert np.allclose(face.tangent, want.reshape(-1, nm * nm).T,
                           rtol=0.0, atol=1e-15), (nm, rank)
        seed = int(rng.integers(1 << 30))
        Z = face.sample(np.random.default_rng(seed), 5)
        draw = np.random.default_rng(seed)
        for z in Z:
            G = draw.standard_normal((d, d))
            M = -(G @ G.T) / max(d, 1)
            assert np.allclose(z, (g.C + E @ M @ E.T).ravel(),
                               rtol=0.0, atol=1e-14), (nm, rank)


def test_l1_is_analysis_l1_with_the_identity():
    # J(x) = ||I^T x||_1 is the l1 norm: the two kinds give the same lifted
    # descent cone and the same subdifferential vertices at any x0
    rng = np.random.default_rng(22)
    for n in range(1, 7):
        l1, an = L1Gauge(n), AnalysisL1Gauge(np.eye(n))
        for sparsity in range(n + 1):
            x0 = l1.draw_x0(rng, sparsity=sparsity)
            for a, b in zip(l1.descent_lift(x0), an.descent_lift(x0)):
                assert np.array_equal(a, b), (n, x0)
            assert ({tuple(v) for v in l1.descent_pieces(x0)}
                    == {tuple(v) for v in an.descent_pieces(x0)}), (n, x0)


def test_probe_steps_take_one_decomposition(monkeypatch):
    counts = {}

    def counting(name):
        original = getattr(np.linalg, name)

        def call(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, call)

    for name in ("svd", "eigh", "eigvalsh"):
        counting(name)
    rng = np.random.default_rng(19)
    # nuclear: none of x0 once the cone is built (the cone reads the SVD of
    # x0 for its lift or second-order form, and every oracle call at that x0
    # reuses it); a tail with a side of 1 (2 x 3 at rank 1) takes no LAPACK
    # call, a larger one (3 x 3 at rank 1) one full SVD per cone subgradient
    # call
    for shape, per_step in (((2, 3), 0), ((3, 3), 1)):
        g = NuclearGauge(shape)
        x0 = g.draw_x0(rng)
        H = rng.standard_normal((50, g.n))
        cone = g.critical_cone(x0)
        counts.clear()
        for _ in range(3):
            cone.violation_subgrad_batch(H)
        assert counts == ({"svd": 3 * per_step} if per_step else {}), shape
        counts.clear()
        g.dir_deriv_batch(x0, H)
        g.dir_subgrad_batch(x0, H)
        g.face(x0)
        assert counts == ({"svd": 2} if per_step else {}), shape
    # sdp_trace: none of x0 once the cone is built; a kernel block of side
    # 2 (n = 3 at rank 1) takes no LAPACK call, one of side 3 (n = 4 at
    # rank 1) one eigh per critical-cone subgradient call and one eigvalsh
    # per value call
    for nm, per_step in ((3, 0), (4, 1)):
        g = SdpTraceGauge(np.eye(nm))
        x0 = g.draw_x0(rng)
        H = rng.standard_normal((50, g.n))
        cone = g.critical_cone(x0)
        counts.clear()
        cone.violation_subgrad_batch(H)
        assert counts == ({"eigh": 1} if per_step else {}), nm
        counts.clear()
        cone.violation_batch(H)
        g.dir_deriv_batch(x0, H)
        assert counts == ({"eigvalsh": 2} if per_step else {}), nm


def test_a_copied_gauge_keeps_no_memo(monkeypatch):
    # the SVD of x0 is kept for the last x0; a pickled or deep-copied gauge
    # drops it and decomposes x0 anew, to the same bits
    svds = []

    def svd(*args, real=np.linalg.svd, **kwargs):
        svds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    g = NuclearGauge((2, 3))
    x0 = g.draw_x0(np.random.default_rng(20))
    H = np.random.default_rng(21).standard_normal((5, g.n))
    first = g.dir_deriv_batch(x0, H)
    assert len(svds) == 1
    for copy in (g, pickle.loads(pickle.dumps(g)), deepcopy(g)):
        svds.clear()
        assert np.array_equal(copy.dir_deriv_batch(x0, H), first)
        assert len(svds) == (copy is not g)


#: entries of a block before its scale: signed, and far from underflow
_MANTISSA = st.one_of(st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
#: overall scales of a block: the closed forms hold far from 1 as well
_SCALES = st.sampled_from([1e-150, 1e-8, 1.0, 1e8, 1e150])


@st.composite
def _sym_block(draw, side):
    """A symmetric block of side 1 or 2: random, or zero, or, at side 2,
    a multiple of the identity, diagonal (b = 0), with equal diagonal
    entries, or with |b| far below |a - c|."""
    a, b, c = (draw(_MANTISSA) for _ in range(3))
    shape = draw(st.sampled_from(["random", "zero", "scalar", "diagonal",
                                  "equal_diagonal", "tiny_b"]))
    if shape == "zero":
        a = b = c = 0.0
    elif shape == "scalar":
        b, c = 0.0, a
    elif shape == "diagonal":
        b = 0.0
    elif shape == "equal_diagonal":
        c = a
    elif shape == "tiny_b":
        b *= 1e-9 * abs(a - c)
    K = draw(_SCALES) * np.array([[a, b], [b, c]])
    return K[:side, :side]


@pytest.mark.parametrize("side", [1, 2])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_closed_form_bottom_eigenpair_matches_lapack(side, data):
    # the kernel blocks of side <= 2 skip LAPACK: their smallest eigenvalue
    # agrees with eigvalsh, and its vector is a unit eigenvector, both to
    # 8 eps ||K||_F
    K = np.array(data.draw(st.lists(_sym_block(side), min_size=1,
                                    max_size=6)))
    lam, top, v = _bottom_eig(K, vectors=True)
    w = np.linalg.eigvalsh(K)
    tol = 8 * EPS * np.linalg.norm(K, axis=(1, 2))
    assert np.all(np.abs(lam - w[:, 0]) <= tol)
    assert np.all(np.abs(top - np.abs(w).max(axis=1)) <= tol)
    assert np.array_equal(_bottom_eig(K)[0], lam)
    resid = np.einsum("kij,kj->ki", K, v) - lam[:, None] * v
    assert np.all(np.linalg.norm(resid, axis=1) <= tol)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, rtol=0.0, atol=4 * EPS)


@st.composite
def _thin_stack(draw):
    """A stack of 1 x q or q x 1 blocks: random, zero (with a signed zero
    first) or with one nonzero entry, each at its own scale."""
    q, tall = draw(st.integers(1, 4)), draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = np.array([draw(_MANTISSA) for _ in range(q)])
        shape = draw(st.sampled_from(["random", "zero", "one_entry"]))
        if shape == "zero":
            row = np.copysign(0.0, row)
        elif shape == "one_entry":
            row *= np.arange(q) == draw(st.integers(0, q - 1))
        rows.append(draw(_SCALES) * row)
    return np.array(rows).reshape((-1, q, 1) if tall else (-1, 1, q))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(B=_thin_stack())
def test_closed_form_thin_polar_matches_lapack(B):
    # a nuclear tail with a side of 1 skips LAPACK: its value agrees with
    # the SVD to 4 eps ||B||, its polar factor P is a subgradient of the
    # nuclear norm there (||P||_2 <= 1 and <P, B> = ||B||_*), and a zero
    # block's is LAPACK's, bit for bit
    t = B.reshape(len(B), -1)
    s, P = _thin_polar(t)
    Uw, ref, Vwt = np.linalg.svd(B)
    ref = ref[:, 0]
    assert np.all(np.abs(s - ref) <= 4 * EPS * ref)
    assert np.all(np.linalg.norm(P.reshape(B.shape), 2, axis=(1, 2))
                  <= 1.0 + 4 * EPS)
    assert np.all(np.abs(np.einsum("ki,ki->k", P, t) - ref) <= 4 * EPS * ref)
    zero = ~t.any(axis=1)
    lapack = (Uw[:, :, :1] @ Vwt[:, :1]).reshape(t.shape)
    assert np.array_equal(P[zero], lapack[zero])


def test_lipschitz_is_an_upper_bound():
    rng = np.random.default_rng(6)
    for gauge in make_zoo():
        L = gauge.lipschitz()
        X = sample_domain(gauge, rng, 200)
        vals = gauge.value_batch(X)
        norms = np.linalg.norm(X, axis=1)
        assert np.all(vals <= L * norms + 1e-9), gauge.kind


def test_face_margins_frozen():
    # l1 at (1, 0): z must match the sign exactly on the support
    f = L1Gauge(2).face([1.0, 0.0])
    assert f.margin([1.0, 0.4]) == pytest.approx(0.6)
    assert f.margin([1.0, -1.0]) == pytest.approx(0.0)
    assert f.margin([0.9, 0.0]) == -np.inf
    # nonneg: off-support slack is one-sided
    fn = NonnegL1Gauge(2).face([1.0, 0.0])
    assert fn.margin([1.0, -2.0]) == pytest.approx(3.0)
    assert fn.margin([1.0, 1.2]) == pytest.approx(-0.2)
    # nuclear at e1 e1^T: slack is 1 - sigma_max of the free block
    fm = NuclearGauge((2, 2)).face(np.diag([1.0, 0.0]).ravel())
    assert fm.margin(np.diag([1.0, 0.5]).ravel()) == pytest.approx(0.5)
    assert fm.margin(np.diag([0.8, 0.0]).ravel()) == -np.inf
    # sdp at e1 e1^T with C = I: slack of Z = diag(1, t) is 1 - t
    fs = SdpTraceGauge(np.eye(2)).face(np.diag([1.0, 0.0]).ravel())
    assert fs.margin(np.diag([1.0, 0.25]).ravel()) == pytest.approx(0.75)
    assert fs.contains(np.diag([1.0, 0.25]).ravel())


def test_face_membership_sampled():
    # sampled face points satisfy the subgradient inequality
    # J(y) >= J(x0) + <z, y - x0> for all y
    rng = np.random.default_rng(7)
    for gauge in make_zoo():
        X0 = sample_domain(gauge, rng, 4)
        # a sparse or low-rank x0 too: zero groups and spectral tails
        if gauge.kind == "nuclear":
            X0 = np.vstack([X0, np.outer(*rng.standard_normal((2, 2))).ravel()])
        elif gauge.kind != "sdp_trace":
            X0 = np.vstack([X0, X0[0] * (np.arange(gauge.n) >= 2)])
        for x0 in X0:
            if gauge.kind == "sdp_trace":
                x0 = x0 + 0.5 * np.eye(gauge.nmat).ravel()
            face = gauge.face(x0)
            Z = face.sample(rng, 6)
            Y = sample_domain(gauge, rng, 30)
            j0 = gauge.value(x0)
            for z in Z:
                assert face.margin(z) >= -1e-9
                for y in Y:
                    jy = gauge.value(y)
                    assert jy >= j0 + float(z @ (y - x0)) - 1e-7 * (1 + jy + j0)


def test_wsl1_vertex_cap():
    # distinct weights at a dense tie point: every assignment of the 13
    # weights to the 13 tied coordinates is a vertex, and 13! blows past the
    # cap of the piece list; the face, its certificate and the critical cone
    # are written by majorization inequalities and need no vertex list
    g = SortedWeightedL1Gauge(np.arange(13, 0, -1, dtype=float))
    x0 = np.ones(13)
    with pytest.raises(VertexCapExceeded):
        g.descent_pieces(x0)
    face = g.face(x0)
    assert face.dim == 12 and face.margin(face.base) > 0
    A = np.random.default_rng(5).standard_normal((7, 13))
    cert = face.certificate(A)
    assert face.margin(A.T @ cert["y0"]) == cert["ri_margin"]
    assert g.critical_cone(x0).is_polyhedral
    rep = check_sharp(g, A, x0, with_alpha=False)
    assert rep.conditions_checked == [("range-space", "Yes", True),
                                      ("kernel", "Yes", True)]


def _wsl1_draw(rng):
    """Weights with ties and trailing zeros, and an x0 with ties, zeros and
    signs, small enough for the vertex list."""
    n = int(rng.integers(2, 6))
    w = np.sort(rng.choice([0.5, 1.0, 1.0, 1.5, 2.0], size=n))[::-1]
    if rng.random() < 0.3:
        w[n - int(rng.integers(1, n)):] = 0.0
    x0 = rng.choice([0.0, 0.0, 1.0, 1.0, 2.0], size=n) * rng.choice([-1.0, 1.0], size=n)
    return SortedWeightedL1Gauge(np.maximum(w, [1.0] + [0.0] * (n - 1))), x0


def _vertex_lp_feasible(V, A):
    """Reference: some A^T y is a convex combination of the rows of V."""
    m, (N, n) = A.shape[0], V.shape
    res = lp_solve(np.zeros(m + N), A_eq=np.block([[A.T, -V.T],
                                                   [np.zeros((1, m)), np.ones((1, N))]]),
                   b_eq=np.append(np.zeros(n), 1.0),
                   bounds=[(None, None)] * m + [(0.0, None)] * N)
    return res.status == "optimal"


def test_wsl1_face_matches_its_vertex_list():
    rng = np.random.default_rng(20)
    feasible = 0
    for _ in range(60):
        g, x0 = _wsl1_draw(rng)
        face, V = g.face(x0), g.descent_pieces(x0)
        D = V - face.base
        # the tangent is orthonormal and spans the vertex differences
        T = face.tangent
        assert np.allclose(T.T @ T, np.eye(face.dim), atol=1e-12)
        assert np.allclose(D - D @ T @ T.T, 0.0, atol=1e-12)
        assert np.linalg.matrix_rank(D, tol=1e-9) == face.dim
        for z in rng.dirichlet(np.ones(len(V)), size=20) @ V:
            assert face.margin(z) >= -1e-9
        if face.dim:
            assert face.margin(face.base) > 0
            for v in V:
                assert face.margin(v + 1e-3 * (v - face.base)) < 0
        # a step off the affine hull
        r = rng.standard_normal(g.n)
        r -= T @ (T.T @ r)
        if np.linalg.norm(r) > 1e-6:
            assert face.margin(face.base + 1e-3 * r / np.linalg.norm(r)) == -np.inf
        A = rng.standard_normal((int(rng.integers(1, g.n + 2)), g.n))
        cert = face.certificate(A)
        assert (cert is not None) == _vertex_lp_feasible(V, A)
        feasible += cert is not None
    assert 10 < feasible < 60


#: the only kind comparisons allowed outside gauges/: the CLI's registry
#: check and its --condition-versus-file-kind check
ALLOWED_KIND_COMPARISONS = {("cli.py", "kind not in KINDS"),
                            ("cli.py", "gauge.kind != want")}


def _names_a_kind(node):
    return any((isinstance(sub, ast.Name) and sub.id == "kind")
               or (isinstance(sub, ast.Attribute) and sub.attr == "kind")
               or (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                   and sub.value in KINDS)
               for sub in ast.walk(node))


def test_kind_switches_live_in_gauges():
    # kind-specific code belongs on the gauge classes; the modules around
    # them call gauge methods instead of comparing kind strings
    found = []
    for path in sorted(Path(gaugecert.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Compare) and any(
                    _names_a_kind(op) for op in [node.left, *node.comparators]):
                src = ast.get_source_segment(text, node)
                if (path.name, src) not in ALLOWED_KIND_COMPARISONS:
                    found.append(f"{path.name}:{node.lineno}: {src}")
    assert not found, "kind comparisons outside gauges/:\n" + "\n".join(found)


def test_numerical_zero_has_one_rule():
    # every support, tie, rank and kernel decision calls cones.negligible,
    # the one reader of RANK_TOL outside config.py
    found = []
    root = Path(gaugecert.__file__).parent
    for path in sorted(root.rglob("*.py")):
        name = str(path.relative_to(root))
        if name == "config.py":
            continue
        text = path.read_text(encoding="utf-8")
        if "_SUPP_TOL" in text:
            found.append(f"{name}: _SUPP_TOL")
        tree = ast.parse(text)
        allowed = set()
        if name == "cones.py":
            allowed = {id(sub) for fn in tree.body if isinstance(fn, ast.FunctionDef)
                       and fn.name == "negligible" for sub in ast.walk(fn)}
        found += [f"{name}:{node.lineno}: RANK_TOL" for node in ast.walk(tree)
                  if id(node) not in allowed and "RANK_TOL" in
                  (getattr(node, "id", None), getattr(node, "attr", None),
                   getattr(node, "name", None))]
    assert not found, "numerical-zero tests outside cones.negligible:\n" + \
        "\n".join(found)


def _mutates_environ(node):
    def is_environ(sub):
        return (isinstance(sub, ast.Attribute) and sub.attr == "environ"
                and isinstance(sub.value, ast.Name) and sub.value.id == "os")
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
        targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) \
            else [node.target]
        return any(isinstance(t, ast.Subscript) and is_environ(t.value)
                   for t in targets)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return ((is_environ(node.func.value) and node.func.attr in
                 ("pop", "popitem", "clear", "update", "setdefault", "__setitem__"))
                or (isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "os"
                    and node.func.attr in ("putenv", "unsetenv")))
    return False


def test_no_module_writes_the_environment():
    # settings pass through config.overrides; writing os.environ would leak
    # them to every later caller in the process
    found = []
    for path in sorted(Path(gaugecert.__file__).parent.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(text))
                  if _mutates_environ(node)]
    assert not found, "os.environ written at " + ", ".join(found)


def _gauge_classes(cls=gaugecert.gauges.Gauge):
    return [cls] + [c for sub in cls.__subclasses__()
                    for c in _gauge_classes(sub)]


def test_certificate_search_is_written_once():
    # the eigenvalue faces give its affine part and pencil, not a search
    from gaugecert.gauges.matrix import NuclearFace, SdpFace
    from gaugecert.gauges.vector import GroupFace
    for cls in (GroupFace, NuclearFace, SdpFace):
        assert "certificate" not in vars(cls), cls.__name__
        assert {"affine_part", "pencil", "note"} <= set(vars(cls)), cls.__name__


def test_pointwise_oracles_are_written_once():
    # value, dir_deriv and dir_probe are views of the batch oracles written
    # in Gauge; only the conic kinds build their own critical cone
    own_cone = {NonnegL1Gauge, SdpTraceGauge}
    found = [f"{cls.__name__}.{name}"
             for cls in _gauge_classes()[1:]
             for name in ("value", "dir_deriv", "dir_probe", "critical_cone")
             if name in vars(cls)
             and (name != "critical_cone" or cls not in own_cone)]
    assert not found, "copies of batch oracles: " + ", ".join(found)


def _calls_by_function(tree):
    """{"Class.method" or "function": the names it calls, nested functions
    included}, for the definitions at the top of a module."""
    defs = [(None, node) for node in tree.body]
    defs += [(node.name, fn) for node in tree.body
             if isinstance(node, ast.ClassDef) for fn in node.body]
    return {f"{owner}.{fn.name}" if owner else fn.name:
            {getattr(c.func, "id", getattr(c.func, "attr", None))
             for c in ast.walk(fn) if isinstance(c, ast.Call)}
            for owner, fn in defs if isinstance(fn, ast.FunctionDef)}


def test_spectral_facts_are_written_once():
    # the sdp kernel-block eigen step lives in SdpTraceGauge._bottom and the
    # tangent-space rank test in _contact_test; certificates.py reads them
    # through the gauge, not from the module
    pkg = Path(gaugecert.__file__).parent
    calls = _calls_by_function(ast.parse((pkg / "gauges" / "matrix.py").read_text()))
    assert [f for f, names in calls.items() if "_bottom_eig" in names] == \
        ["SdpTraceGauge._bottom"]
    for cls in ("NuclearGauge", "SdpTraceGauge"):
        names = calls[f"{cls}.tangent_space_test"]
        assert "_contact_test" in names and "matrix_rank" not in names, cls
    imported = []
    for node in ast.walk(ast.parse((pkg / "certificates.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert not [m for m in imported if "gauges.matrix" in m], imported
