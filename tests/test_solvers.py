"""Tests for the four solvers and the duality-gap helper."""

import math
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from gaugecert.gauges import (
    AnalysisL1Gauge,
    GroupL12Gauge,
    L1Gauge,
    NonnegL1Gauge,
    NuclearGauge,
    SdpTraceGauge,
    SortedWeightedL1Gauge,
)
from gaugecert.cli import load_problem
from gaugecert.recovery import gen_instance
from gaugecert.solvers import (
    duality_gap,
    solve_dual,
    solve_mozorov,
    solve_primal_eq,
    solve_tikhonov,
)


def l1_primal_oracle(A, b0):
    """Independent LP for min ||x||_1 s.t. Ax = b0 (variables x, t)."""
    m, n = A.shape
    c = np.concatenate([np.zeros(n), np.ones(n)])
    A_ub = np.block([[np.eye(n), -np.eye(n)], [-np.eye(n), -np.eye(n)]])
    A_eq = np.hstack([A, np.zeros((m, n))])
    res = scipy.optimize.linprog(
        c, A_ub=A_ub, b_ub=np.zeros(2 * n), A_eq=A_eq, b_eq=b0,
        bounds=[(None, None)] * n + [(0, None)] * n, method="highs")
    return res


# ------------------------------------------------------------------ primal


def test_primal_l1_frozen():
    g = L1Gauge(2)
    res = solve_primal_eq(g, [[2.0, 1.0]], [1.0])
    assert res.status == "optimal"
    # scaling x1 costs half as much per unit of b as x2
    assert res.value == pytest.approx(0.5, abs=1e-10)
    assert np.allclose(res.point, [0.5, 0.0], atol=1e-9)
    assert res.residuals["optimality"] < 1e-8


def test_primal_l1_matches_direct_lp():
    rng = np.random.default_rng(50)
    for _ in range(15):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 1, 7))
        A = rng.standard_normal((m, n))
        x_sp = np.zeros(n)
        x_sp[rng.choice(n, size=m, replace=False)] = rng.standard_normal(m)
        b0 = A @ x_sp
        res = solve_primal_eq(L1Gauge(n), A, b0)
        want = l1_primal_oracle(A, b0)
        assert res.status == "optimal" and want.status == 0
        assert res.value == pytest.approx(want.fun, abs=1e-8)
        assert np.max(np.abs(A @ res.point - b0)) < 1e-8


def test_primal_analysis_tv_frozen():
    # difference-penalty on two coordinates: the constant vector is free
    D = np.array([[1.0], [-1.0]])
    res = solve_primal_eq(AnalysisL1Gauge(D), [[1.0, 1.0]], [2.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(res.point, [1.0, 1.0], atol=1e-8)


def test_primal_analysis_matches_direct_lp():
    # min ||D^T x||_1 s.t. Ax = b via the (x, t) LP
    rng = np.random.default_rng(51)
    for _ in range(10):
        n, p, m = 5, 7, 2
        D = rng.standard_normal((n, p))
        A = rng.standard_normal((m, n))
        b0 = A @ rng.standard_normal(n)
        res = solve_primal_eq(AnalysisL1Gauge(D), A, b0)
        c = np.concatenate([np.zeros(n), np.ones(p)])
        A_ub = np.block([[D.T, -np.eye(p)], [-D.T, -np.eye(p)]])
        A_eq = np.hstack([A, np.zeros((m, p))])
        want = scipy.optimize.linprog(
            c, A_ub=A_ub, b_ub=np.zeros(2 * p), A_eq=A_eq, b_eq=b0,
            bounds=[(None, None)] * n + [(0, None)] * p, method="highs")
        assert res.status == "optimal" and want.status == 0
        assert res.value == pytest.approx(want.fun, abs=1e-7)


def test_primal_nonneg_cases():
    g = NonnegL1Gauge(2)
    res = solve_primal_eq(g, [[1.0, -1.0]], [1.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(res.point, [1.0, 0.0], atol=1e-8)
    # no nonnegative point reaches b0
    res = solve_primal_eq(NonnegL1Gauge(1), [[1.0]], [-1.0])
    assert res.status == "infeasible"
    assert res.point is None and math.isnan(res.value)


def test_primal_group_is_least_norm():
    # a single group makes J the euclidean norm, so the solution is the
    # pseudo-inverse point
    rng = np.random.default_rng(52)
    for _ in range(6):
        m, n = 2, 5
        A = rng.standard_normal((m, n))
        b0 = rng.standard_normal(m)
        g = GroupL12Gauge(n, [list(range(n))])
        res = solve_primal_eq(g, A, b0)
        want = np.linalg.pinv(A) @ b0
        assert res.status == "optimal"
        assert np.allclose(res.point, want, atol=1e-6)
        assert res.value == pytest.approx(np.linalg.norm(want), abs=1e-6)


def test_primal_nuclear_and_sdp_frozen():
    # pin the (0,0) entry to one; the minimal lift in both geometries is
    # the rank-one unit e11
    A = np.zeros((1, 4))
    A[0, 0] = 1.0
    res = solve_primal_eq(NuclearGauge((2, 2)), A, [1.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(res.point.reshape(2, 2), [[1, 0], [0, 0]], atol=1e-5)
    res = solve_primal_eq(SdpTraceGauge(np.eye(2)), A, [1.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(res.point.reshape(2, 2), [[1, 0], [0, 0]], atol=1e-5)


def test_primal_splitting_optimality_via_kernel_derivatives():
    # convexity: x* is optimal iff the directional derivative along every
    # kernel direction is nonnegative
    rng = np.random.default_rng(53)
    gauges = [
        SortedWeightedL1Gauge([2.0, 1.0, 0.5, 0.25]),
        GroupL12Gauge(4, [[0, 1], [2, 3]]),
    ]
    for g in gauges:
        for _ in range(5):
            A = rng.standard_normal((2, 4))
            b0 = A @ rng.standard_normal(4)
            res = solve_primal_eq(g, A, b0)
            assert res.status == "optimal", g.kind
            assert np.max(np.abs(A @ res.point - b0)) < 1e-6
            from gaugecert.cones import kernel_basis
            K = kernel_basis(A)
            for j in range(K.shape[1]):
                for s in (1.0, -1.0):
                    assert g.dir_deriv(res.point, s * K[:, j]) >= -1e-6


def test_primal_validation():
    with pytest.raises(ValueError):
        solve_primal_eq(L1Gauge(2), [[1.0, 0.0]], [1.0, 2.0])
    with pytest.raises(ValueError):
        solve_primal_eq(L1Gauge(3), [[1.0, 0.0]], [1.0])


# -------------------------------------------------------------------- dual


def test_dual_frozen_line():
    # max y s.t. ||(2, 1) y||_inf <= 1  ->  y = 1/2
    res = solve_dual(L1Gauge(2), [[2.0, 1.0]], [1.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.5, abs=1e-10)
    assert np.allclose(res.point, [0.5], atol=1e-9)


def test_dual_feasibility_and_strong_duality():
    rng = np.random.default_rng(54)
    cases = []
    for _ in range(10):
        m, n = 2, 5
        A = rng.standard_normal((m, n))
        b0 = A @ rng.standard_normal(n)
        cases.append((L1Gauge(n), A, b0))
    # the other polyhedral kinds, one of them with A scaled by 1e2
    for g, scale in ((NonnegL1Gauge(5), 1.0), (NonnegL1Gauge(5), 1e2),
                     (SortedWeightedL1Gauge([2.0, 1.5, 1.0, 0.5, 0.5]), 1.0),
                     (SortedWeightedL1Gauge([2.0, 1.5, 1.0, 0.5, 0.5]), 1e2),
                     (AnalysisL1Gauge(rng.standard_normal((5, 6))), 1.0),
                     (AnalysisL1Gauge(rng.standard_normal((5, 6))), 1e2)):
        A = scale * rng.standard_normal((2, 5))
        cases.append((g, A, A @ np.abs(rng.standard_normal(5))))
    for g, A, b0 in cases:
        d = solve_dual(g, A, b0)
        p = solve_primal_eq(g, A, b0)
        assert d.status == "optimal"
        assert g.polar(A.T @ d.point) <= 1.0 + 1e-8
        assert d.value == pytest.approx(p.value, abs=1e-8)


def test_dual_zero_rhs():
    res = solve_dual(L1Gauge(3), np.eye(2, 3), np.zeros(2))
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_duality_gap_polyhedral_kinds():
    rng = np.random.default_rng(55)
    cases = [
        (L1Gauge(4), rng.standard_normal((2, 4))),
        (NonnegL1Gauge(3), np.abs(rng.standard_normal((1, 3)))),
        (SortedWeightedL1Gauge([2.0, 1.0, 0.5]), rng.standard_normal((1, 3))),
        (AnalysisL1Gauge(rng.standard_normal((4, 6))), rng.standard_normal((2, 4))),
    ]
    for g, A in cases:
        b0 = A @ np.abs(rng.standard_normal(A.shape[1]))
        assert abs(duality_gap(g, A, b0)) < 1e-7, g.kind


def test_duality_gap_splitting_kinds():
    rng = np.random.default_rng(56)
    g = GroupL12Gauge(4, [[0, 1], [2, 3]])
    A = rng.standard_normal((2, 4))
    b0 = A @ rng.standard_normal(4)
    assert abs(duality_gap(g, A, b0)) < 1e-5
    A1 = np.zeros((1, 4))
    A1[0, 0] = 1.0
    assert abs(duality_gap(NuclearGauge((2, 2)), A1, [1.0])) < 1e-5
    assert abs(duality_gap(SdpTraceGauge(np.eye(2)), A1, [1.0])) < 1e-5


# ---------------------------------------------------------------- tikhonov


def test_tikhonov_identity_is_soft_thresholding():
    rng = np.random.default_rng(60)
    for _ in range(8):
        n = int(rng.integers(2, 7))
        b = rng.standard_normal(n)
        mu = float(rng.uniform(0.05, 0.8))
        res = solve_tikhonov(L1Gauge(n), np.eye(n), b, mu)
        soft = np.sign(b) * np.maximum(np.abs(b) - mu, 0.0)
        assert res.status == "optimal"
        assert np.allclose(res.point, soft, atol=1e-8)


def test_tikhonov_identity_nuclear_is_svt():
    rng = np.random.default_rng(61)
    B = rng.standard_normal((3, 3))
    mu = 0.5
    res = solve_tikhonov(NuclearGauge((3, 3)), np.eye(9), B.ravel(), mu)
    U, s, Vt = np.linalg.svd(B)
    svt = (U * np.maximum(s - mu, 0.0)) @ Vt
    assert res.status == "optimal"
    assert np.allclose(res.point, svt.ravel(), atol=1e-8)


def test_tikhonov_general_kkt():
    # stationarity of the l1 objective: on the support the gradient must
    # cancel mu * sign(x_i); off it the gradient stays inside [-mu, mu]
    rng = np.random.default_rng(62)
    for _ in range(6):
        m, n = 3, 6
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        mu = float(rng.uniform(0.1, 1.0))
        res = solve_tikhonov(L1Gauge(n), A, b, mu)
        assert res.status == "optimal"
        grad = A.T @ (A @ res.point - b)
        for i in range(n):
            if abs(res.point[i]) > 1e-9:
                assert abs(grad[i] + mu * np.sign(res.point[i])) < 1e-6
            else:
                assert abs(grad[i]) <= mu + 1e-6
        want = 0.5 * np.sum((A @ res.point - b) ** 2) + mu * np.sum(np.abs(res.point))
        assert res.value == pytest.approx(want, abs=1e-10)


def test_tikhonov_large_mu_kills_the_point():
    rng = np.random.default_rng(63)
    A = rng.standard_normal((3, 4))
    b = rng.standard_normal(3)
    res = solve_tikhonov(L1Gauge(4), A, b, 1e6)
    assert res.status == "optimal"
    assert np.max(np.abs(res.point)) < 1e-9


def test_tikhonov_validation():
    with pytest.raises(ValueError):
        solve_tikhonov(L1Gauge(2), np.eye(2), np.ones(2), 0.0)
    with pytest.raises(ValueError):
        solve_tikhonov(L1Gauge(2), np.eye(2), np.ones(2), -1.0)


# ----------------------------------------------------------------- mozorov


def test_mozorov_zero_delta_routes_to_equality():
    res = solve_mozorov(L1Gauge(2), [[2.0, 1.0]], [1.0], 0.0)
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.5, abs=1e-10)
    assert res.info["mu"] == 0.0


def test_mozorov_zero_point_when_ball_contains_origin_image():
    res = solve_mozorov(L1Gauge(2), [[2.0, 1.0]], [0.05], 0.1)
    assert res.status == "optimal"
    assert res.value == 0.0
    assert np.all(res.point == 0.0)


def test_mozorov_line_frozen():
    # relax the single constraint 2 x1 = 1 by delta: optimal x1 = (1-delta)/2
    for delta in (0.05, 0.1, 0.3):
        res = solve_mozorov(L1Gauge(2), [[2.0, 1.0]], [1.0], delta)
        assert res.status == "optimal"
        assert res.value == pytest.approx((1 - delta) / 2, abs=1e-5)
        assert res.info["residual"] == pytest.approx(delta, abs=1e-5)


def test_mozorov_discrepancy_tracks_delta():
    rng = np.random.default_rng(64)
    for _ in range(4):
        m, n = 2, 5
        A = rng.standard_normal((m, n))
        b = A @ rng.standard_normal(n) + 0.05 * rng.standard_normal(m)
        res = solve_mozorov(L1Gauge(n), A, b, 0.2)
        assert res.status == "optimal"
        r = np.linalg.norm(A @ res.point - b)
        # the solution uses the whole noise budget (or the ball holds 0)
        assert r <= 0.2 + 1e-5


def test_mozorov_infeasible_ball():
    # b sits ~0.707 away from the range of A, beyond delta
    res = solve_mozorov(L1Gauge(1), [[1.0], [1.0]], [1.0, 2.0], 0.1)
    assert res.status == "infeasible"
    assert "distance" in res.note


def test_mozorov_validation():
    with pytest.raises(ValueError):
        solve_mozorov(L1Gauge(2), [[2.0, 1.0]], [1.0], -0.5)


def test_mozorov_early_stop_is_maxiter():
    # one root-finding step cannot reach the band: the best point so far
    # (the 1e-12 probe) misses delta by nearly all of delta
    A = np.array([[2.0, 1.0]])
    res = solve_mozorov(L1Gauge(2), A, A @ [0.5, 0.0] + 0.01, 0.01, maxiter=1)
    assert res.status == "maxiter"
    assert res.residuals["discrepancy"] > 1e-6
    res = solve_mozorov(L1Gauge(2), A, A @ [0.5, 0.0] + 0.01, 0.01)
    assert res.status == "optimal"
    assert res.residuals["discrepancy"] <= 1e-6


NOISY_LINE = Path(__file__).resolve().parent.parent / "demos" / "problems" \
    / "noisy_line.json"
#: seeded Mozorov inputs: polyhedral and group kinds ...
SEARCH_CFGS = {
    "l1": {"m": 3, "n": 6, "sparsity": 2},
    "nonneg_l1": {"m": 3, "n": 6, "sparsity": 2},
    "group_l12": {"m": 3, "n": 6, "sparsity": 1,
                  "partition": [[0, 1], [2, 3], [4, 5]]},
}
#: ... and the matrix kinds
MATRIX_CFGS = {
    "nuclear": {"m": 4, "n": 6, "shape": [2, 3], "rank": 1},
    "sdp_trace": {"m": 2, "n": 4, "C": np.eye(2).tolist(), "rank": 1},
}


def mozorov_cases(cfgs):
    """(label, gauge, A, b, delta): noisy_line.json, then three seeds of
    each config at three noise levels."""
    prob = load_problem(str(NOISY_LINE))
    yield "noisy_line", prob["gauge"], prob["A"], prob["b"], prob["delta"]
    for kind, cfg in cfgs.items():
        for seed in range(3):
            for delta in (1e-3, 1e-2, 1e-1):
                inst = gen_instance(dict(cfg, kind=kind, delta=delta), seed)
                yield (f"{kind} seed {seed} delta {delta}", inst.gauge,
                       inst.A, inst.b0 + inst.omega, delta)


def test_mozorov_search_is_short_and_stays_near_the_root():
    for label, gauge, A, b, delta in mozorov_cases(SEARCH_CFGS):
        res = solve_mozorov(gauge, A, b, delta)
        assert res.status == "optimal", label
        path = res.info["path"]
        assert res.info["tikhonov_solves"] == len(path) <= 12, (label, path)
        # the feasibility probe, then J°(A^T b), then the search
        assert path[0][0] == 1e-12, label
        mu = res.info["mu"]
        assert (mu, res.info["residual"]) in path, label
        assert all(m >= mu / 10 for m, _ in path[1:]), (label, path)


def test_mozorov_point_is_a_tikhonov_point_on_the_band():
    for label, gauge, A, b, delta in mozorov_cases(
            dict(SEARCH_CFGS, **MATRIX_CFGS)):
        res = solve_mozorov(gauge, A, b, delta)
        assert res.status == "optimal", label
        r = float(np.linalg.norm(A @ res.point - b))
        assert r <= delta and delta - r <= 1e-6, (label, r)
        again = solve_tikhonov(gauge, A, b, res.info["mu"])
        # both points satisfy the same FISTA stopping rule; at mu ~ 1e-3
        # that leaves the non-polyhedral kinds a few 1e-6 from the
        # minimizer, so they agree to 1e-5 only
        tol = 1e-6 if gauge.is_polyhedral else 1e-5
        assert np.max(np.abs(again.point - res.point)) <= tol, label
