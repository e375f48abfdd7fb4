"""Tests for the four solvers and the duality-gap helper."""

import copy
import logging
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gaugecert.gauges import (
    AnalysisL1Gauge,
    GroupL12Gauge,
    L1Gauge,
    NonnegL1Gauge,
    NuclearGauge,
    SdpTraceGauge,
    SortedWeightedL1Gauge,
)
from gaugecert import solvers
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


def _splitting_draw(kind, seed):
    """A seeded (gauge, A, b0) of a splitting kind.  seed % 4 picks the
    shape of A: a wide random A, m >= n, a rank-one A, or x0 = 0."""
    rng = np.random.default_rng([seed, len(kind)])
    if kind == "group_l12":
        n = int(rng.integers(3, 10))
        g = GroupL12Gauge(n, [list(range(0, n, 2)), list(range(1, n, 2))])
    elif kind == "nuclear":
        g = NuclearGauge([(2, 2), (2, 3), (3, 3)][int(rng.integers(3))])
    else:
        G = rng.standard_normal((2, 2))
        g = SdpTraceGauge(G @ G.T + 0.1 * np.eye(2))
    x0 = g.draw_x0(rng)
    A = [rng.standard_normal((int(rng.integers(1, g.n)), g.n)),
         rng.standard_normal((g.n + 1, g.n)),
         np.outer(rng.standard_normal(3), rng.standard_normal(g.n)),
         rng.standard_normal((2, g.n))][seed % 4]
    return g, A, A @ (np.zeros(g.n) if seed % 4 == 3 else x0)


@pytest.mark.parametrize("kind", ["group_l12", "nuclear", "sdp_trace"])
@pytest.mark.parametrize("seed", range(8))
def test_splitting_dual_is_feasible_and_closes_the_gap(kind, seed):
    g, A, b0 = _splitting_draw(kind, seed)
    p = solve_primal_eq(g, A, b0)
    d = solve_dual(g, A, b0)
    assert g.polar(A.T @ d.point) <= 1.0 + 1e-9
    assert b0 @ d.point >= 0.0 and d.value == b0 @ d.point
    if p.status == "optimal":
        assert d.status == "optimal"
        assert p.value - d.value <= 1e-6 * max(1.0, abs(p.value))
    # a zero A cannot reach b0 != 0: the dual is unbounded
    d = solve_dual(g, np.zeros((2, g.n)), np.ones(2))
    assert d.status == "unbounded" and d.value == math.inf


@pytest.mark.parametrize("gauge", [L1Gauge(4), GroupL12Gauge(4, [[0, 1], [2, 3]])])
def test_dual_and_gap_take_one_primal_solve(monkeypatch, gauge):
    calls = []

    def spy(*args):
        calls.append(args)
        return solve(*args)

    solve = solvers.solve_primal_eq
    monkeypatch.setattr(solvers, "solve_primal_eq", spy)
    A = np.random.default_rng(57).standard_normal((2, 4))
    b0 = A @ np.array([1.0, -1.0, 0.0, 0.0])
    assert solve_dual(gauge, A, b0).status == "optimal"
    assert len(calls) == 1
    assert abs(duality_gap(gauge, A, b0)) < 1e-6
    assert len(calls) == 2


#: fresh instances of one polyhedral and one splitting kind
_RECORD_GAUGES = {
    "analysis_l1": lambda: AnalysisL1Gauge(
        np.random.default_rng(58).standard_normal((4, 5))),
    "group_l12": lambda: GroupL12Gauge(4, [[0, 1], [2, 3]]),
}


def _bits(res):
    """Everything a solve returns, its arrays as bytes."""
    return (res.status, np.float64(res.value).tobytes(), res.residuals,
            res.iterations, res.note, np.asarray(res.point).tobytes())


@pytest.mark.parametrize("kind", sorted(_RECORD_GAUGES))
def test_dual_after_primal_reads_the_primal_record(monkeypatch, kind):
    solves = []
    for name in ("lp_solve", "_primal_splitting"):
        def spy(*args, real=getattr(solvers, name), **kwargs):
            solves.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(solvers, name, spy)
    rng = np.random.default_rng(57)
    A = rng.standard_normal((2, 4))
    b0 = A @ np.array([1.0, -1.0, 0.0, 0.0])
    A2 = A.copy()
    A2[0, 0] += 0.5
    # each problem's dual, solved alone on a fresh gauge
    lone = {key: _bits(solve_dual(_RECORD_GAUGES[kind](), *problem))
            for key, problem in (("A", (A, b0)), ("b0", (A, 2.0 * b0)),
                                 ("A2", (A2, b0)))}
    solves.clear()
    g = _RECORD_GAUGES[kind]()
    p = solve_primal_eq(g, A, b0)
    d = solve_dual(g, A, b0)
    assert len(solves) == 1
    assert d.status == "optimal" and _bits(d) == lone["A"]
    # the returned arrays are the caller's to write into
    for arr in (p.point, p.info["multiplier"], d.point):
        arr[:] = 7.0
    assert _bits(solve_dual(g, A, b0)) == lone["A"]
    assert len(solves) == 1
    # a new b0, a new A of the same shape, another instance: each re-solves
    for key, g2, problem in (("b0", g, (A, 2.0 * b0)), ("A2", g, (A2, b0)),
                             ("A", _RECORD_GAUGES[kind](), (A, b0))):
        count = len(solves)
        assert _bits(solve_dual(g2, *problem)) == lone[key], key
        assert len(solves) == count + 1, key


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


@pytest.mark.parametrize("mu", [math.nan, math.inf])
def test_tikhonov_rejects_a_non_finite_mu(mu):
    # nan > 0 is False and inf > 0 is True: neither may reach FISTA
    with pytest.raises(ValueError, match="finite"):
        solve_tikhonov(L1Gauge(2), np.eye(2), np.ones(2), mu)


@pytest.mark.parametrize("delta", [math.nan, math.inf])
def test_mozorov_rejects_a_non_finite_delta(delta):
    with pytest.raises(ValueError, match="finite"):
        solve_mozorov(L1Gauge(2), np.eye(2), np.ones(2), delta)


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


def test_mozorov_early_stop_is_maxiter(monkeypatch):
    # with A = I, singleton groups and a diagonal b both make the Tikhonov
    # path the soft-threshold path of (1, 0.5): it gains its second
    # coordinate at mu = 0.5, between J°(b) = 1 and the root (~0.007), so
    # r(mu)/mu is not constant there and one root-finding step cannot reach
    # the band: the best point so far (the least-squares point, the lower
    # end of a non-conic search) misses delta by nearly all of delta
    for gauge, b in ((GroupL12Gauge(2, [[0], [1]]), np.array([1.0, 0.5])),
                     (NuclearGauge((2, 2)), np.array([1.0, 0.0, 0.0, 0.5]))):
        A = np.eye(b.size)
        with monkeypatch.context() as mp:
            mp.setattr(solvers, "MOZOROV_MAXITER", 1)
            res = solve_mozorov(gauge, A, b, 0.01)
        assert res.status == "maxiter", gauge.kind
        assert res.residuals["discrepancy"] > 1e-6, gauge.kind
        res = solve_mozorov(gauge, A, b, 0.01)
        assert res.status == "optimal", gauge.kind
        assert res.residuals["discrepancy"] <= 1e-6, gauge.kind


def test_mozorov_stops_when_the_next_mu_is_on_the_path():
    # the band, 1e-6, is the rounding of a residual near delta = 1e10: the
    # steps come back to one mu, where two FISTA residuals differ in their
    # last bits but not in their logs
    A0 = np.random.default_rng(0).standard_normal((2, 4))
    x0 = np.array([1.0, 0.0, 0.0, 0.0])
    res = solve_mozorov(NonnegL1Gauge(4), 1e12 * A0,
                        1e12 * (A0 @ x0 + 0.005), 1e10)
    assert res.status == "maxiter"
    mus = [mu for mu, _ in res.info["path"]]
    assert len(set(mus)) == len(mus) < solvers.MOZOROV_MAXITER
    mu, r = 4.3975832966577673e+21, 9999999829.34327
    assert math.log(r) == math.log(np.nextafter(r, np.inf))
    assert math.isnan(solvers._log_secant((mu, r),
                                          (mu, np.nextafter(r, np.inf)), 1e10))


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


def mozorov_cases(cfgs, line=True):
    """(label, gauge, A, b, delta): noisy_line.json (an l1 file) when
    ``line``, then three seeds of each config at three noise levels."""
    if line:
        prob = load_problem(str(NOISY_LINE))
        yield "noisy_line", prob["gauge"], prob["A"], prob["b"], prob["delta"]
    for kind, cfg in cfgs.items():
        for seed in range(3):
            for delta in (1e-3, 1e-2, 1e-1):
                inst = gen_instance(dict(cfg, kind=kind, delta=delta), seed)
                yield (f"{kind} seed {seed} delta {delta}", inst.gauge,
                       inst.A, inst.b0 + inst.omega, delta)


#: the kind whose search runs on FISTA solves
FISTA_CFGS = {"nuclear": MATRIX_CFGS["nuclear"]}


def test_mozorov_search_is_short_and_stays_near_the_root():
    for label, gauge, A, b, delta in mozorov_cases(FISTA_CFGS, line=False):
        res = solve_mozorov(gauge, A, b, delta)
        assert res.status == "optimal", label
        assert res.info["route"] == "fista", label
        path = res.info["path"]
        assert res.info["tikhonov_solves"] == len(path) <= 12, (label, path)
        # nuclear is not conic: the first solve is the safe step from the
        # zero point (J°(A^T b), ||b||)
        target = delta - 0.5 * solvers.MOZOROV_BAND
        assert path[0][0] == pytest.approx(
            gauge.polar(A.T @ b) * target / np.linalg.norm(b), rel=1e-12)
        mu = res.info["mu"]
        assert (mu, res.info["residual"]) in path, label
        assert all(m >= mu / 10 for m, _ in path), (label, path)


def test_mozorov_line_takes_one_qp():
    # on a line r(mu) is linear below J°(A^T b): the piece of the first QP
    # holds the root, which the KKT test then certifies
    prob = load_problem(str(NOISY_LINE))
    cases = [(prob["gauge"], prob["A"], prob["b"], prob["delta"])]
    cases += [(L1Gauge(2), [[2.0, 1.0]], [1.0], d) for d in (0.05, 0.1, 0.3)]
    for gauge, A, b, delta in cases:
        res = solve_mozorov(gauge, A, b, delta)
        assert res.status == "optimal", delta
        assert res.info["route"] == "exact-qp", delta
        assert res.info["qp_solves"] == res.iterations == 1, \
            (delta, res.info["path"])


@settings(derandomize=True, max_examples=20, deadline=None)
@given(kind=st.sampled_from(["l1", "nonneg_l1", "group_l12"]),
       seed=st.integers(0, 2 ** 32 - 1),
       delta=st.sampled_from([1e-3, 1e-2, 1e-1]))
@example(kind="nuclear", seed=0, delta=1e-2)
def test_tikhonov_residual_is_monotone_in_both_senses(kind, seed, delta):
    # y(mu) = (b - A x(mu)) / mu projects b / mu onto the convex set
    # {y : J°(A^T y) <= 1}, which holds 0: so r(mu) never falls and
    # r(mu) / mu never rises as mu grows
    cfgs = dict(SEARCH_CFGS, **MATRIX_CFGS)
    inst = gen_instance(dict(cfgs[kind], kind=kind, delta=delta), seed)
    gauge, A, b = inst.gauge, inst.A, inst.b0 + inst.omega
    rng = np.random.default_rng(seed)
    mus = gauge.polar(A.T @ b) * np.sort(10.0 ** rng.uniform(-3.0, 0.0, 3))
    rs = [solve_tikhonov(gauge, A, b, mu).residuals["data_misfit"]
          for mu in mus]
    for (mu1, r1), (mu2, r2) in zip(zip(mus, rs), zip(mus[1:], rs[1:])):
        assert r1 <= r2 + 1e-6, (mus, rs)
        # r(mu1) / mu1 >= r(mu2) / mu2, in units of r
        assert r1 >= r2 * mu1 / mu2 - 1e-6, (mus, rs)
    # so the first step of the search, the safe step from the zero point,
    # never lands below the middle of the band; it follows the solve at
    # mu = 0 of a conic kind
    info = solve_mozorov(gauge, A, b, delta).info
    path = info.get("path", [])
    first = int(gauge.is_conic)
    if len(path) > first:
        assert path[first][1] >= delta - 0.5e-6 - 1e-6, path


def test_mozorov_point_is_a_tikhonov_point_on_the_band():
    for label, gauge, A, b, delta in mozorov_cases(
            dict(SEARCH_CFGS, **MATRIX_CFGS)):
        res = solve_mozorov(gauge, A, b, delta)
        assert res.status == "optimal", label
        r = float(np.linalg.norm(A @ res.point - b))
        assert r <= delta and delta - r <= 1e-6, (label, r)
        again = solve_tikhonov(gauge, A, b, res.info["mu"])
        # the polyhedral kinds give two certified QP points and group_l12
        # two certified Newton points; nuclear and sdp_trace two points of
        # the same FISTA stopping rule, which at mu ~ 1e-3 leaves them a few
        # 1e-6 from the minimizer, so they agree to 1e-5 only
        tol = 1e-5 if gauge.kind in MATRIX_CFGS else 1e-6
        assert np.max(np.abs(again.point - res.point)) <= tol, label


# ------------------------------------------------------ exact polyhedral route


def _polyhedral_draw(kind, seed):
    """A seeded (gauge, A, b, delta) of a polyhedral kind: b = A x0 + noise
    of norm delta, x0 sparse (nonnegative for nonneg_l1).  analysis_l1 gets
    a dictionary with a repeated column; "wsl1_tied" draws its weights from
    three values, so they tie."""
    rng = np.random.default_rng([seed, len(kind)])
    m = int(rng.integers(1, 5))
    n = int(rng.integers(m + 1, 8))
    if kind == "l1":
        g = L1Gauge(n)
    elif kind == "nonneg_l1":
        g = NonnegL1Gauge(n)
    elif kind == "analysis_l1":
        D = rng.standard_normal((n, n + 1))
        D[:, -1] = D[:, 0]
        g = AnalysisL1Gauge(D)
    else:
        w = (rng.choice([0.5, 1.0, 2.0], n) if kind == "wsl1_tied"
             else rng.uniform(0.1, 2.0, n))
        g = SortedWeightedL1Gauge(np.sort(w)[::-1])
    A = rng.standard_normal((m, n))
    x0 = np.zeros(n)
    k = int(rng.integers(1, m + 1))
    x0[rng.choice(n, k, replace=False)] = rng.uniform(0.5, 2.0, k) * \
        (1.0 if kind == "nonneg_l1" else rng.choice([-1.0, 1.0], k))
    delta = float(10.0 ** rng.uniform(-3.0, -1.0))
    noise = rng.standard_normal(m)
    return g, A, A @ x0 + delta * noise / np.linalg.norm(noise), delta


@settings(derandomize=True, max_examples=40, deadline=None)
@given(kind=st.sampled_from(["l1", "nonneg_l1", "analysis_l1", "wsl1",
                             "wsl1_tied"]),
       seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(0.01, 0.5))
def test_exact_route_is_certified_and_meets_fista(kind, seed, scale):
    g, A, b, delta = _polyhedral_draw(kind, seed)
    mu = scale * g.polar(A.T @ b)
    res = solve_tikhonov(g, A, b, mu)
    assert res.status == "optimal"
    assert res.info["route"] == "exact-qp", res.info.get("fallback")
    assert res.info["fista_iterations"] == 0
    assert res.iterations == res.info["qp_solves"] == 1
    # the KKT test, read again: z = A^T (b - A x) / mu lies in dJ(x)
    x = res.point
    assert math.isfinite(g.value(x))
    z = A.T @ (b - A @ x) / mu
    assert g.polar(z) <= 1.0 + 1e-9
    assert abs(z @ x - g.value(x)) <= 1e-9 * max(1.0, g.value(x))
    ref = solvers._fista(g, A, b, mu)
    assert ref.status == "optimal"
    assert np.max(np.abs(x - ref.point)) <= 1e-5
    moz = solve_mozorov(g, A, b, delta)
    assert moz.status == "optimal"
    assert math.isfinite(g.value(moz.point))
    if moz.info["mu"] != math.inf:
        r = float(np.linalg.norm(A @ moz.point - b))
        assert delta - 1e-6 <= r <= delta


@pytest.mark.parametrize("kind", ["l1", "nonneg_l1", "wsl1", "analysis_l1"])
def test_tikhonov_after_mozorov_reads_the_recorded_pieces(monkeypatch, kind):
    qps = []

    def spy(*args, real=solvers.qp_solve, **kwargs):
        qps.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "qp_solve", spy)
    for seed in range(3):
        g, A, b, delta = _polyhedral_draw(kind, seed)
        moz = solve_mozorov(g, A, b, delta)
        assert moz.info["route"] == "exact-qp", seed
        # the piece of the Mozorov point holds at its mu; a piece the
        # record lacks costs one QP, after which the record holds it too
        for mu, most in ((moz.info["mu"], 0), (0.1 * delta, 1)):
            count = len(qps)
            res = solve_tikhonov(g, A, b, mu)
            assert len(qps) - count <= most, (seed, mu)
            assert res.info["route"] == "exact-qp", (seed, mu)
            assert res.iterations == res.info["qp_solves"] == len(qps) - count
            x = res.point
            z = A.T @ (b - A @ x) / mu
            assert g.polar(z) <= 1.0 + 1e-9
            assert abs(z @ x - g.value(x)) <= 1e-9 * max(1.0, g.value(x))
            lone = solve_tikhonov(_polyhedral_draw(kind, seed)[0], A, b, mu)
            assert np.max(np.abs(x - lone.point)) <= 1e-12, (seed, mu)
            # the returned point and path are the caller's to write into
            bits = _bits(res)
            res.point[:] = 7.0
            res.info["path"].append((mu, 7.0))
            count = len(qps)
            again = solve_tikhonov(g, A, b, mu)
            assert _bits(again) == bits and again.info["path"] == [
                (mu, again.residuals["data_misfit"])]
            assert len(qps) == count, (seed, mu)
        # a new b, a new A of the same shape, another instance, a pickled
        # copy: each solves
        A2 = A.copy()
        A2[0, 0] += 0.5
        for g2, problem in ((g, (A, 2.0 * b)), (g, (A2, b)),
                            (_polyhedral_draw(kind, seed)[0], (A, b)),
                            (pickle.loads(pickle.dumps(g)), (A, b))):
            count = len(qps)
            assert solve_tikhonov(g2, *problem, moz.info["mu"]).info[
                "route"] == "exact-qp"
            assert len(qps) == count + 1, seed


def test_tikhonov_keeps_a_coordinate_just_off_its_bound():
    # soft thresholding leaves x_2 = 5e-7: the polish must not snap it to 0,
    # or the KKT test fails and the solve falls back to FISTA
    mu = 0.1
    res = solve_tikhonov(L1Gauge(2), np.eye(2), [1.0, mu + 5e-7], mu)
    assert res.info["route"] == "exact-qp"
    assert np.allclose(res.point, [1.0 - mu, 5e-7], rtol=0, atol=1e-12)


def test_kkt_test_rejects_a_point_outside_dom_j():
    # the piece of an earlier QP, extrapolated to the root, gave x3 < 0,
    # where J = inf: the KKT test read inf / inf = nan and max() dropped it
    g = NonnegL1Gauge(3)
    A = np.array([[-0.5227, -0.4131, -2.4415], [1.7997, 1.1442, -0.3254],
                  [0.7738, 0.2812, -0.5538]])
    b = np.array([-0.101, 0.325, 0.0937])
    res = solve_mozorov(g, A, b, 0.01)
    assert res.status == "optimal" and res.info["route"] == "exact-qp"
    assert np.all(res.point >= 0.0) and math.isfinite(g.value(res.point))
    assert solvers._kkt(g, A, b, res.point, res.info["mu"])[1] <= \
        solvers.EXACT_KKT_TOL
    for mu in (res.info["mu"], 0.0):
        assert solvers._kkt(g, A, b, [0.1, 0.2, -1e-3], mu)[1] == math.inf


def test_nonneg_feasibility_qp_is_nnls():
    # the QP at mu = 0 gives the distance from b to the cone A R^n_+,
    # which NNLS computes independently
    rng = np.random.default_rng(58)
    A = rng.standard_normal((4, 2))
    b = rng.standard_normal(4)
    _, dist = scipy.optimize.nnls(A, b)
    assert 0.1 < dist < np.linalg.norm(b) - 0.1
    g = NonnegL1Gauge(2)
    for delta, status in ((0.5 * dist, "infeasible"),
                          (0.5 * (dist + np.linalg.norm(b)), "optimal")):
        res = solve_mozorov(g, A, b, delta)
        assert res.status == status
        assert res.info["route"] == "exact-qp"
        mu0, r0 = res.info["path"][0]
        assert mu0 == 0.0 and r0 == pytest.approx(dist, abs=1e-9)


def test_failed_certificate_falls_back_to_fista(monkeypatch):
    g, A, b, delta = _polyhedral_draw("l1", 3)
    mu = 0.1 * g.polar(A.T @ b)
    exact = solve_tikhonov(g, A, b, mu), solve_mozorov(g, A, b, delta)
    assert [res.info["route"] for res in exact] == ["exact-qp"] * 2
    qp_solve = solvers.qp_solve

    def perturbed(*args, **kwargs):
        # lifts every variable off its bound, so the active set is lost
        res = qp_solve(*args, **kwargs)
        res.x = res.x + 1e-3
        return res

    monkeypatch.setattr(solvers, "qp_solve", perturbed)
    # a fresh gauge: the record of g would answer without a QP
    g = L1Gauge(g.n)
    forced = solve_tikhonov(g, A, b, mu), solve_mozorov(g, A, b, delta)
    for old, new in zip(exact, forced):
        assert new.info["route"] == "fista"
        assert "KKT residual" in new.info["fallback"]
        assert new.info["qp_solves"] >= 1 and new.info["fista_iterations"] > 0
        assert new.status == old.status
        assert np.max(np.abs(new.point - old.point)) <= 1e-5


def test_a_failed_step_runs_fista_for_that_step_only(monkeypatch):
    g, A, b, delta = _polyhedral_draw("l1", 3)
    qp_solve = solvers.qp_solve
    calls = []

    def first_perturbed(*args, **kwargs):
        # the first QP loses its active set, as above; the later ones are
        # exact
        res = qp_solve(*args, **kwargs)
        calls.append(res)
        if len(calls) == 1:
            res.x = res.x + 1e-3
        return res

    monkeypatch.setattr(solvers, "qp_solve", first_perturbed)
    res = solve_mozorov(g, A, b, delta)
    assert res.status == "optimal"
    # the first step ran FISTA; the later steps read pieces again
    assert res.info["route"] == "exact-qp"
    assert res.info["fista_iterations"] > 0
    assert res.info["qp_solves"] == len(calls) >= 2
    assert solvers._kkt(g, A, b, res.point, res.info["mu"])[1] <= \
        solvers.EXACT_KKT_TOL


# -------------------------------------------------- group_l12 Newton route


def test_cold_and_warm_group_solves_agree():
    # FISTA's stop left the cold solve and the warm-started solve of the
    # Mozorov search at the same mu 7.6e-6 apart on this draw, where the
    # objective is nearly flat along Ker A; two certified Newton points
    # agree to rounding.  The cold solves run on copies of the gauge, which
    # keep no path record, so they start from the zero point
    inst = gen_instance({"m": 3, "n": 6, "sparsity": 1, "kind": "group_l12",
                         "partition": [[0, 1], [2, 3], [4, 5]],
                         "delta": 1e-3}, 4)
    g, A, b = inst.gauge, inst.A, inst.b0 + inst.omega
    moz = solve_mozorov(g, A, b, 1e-3)
    cold = solve_tikhonov(copy.deepcopy(g), A, b, moz.info["mu"])
    assert moz.info["route"] == cold.info["route"] == "newton"
    assert cold.info["start"] == "zero-point"
    assert np.max(np.abs(cold.point - moz.point)) <= 1e-9
    cold = solve_tikhonov(copy.deepcopy(g), A, b, 1e-3)
    warm = solve_tikhonov(g, A, b, 1e-3, x_start=moz.point)
    assert cold.info["route"] == warm.info["route"] == "newton"
    assert (cold.info["start"], warm.info["start"]) == ("zero-point", "given")
    assert warm.iterations < cold.iterations
    assert np.max(np.abs(cold.point - warm.point)) <= 1e-9


def _group_draw(seed, groups, shape):
    """A seeded group_l12 (gauge, A, b): singleton groups or a random
    partition; A wide, tall (m >= n) or of rank below min(m, n); b = A x0
    plus noise, x0 on one group."""
    rng = np.random.default_rng([seed, 12])
    n = int(rng.integers(1, 8))
    perm = [int(i) for i in rng.permutation(n)]
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), int(
        rng.integers(0, n)), replace=False)) if groups == "partition" else \
        range(1, n)
    partition = [perm[i:j] for i, j in zip([0, *cuts], [*cuts, n])]
    m = int(rng.integers(n, n + 4) if shape == "tall" else
            rng.integers(1, n + 1))
    if shape == "rank-deficient" and min(m, n) > 1:
        k = int(rng.integers(1, min(m, n)))
        A = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
    else:
        A = rng.standard_normal((m, n))
    g = GroupL12Gauge(n, partition)
    x0 = np.zeros(n)
    idx = g.groups[int(rng.integers(len(g.groups)))]
    x0[idx] = rng.uniform(0.5, 1.5, idx.size) * rng.choice([-1.0, 1.0],
                                                            idx.size)
    return g, A, A @ x0 + 0.05 * rng.standard_normal(m)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       groups=st.sampled_from(["singletons", "partition"]),
       shape=st.sampled_from(["wide", "tall", "rank-deficient"]),
       log_scale=st.floats(-4.0, 0.0))
@example(seed=0, groups="singletons", shape="tall", log_scale=0.0)
def test_group_solve_is_certified_or_says_why(seed, groups, shape,
                                              log_scale):
    g, A, b = _group_draw(seed, groups, shape)
    mu = 10.0 ** log_scale * g.polar(A.T @ b)
    res = solve_tikhonov(g, A, b, mu)
    assert res.status == "optimal"
    if res.info["route"] == "fista":
        assert res.info["fallback"] and res.info["fista_iterations"] > 0
        return
    assert res.info["route"] in ("newton", "zero")
    assert res.iterations == res.info["newton_iterations"]
    assert res.info["fista_iterations"] == 0
    # the KKT test, read again: z = A^T (b - A x) / mu lies in dJ(x)
    x = res.point
    z = A.T @ (b - A @ x) / mu
    assert g.polar(z) <= 1.0 + 1e-9
    assert abs(z @ x - g.value(x)) <= 1e-9 * max(1.0, g.value(x))
    ref = solvers._fista(g, A, b, mu)
    assert ref.status == "optimal"
    assert np.max(np.abs(x - ref.point)) <= 1e-5


def test_zero_point_takes_no_solve():
    # at mu >= J°(A^T b) the minimizer is 0, for every kind
    rng = np.random.default_rng(65)
    A, b = rng.standard_normal((3, 4)), rng.standard_normal(3)
    for g in (L1Gauge(4), GroupL12Gauge(4, [[0, 1], [2, 3]]),
              NuclearGauge((2, 2))):
        mu = g.polar(A.T @ b)
        res = solve_tikhonov(g, A, b, mu)
        assert res.info["route"] == "zero", g.kind
        assert res.iterations == 0 and not res.point.any()
        assert res.value == pytest.approx(0.5 * b @ b, rel=1e-15)
        below = solve_tikhonov(g, A, b, 0.999 * mu)
        assert below.info["route"] != "zero" and below.point.any()


def test_failed_newton_certificate_falls_back_to_fista(monkeypatch):
    inst = gen_instance(dict(SEARCH_CFGS["group_l12"], kind="group_l12",
                             delta=1e-2), 1)
    g, A, b = inst.gauge, inst.A, inst.b0 + inst.omega
    mu = 0.1 * g.polar(A.T @ b)
    exact = solve_tikhonov(g, A, b, mu), solve_mozorov(g, A, b, 1e-2)
    assert [res.info["route"] for res in exact] == ["newton"] * 2
    newton = solvers._newton

    def perturbed(*args, **kwargs):
        out = newton(*args, **kwargs)
        return None if out is None else (out[0] + 1e-3, *out[1:])

    monkeypatch.setattr(solvers, "_newton", perturbed)
    # a fresh gauge: from the path record of g the forced solves would
    # start at a certified point and take no step
    g = copy.deepcopy(g)
    forced = solve_tikhonov(g, A, b, mu), solve_mozorov(g, A, b, 1e-2)
    for old, new in zip(exact, forced):
        assert new.info["route"] == "fista"
        assert "KKT residual" in new.info["fallback"]
        assert new.info["newton_iterations"] > 0
        assert new.info["fista_iterations"] > 0
        assert new.status == old.status
        assert np.max(np.abs(new.point - old.point)) <= 1e-5


def test_feasibility_probe_stays_on_fista():
    # at mu = 1e-12 the KKT test divides by 1e-12: no Newton step is tried
    inst = gen_instance(dict(SEARCH_CFGS["group_l12"], kind="group_l12",
                             delta=1e-2), 2)
    g, A, b = inst.gauge, inst.A, inst.b0 + inst.omega
    res = solve_tikhonov(g, A, b, 1e-12)
    assert res.info["route"] == "fista"
    assert res.info["newton_iterations"] == 0
    assert "cannot certify" in res.info["fallback"]
    moz = solve_mozorov(g, A, b, 1e-2)
    assert moz.info["route"] == "newton"
    assert moz.info["newton_iterations"] > 0


# ------------------------------------------------ group_l12 path following


def _path(g, A, b):
    """The Newton path record of (A, b) on g."""
    return solvers._TIKHONOV_RECORD.get(g, solvers._problem_key(
        *solvers._shape(A, b)))


@pytest.mark.parametrize("seed, shape, scale, start", [
    pytest.param(103, "wide", 0.00178, "zero-point", id="103-wide"),
    pytest.param(24, "rank-deficient", 0.00178, "zero-point",
                 id="24-rank-deficient"),
    pytest.param(48, "wide", 3.3e-4, "continued", id="48-wide"),
    pytest.param(102, "rank-deficient", 2.1e-4, "continued",
                 id="102-rank-deficient")])
def test_cold_start_at_small_mu_stays_on_newton(seed, shape, scale, start):
    # from x = 0 the Newton steps at the first two ran out after 50 steps
    # with ||F|| ~ 2e-3 and FISTA took over; the zero point's tangent, the
    # first homotopy segment, starts them where they certify.  At the last
    # two that start ran out too (FISTA then took 666 and 1,761
    # iterations); geometric steps down from the zero point, each certified
    # and recorded, reach mu
    g, A, b = _group_draw(seed, "singletons", shape)
    mu = scale * g.polar(A.T @ b)
    res = solve_tikhonov(g, A, b, mu)
    assert res.info["route"] == "newton" and "fallback" not in res.info
    assert res.info["start"] == start
    assert res.info["fista_iterations"] == 0
    mus = [pt[0] for pt in _path(g, A, b).points]
    assert mus[-1] == mu and all(a > b for a, b in zip(mus, mus[1:]))
    assert len(mus) == (2 if start == "zero-point" else 5)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["group_l12", "l1", "nonneg_l1", "analysis_l1",
                             "wsl1"]),
       groups=st.sampled_from(["singletons", "partition"]),
       shape=st.sampled_from(["wide", "tall", "rank-deficient"]),
       log_scale=st.floats(-3.0, -0.3))
def test_recorded_tangent_is_the_path_derivative(seed, kind, groups, shape,
                                                 log_scale):
    # the recorded x'(mu) against the central difference of two certified
    # solves at mu (1 +- 1e-4), each on a fresh gauge; the difference's
    # rounding is 1e-15 / 1e-4 of x / mu.  group_l12's x' comes from the
    # Euler identity, a polyhedral kind's from the QP's affine piece
    if kind == "group_l12":
        g, A, b = _group_draw(seed, groups, shape)
    else:
        g, A, b, _ = _polyhedral_draw(kind, seed)
    mu = 10.0 ** log_scale * g.polar(A.T @ b)
    fresh = copy.deepcopy(g)
    res = solve_tikhonov(g, A, b, mu)
    route = "newton" if kind == "group_l12" else "exact-qp"
    assert res.info["route"] == route
    path = _path(g, A, b)
    mu_k, x, dx = path.points[-1]
    assert mu_k == mu and np.array_equal(x, res.point)
    h = 1e-4
    if kind == "group_l12":
        # off the kinks ||v_g|| = t mu only, where x(mu) is smooth
        v = x - path.t * (A.T @ (A @ x - b))
        tau = path.t * mu
        assume(np.min(np.abs(g._block_norms(v) - tau)) >= 1e-3 * tau)
    else:
        # off the kinks, where the piece holds at both ends
        assume(all(solvers._kkt(g, A, b, x + s * h * mu * dx,
                                mu * (1.0 + s * h))[1]
                   <= solvers.EXACT_KKT_TOL for s in (1.0, -1.0)))
    ends = [solve_tikhonov(copy.deepcopy(fresh), A, b, mu * (1.0 + s * h))
            for s in (1.0, -1.0)]
    assert [end.info["route"] for end in ends] == [route] * 2
    fd = (ends[0].point - ends[1].point) / (2.0 * h * mu)
    assert np.max(np.abs(fd - dx)) <= 1e-5 * max(1.0, np.max(np.abs(dx)))


def test_predicted_and_cold_solves_agree():
    # the Tikhonov solve of a recovery trial starts on the tangent of the
    # nearest Mozorov step; the same solve on a fresh gauge starts at the
    # zero point: both certify, and their points agree
    for seed in range(6):
        inst = gen_instance(dict(SEARCH_CFGS["group_l12"], kind="group_l12",
                                 delta=1e-2), seed)
        g, A, b = inst.gauge, inst.A, inst.b0 + inst.omega
        fresh = copy.deepcopy(g)
        moz = solve_mozorov(g, A, b, 1e-2)
        assert moz.info["route"] == "newton", seed
        for mu in (moz.info["mu"], 0.1 * 1e-2, 1e-2):
            warm = solve_tikhonov(g, A, b, mu)
            cold = solve_tikhonov(copy.deepcopy(fresh), A, b, mu)
            assert warm.info["start"] == "predicted", (seed, mu)
            assert cold.info["start"] == "zero-point", (seed, mu)
            assert np.max(np.abs(warm.point - cold.point)) <= 1e-9, (seed, mu)


def test_the_path_record_holds_one_problem_and_is_not_shared(caplog):
    inst = gen_instance(dict(SEARCH_CFGS["group_l12"], kind="group_l12",
                             delta=1e-2), 3)
    g, A, b = inst.gauge, inst.A, inst.b0 + inst.omega
    mu = 0.1 * g.polar(A.T @ b)
    with caplog.at_level(logging.DEBUG, logger="gaugecert.solvers"):
        res = solve_tikhonov(g, A, b, mu)
    assert "newton route from the zero-point start" in caplog.text
    path = _path(g, A, b)
    # the zero point, then this solve; read-only copies of its arrays
    assert [pt[0] for pt in path.points] == [g.polar(A.T @ b), mu]
    for mu_k, x, dx in path.points:
        assert not x.flags.writeable and not dx.flags.writeable
        assert not np.shares_memory(x, res.point)
    # the returned point is the caller's to write into
    bits = res.point.tobytes()
    res.point[:] = 7.0
    assert path.points[1][1].tobytes() == bits
    again = solve_tikhonov(g, A, b, mu)
    assert again.info["start"] == "predicted"
    assert np.max(np.abs(again.point - path.points[1][1])) <= 1e-12
    assert not np.shares_memory(again.point, path.points[2][1])
    # a pickled or deep-copied gauge keeps no record and starts at the
    # zero point
    for copied in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert _path(copied, A, b) is None
        assert solve_tikhonov(copied, A, b, mu).info["start"] == "zero-point"
    # a new (A, b) replaces the record; the old problem starts anew
    solve_tikhonov(g, A, 2.0 * b, mu)
    assert _path(g, A, b) is None
    assert len(_path(g, A, 2.0 * b).points) == 2
    assert solve_tikhonov(g, A, b, mu).info["start"] == "zero-point"
    # an explicit start wins over the record
    assert solve_tikhonov(g, A, b, mu, x_start=np.zeros(g.n)).info[
        "start"] == "given"
