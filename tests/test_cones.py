"""Tests for the polyhedral/conic computation engine."""

import hashlib
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gaugecert import config, cones
from gaugecert.cones import (
    ConeSpec,
    EnumerationCapExceeded,
    LinearMaxFn,
    LpFailure,
    NormMapFn,
    cone_trivial,
    kernel_basis,
    lp_solve,
    min_conic_singular,
    min_lambda_max,
    min_norm_point,
    nsp_constant,
    qp_solve,
    range_basis,
    sphere_min,
)
from gaugecert.gauges import (AnalysisL1Gauge, GroupL12Gauge, L1Gauge,
                              NonnegL1Gauge, NuclearGauge, SdpTraceGauge,
                              SortedWeightedL1Gauge)


# ---------------------------------------------------------------- lp_solve


def test_lp_solve_basic():
    # min x + y  s.t.  x >= 1, y >= 1  ->  (1, 1), value 2
    res = lp_solve(np.ones(2), A_ub=-np.eye(2), b_ub=-np.ones(2))
    assert res.status == "optimal"
    assert res.value == pytest.approx(2.0, abs=1e-10)
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-9)
    assert res.kkt_residual < 1e-8


def test_lp_solve_variables_are_free_by_default():
    # min x  s.t.  -x <= 3  ->  x = -3; a nonnegative default would give 0
    res = lp_solve(np.array([1.0]), A_ub=np.array([[-1.0]]), b_ub=np.array([3.0]))
    assert res.status == "optimal"
    assert res.value == pytest.approx(-3.0, abs=1e-10)


def test_lp_solve_statuses():
    res = lp_solve(np.array([1.0]), A_ub=np.array([[1.0]]), b_ub=np.array([5.0]))
    assert res.status == "unbounded"
    res = lp_solve(np.array([1.0]), A_ub=np.array([[1.0], [-1.0]]),
                   b_ub=np.array([1.0, -2.0]))
    assert res.status == "infeasible"


def test_lp_solve_iteration_cap_raises():
    rng = np.random.default_rng(3)
    n, m = 30, 60
    A_ub = rng.standard_normal((m, n))
    b_ub = np.abs(rng.standard_normal(m)) + 1.0
    c = rng.standard_normal(n)
    with pytest.raises(LpFailure), config.overrides(lp_maxiter=1):
        lp_solve(c, A_ub=A_ub, b_ub=b_ub, bounds=[(-5, 5)] * n)


def test_lp_solve_random_equality_problems():
    # min c@x s.t. Ax = b with box bounds; verify feasibility + optimality
    # against a vertex sweep oracle is overkill, but weak duality against the
    # returned KKT residual plus feasibility is checked inside lp_solve, so
    # here we only assert self-consistency of the result fields
    rng = np.random.default_rng(4)
    for _ in range(25):
        m, n = 2, 5
        A = rng.standard_normal((m, n))
        x_feas = rng.uniform(-1, 1, n)
        b = A @ x_feas
        c = rng.standard_normal(n)
        res = lp_solve(c, A_eq=A, b_eq=b, bounds=[(-2, 2)] * n)
        assert res.status == "optimal"
        assert np.max(np.abs(A @ res.x - b)) < 1e-8
        assert res.value <= c @ x_feas + 1e-8


def _reference_corpus():
    """Seeded LPs: A_ub only, A_eq only and both, on free, half-bounded and
    boxed variables, plus explicit infeasible and unbounded ones; the last
    is the larger LP that the iteration cap of 1 stops."""
    rng = np.random.default_rng(2024)
    kinds = {"free": lambda n: [(None, None)] * n,
             "half": lambda n: [(0.0, None), (None, 1.0), (-np.inf, 0.5),
                                (-1.0, np.inf)][:n] + [(0.0, None)] * (n - 4),
             "box": lambda n: [(-2.0, 2.0)] * n}
    for rows, (name, bounds) in itertools.product(("ub", "eq", "both"),
                                                  kinds.items()):
        for _ in range(4):
            n = int(rng.integers(4, 8))
            x_feas = rng.uniform(-0.5, 0.5, n)
            if name == "half":
                x_feas[:4] = [0.5, 0.5, -0.5, 0.0]
                x_feas[4:] = np.abs(x_feas[4:])
            lp = {"c": rng.standard_normal(n), "bounds": bounds(n)}
            if rows in ("ub", "both"):
                A = rng.standard_normal((int(rng.integers(2, 2 * n)), n))
                A[rng.random(A.shape) < 0.3] = 0.0  # zeros are dropped
                lp["A_ub"] = A
                lp["b_ub"] = A @ x_feas + rng.uniform(0.0, 1.0, A.shape[0])
            if rows in ("eq", "both"):
                A = rng.standard_normal((int(rng.integers(1, n)), n))
                lp["A_eq"], lp["b_eq"] = A, A @ x_feas
            yield lp
    # infeasible: contradictory rows, and an equality outside the box
    yield {"c": np.ones(2), "A_ub": np.array([[1.0, 1.0], [-1.0, -1.0]]),
           "b_ub": np.array([1.0, -2.0])}
    yield {"c": np.ones(3), "A_eq": np.ones((1, 3)), "b_eq": np.array([7.0]),
           "bounds": [(-2.0, 2.0)] * 3}
    # unbounded: a free direction of descent
    yield {"c": np.array([1.0, -1.0]), "A_ub": np.array([[1.0, 0.0]]),
           "b_ub": np.array([1.0]), "bounds": [(None, None), (0.0, None)]}
    n, m = 30, 60
    A = rng.standard_normal((m, n))
    yield {"c": rng.standard_normal(n), "A_ub": A,
           "b_ub": np.abs(rng.standard_normal(m)) + 1.0,
           "bounds": [(-5.0, 5.0)] * n, "maxiter": 1}


def _lp_bits(res):
    """An ``lp_solve`` result's status and, at an optimum, the bytes of its
    x, value, eq_marginals and kkt_residual."""
    if res.status != "optimal":
        return res.status,
    return (res.status, res.x.tobytes(), np.float64(res.value).tobytes(),
            res.eq_marginals.tobytes(), np.float64(res.kkt_residual).tobytes())


def _corpus_bits(lp):
    """``_lp_bits`` of a corpus LP solved under its iteration cap, or
    "iteration cap" where the solve raises LpFailure."""
    lp = dict(lp)
    maxiter = lp.pop("maxiter", 20000)
    lp.setdefault("bounds", [(None, None)] * lp["c"].size)
    try:
        with config.overrides(lp_maxiter=maxiter):
            return _lp_bits(lp_solve(**lp))
    except LpFailure:
        return "iteration cap"


def test_lp_solve_matches_linprog_highs_ds():
    corpus = list(_reference_corpus())
    seen, bits = set(), []
    for lp in corpus:
        lp = dict(lp)
        maxiter = lp.pop("maxiter", 20000)
        bounds = lp.pop("bounds", [(None, None)] * lp["c"].size)
        ref = scipy.optimize.linprog(
            **lp, bounds=bounds, method="highs-ds",
            options={"maxiter": maxiter, "primal_feasibility_tolerance": 1e-9,
                     "dual_feasibility_tolerance": 1e-9})
        if ref.status == 1:
            with pytest.raises(LpFailure), config.overrides(lp_maxiter=maxiter):
                lp_solve(**lp, bounds=bounds)
            seen.add("iteration cap")
            bits.append("iteration cap")
            continue
        with config.overrides(lp_maxiter=maxiter):
            res = lp_solve(**lp, bounds=bounds)
        seen.add(res.status)
        bits.append(_lp_bits(res))
        assert res.status == {0: "optimal", 2: "infeasible",
                              3: "unbounded"}[ref.status], lp
        if res.status == "optimal":
            eq = ref.eqlin.marginals if "A_eq" in lp else np.zeros(0)
            assert res.x.tobytes() == ref.x.tobytes()
            assert np.float64(res.value).tobytes() == np.float64(ref.fun).tobytes()
            assert res.eq_marginals.tobytes() == np.asarray(eq).tobytes()
    assert seen == {"optimal", "infeasible", "unbounded", "iteration cap"}
    # every solve reuses one solver: the corpus again, reversed, each LP
    # after a QP and after the capped LP (which fails), gives the same bits
    for lp, out in zip(reversed(corpus), reversed(bits)):
        qp = qp_solve(np.ones(3), np.eye(3), A_eq=np.ones((1, 3)), b_eq=[1.0])
        assert qp.status == "optimal"
        assert _corpus_bits(corpus[-1]) == "iteration cap"
        assert _corpus_bits(lp) == out


def test_qp_solve_scales_a_qp_highs_left_unsolved():
    # the nonneg l1 Tikhonov lift of A = [[1.16, -0.0377]] (variables v1,
    # v2 >= 0 and the residual r): unscaled, HiGHS's QP method calls it
    # unbounded, though its objective is >= 0.  At the optimum v1 = 0 and
    # the second column's stationarity gives r = mu / 0.0377
    a, b, mu = np.array([1.16042597, -0.03771304]), -0.03244605, 6.1e-4
    res = qp_solve(mu * np.array([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0]),
                   A_eq=[[*a, -1.0]], b_eq=[b],
                   bounds=[(0.0, None), (0.0, None), (None, None)])
    assert res.status == "optimal"
    r = mu / -a[1]
    assert np.allclose(res.x, [0.0, (r + b) / a[1], r], rtol=0, atol=1e-7)


def test_lp_solve_threads_keep_their_own_solver():
    # a solver shared between threads would let one thread's model replace
    # another's between its passModel and its getSolution
    corpus = list(_reference_corpus())
    want = [_corpus_bits(lp) for lp in corpus]
    got = {}

    def work(i):
        got[i] = [_corpus_bits(lp) for lp in corpus]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {i: want for i in range(4)}


def test_lp_solve_blocks_solve_each_copy():
    # three copies of one LP with their own costs, as one block LP: each
    # block meets its single LP; cost stacks of the wrong shape are refused
    rng = np.random.default_rng(8)
    lp = {"A_ub": rng.standard_normal((6, 4)), "b_ub": rng.uniform(0.5, 1.0, 6),
          "A_eq": rng.standard_normal((1, 4)), "b_eq": [0.2],
          "bounds": [(-2.0, 2.0)] * 4}
    C = rng.standard_normal((3, 4))
    res = lp_solve(C, blocks=3, **lp)
    assert res.status == "optimal" and res.kkt_residual <= 1e-8
    assert res.x.shape == (3, 4) and res.value.shape == (3,)
    assert res.eq_marginals.shape == (3, 1)
    for c, x, value, y in zip(C, res.x, res.value, res.eq_marginals):
        one = lp_solve(c, **lp)
        assert np.allclose(x, one.x, atol=1e-9)
        assert value == pytest.approx(one.value, abs=1e-9)
        assert np.allclose(y, one.eq_marginals, atol=1e-9)
    assert lp_solve(C, A_ub=[[1.0] * 4, [-1.0] * 4], b_ub=[-1.0, -1.0],
                    blocks=3).status == "infeasible"
    for c, blocks in ((C, 2), (C[0], 1), (C[:, :0], 3)):
        with pytest.raises(ValueError):
            lp_solve(c, blocks=blocks, **lp)


def test_lp_solve_rejects_non_finite_data():
    good = {"c": np.ones(2), "A_ub": np.eye(2), "b_ub": np.ones(2),
            "A_eq": np.ones((1, 2)), "b_eq": np.ones(1)}
    assert lp_solve(**good).status == "optimal"
    for key, bad in itertools.product(good, (math.nan, math.inf, -math.inf)):
        data = {k: v.copy() for k, v in good.items()}
        data[key].flat[0] = bad
        with pytest.raises(ValueError):
            lp_solve(**data)
    with pytest.raises(ValueError):
        lp_solve(np.zeros(0))


@pytest.mark.parametrize("field", ["objective", "x"])
def test_lp_solve_rejects_a_non_finite_optimum(monkeypatch, field):
    # max() drops a NaN argument; the KKT check must not pass one through.
    # The fake wraps this thread's solver, which every solve reuses (the
    # unbounded LP min x makes it if no solve has yet).
    lp_solve(np.ones(1))
    real = cones._thread.highs

    class NanHighs:
        def __getattr__(self, name):
            return getattr(real, name)

        def getInfo(self):
            info = real.getInfo()
            if field == "objective":
                info.objective_function_value = math.nan
            return info

        def getSolution(self):
            sol = real.getSolution()
            if field == "x":
                sol.col_value = [math.nan] * len(sol.col_value)
            return sol

    monkeypatch.setattr(cones._thread, "highs", NanHighs())
    with pytest.raises(LpFailure):
        lp_solve(np.ones(2), A_ub=-np.eye(2), b_ub=-np.ones(2))


# ------------------------------------------------------------ kernel_basis


def test_kernel_basis_properties():
    rng = np.random.default_rng(10)
    for _ in range(30):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 8))
        A = rng.standard_normal((m, n))
        K = kernel_basis(A)
        r = np.linalg.matrix_rank(A)
        assert K.shape == (n, n - r)
        if K.shape[1]:
            assert np.max(np.abs(A @ K)) < 1e-10
            assert np.allclose(K.T @ K, np.eye(K.shape[1]), atol=1e-12)


def test_kernel_basis_rank_deficient():
    A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])  # rank 1
    K = kernel_basis(A)
    assert K.shape == (3, 2)
    assert np.max(np.abs(A @ K)) < 1e-12


def test_kernel_basis_trivial():
    K = kernel_basis(np.eye(3))
    assert K.shape == (3, 0)


# ---------------------------------------------------------------- ConeSpec


def test_conespec_from_rows_violation():
    G = np.array([[1.0, 0.0], [0.0, 1.0]])  # cone {h <= 0}
    cone = ConeSpec.from_rows(G)
    assert cone.is_polyhedral
    assert cone.violation(np.array([-1.0, -2.0])) <= 1e-12
    assert cone.violation(np.array([0.5, -1.0])) > 0.4
    H = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 2.0]])
    v = cone.violation_batch(H)
    assert v[0] <= 1e-12 and v[1] > 0 and v[2] > 0
    # subgradient: violation(h + d) >= violation(h) + <g, d> locally
    h = np.array([0.3, -0.7])
    g = cone.violation_subgrad(h)
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = 1e-6 * rng.standard_normal(2)
        assert cone.violation(h + d) >= cone.violation(h) + g @ d - 1e-12
    # a cone with no rows is the whole space
    whole = ConeSpec.from_rows(np.zeros((0, 2)))
    assert np.all(whole.violation_batch(H) == 0.0)
    assert whole.violation(h) == 0.0
    assert np.all(whole.violation_subgrad(h) == 0.0)


def test_from_rows_violation_fold_matches_the_row_max():
    # the column fold equals max(axis=1, initial=0.0) bit for bit, on NaN
    # rows, signed zeros and cones with no rows
    rng = np.random.default_rng(4)
    H = rng.standard_normal((40, 3))
    H[3] = np.nan
    H[5, 1] = np.nan
    H[7] = -0.0
    for rows in (0, 1, 3, 5):
        G = rng.standard_normal((rows, 3))
        got = ConeSpec.from_rows(G).violation_batch(H)
        want = (H @ G.T).max(axis=1, initial=0.0)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.isnan(got[3]) == (rows > 0)


def test_conespec_from_violation_is_not_polyhedral():
    cone = ConeSpec.from_violation(
        2, lambda H: np.maximum(0.0, -H[:, 0]))
    assert not cone.is_polyhedral
    with pytest.raises(ValueError):
        cone_trivial(cone, np.eye(2))


# ------------------------------------------------------------ cone_trivial


def test_cone_trivial_line_cases():
    # cone {h <= 0} meets span{(1,1)} in the ray t(1,1), t <= 0
    cone = ConeSpec.from_rows(np.eye(2))
    trivial, w = cone_trivial(cone, np.array([[1.0], [1.0]]))
    assert not trivial
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-9)
    assert np.max(cone.G_h @ w) <= 1e-9
    # cone {h1 = 0, h2 <= 0} meets span{(1,0)} only at 0
    cone2 = ConeSpec.from_rows(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
    trivial, w = cone_trivial(cone2, np.array([[1.0], [0.0]]))
    assert trivial and w is None


def test_cone_trivial_matches_ray_oracle():
    # for a one-dimensional subspace the intersection is nontrivial exactly
    # when +K or -K lies in the cone
    rng = np.random.default_rng(0)
    for _ in range(60):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(2, 5))
        G = rng.standard_normal((m, n))
        k0 = rng.standard_normal(n)
        cone = ConeSpec.from_rows(G)
        trivial, w = cone_trivial(cone, k0[:, None])
        in_cone = np.all(G @ k0 <= 1e-12) or np.all(-(G @ k0) <= 1e-12)
        assert trivial == (not in_cone)
        if not trivial:
            assert np.max(G @ w) <= 1e-9
            # witness stays inside span{k0}
            proj = k0 * (w @ k0) / (k0 @ k0)
            assert np.linalg.norm(w - proj) < 1e-9


def test_cone_trivial_zero_subspace():
    cone = ConeSpec.from_rows(np.eye(2))
    trivial, w = cone_trivial(cone, np.zeros((2, 0)))
    assert trivial and w is None


def _cone_trivial_2k(cone, K, tol=cones.TRIVIAL_TOL):
    """Reference: one LP per coordinate and sign of t, maximizing +-t_j over
    the lifted rows and the unit box; trivial iff no optimum exceeds tol."""
    GK = cone.G_h @ K
    k, q = K.shape[1], cone.G_u.shape[1]
    best = 0.0
    for j, sign in itertools.product(range(k), (1.0, -1.0)):
        c = np.zeros(k + q)
        c[j] = -sign
        res = lp_solve(c, A_ub=np.hstack([GK, cone.G_u]), b_ub=np.zeros(len(GK)),
                       bounds=[(-1.0, 1.0)] * k + [(None, None)] * q)
        best = max(best, -res.value)
    return best <= tol


@st.composite
def _cone_sections(draw):
    """(cone, K): a cone in R^n and an orthonormal K with k = 1..9 columns.
    Shapes: random rows, a line, a half-space, rows whose restriction to
    span(K) positively spans it (trivial section), rows cutting a thin cone
    of half-angle 1e-6 around a direction of span(K), lifted cones with
    auxiliary variables u, and a polyhedral gauge's critical cone with
    K a basis of Ker A."""
    shape = draw(st.sampled_from(["rows", "line", "halfspace", "trivial",
                                  "thin", "lifted", "gauge"]))
    k = draw(st.integers(1, 9))
    n = draw(st.integers(k, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if shape == "gauge":
        kind = draw(st.sampled_from(["l1", "nonneg_l1", "analysis_l1", "wsl1"]))
        g, A, x0 = _polyhedral_draw(kind, max(n, 2), rng)
        return g.critical_cone(x0), kernel_basis(A)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    K, rest = Q[:, :k], Q[:, k:]

    def lift(W):  # rows acting as W on span(K), random on its complement
        return W @ K.T + rng.standard_normal((len(W), n - k)) @ rest.T

    if shape == "rows":
        return ConeSpec.from_rows(rng.standard_normal((int(rng.integers(1, 2 * n)), n))), K
    if shape == "line":
        d = Q[:, int(rng.integers(n))]  # in span(K) or not
        P = kernel_basis(d[None]).T
        return ConeSpec.from_rows(np.vstack([P, -P])), K
    if shape == "halfspace":
        return ConeSpec.from_rows(rng.standard_normal((1, n))), K
    if shape == "trivial":
        W = rng.standard_normal((k + 1 + int(rng.integers(0, 3)), k))
        W[:k + 1] = np.vstack([np.eye(k), -np.ones(k)]) @ \
            np.linalg.qr(rng.standard_normal((k, k)))[0]
        return ConeSpec.from_rows(lift(W)), K
    if shape == "thin":
        d = rng.standard_normal(k)
        d /= np.linalg.norm(d)
        P = kernel_basis(d[None]).T
        W = np.vstack([P - 1e-6 * d, -P - 1e-6 * d]) if k > 1 else -d[None]
        return ConeSpec.from_rows(lift(W)), K
    r, q = int(rng.integers(1, 2 * n + 2)), int(rng.integers(1, 4))
    G_h, G_u = rng.standard_normal((r, n)), rng.standard_normal((r, q))
    return ConeSpec.from_lift(G_h, G_u, lambda H: np.zeros(len(H))), K


def _lifted_feasible(cone, h, tol=1e-9):
    """Whether some u gives G_h h + G_u u <= tol."""
    q = cone.G_u.shape[1]
    if q == 0:
        return float(np.max(cone.G_h @ h, initial=0.0)) <= tol
    res = lp_solve(np.zeros(q), A_ub=cone.G_u, b_ub=tol - cone.G_h @ h)
    return res.status == "optimal"


@settings(derandomize=True, max_examples=120, deadline=None)
@given(section=_cone_sections())
def test_cone_trivial_matches_the_2k_lp_reference(section):
    cone, K = section
    trivial, w = cone_trivial(cone, K)
    assert trivial == _cone_trivial_2k(cone, K)
    if trivial:
        assert w is None
    else:
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(w - K @ (K.T @ w)) <= 1e-9  # in span(K)
        assert _lifted_feasible(cone, w)


@pytest.fixture
def block_calls(monkeypatch):
    """The ``blocks`` argument of every ``cones.lp_solve`` call, in order."""
    calls, solve = [], cones.lp_solve

    def counted(c, *args, **kwargs):
        calls.append(kwargs["blocks"])
        return solve(c, *args, **kwargs)

    monkeypatch.setattr(cones, "lp_solve", counted)
    return calls


def test_cone_trivial_lp_count(block_calls):
    # the orthant {h <= 0} gains only along the last direction
    # -(e_1 + ... + e_k); the section {h <= 0, sum h >= 0} = {0} needs all
    calls = block_calls
    for k in range(1, 18):
        for G, trivial in ((np.eye(k), False),
                           (np.vstack([np.eye(k), -np.ones(k)]), True)):
            calls.clear()
            got, w = cone_trivial(ConeSpec.from_rows(G), np.eye(k))
            assert got == trivial
            assert trivial or np.allclose(w, -np.ones(k) / math.sqrt(k))
            assert len(calls) == math.ceil((k + 1) / cones.LP_BLOCKS)
            assert sum(calls) == k + 1 and max(calls) <= cones.LP_BLOCKS


# ---------------------------------------------------------- min_norm_point


def test_min_norm_point_frozen():
    p = min_norm_point(np.array([[1.0, 1.0], [1.0, -1.0]]))
    assert np.allclose(p, [1.0, 0.0], atol=1e-10)
    p = min_norm_point(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
    assert np.linalg.norm(p) < 1e-10


def test_min_norm_point_segment_oracle():
    # two points: the minimum-norm point of the segment [p, q] has the
    # closed form p + t (q - p), t = clip(-p@(q-p)/||q-p||^2, 0, 1)
    rng = np.random.default_rng(12)
    for _ in range(40):
        d = int(rng.integers(1, 5))
        p, q = rng.standard_normal(d), rng.standard_normal(d)
        t = float(np.clip(-(p @ (q - p)) / ((q - p) @ (q - p)), 0.0, 1.0))
        want = p + t * (q - p)
        got = min_norm_point(np.vstack([p, q]))
        assert np.linalg.norm(got) == pytest.approx(np.linalg.norm(want), abs=1e-9)


# ---------------------------------------------------------- min_lambda_max


def test_min_lambda_max_reaches_the_lp_optimum():
    # f(y) = ||B^T y - c||_inf over the line y0 + Im N is the largest
    # eigenvalue of diag(r, -r), r = B^T y - c; against the LP
    # min s s.t. -s <= B^T (y0 + N t) - c <= s
    for seed in range(5):
        rng = np.random.default_rng(seed)
        B, c = rng.standard_normal((3, 6)), rng.standard_normal(6)
        y0 = rng.standard_normal(3)
        N = kernel_basis(rng.standard_normal((2, 3)))

        def f(Y):
            return np.abs(Y @ B - c).max(axis=1)

        BN, r0 = B.T @ N, B.T @ y0 - c
        res = min_lambda_max(np.diag(np.r_[r0, -r0]),
                             [np.diag(np.r_[col, -col]) for col in BN.T])
        ones = np.ones((6, 1))
        lp = lp_solve(np.r_[np.zeros(N.shape[1]), 1.0],
                      A_ub=np.vstack([np.hstack([BN, -ones]),
                                      np.hstack([-BN, -ones])]),
                      b_ub=np.r_[-r0, r0])
        y = y0 + N @ res.t
        assert res.certified and res.lower <= lp.value <= res.upper
        assert res.upper == pytest.approx(lp.value, abs=1e-9)
        assert res.upper == pytest.approx(f(y[None])[0], abs=1e-12)
        assert res.upper <= f(y0[None])[0]


def test_min_lambda_max_survives_degenerate_families():
    # no free direction, directions that vanish, a family that holds the
    # identity (unbounded below) and M0 = 0: each returns a finite point
    # whose upper bound is its largest eigenvalue, and no LinAlgError
    rng = np.random.default_rng(4)
    G = rng.standard_normal((3, 3))
    M0, E = G + G.T, np.diag([1.0, -1.0, 0.0])
    for Ms, certified in [(np.zeros((0, 3, 3)), True),
                          (np.zeros((2, 3, 3)), True),
                          ([np.eye(3), E], False),
                          ([E], True)]:
        for base in (M0, np.zeros((3, 3))):
            res = min_lambda_max(base, Ms)
            Ms_ = np.asarray(Ms).reshape(-1, 3, 3)
            top = np.linalg.eigvalsh(base + np.tensordot(res.t, Ms_, 1))[-1]
            assert np.all(np.isfinite(res.t)) and res.certified == certified
            assert res.upper == pytest.approx(top, abs=1e-12 * max(1.0, abs(top)))
            assert res.lower <= res.upper
    # unbounded below: the point lies below any finite stop
    assert min_lambda_max(M0, [np.eye(3)], stop=-5.0).upper < -5.0


# ---------------------------------------------------------------- sphere_min


def test_sphere_min_engines_agree():
    rng = np.random.default_rng(20)
    for _ in range(10):
        Z = rng.standard_normal((6, 4))
        K = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        f = LinearMaxFn(Z)
        exact = cones._exact_pl(f, Z, K)
        grid = cones._angular_grid(f, K, None)
        ms = cones._multistart(f, K, None, seed=7)
        assert exact.certified and grid.certified and not ms.certified
        assert grid.value == pytest.approx(exact.value, abs=1e-7)
        # a heuristic probe can only overshoot the true minimum
        assert ms.value >= exact.value - 1e-9
        assert ms.value <= exact.value + 1e-5
        # the reported minimizer reproduces the reported value
        assert f.value(exact.minimizer) == pytest.approx(exact.value, abs=1e-12)


def test_sphere_min_one_dimensional():
    # on a line only +/-K matter
    Z = np.array([[1.0, 0.0], [0.0, 2.0]])
    f = LinearMaxFn(Z)
    res = sphere_min(f, np.array([[1.0], [0.0]]))
    # f(e1) = max(1, 0) = 1, f(-e1) = max(-1, 0) = 0
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(res.minimizer, [-1.0, 0.0])


def test_sphere_min_infeasible_cone():
    # cone {h1 = 0} contains no direction of span{e1}
    cone = ConeSpec.from_rows(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    f = NormMapFn(np.eye(2))
    res = sphere_min(f, np.array([[1.0], [0.0]]), cone=cone)
    assert res.value == np.inf
    assert res.minimizer is None


def test_sphere_min_validation():
    f = LinearMaxFn(np.eye(2))
    with pytest.raises(ValueError):
        sphere_min(f, np.zeros((2, 0)))


def _meshgrid_lattice(k, res, center=None, span=None):
    """The angular lattice as one meshgrid array (columns), the way the grid
    probe built it before it was scored in blocks."""
    if k == 2:
        if center is None:
            th = np.arange(0.0, 2 * np.pi, res)
        else:
            th = np.arange(center[0] - span, center[0] + span + res, res)
        return np.vstack([np.cos(th), np.sin(th)])
    if center is None:
        th = np.arange(0.0, np.pi + res, res)
        ph = np.arange(0.0, 2 * np.pi, res)
    else:
        th = np.arange(center[0] - span, center[0] + span + res, res)
        ph = np.arange(center[1] - span, center[1] + span + res, res)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    TH, PH = TH.ravel(), PH.ravel()
    return np.vstack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH),
                      np.cos(TH)])


@pytest.mark.parametrize("k, res, center", [
    (2, 1e-3, None), (2, 1e-3 / 32, (2.1,)), (2, 1e-6, (-0.4,)),
    (3, 4e-3, None), (3, 4e-3 / 32, (1.1, 2.3)), (3, 1e-6, (0.002, -3.1)),
])
def test_lattice_blocks_are_the_meshgrid_lattice(k, res, center):
    span = None if center is None else 3.0 * 32 * res
    lat = cones._Lattice(k, res, center, span)
    los = list(range(0, lat.size, lat.step))
    blocks = [lat.block(lo) for lo in los]
    assert all(T.shape[1] <= cones.GRID_BLOCK for T in blocks)
    # whole theta-rows: every block starts on a row
    assert all(lo % lat.row == 0 for lo in los)
    got = np.hstack(blocks)
    want = _meshgrid_lattice(k, res, center, span)
    assert got.shape == want.shape == (k, lat.size)
    assert got.tobytes() == want.tobytes()
    for i in (0, lat.size // 2, lat.size - 1):
        lo, T = lat.block_of(i)
        assert T[:, i - lo].tobytes() == want[:, i].tobytes()


def _grid_case(k, cone_kind):
    """A seeded sphere probe on a k-dimensional subspace of R^6: a linear
    max with no cone or a polyhedral one, or ||B h|| on a circular cone."""
    rng = np.random.default_rng([k, len(cone_kind)])
    K = kernel_basis(rng.standard_normal((6 - k, 6)))
    if cone_kind == "violation":
        # half-angle atan(1/2) about a direction of span(K)
        c = K @ rng.standard_normal(k)
        c /= np.linalg.norm(c)

        def violation_batch(H):
            along = H @ c
            off = np.linalg.norm(H - np.outer(along, c), axis=1)
            return np.maximum(0.0, off - 2.0 * along)

        return NormMapFn(rng.standard_normal((3, 6))), K, \
            ConeSpec.from_violation(6, violation_batch, anchor=c)
    f = LinearMaxFn(rng.standard_normal((5, 6)))
    if cone_kind == "none":
        return f, K, None
    G = rng.standard_normal((2, 6))
    # strictly feasible in span(K): G K t = -1
    t = np.linalg.lstsq(G @ K, -np.ones(2), rcond=None)[0]
    return f, K, ConeSpec.from_rows(G, anchor=K @ t)


@pytest.mark.parametrize("k, cone_kind, value, minimizer_md5, evals, note", [
    (2, "none", "0x1.3fa6feb70ec74p-1", "b58e76ead7fa6285f01bd6bcc8a25e96",
     7045, ""),
    (2, "rows", "0x1.93ad9ad6ae6c3p+0", "b725f1c2d212f8f622c4a096acbe227f",
     7045, "boundary-polished"),
    (2, "violation", "0x1.13fda5d123cddp+0",
     "32b8bff9307f73765efadb19bd8ce4cb", 7046, ""),
    (3, "none", "-0x1.018e73613d500p-7", "e85c2cf797df9f114db985905d1e0350",
     1312644, ""),
    (3, "rows", "0x1.4903d2c256f3cp-4", "25462961beea4178211b09939d779018",
     1312644, "boundary-polished"),
    (3, "violation", "0x1.3672f1bd24939p+0",
     "a0354a37a6cdbd6a560f2d0eaa02b704", 1312450, ""),
])
def test_angular_grid_outputs_are_frozen(k, cone_kind, value, minimizer_md5,
                                         evals, note):
    # recorded from the grid that built each stage as one meshgrid array;
    # scoring in blocks must not move a bit
    f, K, cone = _grid_case(k, cone_kind)
    res = cones._angular_grid(f, K, cone)
    assert res.value.hex() == value
    assert hashlib.md5(res.minimizer.tobytes()).hexdigest() == minimizer_md5
    assert res.certified
    assert (res.evals, res.note) == (evals, note)


def test_angular_grid_memory_is_bounded():
    # the seed-115 kappa probe (a 3-dimensional kernel): a stage of 1.24 M
    # directions holds its two length-N scores (20 MB), not the N x 6 image
    # of its lattice
    rng = np.random.default_rng(115)
    A = rng.standard_normal((3, 6))
    k = int(rng.integers(1, 4))
    x0 = np.zeros(6)
    x0[rng.choice(6, k, replace=False)] = rng.uniform(0.5, 1.5, k)
    g = NonnegL1Gauge(6)
    f, K, cone = g.dir_probe(x0), kernel_basis(A), g.domain_tangent_cone(x0)
    assert K.shape[1] == 3
    cones._angular_grid(f, K, cone)  # warm
    tracemalloc.start()
    try:
        cones._angular_grid(f, K, cone)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


# ------------------------------------------------------ min_conic_singular


def test_min_conic_singular_full_sphere_is_sigma_min():
    # over the whole sphere the minimum of ||Ah|| is sqrt(lambda_min(A^T A)),
    # which is zero for wide matrices and the smallest singular value
    # otherwise -- an independent oracle for the certified grid
    rng = np.random.default_rng(30)
    for _ in range(8):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 4))
        A = rng.standard_normal((m, n))
        full = ConeSpec.from_rows(np.zeros((1, n)))
        res = min_conic_singular(A, full)
        assert res.certified
        smin = float(np.sqrt(max(0.0, np.linalg.eigvalsh(A.T @ A)[0])))
        assert res.value == pytest.approx(smin, abs=1e-7)


def test_min_conic_singular_wide_matrix_sees_kernel():
    rng = np.random.default_rng(31)
    A = rng.standard_normal((1, 3))
    full = ConeSpec.from_rows(np.zeros((1, 3)))
    res = min_conic_singular(A, full)
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_min_conic_singular_nonneg_arc():
    # A = [[2, 1]] restricted to the nonnegative quadrant: |2 h1 + h2| over
    # the arc is minimized at (0, 1) with value 1
    cone = ConeSpec.from_rows(-np.eye(2))
    res = min_conic_singular(np.array([[2.0, 1.0]]), cone)
    assert res.certified
    assert res.value == pytest.approx(1.0, abs=1e-4)


def test_min_conic_singular_heuristic_in_high_dimension(monkeypatch):
    rng = np.random.default_rng(32)
    A = rng.standard_normal((6, 5))
    full = ConeSpec.from_rows(np.zeros((1, 5)))
    smin = np.linalg.svd(A, compute_uv=False)[-1]
    # the same cone given only by its violation takes the multistart probe
    multistart = cones._multistart
    monkeypatch.setattr(cones, "_multistart",
                        lambda f, K, cone: multistart(f, K, cone, seed=2))
    with config.overrides(probe_restarts=40):
        res = min_conic_singular(
            A, ConeSpec.from_violation(5, full.violation_batch,
                                       full.violation_subgrad_batch))
    assert not res.certified
    # heuristic: an upper bound that lands close on the full sphere
    assert res.value >= smin - 1e-9
    assert res.value == pytest.approx(smin, abs=1e-3)
    # the polyhedral form is solved exactly in any dimension
    res = min_conic_singular(A, full)
    assert res.certified and res.engine == "exact-active-set"
    assert res.value == pytest.approx(smin, abs=1e-12)


def _probe_case(kind):
    """A seeded non-polyhedral critical cone with a 5-row A: nuclear 2 x 3
    and sdp_trace n = 3 at rank one, group_l12 n = 6 on one group."""
    rng = np.random.default_rng([18, len(kind)])
    if kind == "nuclear":
        g = NuclearGauge((2, 3))
    elif kind == "sdp_trace":
        G = rng.standard_normal((3, 3))
        g = SdpTraceGauge(G @ G.T / 3 + np.eye(3))
    else:
        g = GroupL12Gauge(6, [[0, 1], [2, 3], [4, 5]])
    x0 = g.draw_x0(rng)
    return g, rng.standard_normal((5, g.n)), x0


def test_multistart_on_a_ray_falls_back_to_the_cone_witness():
    # no random start lands on the ray {h1 >= 0, h2 = h3 = h4 = 0} and the
    # cone has no anchor to polish toward: the polyhedral fallback returns
    # the cone LP's witness e1 with its value ||A e1||, uncertified
    A = np.random.default_rng(0).standard_normal((3, 4))
    E = np.eye(4)
    cone = ConeSpec.from_rows(np.vstack([-E[0], E[1:], -E[1:]]))
    with config.overrides(probe_restarts=20):
        res = cones._multistart(NormMapFn(A), E, cone)
    assert res.engine == "multistart-subgradient" and not res.certified
    assert res.note == "thin cone section; witness value only"
    assert np.array_equal(res.minimizer, E[0])
    assert res.value == np.linalg.norm(A[:, 0])


@pytest.mark.parametrize("kind, value, minimizer_md5, y0_md5", [
    ("nuclear", "0x1.86d71f333dc65p-8", "2e9108b54dc0d16f3f34c8a1d6db8920",
     "feb9084b0fbf4052ad6a26b7b77814b5"),
    ("sdp_trace", "0x1.0f32f4f6ab1e6p-7", "d619bb668ce3892430a2917808c31e40",
     "68a4144d321cc95626a08b72da23450b"),
    ("group_l12", "0x1.393142d27de38p-1", "77960d1c450b06a9470be24b07ae4ade",
     "052b9d841fb0467c847e864a6ea82604"),
])
def test_multistart_and_certificate_search_outputs_are_frozen(
        kind, value, minimizer_md5, y0_md5):
    # recorded when each probe step called the values and the subgradients
    # of a gauge, a cone or a certificate search separately; one call per
    # step must not move a bit.  The nuclear and sdp_trace probe values were
    # recorded again when their tails (a side of 1) and kernel blocks (side
    # 2) took closed forms instead of LAPACK.  The probe is called as
    # ``min_conic_singular`` called it: that call now certifies the nuclear
    # cone (a tail with a side of 1) by its second-order bounds instead.
    # The certificates were recorded again when the interior-point
    # eigenvalue search replaced the subgradient loop.  It closes its gap,
    # except on the sdp_trace family, which is unbounded below: a
    # certificate of any margin exists, so none is the largest
    g, A, x0 = _probe_case(kind)
    res = sphere_min(NormMapFn(A), np.eye(g.n), cone=g.critical_cone(x0))
    assert res.value.hex() == value
    assert hashlib.md5(res.minimizer.tobytes()).hexdigest() == minimizer_md5
    assert (res.engine, res.certified, res.evals, res.note) == \
        ("multistart-subgradient", False, 60200, "heuristic")
    cert = g.face(x0).certificate(A)
    assert cert["margin_is_max"] == (kind != "sdp_trace")
    # the unbounded family gives no dual bound, and the note says so
    # rather than print a gap of inf
    assert ("no lower bound read" in cert["note"]) == (kind == "sdp_trace")
    assert "gap inf" not in cert["note"]
    assert hashlib.md5(cert["y0"].tobytes()).hexdigest() == y0_md5


def test_conic_singular_trivial_cone():
    # l1 at x0 = 0: J'(0; h) = ||h||_1, so the critical cone is {0}
    A = np.random.default_rng(33).standard_normal((2, 3))
    res = min_conic_singular(A, L1Gauge(3).critical_cone(np.zeros(3)))
    assert res.value == np.inf and res.certified and res.minimizer is None
    assert res.engine == "exact-active-set"
    assert "no feasible direction" in res.note


def test_conic_singular_above_the_cap_keeps_the_sphere_probe():
    # 13 tied coordinates lift the wsl1 critical cone to 339 rows, far past
    # 2^r <= VERTEX_CAP: the sphere probe runs as before, and says why
    g = SortedWeightedL1Gauge(np.arange(13, 0, -1, dtype=float))
    x0 = np.ones(13)
    A = np.random.default_rng(5).standard_normal((7, 13))
    cone = g.critical_cone(x0)
    with config.overrides(probe_restarts=20):
        res = min_conic_singular(A, cone)
        ref = sphere_min(NormMapFn(A), np.eye(13), cone=cone)
    assert res.engine == ref.engine == "multistart-subgradient"
    assert not res.certified
    assert res.value == ref.value
    assert res.note.startswith("2^339 active sets exceed the cap")


def test_conic_singular_nonneg_draw_47():
    # the grid certified 0.0556687 here; a cone direction reaches 0.0550200
    rng = np.random.default_rng(47)
    x0 = np.zeros(3)
    x0[rng.integers(3)] = rng.uniform(0.5, 1.5)
    A = rng.standard_normal((2, 3))
    cone = NonnegL1Gauge(3).critical_cone(x0)
    res = min_conic_singular(A, cone)
    assert res.certified
    assert res.value == pytest.approx(0.0550200, abs=1e-7)
    assert cone.violation(res.minimizer) <= 1e-12


def _alpha_by_enumeration(A, cone):
    """||A v|| at the bottom eigenvector v of A^T A on the h-projection V_I
    of Ker M_I, M = [G_h | G_u], with the smallest eigenvalue over every
    active set I whose bottom eigenspace meets the cone (an LP test at
    every set)."""
    M = np.hstack([cone.G_h, cone.G_u])
    n, r = cone.n, M.shape[0]
    tol = 1e-10 * max(1.0, np.linalg.norm(A, 2) ** 2)
    best, alpha = np.inf, np.inf
    for size in range(r + 1):
        for I in itertools.combinations(range(r), size):
            N = kernel_basis(M[list(I)]) if I else np.eye(M.shape[1])
            B = range_basis(N[:n])
            if B.shape[1] == 0:
                continue
            w, U = np.linalg.eigh(B.T @ A.T @ A @ B)
            if w[0] < best and not cone_trivial(cone, B @ U[:, w <= w[0] + tol])[0]:
                best, alpha = w[0], float(np.linalg.norm(A @ B @ U[:, 0]))
    return alpha


def _polyhedral_draw(kind, n, rng):
    """A seeded (gauge, A, x0) of one of the lifted polyhedral kinds."""
    A = rng.standard_normal((int(rng.integers(max(1, n - 2), n + 2)), n))
    x0 = np.zeros(n)
    on = rng.choice(n, int(rng.integers(1, n)), replace=False)
    if kind == "l1":
        x0[on] = rng.choice([-1.0, 1.0], on.size) * rng.uniform(0.5, 1.5, on.size)
        return L1Gauge(n), A, x0
    if kind == "nonneg_l1":
        x0[on] = rng.uniform(0.5, 1.5, on.size)
        return NonnegL1Gauge(n), A, x0
    if kind == "analysis_l1":
        D = rng.standard_normal((n, n + 1))
        K = kernel_basis(D[:, :int(rng.integers(1, n))].T)
        return AnalysisL1Gauge(D), A, K @ rng.standard_normal(K.shape[1])
    x0[on] = rng.choice([-1.0, 1.0], on.size) * rng.choice([1.0, 2.0], on.size)
    w = np.sort(rng.choice([1.0, 2.0, 3.0], n))[::-1]
    return SortedWeightedL1Gauge(w), A, x0


@pytest.mark.parametrize("kind", ["l1", "nonneg_l1", "analysis_l1", "wsl1"])
def test_conic_singular_matches_active_set_enumeration(kind):
    rng = np.random.default_rng(34)
    done = 0
    while done < 6:
        g, A, x0 = _polyhedral_draw(kind, int(rng.integers(2, 7)), rng)
        cone = g.critical_cone(x0)
        if 2 ** cone.G_h.shape[0] > 2 ** 10:
            continue  # keeps the enumeration's LPs few
        res = min_conic_singular(A, cone)
        assert res.certified and res.engine == "exact-active-set"
        assert res.value == pytest.approx(_alpha_by_enumeration(A, cone), abs=1e-9)
        if res.minimizer is not None:
            assert cone.violation(res.minimizer) <= 1e-9
        done += 1


@settings(derandomize=True, max_examples=30, deadline=None)
@given(kind=st.sampled_from(["l1", "nonneg_l1", "analysis_l1", "wsl1"]),
       n=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1),
       c=st.floats(0.1, 10.0), flip=st.booleans())
def test_conic_singular_properties(kind, n, seed, c, flip):
    rng = np.random.default_rng(seed)
    g, A, x0 = _polyhedral_draw(kind, n, rng)
    cone = g.critical_cone(x0)
    assume(2 ** cone.G_h.shape[0] <= 4096)
    alpha = min_conic_singular(A, cone).value
    # never above ||A h|| at a cone direction: random directions and their
    # mixtures with the anchor -x0, which the critical cone contains
    H = rng.standard_normal((4000, n))
    if np.any(x0):
        H[2000:] = rng.uniform(0.0, 1.0, (2000, 1)) * H[2000:] - x0 / np.linalg.norm(x0)
    H /= np.linalg.norm(H, axis=1, keepdims=True)
    H = H[cone.violation_batch(H) <= 0.0]
    if H.shape[0]:
        assert alpha <= np.min(np.linalg.norm(H @ A.T, axis=1)) + 1e-12
    # alpha(cA) = |c| alpha(A) and alpha(QA) = alpha(A) for orthogonal Q
    c = -c if flip else c
    Q = np.linalg.qr(rng.standard_normal((A.shape[0], A.shape[0])))[0]
    for B, want in ((c * A, abs(c) * alpha), (Q @ A, alpha)):
        got = min_conic_singular(B, cone).value
        if np.isinf(want):
            assert got == np.inf
        else:
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def _structured_draw(route, rng):
    """A seeded (gauge, A, x0) whose critical cone is lifted ("...-lift":
    a nuclear tail of at most one entry, group_l12 zero groups of single
    coordinates, an sdp_trace kernel of side 1) or one second-order
    constraint ("...-soc": a nuclear tail with a side of 1, one group_l12
    zero group of two or more coordinates)."""
    kind, form = route.split("-")
    if kind == "nuclear":
        if form == "lift":
            g = NuclearGauge([(2, 2), (2, 3), (3, 2)][int(rng.integers(3))])
            x0 = g.draw_x0(rng, rank=1 if g.shape == (2, 2) else 2)
        else:
            q = int(rng.integers(3, 5))
            g = NuclearGauge((2, q) if rng.random() < 0.5 else (q, 2))
            x0 = g.draw_x0(rng, rank=1)
    elif kind == "group_l12":
        n = int(rng.integers(3, 6))
        s = int(rng.integers(1, n - 1))
        # support on the first group; the rest is single coordinates or
        # one zero group
        rest = [[j] for j in range(s, n)] if form == "lift" else [list(range(s, n))]
        g = GroupL12Gauge(n, [list(range(s))] + rest)
        x0 = np.zeros(n)
        x0[:s] = rng.standard_normal(s)
        if form == "lift":
            x0[s:] = rng.standard_normal(n - s) * (rng.random(n - s) < 0.5)
    else:
        nm = int(rng.integers(2, 4))
        G = rng.standard_normal((nm, nm))
        g = SdpTraceGauge(G @ G.T / nm + 0.1 * np.eye(nm))
        x0 = g.draw_x0(rng, rank=nm - 1)
    A = rng.standard_normal((int(rng.integers(1, g.n + 2)), g.n))
    return g, A, x0


STRUCTURED = ["nuclear-lift", "group_l12-lift", "sdp_trace-lift",
              "nuclear-soc", "group_l12-soc"]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(route=st.sampled_from(STRUCTURED), seed=st.integers(0, 2 ** 32 - 1))
def test_structured_cone_alpha_properties(route, seed):
    rng = np.random.default_rng(seed)
    g, A, x0 = _structured_draw(route, rng)
    cone = g.critical_cone(x0)
    lifted = route.endswith("lift")
    assert cone.is_polyhedral == lifted and (cone.soc is None) == lifted
    res = min_conic_singular(A, cone)
    assert res.certified
    assert res.engine == ("exact-active-set" if lifted else "exact-soc")
    if res.minimizer is not None:
        assert cone.violation(res.minimizer) <= 1e-11
    # never above ||A h|| at a cone direction: random directions and their
    # mixtures with the anchor -x0, which the critical cone contains; the
    # second-order value is its upper bound, within 1e-8 ||A|| of the lower
    H = rng.standard_normal((4000, g.n))
    H[2000:] = rng.uniform(0.0, 1.0, (2000, 1)) * H[2000:] - x0 / np.linalg.norm(x0)
    H /= np.linalg.norm(H, axis=1, keepdims=True)
    H = H[cone.violation_batch(H) <= 0.0]
    tol = 1e-12 if lifted else 1e-8 * max(1.0, np.linalg.norm(A, 2))
    if H.shape[0]:
        assert res.value <= np.min(np.linalg.norm(H @ A.T, axis=1)) + tol


def _soc_search(A, b, W, rng):
    """min ||A h|| over the unit h with <b, h> + ||W h|| <= 0, by search:
    2,000 random unit directions (signed so that <b, h> <= 0), the 10 best
    (by value plus ten times the violation) polished by SLSQP on the smooth
    form ||W h||^2 <= <b, h>^2, <b, h> <= 0, ||h|| = 1."""
    H = rng.standard_normal((2000, A.shape[1]))
    H /= np.linalg.norm(H, axis=1, keepdims=True)
    H *= np.where(H @ b > 0.0, -1.0, 1.0)[:, None]
    viol = np.maximum(H @ b + np.linalg.norm(H @ W.T, axis=1), 0.0)
    score = np.linalg.norm(H @ A.T, axis=1) + 10.0 * viol
    cons = [{"type": "eq", "fun": lambda h: h @ h - 1.0},
            {"type": "ineq", "fun": lambda h: (h @ b) ** 2 - (W @ h) @ (W @ h)},
            {"type": "ineq", "fun": lambda h: -(h @ b)}]
    best = np.inf
    for h in H[np.argsort(score)[:10]]:
        x = scipy.optimize.minimize(lambda h: (A @ h) @ (A @ h), h,
                                    constraints=cons, method="SLSQP",
                                    options={"ftol": 1e-15}).x
        x /= np.linalg.norm(x)
        if x @ b + np.linalg.norm(W @ x) <= 1e-9:
            best = min(best, float(np.linalg.norm(A @ x)))
    return best


@settings(derandomize=True, max_examples=12, deadline=None)
@given(kind=st.sampled_from(["nuclear", "group_l12"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_soc_alpha_matches_a_restart_search(kind, seed):
    # n >= 3 and A of full column rank (alpha > 0, where the search
    # converges fast): the certified value is the searched minimum
    rng = np.random.default_rng(seed)
    g, A, x0 = _structured_draw(kind + "-soc", rng)
    A = rng.standard_normal((g.n + int(rng.integers(2)), g.n))
    cone = g.critical_cone(x0)
    res = min_conic_singular(A, cone)
    assert res.certified and res.engine == "exact-soc"
    ref = _soc_search(A, *cone.soc, rng)
    assert res.value <= ref + 1e-9
    assert res.value == pytest.approx(ref, abs=1e-8)


def _lift_slack(cone, h):
    """min s over u with G_h h + G_u u <= s (one LP): negative inside the
    lifted cone, positive outside it."""
    q = cone.G_u.shape[1]
    c = np.zeros(q + 1)
    c[q] = 1.0
    res = lp_solve(c, A_ub=np.hstack([cone.G_u, -np.ones((len(cone.G_u), 1))]),
                   b_ub=-cone.G_h @ h)
    return res.value


@settings(derandomize=True, max_examples=15, deadline=None)
@given(route=st.sampled_from(["nuclear-lift", "group_l12-lift",
                              "sdp_trace-lift"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_structured_lifts_agree_with_the_violation(route, seed):
    # random directions, and pairs 1e-6 to either side of the boundary on
    # segments from a direction outside the cone to one inside it
    rng = np.random.default_rng(seed)
    g, _, x0 = _structured_draw(route, rng)
    cone = g.critical_cone(x0)
    H = rng.standard_normal((40, g.n))
    H[20:] = rng.uniform(0.0, 1.0, (20, 1)) * H[20:] - x0 / np.linalg.norm(x0)
    slack = np.array([_lift_slack(cone, h) for h in H])
    viol = cone.violation_batch(H)
    inside, outside = H[slack < -1e-6], H[viol > 1e-6]
    near = []
    for a, b in zip(inside[:10], outside[:10]):
        lo, hi = 0.0, 1.0  # (1 - s) a + s b: inside at lo, outside at hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if cone.violation((1 - mid) * a + mid * b) > 0.0:
                hi = mid
            else:
                lo = mid
        near += [(1 - s) * a + s * b for s in (lo - 1e-6, hi + 1e-6)]
    H = np.vstack([H] + near)
    slack = np.array([_lift_slack(cone, h) for h in H])
    viol = cone.violation_batch(H)
    sure = np.abs(slack) > 1e-9
    assert len(near) and np.all(sure[-len(near):])
    assert np.array_equal((viol > 0.0)[sure], (slack > 0.0)[sure])


# ------------------------------------------------------------- nsp_constant


def test_nsp_constant_frozen_line():
    # ker [[2, 1]] = span{(1, -2)}: mass fractions are 1/3 and 2/3
    assert nsp_constant([[2.0, 1.0]], [0]) == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert nsp_constant([[2.0, 1.0]], [1]) == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_nsp_constant_edge_cases():
    assert nsp_constant([[2.0, 1.0]], []) == 0.0
    assert nsp_constant(np.eye(2), [0]) == 0.0  # trivial kernel
    with pytest.raises(ValueError):
        nsp_constant([[2.0, 1.0]], [5])
    with pytest.raises(EnumerationCapExceeded):
        nsp_constant(np.zeros((1, 16)), list(range(15)))


def test_nsp_constant_one_dimensional_kernel_oracle():
    # with a one-dimensional kernel the ratio is determined by the single
    # kernel direction, so the enumeration must reproduce it exactly
    rng = np.random.default_rng(40)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        A = rng.standard_normal((n - 1, n))
        K = kernel_basis(A)
        assert K.shape[1] == 1
        h = K[:, 0]
        size = int(rng.integers(1, n))
        I = sorted(rng.choice(n, size=size, replace=False).tolist())
        got = nsp_constant(A, I)
        want = float(np.abs(h[I]).sum() / np.abs(h).sum())
        assert got == pytest.approx(want, abs=1e-9)


def test_nsp_constant_monotone_in_the_index_set():
    rng = np.random.default_rng(41)
    A = rng.standard_normal((2, 5))
    v1 = nsp_constant(A, [0])
    v2 = nsp_constant(A, [0, 3])
    v3 = nsp_constant(A, [0, 1, 3])
    assert v1 <= v2 + 1e-12 <= v3 + 2e-12
    assert v3 <= 1.0


def _nsp_one_lp_per_pattern(A, I):
    """Reference: max <s, h_I> over h in Ker A, ||h||_1 <= 1, one LP for
    each sign pattern s with s_last = -1."""
    K = kernel_basis(A)
    n, k = A.shape[1], K.shape[1]
    A_ub = np.block([[K, -np.eye(n)], [-K, -np.eye(n)],
                     [np.zeros((1, k)), np.ones((1, n))]])
    b_ub = np.append(np.zeros(2 * n), 1.0)
    best = 0.0
    for s in itertools.product((1.0, -1.0), repeat=len(I) - 1):
        c = np.append(-(K[I].T @ np.append(s, -1.0)), np.zeros(n))
        res = lp_solve(c, A_ub=A_ub, b_ub=b_ub,
                       bounds=[(None, None)] * k + [(0.0, None)] * n)
        best = max(best, -res.value)
    return min(best, 1.0)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(size=st.integers(1, 10), extra=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1))
@example(size=10, extra=2, seed=0)
def test_nsp_constant_matches_one_lp_per_pattern(size, extra, seed):
    rng = np.random.default_rng(seed)
    n = max(2, size + extra)
    A = rng.standard_normal((int(rng.integers(1, n)), n))
    I = sorted(rng.choice(n, size, replace=False).tolist())
    assert nsp_constant(A, I) == pytest.approx(_nsp_one_lp_per_pattern(A, I),
                                               abs=1e-12)


def test_nsp_constant_lp_count(block_calls):
    calls = block_calls
    A = np.random.default_rng(42).standard_normal((3, 12))
    for size in range(1, 11):
        calls.clear()
        nsp_constant(A, range(size))
        assert len(calls) == math.ceil(2 ** (size - 1) / cones.LP_BLOCKS)
        assert sum(calls) == 2 ** (size - 1)
