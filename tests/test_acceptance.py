"""Acceptance suite: one test per contract criterion, one line each under -v.

Every oracle here is independent of the library path it checks: LP
enumerations are built directly on scipy's interface, growth constants are
re-measured from raw gauge evaluations on grids, and worked instances carry
hand-derived constants (the derivations sit next to the numbers).
"""

import itertools
import json

import numpy as np
import pytest
import scipy.optimize

from gaugecert.certificates import (
    NO,
    YES,
    analysis_check,
    check_sharp,
    check_unique,
    fuchs_check,
    nuclear_check,
    sdp_trace_check,
    wsl1_check,
)
from gaugecert.cli import main
from gaugecert.cones import kernel_basis, lp_solve, nsp_constant
from gaugecert.gauges import (
    AnalysisL1Gauge,
    GroupL12Gauge,
    L1Gauge,
    NonnegL1Gauge,
    NuclearGauge,
    SdpTraceGauge,
    SortedWeightedL1Gauge,
)
from gaugecert.recovery import gen_instance, run_recovery
from gaugecert.solvers import duality_gap, solve_primal_eq

A_LINE = np.array([[2.0, 1.0]])
X_LINE = np.array([0.5, 0.0])
A_FLAT = np.array([[1.0, 1.0]])
X_FLAT = np.array([1.0, 0.0])


def sparse_instance(rng, m_max=3, n_max=5, always_solution=False):
    """A random measurement matrix with a sparse candidate point."""
    m = int(rng.integers(1, m_max + 1))
    n = int(rng.integers(m + 1, n_max + 1))
    A = rng.standard_normal((m, n))
    x0 = np.zeros(n)
    k = int(rng.integers(0, m + 1))
    if k:
        x0[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
    return A, x0


def test_criterion_01_strong_duality():
    # equality-constrained value == dual value on solvable instances
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 100:
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m + 1, 9))
        A = rng.standard_normal((m, n))
        b0 = A @ rng.standard_normal(n)
        gap = duality_gap(L1Gauge(n), A, b0)
        assert abs(gap) <= 1e-6, f"duality gap {gap} at m={m} n={n}"
        checked += 1
    assert checked == 100


def solution_set_spread(A, b0, val):
    """Largest per-coordinate extent of {x : Ax=b0, ||x||_1 <= val + 1e-9}.

    2n LPs over the lifted (x, t) polytope; the optimal face is a single
    point iff every coordinate's max-min spread vanishes.
    """
    m, n = A.shape
    A_ub = np.block([[np.eye(n), -np.eye(n)], [-np.eye(n), -np.eye(n)],
                     [np.zeros((1, n)), np.ones((1, n))]])
    b_ub = np.concatenate([np.zeros(2 * n), [val + 1e-9]])
    A_eq = np.hstack([A, np.zeros((m, n))])
    spread = 0.0
    for i in range(n):
        lo = hi = None
        for sgn in (1.0, -1.0):
            c = np.zeros(2 * n)
            c[i] = sgn
            r = lp_solve(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b0)
            assert r.status == "optimal"
            if sgn > 0:
                lo = r.value
            else:
                hi = -r.value
        spread = max(spread, hi - lo)
    return spread


def test_criterion_02_uniqueness_matches_lp_enumeration():
    # x0 is the unique solution iff it attains the optimal value and the
    # optimal face of the value-constrained polytope is a singleton
    rng = np.random.default_rng(102)
    agreements = 0
    for _ in range(200):
        A, x0 = sparse_instance(rng)
        n = A.shape[1]
        b0 = A @ x0
        rep = check_unique(L1Gauge(n), A, x0, with_alpha=False)
        assert rep.is_unique in (YES, NO)
        val = solve_primal_eq(L1Gauge(n), A, b0).value
        attains = abs(float(np.abs(x0).sum()) - val) <= 1e-9
        oracle = attains and solution_set_spread(A, b0, val) < 1e-6
        assert (rep.is_unique == YES) == oracle, \
            f"disagreement at A={A.tolist()} x0={x0.tolist()}"
        agreements += 1
    assert agreements == 200


def test_criterion_03_worked_instances():
    rep = check_sharp(L1Gauge(2), A_LINE, X_LINE)
    assert rep.is_sharp == YES
    # kernel of (2,1) is the line t(1,-2)/sqrt(5); the l1 growth along the
    # favourable sign is (2-1)/sqrt(5) = 1/sqrt(5)
    assert rep.kappa == pytest.approx(1 / np.sqrt(5), abs=1e-6)
    # ||A h|| over the critical-cone sphere bottoms at |2*1-1*1|/sqrt(2)
    assert rep.alpha == pytest.approx(1 / np.sqrt(2), abs=1e-3)
    assert rep.alpha_certified
    # max-margin certificate: y = 1/2 leaves 1 - |y| = 1/2 of slack
    assert fuchs_check(A_LINE, X_LINE).ri_margin == pytest.approx(0.5, abs=1e-8)
    assert check_unique(L1Gauge(2), A_LINE, X_LINE).is_unique == YES
    flat = check_unique(L1Gauge(2), A_FLAT, X_FLAT)
    assert flat.is_sharp == NO and flat.is_unique == NO


def grid_growth_min(gauge, A, x0, t=1e-3, res=1e-4):
    """min over gridded unit kernel directions of (J(x0+t h) - J(x0)) / t."""
    K = kernel_basis(A)
    if K.shape[1] == 1:
        H = np.array([K[:, 0], -K[:, 0]])
    else:
        ang = np.arange(0.0, 2 * np.pi, res)
        H = (K @ np.stack([np.cos(ang), np.sin(ang)])).T
    vals = gauge.value_batch(x0[None, :] + t * H)
    return float(np.min(vals - gauge.value(x0)) / t)


def test_criterion_04_sharpness_constant_is_the_growth_rate():
    rng = np.random.default_rng(104)
    sharp_seen = 0
    while sharp_seen < 12:
        m = int(rng.integers(1, 3))
        n = int(rng.integers(m + 1, min(m + 3, 5)))  # kernel dim <= 2
        A = rng.standard_normal((m, n))
        x0 = np.zeros(n)
        x0[int(rng.integers(0, n))] = float(rng.standard_normal())
        g = L1Gauge(n)
        rep = check_sharp(g, A, x0, with_alpha=False)
        if rep.is_sharp != YES:
            continue
        sharp_seen += 1
        # sampled feasible points near x0 grow at least linearly at rate kappa
        K = kernel_basis(A)
        for _ in range(40):
            t = rng.standard_normal(K.shape[1])
            h = K @ t
            h *= rng.uniform(1e-4, 1e-2) / np.linalg.norm(h)
            x = x0 + h
            assert g.value(x) - g.value(x0) >= \
                (rep.kappa - 1e-4) * np.linalg.norm(h)
        # the independent grid oracle brackets kappa from above within the
        # grid's own resolution error: passes at kappa - 1e-6, fails at
        # kappa + 1e-3
        gm = grid_growth_min(g, A, x0)
        assert gm >= rep.kappa - 1e-6
        assert gm < rep.kappa + 1e-3


def test_criterion_05_recovery_bounds_hold():
    rng = np.random.default_rng(105)
    designs = 0
    rows = 0
    seed = 0
    while designs < 50:
        seed += 1
        n = 3 if seed % 4 == 0 else 2
        cfg = {"m": 1 if n == 2 else 2, "n": n, "sparsity": 1, "kind": "l1"}
        base = gen_instance(dict(cfg, delta=1e-2), seed)
        cert = check_sharp(base.gauge, base.A, base.x0)
        if not (cert.is_sharp == YES and cert.kappa_certified
                and cert.alpha_certified and cert.kappa > 0):
            continue
        designs += 1
        c1 = 0.1 if designs % 2 else 1.0
        for delta in (1e-3, 1e-2, 1e-1):
            for noise in ("sphere", "adversarial"):
                inst = gen_instance(dict(cfg, delta=delta, noise=noise), seed)
                rep = run_recovery(inst, c1=c1, cert=cert)
                row = rep.rows[0]
                assert row["pass"] == "True", \
                    f"violation at seed={seed} delta={delta} noise={noise}: {row}"
                # the asserted inequalities, restated from the raw columns
                assert row["err_mozorov"] <= row["bound_mozorov"] + 1e-5
                assert row["err_tikhonov"] <= row["bound_tikhonov_y0"] + 1e-5
                rows += 1
    assert designs == 50 and rows == 300


def test_criterion_06_polyhedral_sharp_iff_unique():
    rng = np.random.default_rng(106)
    gauges = {
        "l1": lambda n: L1Gauge(n),
        "analysis": lambda n: AnalysisL1Gauge(
            rng.standard_normal((n, n + 2))),
        "wsl1": lambda n: SortedWeightedL1Gauge(
            np.sort(rng.uniform(0.5, 2.0, n))[::-1]),
        "nonneg": lambda n: NonnegL1Gauge(n),
    }
    for name, make in gauges.items():
        for _ in range(25):
            A, x0 = sparse_instance(rng, m_max=2, n_max=4)
            if name == "nonneg":
                x0 = np.abs(x0)
            g = make(A.shape[1])
            s = check_sharp(g, A, x0, with_alpha=False)
            u = check_unique(g, A, x0, with_alpha=False)
            assert s.is_sharp in (YES, NO), name
            assert s.is_sharp == u.is_unique == u.is_sharp, \
                f"{name}: sharp={s.is_sharp} unique={u.is_unique}"


def diagonal_lift(A):
    """Embed an l1 design into matrix space: rows pinning every off-diagonal
    entry to zero, then the measurements acting on the diagonal."""
    m, n = A.shape
    rows = []
    for i in range(n):
        for j in range(n):
            if i != j:
                r = np.zeros(n * n)
                r[i * n + j] = 1.0
                rows.append(r)
    for a in A:
        r = np.zeros(n * n)
        r[:: n + 1] = a
        rows.append(r)
    return np.array(rows)


def test_criterion_07_reductions():
    rng = np.random.default_rng(107)
    # analysis with the identity dictionary is plain l1
    for _ in range(100):
        A, x0 = sparse_instance(rng)
        n = A.shape[1]
        assert analysis_check(A, np.eye(n), x0).is_sharp == \
            fuchs_check(A, x0).is_sharp
    # constant weights collapse the sorted weighting
    for _ in range(40):
        A, x0 = sparse_instance(rng)
        n = A.shape[1]
        w = np.full(n, 1.7)
        assert wsl1_check(A, w, x0).is_sharp == fuchs_check(A, x0).is_sharp
    # nuclear on diagonally-restricted operators sees exactly the l1 problem
    for _ in range(12):
        m, n = 1, 2
        A = rng.standard_normal((m, n))
        x0 = np.zeros(n)
        x0[int(rng.integers(0, n))] = float(rng.standard_normal())
        rep = nuclear_check(diagonal_lift(A), np.diag(x0))
        assert rep.is_sharp == fuchs_check(A, x0).is_sharp


def test_criterion_08_nonpolyhedral_separation():
    # pinning X11 of a psd 2x2 matrix: e1 e1^T is the unique trace minimum,
    # but the growth along the feasible arc is quadratic, not linear
    Phi = np.zeros((1, 4))
    Phi[0, 0] = 1.0
    X0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep = sdp_trace_check(Phi, np.eye(2), X0)
    assert rep.is_sharp == NO
    gen = check_unique(SdpTraceGauge(np.eye(2)), Phi, X0.ravel())
    assert gen.is_unique == YES and gen.is_sharp == NO
    # observing X11, X12, X21 makes e1 e1^T sharp with kernel probe value 1:
    # the kernel is spanned by E22 and ||X0 + t E22||_* - ||X0||_* = |t|
    Phi3 = np.zeros((3, 4))
    Phi3[0, 0] = Phi3[1, 1] = Phi3[2, 2] = 1.0
    rep = nuclear_check(Phi3, X0)
    assert rep.is_sharp == YES
    assert rep.kappa == pytest.approx(1.0, abs=1e-6)
    assert rep.kappa_certified


def test_criterion_09_nsp_below_half_certifies_all_sign_patterns():
    rng = np.random.default_rng(109)
    hits = 0
    for _ in range(40):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(m + 1, 7))
        A = rng.standard_normal((m, n))
        size = int(rng.integers(1, min(3, m) + 1))
        I = sorted(rng.choice(n, size=size, replace=False).tolist())
        if nsp_constant(A, I) >= 0.5:
            continue
        hits += 1
        for signs in itertools.product([1.0, -1.0], repeat=len(I)):
            x0 = np.zeros(n)
            x0[I] = np.array(signs) * rng.uniform(0.5, 1.5, size=len(I))
            rep = check_unique(L1Gauge(n), A, x0, with_alpha=False)
            assert rep.is_unique == YES, \
                f"counterexample: A={A.tolist()} I={I} signs={signs}"
    assert hits >= 10  # the sampler found enough sub-half instances


def wsl1_polar_by_vertex_enumeration(w, z):
    # ball vertices: equal-magnitude support patterns scaled by the
    # cumulative weight; the polar is the max inner product over them
    n = len(w)
    best = 0.0
    for k in range(1, n + 1):
        denom = float(np.sum(w[:k]))
        for sub in itertools.combinations(range(n), k):
            for signs in itertools.product([1.0, -1.0], repeat=k):
                val = sum(s * z[i] for i, s in zip(sub, signs)) / denom
                best = max(best, val)
    return best


def wsl1_prox_by_grid(gauge, x, tau, res=21, stages=5):
    center = x.copy()
    span = float(np.max(np.abs(x))) + tau
    for _ in range(stages):
        axes = [np.linspace(c - span, c + span, res) for c in center]
        U = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                     axis=1)
        vals = 0.5 * np.sum((U - x) ** 2, axis=1) + tau * gauge.value_batch(U)
        center = U[int(np.argmin(vals))]
        span = 2.0 * (2 * span / (res - 1))
    return center


def test_criterion_10_prox_polar_oracles_and_invariants():
    rng = np.random.default_rng(110)
    # sorted-weighted prox against a zooming brute-force grid
    for n in (2, 3, 4):
        w = np.sort(rng.uniform(0.5, 2.0, n))[::-1]
        g = SortedWeightedL1Gauge(w)
        for _ in range(3):
            x = rng.standard_normal(n) * 2
            tau = float(rng.uniform(0.2, 1.5))
            diff = np.max(np.abs(g.prox(x, tau) - wsl1_prox_by_grid(g, x, tau)))
            assert diff <= 1e-3, f"prox off by {diff} at n={n}"
        # polar against exact vertex enumeration of the unit ball
        for _ in range(20):
            z = rng.standard_normal(n) * 3
            assert g.polar(z) == pytest.approx(
                wsl1_polar_by_vertex_enumeration(w, z), abs=1e-9)
    # gauge invariants across all kinds, >= 10^4 samples total
    zoo = [
        L1Gauge(4),
        AnalysisL1Gauge(rng.standard_normal((4, 6))),
        SortedWeightedL1Gauge([2.0, 1.5, 1.0, 0.5]),
        GroupL12Gauge(5, [[0, 1], [2, 3], [4]]),
        NonnegL1Gauge(4),
        NuclearGauge((2, 2)),
        SdpTraceGauge(np.array([[2.0, 0.3], [0.3, 1.0]])),
    ]
    samples = 0
    for g in zoo:
        if g.kind == "nonneg_l1":
            X = np.abs(rng.standard_normal((800, g.n)))
        elif g.kind == "sdp_trace":
            G = rng.standard_normal((800, g.nmat, g.nmat))
            X = (G @ np.transpose(G, (0, 2, 1))).reshape(800, -1)
        else:
            X = rng.standard_normal((800, g.n))
        vals = g.value_batch(X)
        t = rng.uniform(0.1, 5.0, 800)
        assert np.allclose(g.value_batch(X * t[:, None]), t * vals,
                           rtol=1e-9, atol=1e-9), g.kind
        Z = rng.standard_normal((800, g.n))
        for z, x, v in zip(Z[:100], X[:100], vals[:100]):
            pol = g.polar(z)
            if np.isfinite(pol):
                assert float(z @ x) <= pol * v + 1e-8, g.kind
        samples += 2 * 800
        # face membership: sampled subgradients satisfy the supporting
        # inequality at their base point
        for x0 in X[:3]:
            face = g.face(x0)
            for z in face.sample(np.random.default_rng(1), 4):
                base = g.value(x0) - float(z @ x0)
                for y in X[:50]:
                    assert g.value(y) >= base + float(z @ y) - 1e-7, g.kind
                samples += 50
    assert samples >= 10_000


def test_criterion_11_cli_determinism(tmp_path, capsys):
    problem = {
        "version": 1,
        "gauge": {"kind": "l1", "n": 2},
        "A": [[2.0, 1.0]],
        "x0": [0.5, 0.0],
        "delta": 0.01,
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    # JSON report: byte-identical reruns
    outs = []
    for _ in range(2):
        assert main(["certify", str(path), "--json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    json.loads(outs[0])  # and it parses strictly
    # CSV artifact: byte-identical reruns with fixed seeds
    csvs = []
    for tag in ("a", "b"):
        target = tmp_path / f"{tag}.csv"
        code = main(["recover", str(path), "--deltas", "0.01,0.1",
                     "--seeds", "0:3", "--csv", str(target)])
        capsys.readouterr()
        assert code == 0
        csvs.append(target.read_bytes())
    assert csvs[0] == csvs[1]
