"""Tests for certificate construction and the sharpness/uniqueness battery."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugecert.certificates import (
    NO,
    UNKNOWN,
    YES,
    InternalDisagreementError,
    analysis_check,
    check_sharp,
    check_sharp_qp,
    check_unique,
    find_dual_certificate,
    fuchs_check,
    nonneg_l1_check,
    nuclear_check,
    sdp_trace_check,
    upper_lipschitz_probe,
    wsl1_check,
)
from gaugecert.cones import kernel_basis, matrix_rank
from gaugecert.gauges import (
    AnalysisL1Gauge,
    GroupL12Gauge,
    L1Gauge,
    NonnegL1Gauge,
    NuclearGauge,
    SdpTraceGauge,
    SortedWeightedL1Gauge,
)
from gaugecert.solvers import solve_tikhonov

A_LINE = np.array([[2.0, 1.0]])
X_SHARP = np.array([0.5, 0.0])
A_FLAT = np.array([[1.0, 1.0]])
X_FLAT = np.array([1.0, 0.0])


# ----------------------------------------------------------- worked line


def test_sharp_line_frozen():
    rep = check_sharp(L1Gauge(2), A_LINE, X_SHARP)
    assert rep.is_sharp == YES and rep.is_unique == YES
    # kernel of (2, 1) is spanned by (1, -2)/sqrt(5); the one-sided
    # derivative of the l1 norm there is (|1| - 2)/sqrt(5)... taking the
    # better signed direction gives 1/sqrt(5)
    assert rep.kappa == pytest.approx(1 / np.sqrt(5), abs=1e-12)
    assert rep.kappa_certified
    # ||A h|| on the same unit kernel-adjacent cone bottoms out at 1/sqrt(2)
    assert rep.alpha == pytest.approx(1 / np.sqrt(2), abs=1e-3)
    assert rep.alpha_certified
    assert rep.ri_margin == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(rep.dual_certificate, [0.5], atol=1e-9)
    ids = [cid for cid, _, _ in rep.conditions_checked]
    assert "range-space" in ids and "kernel" in ids
    for cid, verdict, certified in rep.conditions_checked:
        if cid in ("range-space", "kernel"):
            assert verdict == YES and certified


def test_flat_line_frozen():
    rep = check_unique(L1Gauge(2), A_FLAT, X_FLAT)
    assert rep.is_sharp == NO and rep.is_unique == NO
    assert rep.kappa == pytest.approx(0.0, abs=1e-12)
    # the witness is a flat unit kernel direction
    w = rep.witness
    assert w is not None
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(A_FLAT @ w)) < 1e-9
    g = L1Gauge(2)
    assert g.dir_deriv(X_FLAT, w) <= 1e-9
    # moving along the witness keeps both feasibility and the value
    assert g.value(X_FLAT + 1e-3 * w) <= g.value(X_FLAT) + 1e-9


def test_with_alpha_false_skips_the_probe_only():
    full = check_sharp(L1Gauge(2), A_LINE, X_SHARP)
    lean = check_sharp(L1Gauge(2), A_LINE, X_SHARP, with_alpha=False)
    assert lean.alpha is None and not lean.alpha_certified
    assert (lean.is_sharp, lean.is_unique) == (full.is_sharp, full.is_unique)
    assert lean.kappa == full.kappa
    lean_u = check_unique(L1Gauge(2), A_FLAT, X_FLAT, with_alpha=False)
    assert lean_u.alpha is None
    assert lean_u.is_unique == NO


# ------------------------------------------------------------ certificates


def test_find_dual_certificate_line():
    out = find_dual_certificate(L1Gauge(2), A_LINE, X_SHARP)
    assert np.allclose(out["y0"], [0.5], atol=1e-9)
    assert out["ri_margin"] == pytest.approx(0.5, abs=1e-9)
    assert out["margin_is_max"]


def test_dual_certificate_is_a_subgradient():
    # whenever the search reports a nonnegative margin, A^T y0 lies in
    # dJ(x0): J(y) >= J(x0) + <A^T y0, y - x0> everywhere; a negative margin
    # reports by how much the best attempt leaves the subdifferential
    rng = np.random.default_rng(70)
    hits = 0
    for _ in range(15):
        m, n = 2, 4
        A = rng.standard_normal((m, n))
        x0 = np.zeros(n)
        x0[int(rng.integers(0, n))] = float(rng.standard_normal())
        g = L1Gauge(n)
        out = find_dual_certificate(g, A, x0)
        if out["y0"] is None or out["ri_margin"] < 0:
            continue
        hits += 1
        z = A.T @ out["y0"]
        base = g.value(x0) - z @ x0
        assert abs(base) < 1e-8  # subgradients of a gauge satisfy <z,x0>=J(x0)
        for _ in range(30):
            y = rng.standard_normal(n)
            assert g.value(y) >= base + z @ y - 1e-8
    assert hits >= 5


# ------------------------------------------------------- per-kind checkers


def test_fuchs_cases():
    rep = fuchs_check(A_LINE, X_SHARP)
    assert rep.is_sharp == YES
    assert rep.ri_margin == pytest.approx(0.5, abs=1e-9)
    # support constraint with no dual solution
    rep = fuchs_check(np.array([[1.0, 0.0]]), np.array([0.0, 1.0]))
    assert rep.is_sharp == NO
    # at the origin every measurement certifies sharply
    rep = fuchs_check(A_FLAT, np.zeros(2))
    assert rep.is_sharp == YES
    assert rep.ri_margin == pytest.approx(1.0, abs=1e-9)


def test_analysis_reduces_to_fuchs_when_d_is_identity():
    rep = analysis_check(A_LINE, np.eye(2), X_SHARP)
    assert rep.is_sharp == YES
    assert rep.ri_margin == pytest.approx(0.5, abs=1e-9)
    generic = check_sharp(AnalysisL1Gauge(np.eye(2)), A_LINE, X_SHARP)
    assert generic.is_sharp == YES
    assert generic.kappa == pytest.approx(1 / np.sqrt(5), abs=1e-9)


def test_analysis_difference_operator():
    D = np.array([[1.0], [-1.0]])
    rep = analysis_check(A_FLAT, D, np.array([1.0, 1.0]))
    assert rep.is_sharp == YES
    assert all(v == YES and c for _, v, c in rep.conditions_checked)
    generic = check_sharp(AnalysisL1Gauge(D), A_FLAT, np.array([1.0, 1.0]))
    assert generic.is_sharp == YES
    assert generic.kappa == pytest.approx(np.sqrt(2), abs=1e-9)


def test_wsl1_checker():
    rep = wsl1_check(A_FLAT, np.array([2.0, 1.0]), np.array([1.0, 1.0]))
    assert rep.is_sharp == YES
    assert np.allclose(rep.dual_certificate, [1.5], atol=1e-8)
    assert rep.ri_margin == pytest.approx(0.5, abs=1e-8)
    generic = check_sharp(SortedWeightedL1Gauge(np.array([2.0, 1.0])),
                          A_FLAT, np.array([1.0, 1.0]))
    assert generic.is_sharp == YES
    assert generic.kappa == pytest.approx(1 / np.sqrt(2), abs=1e-9)


def test_nonneg_checker_pair():
    A_good = np.array([[1.0, -1.0]])
    A_bad = np.array([[1.0, 1.0]])
    x0 = np.array([1.0, 0.0])
    assert nonneg_l1_check(A_good, x0).is_sharp == YES
    rep = nonneg_l1_check(A_bad, x0)
    assert rep.is_sharp == NO
    assert rep.witness is not None
    g = NonnegL1Gauge(2)
    assert check_sharp(g, A_good, x0).is_sharp == YES
    assert check_sharp(g, A_bad, x0).is_sharp == NO


def test_group_block_instance():
    g = GroupL12Gauge(3, [[0, 1], [2]])
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    x0 = np.array([3.0, 4.0, 0.0])
    rep = check_sharp(g, A, x0)
    assert rep.is_sharp == YES
    assert rep.kappa == pytest.approx(1.0, abs=1e-6)
    assert rep.ri_margin == pytest.approx(1.0, abs=1e-6)
    assert check_unique(g, A, x0).is_unique == YES


def test_nuclear_checker_worked_instance():
    # observe X11, X12, X21 of a 2x2 matrix at the rank-one point e11
    Phi = np.zeros((3, 4))
    Phi[0, 0] = Phi[1, 1] = Phi[2, 2] = 1.0
    X0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep = nuclear_check(Phi, X0)
    assert rep.is_sharp == YES
    assert rep.kappa == pytest.approx(1.0, abs=1e-6)
    ids = dict((cid, v) for cid, v, _ in rep.conditions_checked)
    assert ids.get("restricted-injectivity") == YES
    generic = check_sharp(NuclearGauge((2, 2)), Phi, X0.ravel())
    assert generic.is_sharp == YES
    assert generic.kappa == pytest.approx(1.0, abs=1e-6)


def test_nuclear_trace_only_is_not_unique():
    # a single trace measurement leaves the identity non-unique: rotating
    # mass between the diagonal entries keeps both tr X and ||X||_*
    Phi = np.array([[1.0, 0.0, 0.0, 1.0]])
    rep = check_unique(NuclearGauge((2, 2)), Phi, np.eye(2).ravel())
    assert rep.is_sharp == NO and rep.is_unique == NO
    w = rep.witness
    assert w is not None
    assert np.max(np.abs(Phi @ w)) < 1e-9


def test_sdp_unique_but_not_sharp():
    # fixing X11 = 1 pins the psd trace-minimal point uniquely at e11, yet
    # the value grows only quadratically along the feasible kernel arc, so
    # sharpness fails while uniqueness holds
    Phi = np.zeros((1, 4))
    Phi[0, 0] = 1.0
    X0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep = sdp_trace_check(Phi, np.eye(2), X0)
    assert rep.is_sharp == NO
    gen = check_unique(SdpTraceGauge(np.eye(2)), Phi, X0.ravel())
    assert gen.is_sharp == NO and gen.is_unique == YES
    conds = dict((cid, v) for cid, v, _ in gen.conditions_checked)
    assert conds.get("tangent-space") == YES
    assert conds.get("range-space") == NO and conds.get("kernel") == NO


def test_conditions_may_carry_uncertified_unknown_rows():
    Phi = np.zeros((1, 4))
    Phi[0, 0] = 1.0
    gen = check_unique(SdpTraceGauge(np.eye(2)), Phi,
                       np.array([1.0, 0.0, 0.0, 0.0]))
    rows = [(v, c) for cid, v, c in gen.conditions_checked
            if cid == "descent-sample"]
    assert rows and rows[0] == (UNKNOWN, False)


# -------------------------------------------------- qp / probe / reporting


def test_qp_reduction():
    sol = solve_tikhonov(L1Gauge(2), A_LINE, np.array([1.0]), 0.1)
    rep = check_sharp_qp(L1Gauge(2), A_LINE, np.array([1.0]), 0.1, sol.point)
    assert rep.is_sharp == YES and rep.is_unique == YES
    assert np.allclose(sol.point, [0.475, 0.0], atol=1e-7)


def test_upper_lipschitz_probe_line():
    rep = check_sharp(L1Gauge(2), A_LINE, X_SHARP)
    grid = [(None, np.array([0.01])), (np.array([0.0, 0.01]), None),
            (None, None)]
    probe = upper_lipschitz_probe(L1Gauge(2), A_LINE, X_SHARP,
                                  rep.dual_certificate, grid)
    assert probe["max_ratio"] == pytest.approx(0.5, abs=1e-9)
    assert all(r["status"] == "ok" for r in probe["rows"])
    assert len(probe["rows"]) == 3


def test_upper_lipschitz_probe_nonneg_line():
    # the nonneg_l1 exposed face {i : z_i >= 1} (the polar set is z <= 1):
    # a w shift moves x along the active coordinate, a v that lifts z_1
    # above 1 leaves the polar set, and one that lowers it empties the face
    g = NonnegL1Gauge(2)
    rep = check_sharp(g, A_LINE, X_SHARP)
    assert rep.is_sharp == YES
    grid = [(None, np.array([0.01])), (np.array([0.0, 0.01]), None),
            (np.array([0.1, 0.0]), None), (np.array([-0.5, 0.0]), None)]
    probe = upper_lipschitz_probe(g, A_LINE, X_SHARP, rep.dual_certificate,
                                  grid)
    assert [r["status"] for r in probe["rows"]] == \
        ["ok", "ok", "outside polar set", "empty"]
    assert probe["rows"][0]["ratio"] == pytest.approx(0.5, abs=1e-9)
    assert probe["rows"][1]["ratio"] == pytest.approx(0.0, abs=1e-12)
    assert probe["max_ratio"] == pytest.approx(0.5, abs=1e-9)


def test_report_serializes_to_json():
    rep = check_sharp(L1Gauge(2), A_LINE, X_SHARP)
    back = json.loads(json.dumps(rep.to_dict()))
    assert back["is_sharp"] == "Yes"
    assert back["kappa"] == pytest.approx(1 / np.sqrt(5))
    assert isinstance(back["conditions_checked"][0], list)
    assert isinstance(back["kappa_certified"], bool)


def test_internal_disagreement_is_a_runtime_error():
    assert issubclass(InternalDisagreementError, RuntimeError)


def test_nonneg_unbounded_margin_certificate():
    # the conic kind's off-support constraints are one-sided, so the
    # max-margin program can be unbounded; that is a valid certificate
    # (arbitrarily deep in the interior), not a missing one
    A = np.array([[1.57632465, -1.51920778, 0.45834323, -0.24057092],
                  [-1.47888774, -0.03483182, -1.27934016, 0.17931605]])
    x0 = np.array([0.0, 0.0, 0.0, 0.92132225])
    g = NonnegL1Gauge(4)
    out = find_dual_certificate(g, A, x0)
    assert out["ri_margin"] == np.inf and out["margin_is_max"]
    z = A.T @ out["y0"]
    assert z[3] == pytest.approx(1.0, abs=1e-8)
    assert np.all(z[:3] < 1.0)
    rep = check_sharp(g, A, x0, with_alpha=False)
    assert rep.is_sharp == YES
    assert all(v == YES and c for cid, v, c in rep.conditions_checked
               if cid in ("range-space", "kernel"))
    assert nonneg_l1_check(A, x0).is_sharp == YES
    # same failure mode at the origin
    rep0 = check_sharp(NonnegL1Gauge(2), np.array([[1.0, 1.0]]), np.zeros(2),
                       with_alpha=False)
    assert rep0.is_sharp == YES


def test_kernel_probe_above_the_vertex_cap():
    # more off-support sign patterns than VERTEX_CAP: the probe gets no
    # linear pieces and runs on the batch subgradients, and the cone LP
    # decides the kernel row
    x0 = np.zeros(16)
    x0[:2] = [1.0, -0.7]
    D = np.hstack([np.eye(8), 2.0 * np.eye(8), -np.eye(8)])
    cases = [(L1Gauge(16),
              np.random.default_rng(0).standard_normal((10, 16)), x0),
             (AnalysisL1Gauge(D),
              np.random.default_rng(1).standard_normal((4, 8)), np.eye(8)[0])]
    for g, A, x in cases:
        rep = check_sharp(g, A, x, with_alpha=False)
        assert ("kernel", YES, True) in rep.conditions_checked, g.kind
        assert rep.is_sharp == YES and not rep.kappa_certified


def test_wsl1_certificate_lps_do_not_grow_with_the_face(monkeypatch):
    # a 3840-vertex face (one nonzero, five distinct trailing weights): every
    # LP, and every block of a block LP, has at most n(n+1) + m + 1
    # variables, one per top-k bound
    import gaugecert.cones as cones
    import gaugecert.gauges.vector as vector
    sizes, blocks, solve = [], [], cones.lp_solve

    def counted(c, *args, **kwargs):
        sizes.append(np.shape(c)[-1])
        blocks.append(kwargs.get("blocks"))
        return solve(c, *args, **kwargs)

    monkeypatch.setattr(vector, "lp_solve", counted)
    monkeypatch.setattr(cones, "lp_solve", counted)
    g = SortedWeightedL1Gauge([2.0, 1.8, 1.5, 1.2, 1.0, 0.6])
    A = np.random.default_rng(3).standard_normal((3, 6))
    rep = check_unique(g, A, np.eye(6)[0], with_alpha=False)
    assert rep.is_unique == YES and rep.conditions_checked[0] == ("range-space", YES, True)
    assert sizes and max(sizes) <= 6 * 7 + 3 + 1
    # the block LP is the critical cone's cone_trivial test on the
    # 3-dimensional kernel, k + 1 = 4 blocks (exact-pl solves no LP)
    assert [b for b in blocks if b] == [4]


def test_exact_engine_survives_a_degenerate_hull():
    # 64 pieces in a 6-dimensional kernel on which plain qhull reports a
    # topology error (QH6271); the joggled hull gives the facet
    A = np.random.default_rng(2).standard_normal((1, 7))
    rep = check_sharp(L1Gauge(7), A, np.eye(7)[3], with_alpha=False)
    assert rep.is_sharp == YES and rep.kappa_certified
    assert rep.kappa == pytest.approx(0.2115853, abs=1e-6)


def test_exact_engine_zero_minimum_inside_the_hull():
    # at x0 = e1 the l1 pieces, restricted to Ker [1, 1, 0], hold 0 in
    # their hull: the minimum-norm point is 0, and the exact engine answers
    # 0 from the hull's facet through the origin
    rep = check_sharp(L1Gauge(3), np.array([[1.0, 1.0, 0.0]]),
                      np.array([1.0, 0.0, 0.0]))
    assert rep.is_sharp == NO and rep.kappa_certified
    assert "kappa engine: exact-pl" in rep.notes
    assert abs(rep.kappa) <= 1e-15
    assert np.allclose(rep.witness, np.array([-1.0, 1.0, 0.0]) / np.sqrt(2.0),
                       atol=1e-12)


def test_exact_engine_zero_minimum_on_a_flat_hull():
    # the third column of D is zero, so every piece vanishes on the kernel
    # direction e3: the pieces have rank 1 on the 2-dimensional kernel, and
    # the exact engine answers 0 at a direction of their kernel
    rep = check_sharp(AnalysisL1Gauge([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
                      np.array([[1.0, 1.0, 0.0]]), np.array([1.0, 0.0, 0.0]),
                      with_alpha=False)
    assert rep.is_sharp == NO and rep.kappa_certified
    assert "kappa engine: exact-pl" in rep.notes
    assert abs(rep.kappa) <= 1e-15


def test_nuclear_tail_dominance_subgradient_is_the_gradient(monkeypatch):
    # a 4-dimensional kernel (3 x 3, 5 measurements) sends the tail-dominance
    # probe to the multistart, the one engine that reads its subgradient;
    # where the singular values are distinct and nonzero it is the gradient
    # of sum(tail) - sum(head), which central differences approximate
    import gaugecert.certificates as certificates

    rng = np.random.default_rng(0)
    X0 = np.outer(rng.standard_normal(3), rng.standard_normal(3))
    Phi = rng.standard_normal((5, 9))
    probes = []
    original = certificates.sphere_min

    def spy(f, K, *args, **kwargs):
        probes.append((f, K))
        return original(f, K, *args, **kwargs)

    monkeypatch.setattr(certificates, "sphere_min", spy)
    rep = nuclear_check(Phi, X0)
    assert rep.conditions_checked[-1][0] == "tail-dominance-sufficient"
    f, K = probes[-1]
    assert K.shape == (9, 4)
    H = rng.standard_normal((10, 9))
    s = np.linalg.svd(H.reshape(-1, 3, 3), compute_uv=False)
    assert np.all(np.diff(s, axis=1) < -1e-3) and np.all(s > 1e-3)
    step, E = 1e-6, np.eye(9)
    fd = np.stack([(f.value_batch(H + step * e) - f.value_batch(H - step * e))
                   / (2 * step) for e in E], axis=1)
    assert np.allclose(f.subgrad_batch(H), fd, rtol=0.0, atol=1e-7)


def test_sdp_probe_subgradient_on_a_large_kernel(monkeypatch):
    # a 4-dimensional symmetric kernel takes the multistart probe, the one
    # path that reads the probe's subgradient: each row is a subgradient of
    # max(-lambda_min(E^T H E), <C, H>), which matches its formula
    import gaugecert.certificates as certificates

    rng = np.random.default_rng(3)
    gauge = SdpTraceGauge(np.eye(3))
    x0 = gauge.draw_x0(rng)
    Phi = rng.standard_normal((2, 9))
    probes = []

    original = certificates.sphere_min

    def spy(f, K, *args, **kwargs):
        probes.append((f, K))
        return original(f, K, *args, **kwargs)

    monkeypatch.setattr(certificates, "sphere_min", spy)
    rep = sdp_trace_check(Phi, np.eye(3), x0.reshape(3, 3))
    assert rep.conditions_checked == [("kernel-probe", NO, True)]
    assert "(multistart-subgradient)" in rep.notes[0]
    (f, K), = probes
    assert K.shape == (6, 4)
    S, E = gauge.coordinate_basis(), gauge._kernel(x0)
    T = rng.standard_normal((40, 4)) @ K.T
    vals, G = f.value_batch(T), f.subgrad_batch(T)
    H = (T @ S.T).reshape(-1, 3, 3)
    low = -np.linalg.eigvalsh(E.T @ H @ E)[:, 0]
    assert np.allclose(vals, np.maximum(low, np.trace(H, axis1=1, axis2=2)),
                       rtol=0.0, atol=1e-12)
    assert np.any(low > np.trace(H, axis1=1, axis2=2))
    for _ in range(4):
        D = 1e-3 * rng.standard_normal(T.shape)
        gain = f.value_batch(T + D) - vals - np.sum(G * D, axis=1)
        assert gain.min() >= -1e-12


def _nonneg_draw_115():
    """The 3 x 6 nonneg_l1 draw on which the kernel probe's thin-section
    branch certifies a grid point off the domain cone (kappa -0.0026); the
    extreme rays of Ker A ∩ D give the exact kappa 5.462e-4 > 0."""
    rng = np.random.default_rng(115)
    A = rng.standard_normal((3, 6))
    k = int(rng.integers(1, 4))
    x0 = np.zeros(6)
    x0[rng.choice(6, k, replace=False)] = rng.uniform(0.5, 1.5, k)
    return NonnegL1Gauge(6), A, x0


def test_nonneg_draw_115_cone_lp_says_unique():
    from gaugecert.cones import cone_trivial
    g, A, x0 = _nonneg_draw_115()
    assert cone_trivial(g.critical_cone(x0), kernel_basis(A)) == (True, None)


@pytest.mark.xfail(strict=True, raises=InternalDisagreementError,
                   reason="the angular grid certifies a kappa off the cone")
def test_nonneg_draw_115_is_unique_and_sharp():
    g, A, x0 = _nonneg_draw_115()
    rep = check_unique(g, A, x0, with_alpha=False)
    assert rep.is_unique == YES and rep.is_sharp == YES
    assert rep.kappa == pytest.approx(5.462e-4, rel=1e-3)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the angular grid certifies a kappa off the cone")
def test_nonneg_zero_x0_kappa_is_the_extreme_ray_minimum():
    # Ker A ∩ R^4_+ is spanned by its extreme rays (2, 1, 0, 0), (0, 3, 2, 0)
    # and (0, 1, 0, 2); J'(0; h) = sum(h), so kappa = 3 / sqrt(5) = 1.341641.
    # The thin-section branch certifies 1.337083 at a grid point 1.6e-3 off
    # the cone
    A = np.array([[1.0, -2.0, 3.0, 1.0]])
    rep = check_unique(NonnegL1Gauge(4), A, np.zeros(4), with_alpha=False)
    assert rep.is_unique == YES and rep.kappa_certified
    assert rep.kappa == pytest.approx(3.0 / np.sqrt(5.0), abs=1e-5)


def test_cone_without_rows():
    # a full-support x0 gives nonneg_l1 a domain tangent cone with no rows
    A = np.random.default_rng(0).standard_normal((1, 5))
    for with_alpha in (False, True):
        rep = check_sharp(NonnegL1Gauge(5), A, np.ones(5),
                          with_alpha=with_alpha)
        assert ("kernel", NO, True) in rep.conditions_checked
        assert rep.is_sharp == NO
        assert (rep.alpha is not None) == with_alpha


# ------------------------------------------------------ randomized battery


def test_verdict_identities_random_l1():
    """kappa/witness identities on random small l1 instances.

    * sharp Yes  ->  kappa > 0 and sampled kernel derivatives >= kappa
    * sharp No   ->  the witness is a unit kernel direction with a
                     nonpositive one-sided derivative
    * polyhedral: unique and sharp coincide
    """
    rng = np.random.default_rng(71)
    seen_yes = seen_no = 0
    for _ in range(40):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(m + 1, 5))
        A = rng.standard_normal((m, n))
        x0 = np.zeros(n)
        k = int(rng.integers(0, m + 1))
        if k:
            x0[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
        g = L1Gauge(n)
        rep = check_sharp(g, A, x0, with_alpha=False)
        assert rep.is_sharp in (YES, NO)
        assert rep.is_sharp == rep.is_unique
        K = kernel_basis(A)
        if rep.is_sharp == YES:
            seen_yes += 1
            assert rep.kappa > 0
            for _ in range(25):
                t = rng.standard_normal(K.shape[1])
                h = K @ t
                h /= np.linalg.norm(h)
                assert g.dir_deriv(x0, h) >= rep.kappa - 1e-9
        else:
            seen_no += 1
            w = rep.witness
            assert w is not None
            assert np.max(np.abs(A @ w)) < 1e-8
            assert abs(np.linalg.norm(w) - 1.0) < 1e-8
            assert g.dir_deriv(x0, w) <= 1e-8
    # the sampler really exercised both branches
    assert seen_yes >= 5 and seen_no >= 5


def test_specialized_checkers_agree_with_generic():
    rng = np.random.default_rng(72)
    for _ in range(12):
        m, n = 1, 3
        A = rng.standard_normal((m, n))
        x0 = np.zeros(n)
        x0[int(rng.integers(0, n))] = float(rng.standard_normal())
        gen = check_sharp(L1Gauge(n), A, x0, with_alpha=False)
        spec = fuchs_check(A, x0)
        assert gen.is_sharp == spec.is_sharp
        xp = np.abs(x0)
        gen = check_sharp(NonnegL1Gauge(n), A, xp, with_alpha=False)
        spec = nonneg_l1_check(A, xp)
        assert gen.is_sharp == spec.is_sharp
    # analysis_l1, wsl1 and nuclear: the checker's rank row is the rank test
    # of check_sharp's range-space route (A injective on the complement of
    # the face tangent), and the verdicts agree unless the margin lies
    # between the two strictness thresholds; rank-deficient A, duplicated
    # columns of D and x0 = 0 included
    rng = np.random.default_rng(73)
    cases = []
    for i in range(8):
        A = rng.standard_normal((2, 4))
        if i % 4 == 0:
            A[1] = A[0]
        D = rng.standard_normal((4, 3))
        if i % 2:
            D[:, 2] = D[:, 0]
        x0 = np.zeros(4) if i == 6 else \
            kernel_basis(D[:, :2].T) @ rng.standard_normal(2)
        cases.append((AnalysisL1Gauge(D), A, x0,
                      lambda A=A, D=D, x0=x0: analysis_check(A, D, x0)))
    for i in range(8):
        A = rng.standard_normal((2, 3))
        if i % 4 == 0:
            A[1] = A[0]
        w = np.array([2.0, 1.5, 1.5]) if i % 2 else np.array([2.0, 1.2, 0.7])
        x0 = np.zeros(3) if i == 6 else \
            np.array([1.0, -1.0 if i % 3 else -0.5, 0.0])[rng.permutation(3)]
        cases.append((SortedWeightedL1Gauge(w), A, x0,
                      lambda A=A, w=w, x0=x0: wsl1_check(A, w, x0)))
    for i in range(4):
        Phi = rng.standard_normal((3, 4))
        if i == 0:
            Phi[2] = Phi[0]
        X0 = np.outer(rng.standard_normal(2), rng.standard_normal(2))
        cases.append((NuclearGauge((2, 2)), Phi, X0.ravel(),
                      lambda Phi=Phi, X0=X0: nuclear_check(Phi, X0)))
    for gauge, A, x0, check in cases:
        spec = check()
        gen = check_sharp(gauge, A, x0, with_alpha=False)
        T = gauge.face(x0).tangent
        Q = kernel_basis(T.T) if T.size else np.eye(gauge.n)
        rank_ok = matrix_rank(A @ Q) == Q.shape[1]
        assert spec.conditions_checked[0][1] == (YES if rank_ok else NO)
        margin = spec.ri_margin
        if margin is None or not 1e-8 <= margin < 1e-6:
            assert spec.is_sharp == gen.is_sharp


# ---------------------------------------------------------- alpha routes

#: certify-cli designs of the benchmark's seed 1: nuclear 2 x 3 at rank 1
#: (a tail with a side of 1) and sdp_trace n = 2 at rank 1 (a kernel of
#: side 1), both sharp
NUCLEAR_23_A = np.array([
    [-0.38858162643092137, -0.005345108194554901, 0.2805141327606361,
     -0.04672964686924841, -0.9005558176527775, 0.41116809612685545],
    [-2.0205683437390713, 0.3936714246719213, 0.1011805479039996,
     1.305504439678361, 0.162492524439714, 0.4843666861510153],
    [-0.945004880210997, 0.1751267259369293, 0.7767715923088043,
     1.0237570637342623, 0.11372135501159347, 1.5840865666047834],
    [1.2697782035697391, -0.6544917819047186, -2.472501641473311,
     -1.0987964420034737, 0.06633321754376165, 0.15801666920094792],
    [-0.2904922358627054, -0.4228707833949457, 0.6475913732532051,
     -0.5908800607637399, -2.129441533392909, -0.30868073617960234]])
NUCLEAR_23_X0 = np.array([0.309629969023535, 0.6123796664108909,
                          -0.03136116101573505, -0.3275731074162369,
                          -0.6478672296397978, 0.03317854857042091])
SDP_22_A = np.array([
    [0.1138049234042452, 0.13572450601154007, 0.13572450601154007,
     -0.5333475675684216],
    [0.69391199097919, -1.1170578022920137, -1.1170578022920137,
     0.42544923956540653]])
SDP_22_X0 = np.array([0.937806893463829, -0.2415059503108601,
                      -0.2415059503108601, 0.06219310653617117])


def _found_nuclear_draw():
    """The nuclear 2 x 3 draw whose multistart alpha was 0.009075: a unit
    kernel direction has J'(x0; h) = -0.1012, so alpha is 0."""
    g = NuclearGauge((2, 3))
    rng = np.random.default_rng([99, 29])
    x0 = g.draw_x0(rng)
    return g, rng.standard_normal((int(rng.integers(3, 6)), 6)), x0


def _alpha_note(rep):
    return next(n for n in rep.notes if n.startswith("alpha engine: "))


def test_found_nuclear_draw_alpha_is_a_certified_zero():
    rep = check_sharp(*_found_nuclear_draw())
    assert rep.is_sharp == NO and rep.kappa == pytest.approx(-0.1012, abs=1e-4)
    assert rep.alpha_certified and 0.0 <= rep.alpha <= 1e-12


def test_structured_designs_alpha_pins():
    rep = check_sharp(NuclearGauge((2, 3)), NUCLEAR_23_A, NUCLEAR_23_X0)
    assert rep.is_sharp == YES and rep.alpha_certified
    assert rep.alpha == pytest.approx(0.0667124, abs=1e-7)
    rep = check_sharp(SdpTraceGauge(np.eye(2)), SDP_22_A, SDP_22_X0)
    assert rep.is_sharp == YES and rep.alpha_certified
    assert rep.alpha == pytest.approx(0.2692781, abs=1e-7)


def test_alpha_engine_note_names_the_route():
    rep = check_sharp(*_found_nuclear_draw())
    assert _alpha_note(rep).startswith("alpha engine: kernel-witness (the "
                                       "kernel route's direction lies in Ker A")
    rep = check_sharp(NuclearGauge((2, 2)), np.eye(4)[:3], np.eye(4)[0])
    assert _alpha_note(rep).startswith(
        "alpha engine: exact-active-set (lifted nuclear descent cone; ")
    rep = check_sharp(NuclearGauge((2, 3)), NUCLEAR_23_A, NUCLEAR_23_X0)
    lo, hi = (float(v) for v in _alpha_note(rep).split("bounds [")[1]
              .rstrip("])").split(", "))
    assert _alpha_note(rep).startswith(
        "alpha engine: exact-soc (single second-order cone, bounds [")
    assert lo <= rep.alpha and hi == pytest.approx(rep.alpha, rel=1e-9)


def _kind_draw(kind, rng):
    """A small seeded (gauge, A, x0) of any kind with a wide kernel
    (m of 1 or 2), so the kernel route often certifies No."""
    n = int(rng.integers(3, 6))
    m = int(rng.integers(1, 3))
    x0 = np.zeros(n)
    on = rng.choice(n, int(rng.integers(1, n)), replace=False)
    x0[on] = rng.uniform(0.5, 1.5, on.size)
    if kind == "l1":
        return L1Gauge(n), rng.standard_normal((m, n)), x0 * rng.choice([-1, 1], n)
    if kind == "nonneg_l1":
        return NonnegL1Gauge(n), rng.standard_normal((m, n)), x0
    if kind == "analysis_l1":
        D = rng.standard_normal((n, n + 1))
        return AnalysisL1Gauge(D), rng.standard_normal((m, n)), \
            kernel_basis(D[:, :n - 1].T) @ rng.standard_normal(1)
    if kind == "wsl1":
        w = np.sort(rng.choice([1.0, 2.0, 3.0], n))[::-1]
        return SortedWeightedL1Gauge(w), rng.standard_normal((m, n)), \
            x0 * rng.choice([-1.0, 1.0], n)
    if kind == "group_l12":
        g = GroupL12Gauge(n, [list(range(0, n, 2)), list(range(1, n, 2))])
        return g, rng.standard_normal((m, n)), x0 * rng.choice([-1.0, 1.0], n)
    if kind == "nuclear":
        g = NuclearGauge([(2, 2), (2, 3)][int(rng.integers(2))])
    else:
        G = rng.standard_normal((2, 2))
        g = SdpTraceGauge(G @ G.T + 0.1 * np.eye(2))
    return g, rng.standard_normal((m, g.n)), g.draw_x0(rng)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(kind=st.sampled_from(["l1", "nonneg_l1", "analysis_l1", "wsl1",
                             "group_l12", "nuclear", "sdp_trace"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_no_makes_alpha_a_certified_zero(kind, seed):
    # a certified kernel No holds a unit kernel direction in the critical
    # cone, so alpha is 0; whichever route gives it, it is certified
    g, A, x0 = _kind_draw(kind, np.random.default_rng(seed))
    rep = check_sharp(g, A, x0)
    if ("kernel", NO, True) in rep.conditions_checked:
        assert rep.alpha_certified and 0.0 <= rep.alpha <= 1e-8, \
            _alpha_note(rep)


@pytest.mark.parametrize("c", [1.0, 1e4, 1e8])
def test_sdp_kernel_witness_does_not_depend_on_the_scale_of_a(c):
    # the probe's minimizer is an explicit kernel witness at every scale:
    # ||A h|| is bounded relative to ||A||_2, not absolutely
    rng = np.random.default_rng(3)
    x0 = SdpTraceGauge(np.eye(3)).draw_x0(rng)
    Phi = rng.standard_normal((2, 9))
    rep = sdp_trace_check(c * Phi, np.eye(3), x0.reshape(3, 3))
    assert rep.conditions_checked == [("kernel-probe", NO, True)]
    assert rep.is_sharp == NO


_SEVEN_KINDS = ("l1", "nonneg_l1", "analysis_l1", "wsl1", "group_l12",
                "nuclear", "sdp_trace")


def _assert_same_verdicts(rep, base, case):
    """Every verdict, condition row and certified kappa of base; a heuristic
    (multistart) kappa may move within its search's accuracy."""
    assert rep.conditions_checked == base.conditions_checked, case
    assert (rep.is_sharp, rep.is_unique) == (base.is_sharp, base.is_unique), case
    assert rep.kappa_certified == base.kappa_certified, case
    if base.kappa_certified:
        assert rep.kappa == pytest.approx(base.kappa, rel=1e-9, abs=1e-12), case


def test_scaling_a_changes_no_verdict():
    # A -> cA keeps Ker A, the face and the certificates' existence
    for kind in _SEVEN_KINDS:
        for seed in range(12):
            g, A, x0 = _kind_draw(kind, np.random.default_rng(seed))
            base = check_unique(g, A, x0, with_alpha=False)
            for c in (1e-3, 1e4):
                _assert_same_verdicts(check_unique(g, c * A, x0, with_alpha=False),
                                      base, (kind, seed, c))


def _rotated(g, A, x0, rng):
    # A -> QA keeps Ker A and Im A^T
    return np.linalg.qr(rng.standard_normal((len(A), len(A))))[0] @ A, x0


def _permuted(g, A, x0, rng):
    # J(Px) = J(x) for l1, nonneg_l1 and wsl1, and (A P^T)(P x0) = A x0
    perm = rng.permutation(g.n)
    return A[:, perm], x0[perm]


def _sign_flipped(g, A, x0, rng):
    # ||Sx||_1 = ||x||_1, and (A S)(S x0) = A x0
    s = rng.choice([-1.0, 1.0], g.n)
    return A * s, x0 * s


#: the angular grid certifies a nonneg_l1 kappa that moves with the basis of
#: Ker A, by up to 6e-3 relative over these draws
_GRID_KAPPA_MOVES = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the angular grid's certified nonneg_l1 kappa depends on the "
           "basis of Ker A that the probe gets")


@pytest.mark.parametrize("relation, kind", [
    *((_rotated, kind) for kind in _SEVEN_KINDS if kind != "nonneg_l1"),
    pytest.param(_rotated, "nonneg_l1", marks=_GRID_KAPPA_MOVES),
    (_permuted, "l1"), (_permuted, "wsl1"),
    pytest.param(_permuted, "nonneg_l1", marks=_GRID_KAPPA_MOVES),
    (_sign_flipped, "l1")])
def test_symmetries_of_the_problem_change_no_verdict(relation, kind):
    for seed in range(12):
        g, A, x0 = _kind_draw(kind, np.random.default_rng(seed))
        base = check_unique(g, A, x0, with_alpha=False)
        A2, x2 = relation(g, A, x0, np.random.default_rng([seed, 33]))
        _assert_same_verdicts(check_unique(g, A2, x2, with_alpha=False),
                              base, (kind, seed))


@pytest.mark.parametrize("kind", ["group_l12", "nuclear", "sdp_trace"])
def test_certificate_margin_does_not_depend_on_the_rows_of_a(kind):
    # A -> QA (Q orthogonal) and A -> cA keep Im A^T, so the largest margin
    # over the certificates and whether it was reached.  The draws' one or
    # two rows mostly leave the search no free direction; three more rows
    # give it some
    for seed in range(12):
        g, A, x0 = _kind_draw(kind, np.random.default_rng(seed))
        rng = np.random.default_rng([seed, 32])
        for A in (A, np.vstack([A, rng.standard_normal((3, g.n))])):
            base = find_dual_certificate(g, A, x0)
            Q = np.linalg.qr(rng.standard_normal((len(A), len(A))))[0]
            for case, A2 in (("Q", Q @ A), (1e-3, 1e-3 * A), (1e3, 1e3 * A)):
                cert, case = find_dual_certificate(g, A2, x0), (seed, len(A), case)
                if base is None:
                    assert cert is None, case
                    continue
                assert cert["margin_is_max"] == base["margin_is_max"], case
                assert cert["ri_margin"] == pytest.approx(base["ri_margin"],
                                                          rel=1e-9), case


#: c J for the kinds whose J is linear in its parameter
_SCALED_J = {
    "wsl1": lambda g, c: SortedWeightedL1Gauge(c * g.w),
    "analysis_l1": lambda g, c: AnalysisL1Gauge(c * g.D),
    "sdp_trace": lambda g, c: SdpTraceGauge(c * g.C),
}


def test_scaling_j_keeps_alpha_and_scales_kappa():
    # J -> cJ keeps the critical cone, hence alpha, and scales J', hence
    # kappa, by c.  Certified flags are not compared: the grid's polish
    # rule, 1e-5 max(1, |value|), is not scale-free
    for kind, scaled in _SCALED_J.items():
        for seed in range(12):
            g, A, x0 = _kind_draw(kind, np.random.default_rng(seed))
            base = check_unique(g, A, x0)
            for c in (1e-2, 1e2, 1e4):
                rep, case = check_unique(scaled(g, c), A, x0), (kind, seed, c)
                assert (rep.is_sharp, rep.is_unique) == \
                    (base.is_sharp, base.is_unique), case
                if rep.alpha_certified and base.alpha_certified:
                    assert rep.alpha == pytest.approx(base.alpha, rel=1e-9,
                                                      abs=1e-12), case
                if rep.kappa_certified and base.kappa_certified:
                    assert rep.kappa == pytest.approx(c * base.kappa, rel=1e-9,
                                                      abs=c * 1e-12), case


@pytest.mark.parametrize("seed", [0, 7])
def test_sdp_face_margin_is_measured_in_the_units_of_c(seed):
    # the face's affine residual grows with C: at 1e6 C the certificate's
    # margin is still read, so its Yes stays certified
    g, A, x0 = _kind_draw("sdp_trace", np.random.default_rng(seed))
    rep = check_unique(SdpTraceGauge(1e6 * g.C), A, x0)
    assert ("range-space", YES, True) in rep.conditions_checked
    assert rep.is_sharp == YES and rep.is_unique == YES


@pytest.mark.xfail(strict=True, raises=InternalDisagreementError,
                   reason="the face margin LP's rows D_off u = z - base hold "
                          "only up to rounding that grows with D, past "
                          "HiGHS's absolute feasibility tolerance (1e-9): "
                          "the LP comes back infeasible and the range-space "
                          "route certifies No")
def test_large_analysis_operator_changes_no_verdict():
    g, A, x0 = _kind_draw("analysis_l1", np.random.default_rng(4))
    rep = check_unique(AnalysisL1Gauge(1e6 * g.D), A, x0)
    assert rep.is_sharp == check_unique(g, A, x0).is_sharp


def test_scaling_x0_changes_no_verdict():
    # J is positively homogeneous, so dJ(c x0), its critical cone and the
    # certificates depend on x0 only through its face: a tiny x0 is not 0
    for kind in _SEVEN_KINDS:
        for seed in range(6):
            g, A, x0 = _kind_draw(kind, np.random.default_rng(seed))
            base = check_unique(g, A, x0, with_alpha=False)
            for c in (1e-13, 1e-6, 1e6):
                _assert_same_verdicts(check_unique(g, A, c * x0, with_alpha=False),
                                      base, (kind, seed, c))


@pytest.mark.xfail(strict=True, raises=InternalDisagreementError,
                   reason="HiGHS drops matrix entries below its "
                          "small_matrix_value (1e-9): the certificate LP of a "
                          "tiny A comes back infeasible and the range-space "
                          "route certifies No")
def test_tiny_a_changes_no_verdict():
    # the rank and kernel tests are scale-free and agree at 1e-11 A; the LP
    # backend is not (mend: scale the LP rows)
    g, A, x0 = _kind_draw("l1", np.random.default_rng(5))
    _assert_same_verdicts(check_unique(g, 1e-11 * A, x0), check_unique(g, A, x0),
                          1e-11)
