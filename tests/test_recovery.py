"""Tests for instance generation, bound evaluation, and sweep plumbing."""

import math

import numpy as np
import pytest

from gaugecert.certificates import check_sharp
from gaugecert.gauges import L1Gauge
from gaugecert.recovery import (
    CSV_HEADER,
    ProblemInstance,
    RecoveryReport,
    gen_instance,
    noise_draw,
    rows_to_csv,
    run_recovery,
    sweep,
)

LINE_CFG = {"m": 1, "n": 2, "sparsity": 1, "kind": "l1", "delta": 1e-2}


def line_instance(delta, omega=None):
    A = np.array([[2.0, 1.0]])
    x0 = np.array([0.5, 0.0])
    if omega is None:
        omega = np.array([delta])
    return ProblemInstance(A=A, x0=x0, b0=A @ x0, delta=delta, omega=omega,
                           seed=0, gauge=L1Gauge(2), instance_id="line")


# ------------------------------------------------------------ gen_instance


def test_gen_instance_is_deterministic():
    a = gen_instance(LINE_CFG, 3)
    b = gen_instance(LINE_CFG, 3)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.x0, b.x0)
    assert np.array_equal(a.omega, b.omega)
    assert a.instance_id == b.instance_id == "l1-m1-n2-s3-d0.01"
    c = gen_instance(LINE_CFG, 4)
    assert not np.array_equal(a.A, c.A)


def test_gen_instance_structure():
    rng = np.random.default_rng(80)
    for seed in rng.integers(0, 1000, size=6):
        inst = gen_instance({"m": 3, "n": 6, "sparsity": 2, "delta": 0.25},
                            int(seed))
        assert np.count_nonzero(inst.x0) == 2
        assert np.allclose(inst.b0, inst.A @ inst.x0)
        assert np.linalg.norm(inst.omega) == pytest.approx(0.25, abs=1e-12)


def test_gen_instance_noise_models():
    sph = gen_instance({"m": 3, "n": 5, "sparsity": 1, "delta": 0.25}, 7)
    adv = gen_instance({"m": 3, "n": 5, "sparsity": 1, "delta": 0.25,
                        "noise": "adversarial"}, 7)
    assert sph.instance_id.endswith("-d0.25")
    assert adv.instance_id.endswith("-adv")
    # adversarial noise points exactly along the clean measurement
    cos = (adv.omega @ adv.b0) / (np.linalg.norm(adv.omega)
                                  * np.linalg.norm(adv.b0))
    assert cos == pytest.approx(1.0, abs=1e-12)
    # zero delta means zero noise
    clean = gen_instance({"m": 3, "n": 5, "sparsity": 1, "delta": 0.0}, 7)
    assert np.all(clean.omega == 0.0)


def test_noise_draw_reads_the_callers_generator():
    # the sphere draw is one standard normal vector from the caller's
    # Generator; adversarial noise along b0 draws nothing, and falls back to
    # the sphere draw when b0 = 0; zero delta draws nothing
    b0 = np.array([3.0, -4.0])
    g = np.random.default_rng(5).standard_normal(2)
    rng = np.random.default_rng(5)
    assert np.array_equal(noise_draw(rng, b0, 0.5), 0.5 * g / np.linalg.norm(g))
    rng = np.random.default_rng(5)
    assert np.array_equal(noise_draw(rng, b0, 0.5, "adversarial"), [0.3, -0.4])
    assert np.array_equal(noise_draw(rng, b0, 0.0), [0.0, 0.0])
    assert np.array_equal(noise_draw(rng, 0.0 * b0, 0.5, "adversarial"),
                          0.5 * g / np.linalg.norm(g))


def test_gen_instance_zero_sparsity_zero_delta():
    inst = gen_instance({"m": 2, "n": 3, "sparsity": 0, "delta": 0.0}, 1)
    assert np.all(inst.x0 == 0) and np.all(inst.b0 == 0)
    row = run_recovery(inst, 1.0).rows[0]
    assert row["pass"] == "True"
    assert row["err_mozorov"] == 0.0 and row["err_tikhonov"] == 0.0


def test_gen_instance_nonneg_kind_stays_nonnegative():
    for seed in range(5):
        inst = gen_instance({"m": 2, "n": 5, "sparsity": 3,
                             "kind": "nonneg_l1", "delta": 0.0}, seed)
        assert np.all(inst.x0 >= 0.0)


def test_gen_instance_matrix_kinds():
    inst = gen_instance({"m": 3, "n": 4, "kind": "nuclear", "shape": [2, 2],
                         "rank": 1, "delta": 0.0}, 2)
    assert np.linalg.matrix_rank(inst.x0.reshape(2, 2)) == 1
    inst = gen_instance({"m": 3, "n": 4, "kind": "sdp_trace",
                         "C": np.eye(2).tolist(), "rank": 1, "delta": 0.0}, 2)
    X = inst.x0.reshape(2, 2)
    assert np.max(np.abs(X - X.T)) == 0.0
    assert np.linalg.eigvalsh(X)[0] >= -1e-12


def test_gen_instance_unknown_kind():
    with pytest.raises(ValueError):
        gen_instance({"m": 2, "n": 3, "kind": "huber"}, 0)


# ------------------------------------------------------------ run_recovery


def test_line_bounds_hold():
    for delta in (1e-3, 1e-2, 1e-1):
        rep = run_recovery(line_instance(delta), c1=1.0)
        row = rep.rows[0]
        assert row["pass"] == "True"
        assert rep.all_pass and rep.pass_rate == 1.0
        assert row["err_mozorov"] <= row["bound_mozorov"] + 1e-5
        assert row["err_tikhonov"] <= row["bound_tikhonov_y0"] + 1e-5
        assert row["err_tikhonov"] <= row["bound_tikhonov_lip"] + 1e-5


def test_line_mozorov_error_within_2_sqrt2_delta():
    # the line's alpha is 1/sqrt(2), so 2 delta / alpha = 2 sqrt(2) delta
    for delta in (1e-3, 1e-2, 1e-1):
        row = run_recovery(line_instance(delta), c1=1.0).rows[0]
        assert row["err_mozorov"] <= 2 * np.sqrt(2) * delta + 1e-5


def test_line_row_constants_frozen():
    row = run_recovery(line_instance(1e-2), c1=1.0).rows[0]
    assert row["kappa"] == pytest.approx(1 / np.sqrt(5), abs=1e-12)
    assert row["alpha"] == pytest.approx(1 / np.sqrt(2), abs=1e-3)
    assert row["L"] == pytest.approx(np.sqrt(2), abs=1e-12)
    assert row["pinv_norm"] == pytest.approx(1 / np.sqrt(5), abs=1e-12)
    assert row["y0_norm"] == pytest.approx(0.5, abs=1e-9)


def test_bound_formulas_recomputed():
    # re-derive the three bounds from the row's own constants
    c1 = 0.7
    delta = 5e-2
    row = run_recovery(line_instance(delta), c1=c1).rows[0]
    k, a, L, adag, y0n = (row["kappa"], row["alpha"], row["L"],
                          row["pinv_norm"], row["y0_norm"])
    assert row["mu"] == pytest.approx(c1 * delta, abs=1e-15)
    assert row["bound_mozorov"] == pytest.approx(2 * delta / a, rel=1e-12)
    assert row["bound_tikhonov_y0"] == pytest.approx(
        2 * (1 + 2 * c1 * y0n) * delta / a, rel=1e-12)
    assert row["bound_tikhonov_lip"] == pytest.approx(
        c1 / (2 * k) * (1 / c1 + (k + L) * adag) ** 2 * delta, rel=1e-12)


def test_zero_delta_recovers_exactly():
    rep = run_recovery(line_instance(0.0, omega=np.zeros(1)), c1=1.0)
    row = rep.rows[0]
    assert row["pass"] == "True"
    assert row["err_mozorov"] <= 1e-7
    assert row["err_tikhonov"] <= 1e-7


@pytest.mark.parametrize("cfg, seed", [
    ({"m": 4, "n": 6, "kind": "nuclear", "shape": [2, 3], "rank": 1}, 3),
    ({"m": 3, "n": 4, "kind": "group_l12", "partition": [[0, 1], [2, 3]],
      "sparsity": 1}, 0),
])
def test_second_order_alpha_rows_are_asserted(cfg, seed):
    # a nuclear tail with a side of 1 and one group_l12 zero group: alpha
    # is certified by its second-order bounds, so the bounds are asserted
    base = gen_instance(dict(cfg, delta=1e-2), seed)
    cert = check_sharp(base.gauge, base.A, base.x0)
    assert cert.alpha_certified and cert.kappa_certified
    for delta in (1e-3, 1e-2, 1e-1):
        for noise in ("sphere", "adversarial"):
            inst = gen_instance(dict(cfg, delta=delta, noise=noise), seed)
            row = run_recovery(inst, c1=1.0, cert=cert).rows[0]
            assert row["pass"] == "True", row
            assert row["err_mozorov"] <= row["bound_mozorov"]
            assert row["err_tikhonov"] <= row["bound_tikhonov_y0"]


def test_non_sharp_instance_is_not_applicable():
    A = np.array([[1.0, 1.0]])
    x0 = np.array([1.0, 0.0])
    inst = ProblemInstance(A=A, x0=x0, b0=A @ x0, delta=0.01,
                           omega=np.array([0.01]), seed=0, gauge=L1Gauge(2),
                           instance_id="flat")
    rep = run_recovery(inst, c1=1.0)
    row = rep.rows[0]
    assert row["pass"] == "na"
    assert row["note"] == "bounds not applicable"
    assert rep.n_applicable == 0
    assert rep.pass_rate == 1.0  # nothing asserted, nothing failed
    assert rep.all_pass


def test_solver_failure_row():
    # noise pushes b outside delta-reach of the range of A: the residual
    # solve is infeasible and the row records the failure instead of raising
    inst = ProblemInstance(A=np.array([[1.0], [1.0]]), x0=np.array([1.0]),
                           b0=np.array([1.0, 1.0]), delta=0.01,
                           omega=np.array([0.5, -0.5]), seed=0,
                           gauge=L1Gauge(1), instance_id="forced")
    rep = run_recovery(inst, c1=1.0)
    row = rep.rows[0]
    assert row["pass"] == "error"
    assert row["status"] == "solver-failure"
    assert "infeasible" in row["note"]
    assert not rep.all_pass or row["pass"] != "False"  # error is not a False


def test_override_detects_corrupted_alpha():
    rep = run_recovery(line_instance(0.1), c1=1.0, overrides={"alpha": 1e8})
    row = rep.rows[0]
    assert row["pass"] == "False"
    assert rep.worst_violation > 0
    assert not rep.all_pass


def test_precomputed_certificate_matches_fresh_run():
    inst = line_instance(1e-2)
    cert = check_sharp(inst.gauge, inst.A, inst.x0)
    cached = run_recovery(inst, c1=1.0, cert=cert).rows[0]
    fresh = run_recovery(inst, c1=1.0).rows[0]
    assert cached == fresh


def test_run_recovery_validation():
    with pytest.raises(ValueError):
        run_recovery(line_instance(1e-2), c1=0.0)
    with pytest.raises(ValueError):
        run_recovery(line_instance(1e-2), c1=-2.0)


@pytest.mark.parametrize("c1, delta", [(math.nan, 1e-2), (math.inf, 1e-2),
                                       (1.0, math.nan), (1.0, math.inf)])
def test_run_recovery_rejects_non_finite_noise_parameters(c1, delta):
    # a NaN mu once gave NaN bounds that max() skipped, and a row that passed
    with pytest.raises(ValueError, match="finite"):
        run_recovery(line_instance(delta, omega=np.zeros(1)), c1=c1)


# ------------------------------------------------------------------- sweep


def test_sweep_is_byte_deterministic():
    grid = [dict(LINE_CFG, delta=d) for d in (1e-3, 1e-2)]
    rep_a, csv_a = sweep(grid, seeds=range(3), c1=0.1)
    rep_b, csv_b = sweep(grid, seeds=range(3), c1=0.1)
    assert csv_a == csv_b
    assert len(rep_a.rows) == 6
    assert csv_a.splitlines()[0] == CSV_HEADER


def test_sweep_aggregates():
    rep, _ = sweep([dict(LINE_CFG, delta=1e-2)], seeds=range(4), c1=0.5)
    assert len(rep.rows) == 4
    assert rep.n_applicable + sum(1 for r in rep.rows if r["pass"] == "na") == 4
    assert rep.n_pass <= rep.n_applicable
    s = rep.summary()
    assert set(s) == {"rows", "applicable", "passed", "pass_rate",
                      "worst_violation", "all_pass"}


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep([], seeds=range(2), c1=1.0)


def test_csv_round_trips_floats():
    rep, csv_text = sweep([dict(LINE_CFG, delta=1e-3)], seeds=[0], c1=1.0)
    lines = csv_text.strip().split("\n")
    cols = lines[0].split(",")
    vals = lines[1].split(",")
    parsed = dict(zip(cols, vals))
    row = rep.rows[0]
    for key in ("delta", "mu", "err_mozorov", "kappa", "alpha"):
        if isinstance(row[key], float) and not math.isnan(row[key]):
            assert float(parsed[key]) == row[key]  # repr round-trip is exact
    assert csv_text.endswith("\n")


def test_report_defaults():
    rep = RecoveryReport()
    assert rep.pass_rate == 1.0
    assert rep.all_pass
    assert rep.worst_violation == -math.inf
