"""End-to-end tests of the command-line interface.

Commands run in-process through ``main(argv)`` so output is captured with
capsys. Two tests cover the ``gaugecert`` console script: one runs the entry
point declared in ``pyproject.toml`` in a fresh interpreter, the way the
installer-generated wrapper does, and always runs; the other drives the
installed executable and runs only where ``gaugecert`` is on PATH.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaugecert.cli import load_problem, main
from gaugecert.gauges import (
    KINDS,
    AnalysisL1Gauge,
    GroupL12Gauge,
    L1Gauge,
    NonnegL1Gauge,
    NuclearGauge,
    SdpTraceGauge,
    SortedWeightedL1Gauge,
)

E1 = {
    "version": 1,
    "gauge": {"kind": "l1", "n": 2},
    "A": [[2.0, 1.0]],
    "x0": [0.5, 0.0],
    "delta": 0.01,
}
E2 = {
    "version": 1,
    "gauge": {"kind": "l1", "n": 2},
    "A": [[1.0, 1.0]],
    "x0": [1.0, 0.0],
    "delta": 0.01,
}
NOISY = {
    "version": 1,
    "gauge": {"kind": "l1", "n": 2},
    "A": [[2.0, 1.0]],
    "x0": [0.5, 0.0],
    "b": [1.05],
    "delta": 0.05,
    "mu": 0.05,
}
#: NOISY under the sum of group norms with singleton groups (the same
#: function), a kind that runs the Newton route
NOISY_GROUP = dict(NOISY, gauge={"kind": "group_l12", "n": 2},
                   partition=[[0], [1]])
NUCLEAR = {
    "version": 1,
    "gauge": {"kind": "nuclear", "shape": [2, 2]},
    "A": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
    "x0": [1.0, 0.0, 0.0, 0.0],
}
#: NUCLEAR with noisy measurements, a kind whose Mozorov search runs on
#: FISTA solves
NOISY_NUCLEAR = dict(NUCLEAR, b=[1.05, 0.02, 0.0], delta=0.05, mu=0.05)
SDP = {
    "version": 1,
    "gauge": {"kind": "sdp_trace", "n": 2},
    "C": [[1.0, 0.0], [0.0, 1.0]],
    "A": [[1.0, 0.0, 0.0, 0.0]],
    "x0": [1.0, 0.0, 0.0, 0.0],
}
INFEASIBLE = {
    "version": 1,
    "gauge": {"kind": "nonneg_l1", "n": 1},
    "A": [[1.0]],
    "b0": [-1.0],
}


def write(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def strict_loads(text):
    def refuse(tok):
        raise AssertionError(f"non-strict JSON token {tok!r}")

    return json.loads(text, parse_constant=refuse)


# ----------------------------------------------------------------- certify


def test_certify_sharp_line(tmp_path, capsys):
    code = main(["certify", write(tmp_path, E1)])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict            Yes" in out
    assert "0.4472135954999579" in out


def test_certify_flat_line(tmp_path, capsys):
    code = main(["certify", write(tmp_path, E2)])
    assert code == 1
    assert "verdict            No" in capsys.readouterr().out


def test_certify_flat_line_at_a_tiny_x0(tmp_path, capsys):
    # x0 = [1e-13, 0] has the face of E2's [1, 0], so it is not unique either
    problem = {"version": 1, "gauge": {"kind": "l1", "n": 2},
               "A": [[1, 1]], "x0": [1e-13, 0]}
    code = main(["certify", write(tmp_path, problem), "--json"])
    assert code == 1
    assert strict_loads(capsys.readouterr().out)["report"]["is_unique"] == "No"


def test_certify_json_output(tmp_path, capsys):
    code = main(["certify", write(tmp_path, E1), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    rep = strict_loads(out)
    assert rep["verdict"] == "Yes"
    assert rep["report"]["is_sharp"] == "Yes"
    assert rep["report"]["kappa"] == pytest.approx(1 / 5 ** 0.5)
    assert rep["condition"] == "auto"


def test_certify_spiked_matrix_alpha_is_certified(capsys):
    # a nuclear 2 x 2 point of rank 1: the tail is one entry, so the
    # critical cone is lifted and alpha = 1/sqrt(2) exactly
    path = str(Path(__file__).resolve().parents[1] / "demos" / "problems"
               / "spiked_matrix.json")
    assert main(["certify", path, "--json"]) == 0
    rep = strict_loads(capsys.readouterr().out)["report"]
    assert rep["alpha_certified"] is True
    assert rep["alpha"] == pytest.approx(1 / 2 ** 0.5, abs=1e-12)


def test_certify_json_reruns_are_identical(tmp_path, capsys):
    path = write(tmp_path, E1)
    main(["certify", path, "--json"])
    first = capsys.readouterr().out
    main(["certify", path, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_certify_condition_routes(tmp_path, capsys):
    path = write(tmp_path, E1)
    for cond in ("v", "vii", "fuchs"):
        code = main(["certify", path, "--condition", cond])
        capsys.readouterr()
        assert code == 0, cond


def test_certify_nonneg_condition_route(tmp_path, capsys):
    problem = {"version": 1, "gauge": {"kind": "nonneg_l1", "n": 2},
               "A": [[1.0, 1.0]], "x0": [1.0, 0.0]}
    code = main(["certify", write(tmp_path, problem), "--condition", "nonneg"])
    assert "descent-cone" in capsys.readouterr().out
    assert code == 1  # x0 + t(-1, 1) stays feasible at equal value


def test_certify_matrix_kinds(tmp_path, capsys):
    assert main(["certify", write(tmp_path, NUCLEAR)]) == 0
    capsys.readouterr()
    # unique but not sharp: the headline verdict is the sharpness one
    assert main(["certify", write(tmp_path, SDP)]) == 1
    out = capsys.readouterr().out
    assert "is_unique          Yes" in out


def test_certify_requires_x0(tmp_path, capsys):
    bad = {k: v for k, v in E1.items() if k != "x0"}
    code = main(["certify", write(tmp_path, bad)])
    assert code == 3
    assert "x0" in capsys.readouterr().err


# ------------------------------------------------------------------- solve


def test_solve_primal_and_dual(tmp_path, capsys):
    path = write(tmp_path, E1)
    code = main(["solve", path, "--problem", "primal"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.5" in out and "optimal" in out
    code = main(["solve", path, "--problem", "dual", "--json"])
    rep = strict_loads(capsys.readouterr().out)
    assert code == 0
    assert rep["value"] == pytest.approx(0.5, abs=1e-9)
    assert rep["primal_value"] == pytest.approx(0.5, abs=1e-9)
    assert rep["duality_gap"] == pytest.approx(0.0, abs=1e-9)


def test_solve_tikhonov_and_mozorov(tmp_path, capsys):
    path = write(tmp_path, NOISY)
    assert main(["solve", path, "--problem", "tikhonov"]) == 0
    capsys.readouterr()
    code = main(["solve", path, "--problem", "mozorov"])
    out = capsys.readouterr().out
    assert code == 0
    assert "discrepancy" in out


def test_solve_mozorov_json_reports_the_search(tmp_path, capsys):
    assert main(["solve", write(tmp_path, NOISY_NUCLEAR), "--problem",
                 "mozorov", "--json"]) == 0
    info = strict_loads(capsys.readouterr().out)["info"]
    path = info["path"]
    assert info["tikhonov_solves"] == len(path) >= 1
    # nuclear is not conic: the first solve is the safe step from the zero
    # point (J°(A^T b), ||b||), delta - 0.5e-6 here, where A^T b is the
    # rank-one [[1.05, 0.02], [0, 0]], whose spectral norm is ||b||
    assert path[0][0] == pytest.approx(0.05 - 0.5e-6, rel=1e-12)
    assert [info["mu"], info["residual"]] in path
    fista = info["fista_iterations"]
    assert isinstance(fista, int) and fista > 0
    assert info["route"] == "fista"


def test_solve_reports_the_newton_and_zero_routes(tmp_path, capsys):
    path = write(tmp_path, NOISY_GROUP)
    assert main(["solve", path, "--problem", "mozorov", "--json"]) == 0
    info = strict_loads(capsys.readouterr().out)["info"]
    assert info["route"] == "newton" and info["newton_iterations"] > 0
    assert [info["mu"], info["residual"]] in info["path"]
    # where the returned step's Newton solve began: r(mu) = mu / 2 here,
    # so the first step, started on the zero point's tangent, meets delta
    assert info["start"] == "zero-point" and len(info["path"]) == 1
    for problem in ("mozorov", "tikhonov"):
        assert main(["solve", path, "--problem", problem]) == 0
        assert re.search(r"^route +newton$", capsys.readouterr().out,
                         re.M), problem
    # mu = 5 is above J°(A^T b) = 2.1: the minimizer is 0
    path = write(tmp_path, dict(NOISY_GROUP, mu=5.0))
    assert main(["solve", path, "--problem", "tikhonov"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^route +zero$", out, re.M)
    assert re.search(r"^iterations +0$", out, re.M)


def test_solve_mozorov_json_reports_the_exact_route(tmp_path, capsys):
    path = write(tmp_path, NOISY)
    assert main(["solve", path, "--problem", "mozorov", "--json"]) == 0
    out = strict_loads(capsys.readouterr().out)
    info = out["info"]
    assert info["route"] == "exact-qp" and info["fista_iterations"] == 0
    assert info["qp_solves"] == out["iterations"] >= 1
    assert [info["mu"], info["residual"]] in info["path"]
    for problem in ("mozorov", "tikhonov"):
        assert main(["solve", path, "--problem", problem]) == 0
        assert re.search(r"^route +exact-qp$", capsys.readouterr().out,
                         re.M), problem


def test_solve_mozorov_at_a_band_below_rounding_ends_in_maxiter(tmp_path,
                                                                capsys):
    # the band is 1e-6, and so is the rounding of a residual near
    # delta = 1e10: two steps at one mu once divided the secant by 0
    A0 = np.random.default_rng(0).standard_normal((2, 4))
    x0 = np.array([1.0, 0.0, 0.0, 0.0])
    path = write(tmp_path, {"version": 1,
                            "gauge": {"kind": "nonneg_l1", "n": 4},
                            "A": (1e12 * A0).tolist(),
                            "b": (1e12 * (A0 @ x0 + 0.005)).tolist(),
                            "delta": 1e10})
    assert main(["solve", path, "--problem", "mozorov", "--json"]) == 5
    out = strict_loads(capsys.readouterr().out)
    assert out["status"] == "maxiter"
    mus = [mu for mu, _ in out["info"]["path"]]
    assert len(set(mus)) == len(mus)


def test_main_restores_stdout_and_fd_1(tmp_path, capsys):
    # while a command runs fd 1 points at stderr; it and sys.stdout come
    # back on every exit, a validation error's too
    stream, fd1 = sys.stdout, os.fstat(1)
    for data, code in ((NOISY, 0), (dict(NOISY, mu=-1.0), 3)):
        assert main(["solve", write(tmp_path, data), "--problem",
                     "tikhonov"]) == code
        assert sys.stdout is stream
        assert os.path.samestat(os.fstat(1), fd1)
    assert "route" in capsys.readouterr().out


def test_text_printed_on_fd_1_by_the_solver_stays_off_stdout(tmp_path):
    # HiGHS's QP code prints "dimension mismatch" from C++ on fd 1 on this
    # draw; --json stdout must still parse
    A = 1e12 * np.random.default_rng(1).standard_normal((2, 4))
    path = write(tmp_path, {"version": 1,
                            "gauge": {"kind": "nonneg_l1", "n": 4},
                            "A": A.tolist(), "x0": [1.0, 0.0, 0.0, 0.0],
                            "delta": 0.01})
    proc = subprocess.run([sys.executable, "-m", "gaugecert.cli", "recover",
                           path, "--seeds", "0:1", "--json"],
                          capture_output=True, text=True)
    assert proc.returncode in (0, 1, 2, 5), proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    assert strict_loads(proc.stdout)["rows"]


def test_solve_tikhonov_needs_data(tmp_path, capsys):
    code = main(["solve", write(tmp_path, E1), "--problem", "tikhonov"])
    assert code == 3
    assert "requires b" in capsys.readouterr().err


def test_solve_infeasible(tmp_path, capsys):
    code = main(["solve", write(tmp_path, INFEASIBLE), "--problem", "primal"])
    out = capsys.readouterr().out
    assert code == 4
    assert "infeasible" in out


# ----------------------------------------------------------------- recover


def test_recover_line(tmp_path, capsys):
    code = main(["recover", write(tmp_path, E1), "--deltas", "0.01,0.1",
                 "--seeds", "0:2", "--c1", "1.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all bounds hold" in out or "pass" in out


def test_recover_csv_is_byte_deterministic(tmp_path, capsys):
    path = write(tmp_path, E1)
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    args = ["recover", path, "--deltas", "0.01", "--seeds", "0:3",
            "--c1", "0.5"]
    assert main(args + ["--csv", str(csv1)]) == 0
    capsys.readouterr()
    assert main(args + ["--csv", str(csv2)]) == 0
    capsys.readouterr()
    assert csv1.read_bytes() == csv2.read_bytes()
    header = csv1.read_text().splitlines()[0]
    assert header.startswith("instance_id,gauge,m,n,delta,mu,err_mozorov")


def test_recover_json_report(tmp_path, capsys):
    code = main(["recover", write(tmp_path, E1), "--deltas", "0.01",
                 "--seeds", "0,1", "--json"])
    rep = strict_loads(capsys.readouterr().out)
    assert code == 0
    assert rep["summary"]["all_pass"] is True
    assert len(rep["rows"]) == 2  # 1 delta x 2 seeds, one noise model
    assert rep["noise"] == "sphere"


def test_recover_corrupted_alpha_flips_verdict(tmp_path, capsys):
    code = main(["recover", write(tmp_path, E1), "--deltas", "0.1",
                 "--seeds", "0:1", "--force-alpha", "1e8"])
    capsys.readouterr()
    assert code == 1


def test_recover_not_applicable_warns(tmp_path, capsys):
    code = main(["recover", write(tmp_path, E2), "--deltas", "0.01",
                 "--seeds", "0:1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "not applicable" in captured.err


def test_recover_bad_deltas(tmp_path, capsys):
    code = main(["recover", write(tmp_path, E1), "--deltas", "0.1,-0.2"])
    assert code == 3


@pytest.mark.parametrize("seeds", ["--seeds=-1:1", "--seeds=-3,2"])
def test_recover_rejects_negative_seeds(tmp_path, capsys, seeds):
    # a validation error naming the flag, not the noise generator's
    code = main(["recover", write(tmp_path, E1), "--deltas", "0.1", seeds])
    assert code == 3
    assert "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize("problem", [E1, NUCLEAR])
@pytest.mark.parametrize("which", ["primal", "dual"])
def test_solve_reads_both_sides_from_one_primal_solve(tmp_path, capsys,
                                                      monkeypatch, problem,
                                                      which):
    import gaugecert.cli as cli
    import gaugecert.solvers as solvers

    calls = []

    def spy(*args):
        calls.append(args)
        return solve(*args)

    solve = solvers.solve_primal_eq
    monkeypatch.setattr(solvers, "solve_primal_eq", spy)
    monkeypatch.setattr(cli, "solve_primal_eq", spy)
    code = main(["solve", write(tmp_path, problem), "--problem", which,
                 "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0 and "duality_gap" in rep
    assert len(calls) == 1


@pytest.mark.parametrize("flags", [
    ["--deltas", "nan"], ["--deltas", "0.01,inf"],
    ["--deltas", "0.01", "--c1", "nan"], ["--deltas", "0.01", "--c1", "inf"]])
def test_recover_rejects_non_finite_noise_parameters(tmp_path, capsys, flags):
    # validation errors, as a negative delta or c1 is, before any solve
    code = main(["recover", write(tmp_path, E1), *flags, "--seeds", "0:1"])
    assert code == 3
    assert "finite" in capsys.readouterr().err


# --------------------------------------------------------------------- nsp


def test_nsp_small_support_passes(tmp_path, capsys):
    code = main(["nsp", write(tmp_path, E1), "--support", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.3333333333333333" in out


def test_nsp_large_support_fails(tmp_path, capsys):
    code = main(["nsp", write(tmp_path, E1), "--support", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "0.6666666666666667" in out


def test_nsp_out_of_range_support(tmp_path, capsys):
    code = main(["nsp", write(tmp_path, E1), "--support", "9"])
    assert code == 3


# -------------------------------------------------------------- validation


def test_missing_file(capsys):
    assert main(["certify", "/nonexistent/nowhere.json"]) == 3


def test_malformed_json_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1,\n  "gauge": }')
    code = main(["certify", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "line 2" in err


def test_unreadable_or_non_finite_files_are_validation_errors(tmp_path, capsys):
    # a directory, bytes that are not UTF-8, and non-finite numbers (the
    # NaN literal, and 1e400, which Python's reader turns into inf) must
    # exit 3 with a message, not crash or reach the LP backend
    bad_bytes = tmp_path / "latin1.json"
    bad_bytes.write_bytes(json.dumps(E1).encode().replace(b"l1", b"l\xe91"))
    nan = tmp_path / "nan.json"
    nan.write_text(json.dumps(E1).replace("2.0", "NaN"))
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(E1).replace("2.0", "1e400"))
    for path, says in ((tmp_path, "cannot read"), (bad_bytes, "UTF-8"),
                       (nan, "NaN"), (huge, "A: entries must be finite")):
        assert main(["certify", str(path)]) == 3, path
        err = capsys.readouterr().err
        assert says in err and "Traceback" not in err, err


def test_unknown_top_level_field(tmp_path, capsys):
    bad = dict(E1, extra_field=7)
    assert main(["certify", write(tmp_path, bad)]) == 3
    assert "extra_field" in capsys.readouterr().err


def test_wrong_version(tmp_path, capsys):
    assert main(["certify", write(tmp_path, dict(E1, version=2))]) == 3


def test_shape_mismatch(tmp_path, capsys):
    bad = dict(E1, A=[[2.0, 1.0, 0.0]])
    assert main(["certify", write(tmp_path, bad)]) == 3


def test_sdp_n_is_the_side_of_C(tmp_path, capsys):
    # n counts the rows of C, not the columns of A (which are n**2)
    bad = dict(SDP, gauge={"kind": "sdp_trace", "n": 4})
    assert main(["certify", write(tmp_path, bad)]) == 3
    assert "C: expected shape 4 x 4" in capsys.readouterr().err


def test_gauge_param_cross_validation(tmp_path, capsys):
    # w rides with wsl1 only
    bad = dict(E1, w=[2.0, 1.0])
    assert main(["certify", write(tmp_path, bad)]) == 3
    capsys.readouterr()
    wsl1 = {
        "version": 1,
        "gauge": {"kind": "wsl1", "n": 2},
        "A": [[1.0, 1.0]],
        "x0": [1.0, 1.0],
        "w": [2.0, 1.0],
    }
    assert main(["certify", write(tmp_path, wsl1)]) == 0
    capsys.readouterr()
    # ... and is required for that kind
    missing = {k: v for k, v in wsl1.items() if k != "w"}
    assert main(["certify", write(tmp_path, missing)]) == 3
    capsys.readouterr()

    # every kind: a valid record builds the gauge its constructor builds; a
    # missing parameter, another kind's parameter or a mis-sized one exits 3
    # with a message naming the field
    rng = np.random.default_rng(8)
    D = rng.standard_normal((3, 4)).round(3)
    C = [[2.0, 0.3], [0.3, 1.0]]
    # bad inputs: (field the message names, top-level changes; None drops)
    cases = {
        "l1": ({"n": 3}, {}, L1Gauge(3), [("D", {"D": D.tolist()})]),
        "nonneg_l1": ({"n": 3}, {}, NonnegL1Gauge(3), [("C", {"C": C})]),
        "analysis_l1": ({"n": 3}, {"D": D.tolist()}, AnalysisL1Gauge(D),
                        [("D", {"D": None}), ("w", {"w": [1.0, 1.0, 1.0]}),
                         ("D", {"D": D[:2].tolist()})]),
        "wsl1": ({"n": 3}, {"w": [2.0, 1.0, 0.5]},
                 SortedWeightedL1Gauge([2.0, 1.0, 0.5]),
                 [("w", {"w": None}), ("partition", {"partition": [[0, 1, 2]]}),
                  ("w", {"w": [2.0, 1.0]})]),
        "group_l12": ({"n": 4}, {"partition": [[0, 1], [2, 3]]},
                      GroupL12Gauge(4, [[0, 1], [2, 3]]),
                      [("partition", {"partition": None}), ("D", {"D": D.tolist()}),
                       ("partition", {"partition": [[0, 1], [2, 3, 4]]})]),
        "nuclear": ({"shape": [2, 3]}, {}, NuclearGauge((2, 3)),
                    [("w", {"w": [1.0]}),
                     ("shape", {"gauge": {"kind": "nuclear", "shape": [2]}})]),
        "sdp_trace": ({"n": 2}, {"C": C}, SdpTraceGauge(np.array(C)),
                      [("C", {"C": None}), ("w", {"w": [1.0, 1.0]}),
                       ("C", {"C": np.eye(3).tolist()})]),
    }
    assert sorted(cases) == sorted(KINDS)
    for kind, (size, params, direct, bad) in cases.items():
        good = dict({"version": 1, "gauge": dict(size, kind=kind),
                     "A": rng.standard_normal((2, direct.n)).tolist()}, **params)
        built = load_problem(write(tmp_path, good))["gauge"]
        assert type(built) is type(direct) and built.n == direct.n
        X = rng.standard_normal((20, direct.n))
        if kind == "nonneg_l1":
            X = np.abs(X)
        elif kind == "sdp_trace":
            X = np.array([(G @ G.T).ravel() for G in X.reshape(20, 2, 2)])
        assert np.array_equal(built.value_batch(X), direct.value_batch(X)), kind
        for field, change in bad:
            broken = {k: v for k, v in dict(good, **change).items()
                      if v is not None}
            assert main(["certify", write(tmp_path, broken)]) == 3, (kind, change)
            err = capsys.readouterr().err
            assert f"{field}:" in err or repr(field) in err, (kind, err)


def test_usage_errors_exit_3(tmp_path, capsys, monkeypatch):
    assert main(["frobnicate"]) == 3
    capsys.readouterr()
    assert main(["solve", write(tmp_path, E1)]) == 3  # --problem is required
    capsys.readouterr()
    assert main(["certify", write(tmp_path, E1), "--condition", "viii"]) == 3
    # out-of-range settings, from a flag or from the environment
    path = str(REPO_ROOT / "demos" / "problems" / "sharp_line.json")
    for flag, value in (("--lp-maxiter", "-1"), ("--lp-maxiter", "0"),
                        ("--lp-maxiter", "abc"), ("--probe-restarts", "-3"),
                        ("--probe-restarts", "0"), ("--cert-tol", "nan"),
                        ("--cert-tol", "-1"), ("--cert-tol", "inf")):
        capsys.readouterr()
        assert main(["certify", path, f"{flag}={value}"]) == 3, (flag, value)
        assert "Traceback" not in capsys.readouterr().err
        var = flag[2:].replace("-", "_").upper()
        with monkeypatch.context() as env:
            env.setenv(var, value)
            assert main(["certify", path]) == 3, (var, value)
            assert f"{var} must be" in capsys.readouterr().err
    assert main(["certify", path, "--cert-tol=0", "--lp-maxiter=2147483647"]) == 0


def test_flags_do_not_leak_into_the_environment(tmp_path, capsys):
    os.environ["PROBE_RESTARTS"] = "123"
    try:
        assert main(["certify", write(tmp_path, E1),
                     "--probe-restarts", "50"]) == 0
        assert os.environ["PROBE_RESTARTS"] == "123"
    finally:
        del os.environ["PROBE_RESTARTS"]


def test_flags_override_config_while_main_runs(tmp_path, capsys, monkeypatch):
    import gaugecert.cli as cli
    from gaugecert import config
    monkeypatch.delenv("PROBE_RESTARTS", raising=False)
    seen = []

    def spy(args):
        seen.append((config.probe_restarts(), "PROBE_RESTARTS" in os.environ))
        return 0

    monkeypatch.setattr(cli, "cmd_certify", spy)
    assert main(["certify", write(tmp_path, E1), "--probe-restarts", "50"]) == 0
    assert seen == [(50, False)]
    assert config.probe_restarts() == 200


# ----------------------------------------------------------- console entry


REPO_ROOT = Path(__file__).resolve().parents[1]

# What the console-script wrapper generated at install time does.
WRAPPER = """\
import importlib, sys
module, _, attr = sys.argv[1].partition(":")
func = getattr(importlib.import_module(module), attr)
sys.argv = ["gaugecert"] + sys.argv[2:]
sys.exit(func())
"""


def declared_entry_point():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        meta = tomllib.load(fh)
    return meta["project"]["scripts"]["gaugecert"]


def test_console_script(tmp_path):
    path = write(tmp_path, E1)
    proc = subprocess.run([sys.executable, "-m", "gaugecert.cli", path],
                          capture_output=True, text=True)
    # module execution without a subcommand is a usage error
    assert proc.returncode == 3
    proc = subprocess.run([sys.executable, "-c", WRAPPER,
                           declared_entry_point(), "certify", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Yes" in proc.stdout


def test_closed_stdout_keeps_the_verdict_exit_code():
    # a reader that goes away early (e.g. `gaugecert certify ... | head`)
    # must not turn the verdict into a BrokenPipeError traceback
    path = REPO_ROOT / "demos" / "problems" / "sharp_line.json"
    proc = subprocess.Popen([sys.executable, "-m", "gaugecert.cli", "certify",
                             str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # before the child has imported anything
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 0, err
    assert "Traceback" not in err and "BrokenPipe" not in err, err


@pytest.mark.skipif(shutil.which("gaugecert") is None,
                    reason="gaugecert console script is not installed")
def test_installed_console_script(tmp_path):
    path = write(tmp_path, E1)
    proc = subprocess.run(["gaugecert", "certify", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Yes" in proc.stdout
