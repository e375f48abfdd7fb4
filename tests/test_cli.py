"""End-to-end tests of the command-line interface.

Commands run in-process through ``main(argv)`` so output is captured with
capsys. Two tests cover the ``gaugecert`` console script: one runs the entry
point declared in ``pyproject.toml`` in a fresh interpreter, the way the
installer-generated wrapper does, and always runs; the other drives the
installed executable and runs only where ``gaugecert`` is on PATH.
"""

import json
import os
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
NUCLEAR = {
    "version": 1,
    "gauge": {"kind": "nuclear", "shape": [2, 2]},
    "A": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
    "x0": [1.0, 0.0, 0.0, 0.0],
}
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


def test_certify_json_output(tmp_path, capsys):
    code = main(["certify", write(tmp_path, E1), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    rep = strict_loads(out)
    assert rep["verdict"] == "Yes"
    assert rep["report"]["is_sharp"] == "Yes"
    assert rep["report"]["kappa"] == pytest.approx(1 / 5 ** 0.5)
    assert rep["condition"] == "auto"


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
    assert main(["solve", write(tmp_path, NOISY), "--problem", "mozorov",
                 "--json"]) == 0
    info = strict_loads(capsys.readouterr().out)["info"]
    path = info["path"]
    assert info["tikhonov_solves"] == len(path) >= 2
    assert path[0][0] == 1e-12  # the feasibility probe comes first
    assert [info["mu"], info["residual"]] in path


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


def test_usage_errors_exit_3(tmp_path, capsys):
    assert main(["frobnicate"]) == 3
    capsys.readouterr()
    assert main(["solve", write(tmp_path, E1)]) == 3  # --problem is required
    capsys.readouterr()
    assert main(["certify", write(tmp_path, E1), "--condition", "viii"]) == 3


def test_flags_do_not_leak_into_the_environment(tmp_path, capsys):
    os.environ["PROBE_RESTARTS"] = "123"
    try:
        assert main(["certify", write(tmp_path, E1),
                     "--probe-restarts", "50"]) == 0
        assert os.environ["PROBE_RESTARTS"] == "123"
    finally:
        del os.environ["PROBE_RESTARTS"]


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
