"""Self-test of the benchmark's output checks.

    python3 gcbench/selftest.py

Runs real operations of each workload, then asserts that

* every check passes on the program's own output;
* every check fires on a corrupted copy of that output: a flipped verdict,
  kappa or alpha times 1.5, a perturbed dual certificate, wrong primal and
  dual solutions, a wrong NSP constant, a CLI exit code that disagrees with
  its verdict, a Mozorov point moved off the noise ball and a moved
  Tikhonov point;
* a certified alpha only 1e-5 ||A|| above the minimum is caught;
* an operation that raises one of the program's errors (or exits the CLI
  with code 4), and the fixed design whose certified alpha is known to be
  wrong, are counted as failed, not as incorrect.

Exits 0 when all hold; prints each failing case otherwise.
"""

import copy
import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import instances  # noqa: E402
import workloads as wl  # noqa: E402

FAILURES = []


def expect(label, problems, fires):
    if bool(problems) != fires:
        FAILURES.append(f"{label}: expected {'a problem' if fires else 'none'}, "
                        f"got {problems}")
    print(f"{'ok ' if bool(problems) == fires else 'BAD'} {label}"
          + (f"  [{problems[0]}]" if problems else ""))


def rng():
    return np.random.default_rng(0)


def poly_cases(ops):
    op = next(o for o in ops if o["op"] == "poly" and o["kind"] == "l1"
              and o["expect"]["verdict"] == "Yes")
    out = wl.run_op(op)
    rep, prim, dual = (out.outputs[k] for k in ("report", "primal", "dual"))
    expect("poly: program output", wl.check_poly(op, rep, prim, dual, rng()), False)
    flipped = dataclasses.replace(rep, is_sharp="No", is_unique="No")
    expect("poly: flipped verdict", wl.check_poly(op, flipped, prim, dual, rng()), True)
    expect("poly: kappa x 1.5", wl.check_poly(
        op, dataclasses.replace(rep, kappa=1.5 * rep.kappa), prim, dual, rng()), True)
    y = rep.dual_certificate + 0.5 * rng().standard_normal(rep.dual_certificate.size)
    expect("poly: perturbed y0", wl.check_poly(
        op, dataclasses.replace(rep, dual_certificate=y), prim, dual, rng()), True)
    moved = dataclasses.replace(prim, point=prim.point + 0.1)
    expect("poly: moved primal point", wl.check_poly(op, rep, moved, dual, rng()), True)
    scaled = dataclasses.replace(dual, point=1.5 * dual.point, value=1.5 * dual.value)
    expect("poly: scaled dual point", wl.check_poly(op, rep, prim, scaled, rng()), True)

    op = next(o for o in ops if o["op"] == "nsp")
    value = wl.run_op(op).outputs["nsp"]
    expect("nsp: program output", wl.check_nsp(op, value, rng()), False)
    expect("nsp: value x 0.5", wl.check_nsp(op, 0.5 * value, rng()), True)


def cli_cases(ops):
    for what in ("sharp_line", "nuclear"):
        if what == "sharp_line":
            op = next(o for o in ops if o["file"].endswith("sharp_line.json")
                      and o["condition"] == "auto")
        else:
            op = next(o for o in ops if o["kind"] == "nuclear"
                      and o["condition"] == "auto" and o["expect"]["verdict"] == "Yes"
                      and "doc" in o)
        out = wl.run_op(op)
        expect(f"cli {what}: program output", wl.check_cli(op, out, rng()), False)
        payload = json.loads(out.outputs["stdout"])
        rep = payload["report"]

        def variant(label, change, code=None):
            doc = copy.deepcopy(payload)
            change(doc)
            bad = copy.copy(out)
            bad.outputs = dict(out.outputs, stdout=json.dumps(doc),
                               code=out.outputs["code"] if code is None else code)
            expect(f"cli {what}: {label}", wl.check_cli(op, bad, rng()), True)

        def flip(doc):
            doc["verdict"] = doc["report"]["is_sharp"] = doc["report"]["is_unique"] = "No"
        variant("flipped verdict (exit code kept)", flip)
        variant("flipped verdict and exit code", flip, code=1)
        variant("exit code 2 for Yes", lambda d: None, code=2)
        variant("kappa x 1.5", lambda d: d["report"].update(kappa=1.5 * rep["kappa"]))
        if rep["alpha_certified"]:
            variant("alpha x 1.5", lambda d: d["report"].update(alpha=1.5 * rep["alpha"]))
        y = np.asarray(rep["dual_certificate"])
        y = (y + 0.5 * rng().standard_normal(y.size)).tolist()
        variant("perturbed y0", lambda d: d["report"].update(dual_certificate=y))


def recovery_cases(ops):
    design = next(o for o in ops if o["op"] == "design" and o["kind"] == "l1")
    index = ops.index(design)
    rep = wl.run_op(design).outputs["report"]
    expect("design: program output", wl.check_design(design, rep, rng()), False)
    expect("design: kappa x 1.5", wl.check_design(
        design, dataclasses.replace(rep, kappa=1.5 * rep.kappa), rng()), True)
    expect("design: alpha x 1.5", wl.check_design(
        design, dataclasses.replace(rep, alpha=1.5 * rep.alpha), rng()), True)
    # design 0 is l1 at n = 2, where the sampled cone holds the minimizer
    top = float(np.linalg.norm(design["A"], 2))
    expect("design: alpha + 1e-5 ||A||", wl.check_design(
        design, dataclasses.replace(rep, alpha=rep.alpha + 1e-5 * top), rng()),
        True)
    trial = next(o for o in ops if o["op"] == "trial" and o["design"] == index
                 and o["delta"] == 1e-2)
    out = wl.run_op(trial)
    moz, tik = out.outputs["mozorov"], out.outputs["tikhonov"]
    expect("trial: program output", wl.check_trial(trial, moz, tik, rep), False)
    A, b, delta = trial["A"], trial["b"], trial["delta"]
    # step off the ball along the residual
    r = A @ moz.point - b
    step = np.linalg.lstsq(A, r / np.linalg.norm(r), rcond=None)[0]
    off = dataclasses.replace(moz, point=moz.point + 0.5 * delta * step)
    expect("trial: mozorov point off the ball",
           wl.check_trial(trial, off, tik, rep), True)
    # stay on the ball, but move along Ker A where J grows
    h = np.linalg.svd(A)[2][-1]
    sign = 1.0 if wl.oracle.value("l1", {}, moz.point + 0.1 * h) > \
        wl.oracle.value("l1", {}, moz.point - 0.1 * h) else -1.0
    slid = dataclasses.replace(moz, point=moz.point + 0.1 * sign * h)
    expect("trial: mozorov point moved along Ker A",
           wl.check_trial(trial, slid, tik, rep), True)
    nudged = dataclasses.replace(tik, point=tik.point + 1e-3)
    expect("trial: moved tikhonov point",
           wl.check_trial(trial, moz, nudged, rep), True)
    expect("trial: alpha x 50 breaks the bounds", wl.check_trial(
        trial, moz, tik, dataclasses.replace(rep, alpha=50.0 * rep.alpha)), True)


def failure_cases(ops):
    """Errors raised by the program are failures, never check problems."""
    op = next(o for o in ops if o["op"] == "poly")
    original = wl.certificates.check_unique

    def broken(*args, **kwargs):
        raise wl.certificates.InternalDisagreementError("injected")

    wl.certificates.check_unique = broken
    try:
        out = wl.run_op(op)
    finally:
        wl.certificates.check_unique = original
    wl.check_op(0, op, out, {}, rng())
    ok = bool(out.failed) and not out.problems
    print(f"{'ok ' if ok else 'BAD'} raising operation counted as failed")
    if not ok:
        FAILURES.append(f"raising operation: failed={out.failed!r} "
                        f"problems={out.problems}")


def known_wrong_case():
    """The fixed design with a wrong certified alpha is a failure."""
    op = instances.fixed_alpha_overestimate()
    out = wl.run_op(op)
    wl.check_op(0, op, out, {}, np.random.default_rng(op["check_seed"]))
    ok = out.failed.startswith("known wrong output") and not out.problems
    print(f"{'ok ' if ok else 'BAD'} known wrong alpha counted as failed")
    if not ok:
        FAILURES.append(f"known wrong alpha: failed={out.failed!r} "
                        f"problems={out.problems}")


def cli_failure_case(op):
    original = wl.cli.main
    wl.cli.main = lambda argv: wl.cli.EXIT_ERROR
    try:
        out = wl.run_op(op)
    finally:
        wl.cli.main = original
    wl.check_op(0, op, out, {}, rng())
    ok = bool(out.failed) and not out.problems
    print(f"{'ok ' if ok else 'BAD'} CLI exit 4 counted as failed")
    if not ok:
        FAILURES.append(f"CLI exit 4: failed={out.failed!r} problems={out.problems}")


def main():
    seed = 1
    poly_cases(instances.verdicts_lp(seed))
    import run
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        ops = run.make_round("certify-cli", seed, workdir)
        cli_cases(ops)
        cli_failure_case(ops[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    recovery_cases(instances.recovery_sweep(seed))
    failure_cases(instances.verdicts_lp(seed))
    known_wrong_case()
    if FAILURES:
        print(f"{len(FAILURES)} self-test case(s) failed")
        return 1
    print("all self-test cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
