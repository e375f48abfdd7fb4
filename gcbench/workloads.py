"""Operations of the three workloads: the timed calls into gaugecert and the
checks of what they return.

An operation is one record from ``instances``.  ``run_op`` makes its calls
one after another, timing each call alone, and returns an ``Outcome``;
``check_op`` then compares the outputs with the oracle (outside the timed
region).  Program functions are looked up on their modules at call time, so
the tracer's patches see every call.

An operation that raises one of the program's own errors, or exits the CLI
with code 4 or 5, is *failed*; its outputs are not checked.  An operation
that returns an answer failing a check makes the run *incorrect*, unless it
is the fixed input marked ``known_wrong`` (see ``check_op``).
"""

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

import gaugecert.certificates as certificates
import gaugecert.cli as cli
import gaugecert.cones as cones
import gaugecert.gauges as gauges
import gaugecert.solvers as solvers
import oracle

PROGRAM_ERRORS = (certificates.InternalDisagreementError, cones.LpFailure,
                  gauges.VertexCapExceeded, solvers.ResidualMonotonicityError)
CLI_FAILURE_CODES = (cli.EXIT_ERROR, cli.EXIT_NOCONV)
VERDICT_CODE = {"Yes": cli.EXIT_YES, "No": cli.EXIT_NO,
                "Unknown": cli.EXIT_UNKNOWN}

#: tolerance on certificate membership; the program verifies its LPs to a
#: scaled KKT residual of 1e-8 and the oracle's HiGHS runs at 1e-7
MEMBER_TOL = 1e-6
#: agreement of optimal values between the program and the oracle LP
VALUE_TOL = 1e-6
#: step of the difference quotients bounding kappa (scaled by max(1, |x0|))
DQ_STEP = 1e-4
#: final angular resolution (radians) of the certified grid probe; a value it
#: certifies may sit above the true minimum by this times the Lipschitz
#: constant of the probed function (Lip(J) for kappa, ||A|| for alpha)
GRID_RES = 1e-6
#: solve_mozorov stops once | ||Ax - b|| - delta | <= 1e-6
MOZOROV_BAND = 1e-6
#: solve_tikhonov stops once its prox fixed-point step is below
#: 1e-10 * max(1, ||x||) at step size 1 / ||A||^2
TIKHONOV_STEP = 1e-10


def make_gauge(kind, p, n):
    if kind == "l1":
        return gauges.L1Gauge(n)
    if kind == "nonneg_l1":
        return gauges.NonnegL1Gauge(n)
    if kind == "analysis_l1":
        return gauges.AnalysisL1Gauge(p["D"])
    if kind == "wsl1":
        return gauges.SortedWeightedL1Gauge(p["w"])
    if kind == "group_l12":
        return gauges.GroupL12Gauge(n, p["partition"])
    if kind == "nuclear":
        return gauges.NuclearGauge(tuple(p["shape"]))
    if kind == "sdp_trace":
        return gauges.SdpTraceGauge(p["C"])
    raise ValueError(kind)


@dataclass
class Outcome:
    seconds: float = 0.0
    failed: str = ""
    outputs: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    certified: int = 0


class Timer:
    """Times each program call on its own; checks run between calls."""

    def __init__(self):
        self.seconds = 0.0

    def call(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - t0


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def run_op(op):
    """Run one operation and time its program calls."""
    out = Outcome()
    timer = Timer()
    try:
        kind = op["op"]
        if kind == "poly":
            _run_poly(op, timer, out)
        elif kind == "nsp":
            out.outputs["nsp"] = timer.call(cones.nsp_constant, op["A"], op["I"])
        elif kind == "cli":
            _run_cli(op, timer, out)
        elif kind == "design":
            g = make_gauge(op["kind"], op["params"], op["x0"].size)
            out.outputs["report"] = timer.call(certificates.check_sharp, g,
                                               op["A"], op["x0"])
        elif kind == "trial":
            g = make_gauge(op["kind"], op["params"], op["x0"].size)
            out.outputs["mozorov"] = timer.call(solvers.solve_mozorov, g,
                                                op["A"], op["b"], op["delta"])
            out.outputs["tikhonov"] = timer.call(solvers.solve_tikhonov, g,
                                                 op["A"], op["b"],
                                                 op["c1"] * op["delta"])
        else:
            raise ValueError(kind)
    except PROGRAM_ERRORS as exc:
        out.failed = f"{type(exc).__name__}: {exc}"
    out.seconds = timer.seconds
    return out


def _run_poly(op, timer, out):
    g = make_gauge(op["kind"], op["params"], op["x0"].size)
    A, x0 = op["A"], op["x0"]
    b0 = A @ x0
    out.outputs["report"] = timer.call(certificates.check_unique, g, A, x0,
                                       with_alpha=False)
    out.outputs["primal"] = timer.call(solvers.solve_primal_eq, g, A, b0)
    out.outputs["dual"] = timer.call(solvers.solve_dual, g, A, b0)


def _run_cli(op, timer, out):
    argv = ["certify", op["file"], "--json"]
    if op["condition"] != "auto":
        argv += ["--condition", op["condition"]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = timer.call(cli.main, argv)
    if code in CLI_FAILURE_CODES:
        out.failed = f"exit {code}: {stderr.getvalue().strip()}"
        return
    out.outputs["code"] = code
    out.outputs["stdout"] = stdout.getvalue()
    out.outputs["stderr"] = stderr.getvalue()


def _solve_dict(res):
    return {"status": res.status, "value": res.value, "iterations": res.iterations,
            "point": None if res.point is None else np.asarray(res.point).tolist()}


def fingerprint(out):
    """Exact text of an operation's outputs (floats written in full)."""
    if out.failed:
        return out.failed
    doc = {}
    for key, val in out.outputs.items():
        if isinstance(val, certificates.CertificateReport):
            doc[key] = val.to_dict()
        elif isinstance(val, solvers.SolveResult):
            doc[key] = _solve_dict(val)
        else:
            doc[key] = val
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# certified-output count
# ---------------------------------------------------------------------------

def count_certified(rep):
    """Yes/No verdicts plus certified kappa and alpha flags of one report."""
    get = rep.get if isinstance(rep, dict) else lambda k: getattr(rep, k)
    return (sum(get(k) in ("Yes", "No") for k in ("is_sharp", "is_unique"))
            + bool(get("kappa_certified")) + bool(get("alpha_certified")))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_op(index, op, out, designs, rng):
    """Fill ``out.problems`` and ``out.certified``.

    ``designs`` maps the round index of each design operation to its report,
    which the trials that follow it use for the recovery bounds.  An
    operation marked ``known_wrong`` runs a fixed input on which the program
    is known to return a wrong answer; when its checks fire, it is counted
    as failed (with the problems as the reason) instead of making the run
    incorrect, so the fault stays visible in every run.
    """
    if out.failed:
        return
    _check(index, op, out, designs, rng)
    if op.get("known_wrong") and out.problems:
        out.failed = "known wrong output: " + "; ".join(out.problems)
        out.problems = []
        out.certified = 0


def _check(index, op, out, designs, rng):
    kind = op["op"]
    if kind == "poly":
        rep = out.outputs["report"]
        out.certified = count_certified(rep)
        out.problems += check_poly(op, rep, out.outputs["primal"],
                                   out.outputs["dual"], rng)
    elif kind == "nsp":
        out.problems += check_nsp(op, out.outputs["nsp"], rng)
    elif kind == "cli":
        out.problems += check_cli(op, out, rng)
    elif kind == "design":
        rep = out.outputs["report"]
        out.certified = count_certified(rep)
        out.problems += check_design(op, rep, rng)
        designs[index] = rep
    elif kind == "trial":
        out.problems += check_trial(op, out.outputs["mozorov"],
                                    out.outputs["tikhonov"],
                                    designs.get(op["design"]))


def _kernel(op):
    if op["kind"] == "sdp_trace":
        nm = int(round(math.sqrt(op["x0"].size)))
        return oracle.sym_kernel(op["A"], nm)
    return oracle.kernel(op["A"])


def check_certificate(op, y0):
    """A Yes carries y0 with A^T y0 in dJ(x0)."""
    if y0 is None:
        return ["Yes without a dual certificate"]
    z = op["A"].T @ np.asarray(y0, dtype=float)
    scale = max(1.0, float(np.abs(z).max()),
                abs(oracle.value(op["kind"], op["params"], op["x0"])))
    gap = oracle.subdiff_violation(op["kind"], op["params"], op["x0"], z)
    return [] if gap <= MEMBER_TOL * scale else \
        [f"A^T y0 is {gap:.3e} outside dJ(x0)"]


def check_kappa(op, kappa, certified, rng):
    """A certified kappa exceeds no sampled difference quotient; any kappa is
    +inf on a trivial kernel and at most Lip(J) in size otherwise."""
    if kappa is None:
        return []
    kappa = float(kappa)
    K = _kernel(op)
    if K.shape[1] == 0:
        return [] if kappa == math.inf else \
            [f"kappa {kappa} with a trivial kernel"]
    L = oracle.lipschitz(op["kind"], op["params"], op["x0"].size)
    if math.isfinite(kappa) and abs(kappa) > L * (1 + 1e-9):
        return [f"kappa {kappa:.6g} exceeds the Lipschitz bound {L:.6g}"]
    if not certified:
        return []
    t = DQ_STEP * max(1.0, float(np.abs(op["x0"]).max()))
    H = oracle.kernel_directions(K, rng)
    growth = oracle.min_growth(op["kind"], op["params"], op["x0"], H, t)
    return [] if kappa <= growth + GRID_RES * L + 1e-9 else \
        [f"certified kappa {kappa:.9g} above a difference quotient {growth:.9g}"]


def check_alpha(op, alpha, certified, rng):
    """Certified alpha exceeds no ||A h|| over sampled critical directions;
    a heuristic alpha lies in [0, ||A||]."""
    if alpha is None:
        return []
    alpha = float(alpha)
    A = op["A"]
    top = float(np.linalg.norm(A, 2))
    if not (0.0 <= alpha <= top * (1 + 1e-9)):
        return [f"alpha {alpha:.6g} outside [0, ||A|| = {top:.6g}]"]
    if not certified:
        return []
    H = oracle.descent_directions(op["kind"], op["params"], op["x0"], rng)
    if H.shape[0] == 0:
        return []
    low = float(np.min(np.linalg.norm(H @ A.T, axis=1)))
    return [] if alpha <= low + GRID_RES * top + 1e-9 else \
        [f"certified alpha {alpha:.9g} above a sampled ||A h|| = {low:.9g}"]


def check_poly(op, rep, primal, dual, rng):
    exp = op["expect"]
    p = []
    if rep.is_sharp != rep.is_unique:
        p.append(f"polyhedral gauge with is_sharp {rep.is_sharp} but "
                 f"is_unique {rep.is_unique}")
    if rep.is_unique != exp["verdict"]:
        p.append(f"verdict {rep.is_unique}, LP oracle says {exp['verdict']}")
    if rep.is_unique == "Yes":
        p += check_certificate(op, rep.dual_certificate)
    if rep.kappa_certified and rep.kappa is not None and \
            (rep.kappa > 1e-8) != (rep.is_sharp == "Yes"):
        p.append(f"certified kappa {rep.kappa:.3e} with verdict {rep.is_sharp}")
    p += check_kappa(op, rep.kappa, rep.kappa_certified, rng)
    p += check_solves(op, primal, dual)
    return p


def check_solves(op, primal, dual):
    """Primal and dual values meet the oracle optimum; both points feasible."""
    kind, params, A, x0 = op["kind"], op["params"], op["A"], op["x0"]
    b0 = A @ x0
    opt = op["expect"]["optimum"]
    scale = max(1.0, abs(opt))
    p = []
    if primal.status != "optimal":
        p.append(f"primal status {primal.status}")
    else:
        x = np.asarray(primal.point, dtype=float)
        feas = float(np.linalg.norm(A @ x - b0))
        if feas > VALUE_TOL * max(1.0, float(np.linalg.norm(b0))):
            p.append(f"primal point infeasible by {feas:.3e}")
        jx = oracle.value(kind, params, x)
        if abs(jx - opt) > VALUE_TOL * scale or \
                abs(primal.value - opt) > VALUE_TOL * scale:
            p.append(f"primal value {primal.value:.12g} (J = {jx:.12g}), "
                     f"oracle optimum {opt:.12g}")
    if dual.status != "optimal":
        p.append(f"dual status {dual.status}")
    else:
        y = np.asarray(dual.point, dtype=float)
        pol = oracle.polar(kind, params, A.T @ y)
        if pol > 1.0 + VALUE_TOL:
            p.append(f"dual point has J°(A^T y) = {pol:.9g} > 1")
        if abs(dual.value - opt) > VALUE_TOL * scale or \
                abs(float(b0 @ y) - opt) > VALUE_TOL * scale:
            p.append(f"dual value {dual.value:.12g} (<b0, y> = "
                     f"{float(b0 @ y):.12g}), oracle optimum {opt:.12g}")
    return p


def check_nsp(op, value, rng):
    A, I = op["A"], op["I"]
    p = []
    if abs(value - op["expect"]) > VALUE_TOL:
        p.append(f"nsp_constant {value:.12g}, enumeration {op['expect']:.12g}")
    K = oracle.kernel(A)
    H = oracle.unit_rows(rng, 2000, K.shape[1]) @ K.T
    ratios = np.abs(H[:, I]).sum(axis=1) / np.abs(H).sum(axis=1)
    if value < ratios.max() - 1e-9:
        p.append(f"nsp_constant {value:.9g} below a kernel ratio {ratios.max():.9g}")
    return p


def _allowed(expected, kind):
    """Verdicts the program may give: Unknown is honest for kinds whose
    certification relies on heuristic searches."""
    return {expected} if kind in oracle.POLYHEDRAL else {expected, "Unknown"}


def check_cli(op, out, rng):
    code = out.outputs["code"]
    try:
        payload = json.loads(out.outputs["stdout"])
    except json.JSONDecodeError:
        return [f"exit {code}, output is not JSON: {out.outputs['stderr'][:200]}"]
    verdict = payload.get("verdict")
    rep = payload.get("report", {})
    out.certified = count_certified(rep)
    p = []
    if VERDICT_CODE.get(verdict) != code:
        p.append(f"exit code {code} does not match verdict {verdict}")
    if verdict != rep.get("is_sharp"):
        p.append(f"headline verdict {verdict} but is_sharp {rep.get('is_sharp')}")
    exp = op["expect"]
    kind = op["kind"]
    if verdict not in _allowed(exp["verdict"], kind):
        p.append(f"verdict {verdict}, expected {exp['verdict']}")
    unique = rep.get("is_unique")
    if kind in oracle.POLYHEDRAL and unique != verdict:
        p.append(f"polyhedral gauge with is_sharp {verdict} but is_unique {unique}")
    if unique not in _allowed(exp["verdict"], kind):
        p.append(f"is_unique {unique}, expected {exp['verdict']}")
    if verdict == "Yes" and op["condition"] != "sdp":
        # the sdp checker decides by the kernel probe alone and carries no y0
        p += check_certificate(op, rep.get("dual_certificate"))
    kappa, alpha = rep.get("kappa"), rep.get("alpha")
    if isinstance(kappa, str):
        kappa = float(kappa)
    if isinstance(alpha, str):
        alpha = float(alpha)
    p += check_kappa(op, kappa, rep.get("kappa_certified"), rng)
    p += check_alpha(op, alpha, rep.get("alpha_certified"), rng)
    # hand-derived answers of the demo files
    if "kappa" in exp and op["condition"] == "auto":
        if kappa is None or abs(kappa - exp["kappa"]) > 1e-6:
            p.append(f"kappa {kappa}, hand-derived {exp['kappa']:.9g}")
    if "alpha" in exp and op["condition"] == "auto":
        if alpha is None or abs(alpha - exp["alpha"]) > 1e-3:
            p.append(f"alpha {alpha}, hand-derived {exp['alpha']:.9g}")
    return p


def check_design(op, rep, rng):
    p = []
    if rep.is_sharp not in _allowed("Yes", op["kind"]):
        p.append(f"design verdict {rep.is_sharp}, closed form says Yes")
    if rep.is_sharp == "Yes":
        p += check_certificate(op, rep.dual_certificate)
    p += check_kappa(op, rep.kappa, rep.kappa_certified, rng)
    p += check_alpha(op, rep.alpha, rep.alpha_certified, rng)
    return p


def check_trial(op, moz, tik, rep):
    """Mozorov and Tikhonov points against the solvers' stopping rules, and
    the paper's three bounds from the design's certified constants."""
    kind, params, A, x0, b = op["kind"], op["params"], op["A"], op["x0"], op["b"]
    delta, c1 = op["delta"], op["c1"]
    n = x0.size
    LA = float(np.linalg.norm(A, 2)) ** 2
    p = []
    if moz.status != "optimal":
        p.append(f"mozorov status {moz.status}")
    if tik.status != "optimal":
        p.append(f"tikhonov status {tik.status}")
    if p:
        return p
    # Mozorov: inside the ball, and J(x) <= J(x0) + slack.  x0 is feasible
    # (||A x0 - b|| = delta), and x is a Tikhonov point at some mu whose
    # residual r sits in the solver's band, which gives
    # J(x) - J(x0) <= (r (delta - r) + |e| |x0 - x|) / mu with |e| the
    # stationarity error of the inner Tikhonov solve.
    xm = np.asarray(moz.point, dtype=float)
    r = float(np.linalg.norm(A @ xm - b))
    if r > delta + MOZOROV_BAND * (1 + 1e-9):
        p.append(f"mozorov residual {r:.12g} above delta + 1e-6 = {delta + 1e-6:.12g}")
    mu_hat = oracle.polar(kind, params, A.T @ (b - A @ xm))
    e = 3 * LA * TIKHONOV_STEP * max(1.0, float(np.linalg.norm(xm))) * (1 + math.sqrt(n))
    slack = (r * MOZOROV_BAND + e * float(np.linalg.norm(x0 - xm))) / mu_hat
    excess = oracle.value(kind, params, xm) - oracle.value(kind, params, x0)
    if excess > slack:
        p.append(f"mozorov J(x) - J(x0) = {excess:.3e} above the slack {slack:.3e}")
    # Tikhonov: 0 in A^T (Ax - b) + mu dJ(x).  The fixed-point step s of the
    # prox-gradient map bounds the normalized stationarity error at x by
    # 3 ||A||^2 s / mu, plus 2 s / min block norm where dJ turns with x.
    xt = np.asarray(tik.point, dtype=float)
    mu = c1 * delta
    s = TIKHONOV_STEP * max(1.0, float(np.linalg.norm(xt)))
    slack_t = 3 * LA * s / mu + 2 * s / oracle.min_group_norm(kind, params, xt)
    stat = oracle.stationarity(kind, params, A, b, mu, xt)
    if stat > slack_t:
        p.append(f"tikhonov stationarity error {stat:.3e} above {slack_t:.3e}")
    # the paper's bounds, when the design certified its constants
    if rep is None or not (rep.is_sharp == "Yes" and rep.kappa_certified
                           and rep.alpha_certified):
        return p
    y0n = float(np.linalg.norm(rep.dual_certificate))
    L = oracle.lipschitz(kind, params, n)
    bounds = oracle.recovery_bounds(rep.kappa, rep.alpha, y0n, L,
                                    oracle.pinv_norm(A), c1, delta + MOZOROV_BAND)
    err_m = float(np.linalg.norm(xm - x0))
    err_t = float(np.linalg.norm(xt - x0))
    for name, err in (("mozorov", err_m), ("tikhonov_y0", err_t),
                      ("tikhonov_lip", err_t)):
        if err > bounds[name] + MOZOROV_BAND:
            p.append(f"{name} error {err:.6g} above its bound {bounds[name]:.6g}")
    return p
