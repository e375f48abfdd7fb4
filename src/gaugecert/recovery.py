"""Empirical verification of the linear-rate robust-recovery bounds.

On certified-sharp instances, three bounds are checked against actual solver
errors:

* residual-constrained recovery:   ||x^delta - x0|| <= 2 delta / alpha;
* penalized recovery at mu=c1*delta, certificate form:
      ||x^mu - x0|| <= 2 (1 + 2 c1 ||y0||) delta / alpha;
* penalized recovery, Lipschitz form:
      ||x^mu - x0|| <= c1/(2 kappa) * (1/c1 + (kappa+L)||A^+||)^2 delta.

kappa and alpha come from the certification battery and are used only when
the engines that produced them are certified -- rows with heuristic values
are recorded but never asserted.  Everything is deterministic in
(config, seed): instances are drawn from ``numpy.random.default_rng``
(PCG64), the sweep is a plain ordered fold, and CSV floats are written with
``repr`` (shortest round-trip), so repeated sweeps are byte-identical.
"""

import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import config as _config
from .certificates import YES, check_sharp
from .gauges import KINDS, Gauge, from_spec
from .solvers import solve_mozorov, solve_primal_eq, solve_tikhonov

__all__ = ["ProblemInstance", "RecoveryReport", "gen_instance",
           "run_recovery", "sweep", "CSV_HEADER"]

CSV_HEADER = ("instance_id,gauge,m,n,delta,mu,err_mozorov,bound_mozorov,"
              "err_tikhonov,bound_tikhonov_y0,bound_tikhonov_lip,kappa,"
              "alpha,pass")

PASS_TOL = 1e-5


@dataclass
class ProblemInstance:
    """One randomly drawn recovery problem.

    b0 = A @ x0 exactly as constructed and ||omega|| <= delta; the noisy
    right-hand side is b0 + omega.
    """

    A: np.ndarray
    x0: np.ndarray
    b0: np.ndarray
    delta: float
    omega: np.ndarray
    seed: int
    gauge: object
    instance_id: str = ""


@dataclass
class RecoveryReport:
    """Per-trial rows plus the aggregate pass statistics.

    Each row is a dict carrying the CSV columns (already native floats) and
    a few extras (status, note, L, y0_norm, pinv_norm) that the CSV omits.
    ``worst_violation`` is the largest error-minus-bound gap over all
    asserted rows (negative when every bound holds with margin).
    """

    rows: list = field(default_factory=list)
    n_applicable: int = 0
    n_pass: int = 0
    worst_violation: float = -math.inf

    @property
    def pass_rate(self):
        return self.n_pass / self.n_applicable if self.n_applicable else 1.0

    @property
    def all_pass(self):
        return all(r["pass"] != "False" for r in self.rows)

    def summary(self):
        return {
            "rows": len(self.rows),
            "applicable": self.n_applicable,
            "passed": self.n_pass,
            "pass_rate": self.pass_rate,
            "worst_violation": self.worst_violation,
            "all_pass": self.all_pass,
        }


def gen_instance(cfg, seed):
    """Draw one problem instance deterministically from (cfg, seed).

    Parameters
    ----------
    cfg : dict
        Keys ``m``, ``n`` (the column count of A), ``delta``, ``kind``
        (default "l1"), and the pattern size: ``sparsity`` for vector kinds
        or ``rank`` for matrix kinds.  The gauge is built by
        ``gauges.from_spec``, so its parameter rides along under the
        problem-file name (``D``, ``w``, ``partition``, ``shape`` or ``C``);
        ``n`` is translated into the problem-file ``n`` first (the side of C
        for sdp_trace), and the gauge must act on R^n.
        Optional ``noise``: "sphere" (default) draws omega uniform on the
        delta-sphere; "adversarial" aims it along Ax0.
    seed : int

    Returns
    -------
    ProblemInstance
    """
    m, n = int(cfg["m"]), int(cfg["n"])
    delta = float(cfg.get("delta", 0.0))
    kind = cfg.get("kind", "l1")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    # an unknown kind keeps n; from_spec then rejects the kind
    spec_n = KINDS.get(kind, Gauge).spec_n(n)
    gauge = from_spec(dict(cfg, kind=kind, n=spec_n))
    if gauge.n != n:
        raise ValueError(f"n: the {kind} gauge acts on R^{gauge.n}, "
                         f"A has {n} columns")
    x0 = gauge.draw_x0(rng, sparsity=int(cfg.get("sparsity", 1)),
                       rank=int(cfg.get("rank", 1)))
    b0 = A @ x0
    if delta > 0 and m > 0:
        if cfg.get("noise", "sphere") == "adversarial":
            base = b0 if np.linalg.norm(b0) > 0 else rng.standard_normal(m)
            omega = delta * base / np.linalg.norm(base)
        else:
            g = rng.standard_normal(m)
            omega = delta * g / np.linalg.norm(g)
    else:
        omega = np.zeros(m)
    iid = "{}-m{}-n{}-s{}-d{}".format(kind, m, n, seed, repr(delta))
    if cfg.get("noise") == "adversarial":
        iid += "-adv"
    return ProblemInstance(A=A, x0=x0, b0=b0, delta=delta, omega=omega,
                           seed=int(seed), gauge=gauge, instance_id=iid)


def _pinv_norm(A):
    s = np.linalg.svd(A, compute_uv=False)
    pos = s[s > _config.RANK_TOL * max(1.0, float(s[0]) if s.size else 1.0)]
    return float(1.0 / pos[-1]) if pos.size else 0.0


def run_recovery(instance, c1, overrides=None, cert=None):
    """Solve the noisy problems and evaluate the three recovery bounds.

    The bounds are asserted (pass column True/False) only when the base
    instance certifies as sharp with certified kappa and alpha; otherwise
    the row is recorded with pass="na" ("bounds not applicable").  Rows
    whose solver legs fail carry pass="error".

    Parameters
    ----------
    instance : ProblemInstance
    c1 : float
        Penalty scaling; the penalized solve runs at mu = c1 * delta.
    overrides : dict, optional
        Replacement values for "kappa" / "alpha" (harness self-tests use
        this to inject corrupted constants and watch the verdict flip).
    cert : CertificateReport, optional
        Precomputed certificate for (gauge, A, x0).  Callers sweeping many
        noise draws over one fixed design certify once and pass it here.

    Returns
    -------
    RecoveryReport with a single row.
    """
    gauge, A, x0 = instance.gauge, instance.A, instance.x0
    delta = float(instance.delta)
    c1 = float(c1)
    if c1 <= 0:
        raise ValueError("c1 must be positive")
    b = instance.b0 + instance.omega
    mu = c1 * delta

    if cert is None:
        cert = check_sharp(gauge, A, x0)
    kappa, alpha = cert.kappa, cert.alpha
    if overrides:
        kappa = float(overrides.get("kappa", kappa))
        alpha = float(overrides.get("alpha", alpha))
    applicable = (cert.is_sharp == YES and cert.kappa_certified
                  and cert.alpha_certified and kappa > 0 and alpha > 0)

    row = {
        "instance_id": instance.instance_id,
        "gauge": gauge.kind,
        "m": A.shape[0],
        "n": A.shape[1],
        "delta": delta,
        "mu": mu,
        "err_mozorov": math.nan,
        "bound_mozorov": math.nan,
        "err_tikhonov": math.nan,
        "bound_tikhonov_y0": math.nan,
        "bound_tikhonov_lip": math.nan,
        "kappa": kappa if kappa is not None else math.nan,
        "alpha": alpha if alpha is not None else math.nan,
        "pass": "na",
        "status": "ok",
        "note": "",
        "L": gauge.lipschitz(),
        "y0_norm": math.nan,
        "pinv_norm": _pinv_norm(A),
    }
    report = RecoveryReport()

    try:
        res_m = solve_mozorov(gauge, A, b, delta)
        if res_m.status != "optimal":
            raise RuntimeError(f"residual solve: {res_m.status}")
        row["err_mozorov"] = float(np.linalg.norm(res_m.point - x0))
        if mu > 0:
            res_t = solve_tikhonov(gauge, A, b, mu)
            if res_t.status != "optimal":
                raise RuntimeError(f"penalized solve: {res_t.status}")
            xt = res_t.point
        else:
            xt = solve_primal_eq(gauge, A, b).point
        row["err_tikhonov"] = float(np.linalg.norm(xt - x0))
    except Exception as exc:  # recorded, not raised: sweeps must finish
        row["status"] = "solver-failure"
        row["note"] = str(exc)
        row["pass"] = "error"
        report.rows.append(row)
        return report

    if not applicable:
        row["note"] = "bounds not applicable"
        report.rows.append(row)
        return report

    L = row["L"]
    adag = row["pinv_norm"]
    y0n = float(np.linalg.norm(cert.dual_certificate))
    row["y0_norm"] = y0n
    row["bound_mozorov"] = 2.0 * delta / alpha
    row["bound_tikhonov_y0"] = 2.0 * (1.0 + 2.0 * c1 * y0n) * delta / alpha
    row["bound_tikhonov_lip"] = (c1 / (2.0 * kappa)
                                 * (1.0 / c1 + (kappa + L) * adag) ** 2
                                 * delta)
    viol = max(
        row["err_mozorov"] - row["bound_mozorov"],
        row["err_tikhonov"] - row["bound_tikhonov_y0"],
        row["err_tikhonov"] - row["bound_tikhonov_lip"],
    )
    row["pass"] = "True" if viol <= PASS_TOL else "False"
    report.n_applicable = 1
    report.n_pass = 1 if row["pass"] == "True" else 0
    report.worst_violation = viol
    report.rows.append(row)
    return report


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def rows_to_csv(rows):
    """Render rows under the pinned header with round-trip float formatting."""
    cols = CSV_HEADER.split(",")
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in rows:
        buf.write(",".join(_fmt(r[c]) for c in cols) + "\n")
    return buf.getvalue()


def sweep(grid, seeds, c1, overrides=None):
    """Run the full (config x seed) grid in order and aggregate.

    A deterministic fold: rows appear ordered by (grid position, seed), so
    identical inputs give identical CSV bytes.

    Returns
    -------
    (RecoveryReport, str)
        The aggregated report and the CSV text.
    """
    if not grid:
        raise ValueError("config grid must be nonempty")
    agg = RecoveryReport()
    for cfg in grid:
        for seed in seeds:
            rep = run_recovery(gen_instance(cfg, seed), c1,
                               overrides=overrides)
            agg.rows.extend(rep.rows)
            agg.n_applicable += rep.n_applicable
            agg.n_pass += rep.n_pass
            agg.worst_violation = max(agg.worst_violation,
                                      rep.worst_violation)
    return agg, rows_to_csv(agg.rows)
