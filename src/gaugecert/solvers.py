"""Solvers for gauge-regularized linear inverse problems.

Four problems:

* equality-constrained primal      min J(x)  s.t.  A x = b0
* its dual                         max <b0, y>  s.t.  J°(A^T y) <= 1
* Tikhonov                         min 0.5 ||A x - b||^2 + mu J(x)
* Mozorov (noise-aware)            min J(x)  s.t.  ||A x - b|| <= delta

Polyhedral gauges route through one verified LP each (``Gauge.primal_lp``):
its solution is the primal point and the multipliers of its rows A x = b0
are the dual point, so primal and dual come from the same model.  The rest
use Douglas-Rachford splitting (primal), projected-subgradient ascent with
``Gauge.polar_ball_project`` (dual), and proximal gradient (Tikhonov).
Mozorov runs a bracketed secant search on mu through the Tikhonov path
(secant steps on log mu versus log residual), asserting the residual's
monotonicity in mu at runtime.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .cones import lp_solve

logger = logging.getLogger(__name__)

__all__ = [
    "SolveResult",
    "ResidualMonotonicityError",
    "solve_primal_eq",
    "solve_dual",
    "solve_tikhonov",
    "solve_mozorov",
    "duality_gap",
]

SPLIT_MAXITER = 100_000
SPLIT_MOVE_TOL = 1e-9
SPLIT_FEAS_TOL = 1e-8
#: Mozorov stops once | ||Ax - b|| - delta | <= MOZOROV_BAND
MOZOROV_BAND = 1e-6
#: the first Mozorov solve: its residual decides feasibility of the ball
MOZOROV_PROBE_MU = 1e-12


class ResidualMonotonicityError(RuntimeError):
    """The Tikhonov residual failed to be monotone in mu during the Mozorov
    root search."""


@dataclass
class SolveResult:
    """Outcome of one solve.

    status is 'optimal', 'maxiter', or 'infeasible'; at 'optimal' the
    residuals sit below the configured tolerances (1e-8 on LP paths, 1e-6 on
    splitting paths).  ``info`` carries solver-specific extras (e.g. the mu
    found by the Mozorov search, with its Tikhonov solve count and path).
    """

    point: np.ndarray
    value: float
    status: str
    residuals: dict
    iterations: int = 0
    note: str = ""
    info: dict = field(default_factory=dict)


def _shape(A, rhs):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    rhs = np.asarray(rhs, dtype=float).ravel()
    if rhs.size != A.shape[0]:
        raise ValueError(f"right-hand side has {rhs.size} entries, A has "
                         f"{A.shape[0]} rows")
    return A, rhs


# ---------------------------------------------------------------------------
# primal
# ---------------------------------------------------------------------------

def solve_primal_eq(gauge, A, b0):
    """Minimize J(x) subject to A x = b0."""
    A, b0 = _shape(A, b0)
    if A.shape[1] != gauge.n:
        raise ValueError("A column count does not match the gauge dimension")
    if not gauge.is_polyhedral:
        return _primal_splitting(gauge, A, b0)
    res, x = _primal_lp(gauge, A, b0)
    if res.status != "optimal":
        return SolveResult(point=None, value=math.nan, status=res.status,
                           residuals={})
    return SolveResult(point=x, value=float(res.value), status="optimal",
                       residuals={"feasibility": 0.0,
                                  "optimality": res.kkt_residual})


def _primal_lp(gauge, A, b0):
    """The gauge's LP for min J(x) s.t. Ax = b0: (LpResult, x or None)."""
    lp, to_x = gauge.primal_lp(A, b0)
    res = lp_solve(**lp)
    return res, (to_x(res.x) if res.status == "optimal" else None)


def _primal_splitting(gauge, A, b0, maxiter=SPLIT_MAXITER):
    """Douglas-Rachford on J(x) + indicator{Ax=b0}.

    Alternates the pseudoinverse projection onto the affine set with the prox
    of J; the multiplier recovered from the fixed point is kept in ``info``
    for dual use.
    """
    pinvA = np.linalg.pinv(A)
    xls = pinvA @ b0
    scale = max(1.0, float(np.linalg.norm(b0)))
    if np.linalg.norm(A @ xls - b0) > 1e-8 * scale:
        return SolveResult(point=None, value=math.nan, status="infeasible",
                           residuals={}, note="b0 outside the range of A")
    z = xls.copy()
    x = xls.copy()
    y = xls.copy()
    move = math.inf
    it = 0
    for it in range(1, maxiter + 1):
        x = z - pinvA @ (A @ z - b0)
        y = gauge.prox(2.0 * x - z, 1.0)
        move = float(np.linalg.norm(y - x))
        z = z + y - x
        if move < SPLIT_MOVE_TOL:
            break
    feas = float(np.linalg.norm(A @ y - b0))
    status = "optimal" if (move < SPLIT_MOVE_TOL and feas < SPLIT_FEAS_TOL * scale) \
        else "maxiter"
    # fixed-point multiplier: x - z in dJ(x) ∩ -Im A^T  =>  dual candidate
    nu, *_ = np.linalg.lstsq(A.T, z - x, rcond=None)
    return SolveResult(point=y, value=float(gauge.value(y)), status=status,
                       residuals={"feasibility": feas, "optimality": move},
                       iterations=it, note="splitting path",
                       info={"multiplier": -nu})


# ---------------------------------------------------------------------------
# dual
# ---------------------------------------------------------------------------

def solve_dual(gauge, A, b0):
    """Maximize <b0, y> subject to J°(A^T y) <= 1.

    For the polyhedral kinds y is read off the primal LP: the multipliers of
    its rows A x = b0 are a dual optimum, and the value is <b0, y>.
    """
    A, b0 = _shape(A, b0)
    if not gauge.is_polyhedral:
        return _dual_ascent(gauge, A, b0)
    res, _ = _primal_lp(gauge, A, b0)
    if res.status == "infeasible":
        return SolveResult(point=None, value=math.inf, status="unbounded",
                           residuals={}, note="primal infeasible")
    if res.status != "optimal":
        return SolveResult(point=None, value=math.nan, status=res.status,
                           residuals={})
    eq = res.eq_marginals
    y = eq[eq.size - A.shape[0]:].copy()
    return SolveResult(point=y, value=float(b0 @ y), status="optimal",
                       residuals={"feasibility": 0.0,
                                  "optimality": res.kkt_residual})


def _dual_ascent(gauge, A, b0, iters=500):
    """Heuristic dual for the splitting kinds: start from the DR multiplier,
    then projected-subgradient ascent with the polar-ball projection pulled
    back through A^T by least squares; feasibility is restored by radial
    scaling (J° is positively homogeneous).  The duality gap against the
    primal value is the optimality residual; status is optimal only when it
    closes below 1e-6 (scaled)."""
    primal = solve_primal_eq(gauge, A, b0)
    if primal.status == "infeasible":
        # dual is unbounded when b0 has no preimage at all
        return SolveResult(point=None, value=math.inf, status="unbounded",
                           residuals={}, note="primal infeasible")
    m = A.shape[0]

    def feasify(y):
        p = gauge.polar(A.T @ y)
        if p > 1.0 and np.isfinite(p):
            return y / p
        return y if np.isfinite(p) else None

    best_y = np.zeros(m)
    best_val = 0.0
    y = primal.info.get("multiplier")
    if y is not None:
        y = feasify(np.asarray(y, dtype=float))
        if y is not None and b0 @ y > best_val:
            best_y, best_val = y, float(b0 @ y)
    y = best_y.copy()
    bnorm = max(1.0, float(np.linalg.norm(b0)))
    for it in range(1, iters + 1):
        y = y + (0.5 / (bnorm * math.sqrt(it))) * b0
        z = gauge.polar_ball_project(A.T @ y)
        y, *_ = np.linalg.lstsq(A.T, z, rcond=None)
        yf = feasify(y)
        if yf is None:
            continue
        val = float(b0 @ yf)
        if val > best_val:
            best_y, best_val = yf, val
    scale = max(1.0, abs(primal.value))
    gap = primal.value - best_val if np.isfinite(primal.value) else math.inf
    status = "optimal" if (primal.status == "optimal" and gap <= 1e-6 * scale) \
        else "maxiter"
    return SolveResult(point=best_y, value=best_val, status=status,
                       residuals={"feasibility":
                                  max(0.0, gauge.polar(A.T @ best_y) - 1.0),
                                  "optimality": max(gap, 0.0)},
                       iterations=iters,
                       note="heuristic ascent; quality certified by the "
                            "duality gap")


# ---------------------------------------------------------------------------
# Tikhonov / Mozorov
# ---------------------------------------------------------------------------

def solve_tikhonov(gauge, A, b, mu, x_start=None, maxiter=SPLIT_MAXITER):
    """Minimize 0.5 ||Ax - b||^2 + mu J(x) by accelerated proximal gradient.

    Fixed step 1/sigma_max(A)^2 with Nesterov momentum, restarted whenever
    the objective rises (needed because small mu makes the plain iteration
    crawl).  Stops once the relative objective decrease falls below 1e-12
    and the prox fixed-point residual below 1e-10 (scaled by max(1, ||x||)).
    The decrease is tested first; the fixed-point residual costs one more
    prox, so it is computed only on iterations that pass the first test.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    A, b = _shape(A, b)
    smax = float(np.linalg.norm(A, 2))
    L = max(smax ** 2, 1e-300)
    x = np.zeros(A.shape[1]) if x_start is None else \
        np.asarray(x_start, dtype=float).copy()

    def obj(x):
        return 0.5 * float(((A @ x - b) ** 2).sum()) + mu * gauge.value(x)

    F = obj(x)
    y = x.copy()
    x_prev = x
    tk = 1.0
    it = 0
    status = "maxiter"
    for it in range(1, maxiter + 1):
        grad = A.T @ (A @ y - b)
        x_next = gauge.prox(y - grad / L, mu / L)
        F_next = obj(x_next)
        if F_next > F:
            # momentum overshot: restart from the last good iterate
            y = x.copy()
            tk = 1.0
            grad = A.T @ (A @ y - b)
            x_next = gauge.prox(y - grad / L, mu / L)
            F_next = obj(x_next)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
        y = x_next + ((tk - 1.0) / t_next) * (x_next - x)
        x_prev, x, tk, F_prev, F = x, x_next, t_next, F, F_next
        if not F_prev - F < 1e-12 * max(1.0, abs(F_prev)):
            continue
        # fixed-point residual of the unaccelerated map at x
        fp = float(np.linalg.norm(
            gauge.prox(x - (A.T @ (A @ x - b)) / L, mu / L) - x))
        if fp < 1e-10 * max(1.0, float(np.linalg.norm(x))):
            status = "optimal"
            break
    step_move = float(np.linalg.norm(x - x_prev))
    resid = float(np.linalg.norm(A @ x - b))
    return SolveResult(point=x, value=F, status=status,
                       residuals={"optimality": step_move,
                                  "data_misfit": resid},
                       iterations=it, info={"mu": float(mu)})


def solve_mozorov(gauge, A, b, delta, maxiter=200):
    """Minimize J(x) subject to ||Ax - b|| <= delta.

    Finds the mu at which the Tikhonov residual r(mu) = ||A x(mu) - b||
    meets delta by a bracketed secant search on (log mu, log r): each step
    is the secant through the last two Tikhonov solves, aimed at the middle
    of the band [delta - 1e-6, delta].  The bracket starts at [1e-12,
    J°(A^T b)]; the solve at 1e-12 only probes feasibility, so while it is
    still the lower end no step goes more than a factor 10 below the lowest
    solve with r > delta, and once both ends are real solves a step leaving
    the bracket is replaced by its geometric midpoint.  Each solve is warm
    started from the best point so far, and residual monotonicity in mu is
    asserted on every solve.  The point returned is a solve with r <= delta;
    status is 'optimal' when r is within 1e-6 of delta and 'maxiter' when
    ``maxiter`` steps (or a collapsed bracket) end the search first.
    ``info`` holds mu, the residual, the number of Tikhonov solves and their
    (mu, r) path in solve order.  delta=0 routes to the equality-constrained
    primal.
    """
    A, b = _shape(A, b)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if delta == 0.0:
        out = solve_primal_eq(gauge, A, b)
        out.info.setdefault("mu", 0.0)
        return out
    if float(np.linalg.norm(b)) <= delta:
        x = np.zeros(A.shape[1])
        return SolveResult(point=x, value=0.0, status="optimal",
                           residuals={"feasibility": 0.0},
                           note="zero is feasible", info={"mu": math.inf})
    xls, *_ = np.linalg.lstsq(A, b, rcond=None)
    if (not gauge.is_conic
            and float(np.linalg.norm(A @ xls - b)) > delta + 1e-12):
        # the unconstrained least-squares point already misses the ball
        return SolveResult(point=None, value=math.nan, status="infeasible",
                           residuals={},
                           note="delta below the distance from b to Im A")

    mu_hi = gauge.polar(A.T @ b)
    if not np.isfinite(mu_hi) or mu_hi <= 0:
        mu_hi = float(np.linalg.norm(A.T @ b)) + 1.0
    mu_lo = MOZOROV_PROBE_MU
    path = []

    def residual_at(mu, warm):
        sol = solve_tikhonov(gauge, A, b, mu, x_start=warm)
        r = float(np.linalg.norm(A @ sol.point - b))
        for mu2, r2 in path:
            inverted = (mu2 < mu and r2 > r + 1e-6 * max(1.0, r2)) or \
                       (mu2 > mu and r2 < r - 1e-6 * max(1.0, r))
            if inverted:
                raise ResidualMonotonicityError(
                    f"residual not monotone in mu: ({mu2:.3e},{r2:.6e}) vs "
                    f"({mu:.3e},{r:.6e})")
        path.append((mu, r))
        return sol, r

    sol_lo, r_lo = residual_at(mu_lo, xls)
    if r_lo > delta + MOZOROV_BAND:
        return SolveResult(point=None, value=math.nan, status="infeasible",
                           residuals={"feasibility": r_lo - delta},
                           note="delta below the attainable residual",
                           info={"tikhonov_solves": len(path), "path": path})
    residual_at(mu_hi, sol_lo.point)
    target = delta - 0.5 * MOZOROV_BAND
    it = 0
    for it in range(1, maxiter + 1):
        if abs(r_lo - delta) <= MOZOROV_BAND:
            break
        mu = _log_secant(path[-2], path[-1], target)
        if mu_lo == MOZOROV_PROBE_MU and not mu_hi / 10 <= mu < mu_hi:
            # a secant anchored on the probe can land far below the root,
            # where FISTA crawls along Ker A
            mu = mu_hi / 10
        if not mu_lo < mu < mu_hi:
            mu = math.sqrt(mu_lo * mu_hi)
        sol, r = residual_at(mu, sol_lo.point)
        if r <= delta:
            mu_lo, sol_lo, r_lo = mu, sol, r
        else:
            mu_hi = mu
        if mu_hi - mu_lo < 1e-15 * max(1.0, mu_hi):
            break
    discrepancy = abs(r_lo - delta)
    return SolveResult(point=sol_lo.point,
                       value=float(gauge.value(sol_lo.point)),
                       status="optimal" if discrepancy <= MOZOROV_BAND
                       else "maxiter",
                       residuals={"feasibility": max(0.0, r_lo - delta),
                                  "discrepancy": discrepancy},
                       iterations=it,
                       info={"mu": sol_lo.info.get("mu", mu_lo),
                             "residual": r_lo,
                             "tikhonov_solves": len(path), "path": path})


def _log_secant(p, q, target):
    """The mu where the line through the solves p = (mu, r) and q, drawn in
    (log mu, log r), reaches r = target; nan when that line is undefined or
    flat."""
    (mu1, r1), (mu2, r2) = p, q
    if min(r1, r2) <= 0.0 or r1 == r2:
        return math.nan
    log_mu = math.log(mu1) + (math.log(target) - math.log(r1)) \
        * (math.log(mu2) - math.log(mu1)) / (math.log(r2) - math.log(r1))
    return math.exp(log_mu) if log_mu < 700.0 else math.inf


def duality_gap(gauge, A, b0):
    """val(P_J) - val(D_J); both values are logged."""
    p = solve_primal_eq(gauge, A, b0)
    d = solve_dual(gauge, A, b0)
    logger.info("duality gap: primal %.12g dual %.12g", p.value, d.value)
    return float(p.value - d.value)
