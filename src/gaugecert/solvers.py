"""Solvers for gauge-regularized linear inverse problems.

Four problems:

* equality-constrained primal      min J(x)  s.t.  A x = b0
* its dual                         max <b0, y>  s.t.  J°(A^T y) <= 1
* Tikhonov                         min 0.5 ||A x - b||^2 + mu J(x)
* Mozorov (noise-aware)            min J(x)  s.t.  ||A x - b|| <= delta

The primal goes through one verified LP for the polyhedral gauges
(``Gauge.primal_lp``) and through Douglas-Rachford splitting for the rest;
either way the solve keeps the multiplier of A x = b0, and the dual point is
read from it.  Each gauge keeps a record of its last primal solve, keyed by
the shape and bytes of A and b0, so ``solve_dual`` after ``solve_primal_eq``
on the same problem reads the record and solves nothing: primal and dual
come from one solve.  A gauge keeps a second record, of its last Tikhonov
or Mozorov problem (A, b): the certified points of the solution path
x(mu), each with its tangent x'(mu), from which each solve starts or reads
its answer.

Tikhonov runs on four routes (``solve_tikhonov``); each but the last
returns a point only once the gauge's own KKT test holds,
z = A^T (b - A x) / mu in ∂J(x): ``zero`` at mu >= J°(A^T b); ``exact-qp``
for the polyhedral gauges, a HiGHS QP polished into the piece of x(mu)
that is affine in mu (the homotopy / LARS path: Osborne, Presnell &
Turlach 2000; Efron et al. 2004); ``newton`` for a kind with
``Gauge.prox_jacobian`` (group_l12), path following with a tangent
predictor and a semismooth Newton corrector (Allgower & Georg 1990); and
``fista`` for the other kinds and for a solve no certified route answered.

Mozorov is one root search on mu for every kind, each step a Tikhonov solve
on these routes, asserting the residual's monotonicity in mu at runtime.
Its steps rest on one fact: the Tikhonov dual point
y(mu) = (b - A x(mu)) / mu is the projection of b / mu onto the convex set
{y : J°(A^T y) <= 1}, which holds 0, so the residual r(mu) = mu ||y(mu)||
never falls and r(mu) / mu never rises as mu grows.  Below a solve
(mu_hi, r_hi), r(mu) >= mu r_hi / mu_hi: the step to mu_hi target / r_hi
never undershoots the root.  That step is taken when the root of the last
step's model leaves the bracket: on a certified step, the residual along
its tangent, exact on a QP's piece; on a FISTA step, the secant on
(log mu, log r) through the last two steps.
"""

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cones import LpFailure, lp_solve, qp_solve
from .gauges.base import Gauge, Memo

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
#: most Tikhonov solves of one Mozorov search
MOZOROV_MAXITER = 200
#: the certified routes' KKT test: z = A^T (b - A x) / mu in ∂J(x) to this
EXACT_KKT_TOL = 1e-9
#: the Newton route: most steps, and halvings of one step's length
NEWTON_MAXITER = 50
NEWTON_BACKTRACKS = 30
#: the Newton route runs at mu >= NEWTON_MU_FLOOR J°(A^T b) only
NEWTON_MU_FLOOR = 1e-6
#: a failed Newton solve is continued from the path in steps of at most
#: this factor in mu
NEWTON_CONTINUATION = 10.0


class ResidualMonotonicityError(RuntimeError):
    """The Tikhonov residual failed to be monotone in mu during the Mozorov
    root search."""


@dataclass
class SolveResult:
    """Outcome of one solve.

    status is 'optimal', 'maxiter', or 'infeasible'; at 'optimal' the
    residuals sit below the configured tolerances (1e-8 on LP paths, 1e-6 on
    splitting paths).  ``iterations`` counts a solver's own steps: QP
    solves on the exact-qp route, Newton or FISTA steps, splitting steps;
    for a Mozorov solve, of any kind, its Tikhonov solves,
    ``len(info["path"])`` (``info["qp_solves"]`` counts its QPs).
    ``info`` carries solver-specific extras (e.g. the route of a Tikhonov
    or Mozorov solve, the mu found by the Mozorov search and its (mu, r)
    path).
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
    """Minimize J(x) subject to A x = b0.

    ``info["multiplier"]`` holds the multiplier y of A x = b0: the LP's
    equality marginals, or the splitting path's fixed-point multiplier.
    A read-only copy of the result is recorded on the gauge for
    ``solve_dual``; it replaces the record of the gauge's last problem.
    """
    A, b0 = _shape(A, b0)
    if A.shape[1] != gauge.n:
        raise ValueError("A column count does not match the gauge dimension")
    res = (_primal_lp if gauge.is_polyhedral else _primal_splitting)(
        gauge, A, b0)
    _PRIMAL_RECORD.put(gauge, _problem_key(A, b0), replace(
        res, point=_frozen(res.point), residuals=dict(res.residuals),
        info={k: _frozen(v) for k, v in res.info.items()}))
    return res


def _problem_key(A, b):
    return A.shape, A.tobytes(), b.tobytes()


#: a read-only copy of the gauge's last ``solve_primal_eq`` result
_PRIMAL_RECORD = Memo("_last_primal_eq")
#: the gauge's record of its last Tikhonov or Mozorov problem: an
#: ``_RFormQp`` (polyhedral kinds) or a ``_NewtonPath`` (``prox_jacobian``)
_TIKHONOV_RECORD = Memo("_last_tikhonov")


def _frozen(v):
    """A read-only copy of an array; anything else as it is."""
    if not isinstance(v, np.ndarray):
        return v
    v = v.copy()
    v.setflags(write=False)
    return v


def _primal_lp(gauge, A, b0):
    lp, to_x = gauge.primal_lp(A, b0)
    res = lp_solve(**lp)
    if res.status != "optimal":
        return SolveResult(point=None, value=math.nan, status=res.status,
                           residuals={})
    eq = res.eq_marginals
    return SolveResult(point=to_x(res.x), value=float(res.value),
                       status="optimal",
                       residuals={"feasibility": 0.0,
                                  "optimality": res.kkt_residual},
                       info={"multiplier": eq[eq.size - A.shape[0]:].copy()})


def _primal_splitting(gauge, A, b0):
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
    for it in range(1, SPLIT_MAXITER + 1):
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
    """Maximize <b0, y> subject to J°(A^T y) <= 1, read off the primal
    min J(x) s.t. A x = b0: the gauge's record of its last
    ``solve_primal_eq`` when that solved this A and b0, else a new solve.

    The dual point is the primal's multiplier y of A x = b0.  On the LP path
    it is a dual optimum, and the value is <b0, y>.  On the splitting path y
    is scaled into the polar ball, y / max(1, J°(A^T y)), or is 0 when that
    scores higher; the duality gap against the primal value is the
    optimality residual, and the status is optimal only when the primal is
    and the gap is at most 1e-6 max(1, |p|).  A primal without a feasible
    point makes the dual unbounded.  The returned arrays are the caller's:
    none is shared with the record.
    """
    A, b0 = _shape(A, b0)
    primal = _PRIMAL_RECORD.get(gauge, _problem_key(A, b0))
    if primal is None:
        primal = solve_primal_eq(gauge, A, b0)
    return _dual_from_primal(gauge, A, b0, primal)


def _dual_from_primal(gauge, A, b0, primal):
    """``solve_dual`` from ``primal``, the result of ``solve_primal_eq`` on
    the same (shaped) A and b0."""
    if primal.status == "infeasible":
        return SolveResult(point=None, value=math.inf, status="unbounded",
                           residuals={}, note="primal infeasible")
    y = primal.info.get("multiplier")
    if y is None:
        return SolveResult(point=None, value=math.nan, status=primal.status,
                           residuals={})
    if gauge.is_polyhedral:
        return SolveResult(point=y.copy(), value=float(b0 @ y),
                           status="optimal",
                           residuals=dict(primal.residuals))
    p = gauge.polar(A.T @ y)
    y = y / max(1.0, p) if math.isfinite(p) else np.zeros(A.shape[0])
    if not b0 @ y > 0.0:
        y = np.zeros(A.shape[0])
    value = float(b0 @ y)
    gap = primal.value - value
    status = "optimal" if (primal.status == "optimal"
                           and gap <= 1e-6 * max(1.0, abs(primal.value))) \
        else "maxiter"
    return SolveResult(point=y, value=value, status=status,
                       residuals={"feasibility":
                                  max(0.0, gauge.polar(A.T @ y) - 1.0),
                                  "optimality": max(gap, 0.0)},
                       iterations=primal.iterations,
                       note="splitting multiplier; quality certified by the "
                            "duality gap")


# ---------------------------------------------------------------------------
# Tikhonov / Mozorov
# ---------------------------------------------------------------------------

class _NotCertified(Exception):
    """A certified route found no certified point: the message says why,
    and ``spent`` holds what the attempt cost, as ``info`` counters."""

    def __init__(self, why, **spent):
        super().__init__(why)
        self.spent = spent


class _Path:
    """The record of the Tikhonov path x(mu) of one problem (A, b), kept by
    ``_TIKHONOV_RECORD``: ``points``, the certified (mu, x, x'(mu)) found
    so far, read-only.  A subclass is a route (``route``, ``note``, and
    ``counter``, its ``info`` key of ``iterations``) whose
    ``certified(mu, x_start)`` returns a certified point at mu, its
    tangent, ||A x - b||, its KKT residual and its ``info`` counters, or
    raises ``_NotCertified``, and records each point it solves for."""

    def __init__(self, gauge, A, b):
        # read-only copies: the caller may write into A and b later
        self.gauge, self.A, self.b = gauge, _frozen(A), _frozen(b)
        self.scale = max(1.0, float(np.linalg.norm(A) * np.linalg.norm(b)))
        self.points = []

    def predictions(self, mu):
        """(x_k + (mu - mu_k) x'_k, x'_k, mu_k) for each recorded point,
        nearest mu in log mu first (a point at mu = 0 is nearest 0 only)."""
        for mu_k, x_k, dx_k in sorted(self.points, key=lambda p: (
                abs(math.log(p[0] / mu)) if min(p[0], mu) > 0
                else 0.0 if p[0] == mu else math.inf)):
            yield x_k + (mu - mu_k) * dx_k, dx_k, mu_k

    def add(self, mu, x, dx):
        """Record the certified point x at mu and its tangent dx."""
        self.points.append((mu, _frozen(x), _frozen(dx)))


class _QpPath(_Path):
    """The path of a polyhedral gauge, solved as the QP

        min 0.5 ||r||^2 + mu c @ v  s.t.  r = A P v - b  and the lift rows,

    built from ``gauge.primal_lp(A, b)``: its last m equality rows (A P v =
    b) get -I on m free columns r, and the Hessian is I on r.  The QP's
    optimum at mu, polished on its active set, is the affine piece
    w(mu) = w0 + mu w1 of x(mu) (the homotopy path: Osborne, Presnell &
    Turlach 2000), and every kind's ``to_x`` is linear, so the point
    x = to_x(w0 + mu w1) and its tangent x' = to_x(w1) predict x(mu)
    exactly along the piece."""

    route, note, counter = "exact-qp", "exact QP route", "qp_solves"

    def __init__(self, gauge, A, b):
        super().__init__(gauge, A, b)
        lp, self.to_x = gauge.primal_lp(self.A, self.b)
        m = A.shape[0]
        self.nv = nv = np.size(lp["c"])
        A_eq = np.atleast_2d(np.asarray(lp["A_eq"], dtype=float))
        self.A_eq = np.hstack([A_eq, np.vstack([np.zeros((len(A_eq) - m, m)),
                                                -np.eye(m)])])
        self.b_eq = np.asarray(lp["b_eq"], dtype=float)
        A_ub = lp.get("A_ub")
        A_ub = np.zeros((0, nv)) if A_ub is None else np.asarray(A_ub, float)
        self.A_ub = np.hstack([A_ub, np.zeros((len(A_ub), m))])
        self.b_ub = np.asarray(lp.get("b_ub", np.zeros(0)), dtype=float)
        bounds = np.array(list(lp.get("bounds") or [(None, None)] * nv)
                          + [(None, None)] * m, dtype=float)
        bounds[:, 0] = np.where(np.isnan(bounds[:, 0]), -np.inf, bounds[:, 0])
        bounds[:, 1] = np.where(np.isnan(bounds[:, 1]), np.inf, bounds[:, 1])
        self.bounds, (self.lo, self.hi) = bounds, bounds.T
        self.c = np.concatenate([lp["c"], np.zeros(m)])
        self.h = np.concatenate([np.zeros(nv), np.ones(m)])
        self.hess = np.diag(self.h)

    def piece(self, w, tol):
        """The affine piece (w0, w1) of the active set of w, in the lift's
        variables v: each variable within ``tol`` max(1, |w|) of a bound is
        fixed at it, each inequality row as tight is kept as an equality,
        and one ``lstsq`` on that set's equality KKT system gives the rest
        for every mu."""
        tol *= max(1.0, float(np.max(np.abs(w))))
        at_lo, at_hi = np.abs(w - self.lo) <= tol, np.abs(w - self.hi) <= tol
        w0 = np.where(at_lo, self.lo, np.where(at_hi, self.hi, 0.0))
        tight = np.abs(self.A_ub @ w - self.b_ub) <= tol
        C = np.vstack([self.A_eq, self.A_ub[tight]])
        d = np.concatenate([self.b_eq, self.b_ub[tight]]) - C @ w0
        free = np.flatnonzero(~(at_lo | at_hi))
        nf, F = free.size, C[:, free]
        K = np.zeros((nf + len(F),) * 2)
        K[:nf, nf:], K[nf:, :nf] = F.T, F
        K[np.arange(nf), np.arange(nf)] = self.h[free]
        rhs = np.zeros((len(K), 2))
        rhs[nf:, 0], rhs[:nf, 1] = d, -self.c[free]
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
        w1 = np.zeros_like(w0)
        w0[free], w1[free] = sol[:nf, 0], sol[:nf, 1]
        return w0[:self.nv], w1[:self.nv]

    def certified(self, mu, x_start=None):
        """The first recorded point's prediction at mu, nearest mu first,
        that passes the KKT test (0 QPs), else the point of the QP at mu
        (1 QP), which is then recorded.  The QP optimum's active set is
        read at a bound distance of 1e-6 (HiGHS regularizes the QP by 1e-7,
        which can lift a variable off its bound), then of 1e-9 (a variable
        that close to its bound may be free).  ``x_start`` is not read."""
        for x, dx, _ in self.predictions(mu):
            r, kkt = _kkt(self.gauge, self.A, self.b, x, mu, self.scale)
            if kkt <= EXACT_KKT_TOL:
                return x, dx, r, kkt, {"qp_solves": 0}
        try:
            res = qp_solve(mu * self.c, self.hess, self.A_ub, self.b_ub,
                           self.A_eq, self.b_eq, self.bounds)
        except LpFailure as exc:
            raise _NotCertified(str(exc), qp_solves=1) from exc
        if res.status != "optimal":
            raise _NotCertified(f"QP at mu={mu:.3e} is {res.status}",
                                qp_solves=1)
        for tol in (1e-6, 1e-9):
            w0, w1 = self.piece(res.x, tol)
            x, dx = self.to_x(w0 + mu * w1), self.to_x(w1)
            r, kkt = _kkt(self.gauge, self.A, self.b, x, mu, self.scale)
            if kkt <= EXACT_KKT_TOL:
                self.add(mu, x, dx)
                return x, dx, r, kkt, {"qp_solves": 1}
        raise _NotCertified(f"KKT residual {kkt:.1e} at mu={mu:.3e}",
                            qp_solves=1)


class _NewtonPath(_Path):
    """The path of a kind with ``Gauge.prox_jacobian``, solved by
    ``_newton``: the step t = 0.95 / ||A||^2, M = I - t A^T A and the zero
    point's mu0 = J°(A^T b), with ``points`` led by the zero point
    (mu0, 0, x'(mu0-))."""

    route, note, counter = "newton", "semismooth Newton route", \
        "newton_iterations"

    def __init__(self, gauge, A, b):
        super().__init__(gauge, A, b)
        n = A.shape[1]
        self.t = t = 0.95 / max(float(np.linalg.norm(A, 2)) ** 2, 1e-300)
        self.M = _frozen(np.eye(n) - t * (A.T @ A))
        self.mu0 = gauge.polar(A.T @ b)
        if self.mu0 > 0:
            # the one-sided tangent just below the zero point, where the
            # groups of largest polar term join x = 0 (the first homotopy
            # segment); its D is read at tau a hair below t mu0
            mu = self.mu0 * (1.0 - 1e-9)
            v = t * (A.T @ b)
            p, D = gauge.prox_jacobian(v, t * mu)
            self.add(self.mu0, np.zeros(n),
                     self.solve(D, 0.0, self.M @ (p - D @ v) / mu))

    def solve(self, D, eps, rhs):
        """(M - M D M + eps I)^-1 rhs, by ``lstsq``: the regularized
        Newton matrix of ``_newton``."""
        MD = self.M @ D
        # lstsq, not solve: the LAPACK code of solve would add 0.3 MB to
        # the peak RSS of a process that has no other use for it
        return np.linalg.lstsq(self.M - MD @ self.M + eps * np.eye(len(D)),
                               rhs, rcond=None)[0]

    def corrected(self, mu, x, spent):
        """``_newton`` at mu from x, KKT-tested and recorded: the certified
        point, its tangent, r, the KKT residual and ``spent`` plus the
        steps taken; else ``_NotCertified``."""
        x, steps, why, dx = _newton(self.gauge, self.A, self.b, mu, x, self)
        if why is None:
            r, kkt = _kkt(self.gauge, self.A, self.b, x, mu, self.scale)
            if kkt <= EXACT_KKT_TOL:
                self.add(mu, x, dx)
                return x, dx, r, kkt, spent + steps
            why = f"KKT residual {kkt:.1e} at mu={mu:.3e}"
        raise _NotCertified(why, newton_iterations=spent + steps)

    def certified(self, mu, x_start=None):
        """The point at mu of Newton steps from ``x_start`` ("given"), else
        on the tangent of the recorded point nearest mu ("zero-point" or
        "predicted").  When they fail, the path is continued to mu from that
        point in at least two geometric steps in mu, each at most
        ``NEWTON_CONTINUATION`` times the last and started on the tangent
        of the point before ("continued")."""
        if mu < NEWTON_MU_FLOOR * self.mu0:
            # the rounding of z = A^T (b - A x) / mu alone exceeds 1e-9
            raise _NotCertified(f"mu={mu:.3e} below {NEWTON_MU_FLOOR:g} "
                                f"J°(A^T b): the KKT test cannot certify",
                                newton_iterations=0)
        x, _, mu_k = next(self.predictions(mu))
        start = "zero-point" if mu_k == self.mu0 else "predicted"
        if x_start is not None:
            x, start = np.array(x_start, dtype=float), "given"
        try:
            *point, spent = self.corrected(mu, x, 0)
        except _NotCertified as exc:
            spent, start = exc.spent["newton_iterations"], "continued"
            legs = max(2, math.ceil(abs(math.log(mu / mu_k))
                                    / math.log(NEWTON_CONTINUATION)))
            for j in range(1, legs + 1):
                mu_j = mu if j == legs else mu_k * (mu / mu_k) ** (j / legs)
                *point, spent = self.corrected(
                    mu_j, next(self.predictions(mu_j))[0], spent)
        return (*point, {"newton_iterations": spent, "start": start})


def _problem_record(gauge, A, b):
    """The ``_Path`` of (A, b) on the gauge: a ``_QpPath`` for a polyhedral
    kind, a ``_NewtonPath`` for a kind with ``prox_jacobian``, else None.
    It is the gauge's record when that holds this problem, else a new one,
    recorded in its place."""
    if gauge.is_polyhedral:
        kind = _QpPath
    elif type(gauge).prox_jacobian is not Gauge.prox_jacobian:
        kind = _NewtonPath
    else:
        return None
    key = _problem_key(A, b)
    return _TIKHONOV_RECORD.get(gauge, key) or \
        _TIKHONOV_RECORD.put(gauge, key, kind(gauge, A, b))


def _record(path, mu, r):
    """Append the solve (mu, r) to ``path``, asserting that the residual is
    monotone in mu against every earlier solve."""
    for mu2, r2 in path:
        inverted = (mu2 < mu and r2 > r + 1e-6 * max(1.0, r2)) or \
                   (mu2 > mu and r2 < r - 1e-6 * max(1.0, r))
        if inverted:
            raise ResidualMonotonicityError(
                f"residual not monotone in mu: ({mu2:.3e},{r2:.6e}) vs "
                f"({mu:.3e},{r:.6e})")
    path.append((mu, r))


def _kkt(gauge, A, b, x, mu, scale=1.0):
    """||A x - b|| and the KKT residual of x for the Tikhonov problem at
    mu: max(J°(z) - 1, |<z, x> - J(x)| / max(1, J(x))) for
    z = A^T (b - A x) / mu, so that x minimizes the objective when it is at
    most 0 (z then lies in ∂J(x)); the certified routes require
    ``EXACT_KKT_TOL``.  At mu = 0 z is not divided, and the terms are J°(z)
    and |<z, x>|, in units of ``scale``: x then minimizes ||A x - b|| over
    dom J.  Off dom J (J(x) = inf) the residual is inf: there the second
    term would be inf / inf = nan, which ``max`` drops.  The complementarity
    term is tested first: where it fails ``EXACT_KKT_TOL`` it is the
    residual returned, and J°(z), an LP for analysis_l1, is not read."""
    resid = A @ x - b
    z = -(A.T @ resid)
    J = float(gauge.value(x))
    if not math.isfinite(J):
        kkt = math.inf
    elif mu > 0:
        z = z / mu
        kkt = abs(float(z @ x) - J) / max(1.0, J)
        if not kkt > EXACT_KKT_TOL:
            kkt = max(gauge.polar(z) - 1.0, kkt)
    else:
        kkt = abs(float(z @ x))
        if not kkt / scale > EXACT_KKT_TOL:
            kkt = max(gauge.polar(z), kkt)
        kkt /= scale
    return _norm(resid), kkt


def _norm(v):
    """||v|| for a vector, as ``np.linalg.norm`` computes it (to the bit),
    without its dispatch."""
    return math.sqrt(float(v @ v))


def _certified_result(gauge, x, r, kkt, mu, iterations, note, info):
    """The SolveResult of a Tikhonov point that passed ``_kkt``."""
    logger.debug("tikhonov on %s: %s route%s, KKT residual %.1e",
                 gauge.kind, info["route"],
                 f" from the {info['start']} start" if "start" in info else "",
                 kkt)
    return SolveResult(point=x, value=0.5 * r * r + mu * float(gauge.value(x)),
                       status="optimal",
                       residuals={"optimality": max(kkt, 0.0),
                                  "data_misfit": r},
                       iterations=iterations, note=note,
                       info=dict({"fista_iterations": 0,
                                  "newton_iterations": 0}, **info,
                                 mu=float(mu)))


def solve_tikhonov(gauge, A, b, mu, x_start=None):
    """Minimize 0.5 ||Ax - b||^2 + mu J(x).

    Every route but FISTA returns a point only once it passes the KKT test
    of ``_kkt``: z = A^T (b - A x) / mu in ∂J(x), that is
    J°(z) <= 1 + 1e-9 and |<z, x> - J(x)| <= 1e-9 max(1, J(x)).  The
    routes, in order (``info["route"]``):

    * "zero": at mu >= J°(A^T b), x = 0, with no solve (∂J(0) is the
      polar unit ball, which then holds z = A^T b / mu);
    * "exact-qp", for a polyhedral gauge: a recorded point moved along its
      tangent, else one QP on the lift of ``Gauge.primal_lp``, polished on
      its active set (``_QpPath``); ``iterations`` counts QP solves, 0
      when a recorded point answered;
    * "newton", for a kind with ``Gauge.prox_jacobian``: semismooth Newton
      steps (``_newton``) from ``x_start`` or from the path
      (``_NewtonPath``); ``iterations`` counts them, and ``info["start"]``
      says where they began;
    * "fista": ``_fista``, for the other kinds and for a solve whose
      certified route failed or cannot certify (``info["fallback"]`` says
      why).

    ``info`` counts ``fista_iterations`` and ``newton_iterations`` on every
    route.

    The record holds one problem per gauge, the last (A, b) that
    ``solve_tikhonov`` or ``solve_mozorov`` solved on it; each certified
    solve adds its point and tangent.  The point returned is computed anew,
    and no returned array or list is the record's.
    """
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError("mu must be finite and positive")
    A, b = _shape(A, b)
    return _tikhonov(gauge, A, b, mu, x_start, _problem_record(gauge, A, b))[0]


def _tikhonov(gauge, A, b, mu, x_start, record):
    """``solve_tikhonov`` on shaped A and b at mu >= 0, with ``record`` the
    ``_problem_record`` of (A, b).  Returns the result and, on the exact-qp
    and newton routes, the tangent x'(mu) of its point (else None).  At
    mu = 0 the point minimizes ||A x - b|| over dom J: the QP's, or
    FISTA's, whose prox(., 0) is the projection onto dom J."""
    z = A.T @ b
    # <z, z> <= J(z) J°(z), so J°(z) is not read (an LP for analysis_l1)
    # where mu is below ||z||^2 / J(z)
    if mu * gauge.value(z) >= z @ z and mu >= gauge.polar(z):
        x = np.zeros(A.shape[1])
        r, kkt = _kkt(gauge, A, b, x, mu)
        if kkt <= EXACT_KKT_TOL:
            return _certified_result(gauge, x, r, kkt, mu, 0,
                                     "zero point: mu >= J°(A^T b)",
                                     {"route": "zero"}), None
    fallback = {}
    if record is not None:
        try:
            x, dx, r, kkt, spent = record.certified(mu, x_start)
            return _certified_result(
                gauge, x, r, kkt, mu, spent[record.counter], record.note,
                dict(spent, route=record.route, path=[(mu, r)])), dx
        except _NotCertified as exc:
            fallback = dict(exc.spent, fallback=str(exc))
            logger.debug("tikhonov on %s: FISTA route: %s", gauge.kind, exc)
    res = _fista(gauge, A, b, mu, x_start)
    res.info.update(fallback)
    return res, None


def _newton(gauge, A, b, mu, x, path):
    """Semismooth Newton on F(x) = x - prox_{t mu J}(x - t A^T (A x - b)),
    t = 0.95 / ||A||^2, whose zeros are the Tikhonov minimizers (Milzarek &
    Ulbrich 2014; Li, Sun & Toh 2018), from the start x; ``path`` is the
    ``_NewtonPath`` of (A, b), which holds t, M and J°(A^T b).

    With M = I - t A^T A and D from ``gauge.prox_jacobian``, each step
    solves (M - M D M + eps I) d = -M F, eps = 0.01 ||F|| / max(||x||,
    ||x - F||): M times the Newton system V d = -F, V = I - D M, made
    symmetric and, by eps, nonsingular where A is rank-deficient on the
    active groups.  M F is t times the gradient of the forward-backward
    envelope, whose minimizers are the Tikhonov minimizers for t < 1 /
    ||A||^2 (Patrinos & Bemporad 2013; Stella, Themelis & Patrinos 2017),
    and d descends on it.  The full step is taken when it halves the least
    ||F|| so far; otherwise the step length s is halved until the envelope
    falls by 1e-4 s times its slope along d.  Once ||F(x)|| <= 1e-10
    max(1, ||x||), the fixed-point test of ``_fista``, one more full step
    is taken, which brings ||F|| to its rounding floor where the path is
    ill-conditioned, and the solve stops at the first of x + d and x that
    passes ``_kkt`` (at neither, the steps go on).

    That last system has a second right-hand side, for the tangent x'(mu)
    of the solution path.  A gauge is positively homogeneous, so
    p(v, tau) = prox_{tau J}(v) = D v + tau dp/dtau (Euler), and
    differentiating x = p(x - t A^T (A x - b), t mu) in mu gives
    (I - D M) x' = (p - D v) / mu at v = x - t A^T (A x - b), p = x - F,
    solved as M times it, like d (the predictor of path following: Allgower
    & Georg 1990).

    Returns ``(x, steps, None, x')``, or ``(x, steps, reason, None)`` when
    the line search stalls or the steps run out."""
    t, M = path.t, path.M

    def evaluate(x):
        """(F(x), ||F(x)||, D, forward-backward envelope, v) at x."""
        r = A @ x - b
        grad = A.T @ r
        v = x - t * grad
        p, D = gauge.prox_jacobian(v, t * mu)
        F = x - p
        envelope = (0.5 * float(r @ r) - float(grad @ F)
                    + float(F @ F) / (2.0 * t) + mu * gauge.value(p))
        return F, _norm(F), D, envelope, v

    def solve(rhs):
        """The Newton matrix at the current x, solved for rhs."""
        return path.solve(D, 0.01 * nF / max(_norm(x), _norm(x - F), 1e-300),
                          rhs)

    F, nF, D, envelope, v = evaluate(x)
    least = nF
    for step in range(NEWTON_MAXITER + 1):
        if nF <= 1e-10 * max(1.0, _norm(x)):
            # the last full step and the tangent, on one matrix
            d, dx = solve(np.column_stack([-(M @ F),
                                           M @ (x - F - D @ v) / mu])).T
            for y, stepped in ((x + d, 1), (x, 0)):
                if _kkt(gauge, A, b, y, mu)[1] <= EXACT_KKT_TOL:
                    return y, step + stepped, None, dx
        if step == NEWTON_MAXITER:
            break
        MF = M @ F
        d = solve(-MF)
        slope = float(MF @ d) / t
        s = 1.0
        for k in range(NEWTON_BACKTRACKS):
            trial = evaluate(x + s * d)
            if ((k == 0 and trial[1] <= 0.5 * least)
                    or trial[3] <= envelope + 1e-4 * s * slope):
                break
            s *= 0.5
        else:
            return x, step, (f"Newton line search stalled at "
                             f"||F|| = {nF:.1e}"), None
        x = x + s * d
        F, nF, D, envelope, v = trial
        least = min(least, nF)
    return x, NEWTON_MAXITER, (f"no certified point in {NEWTON_MAXITER} "
                               f"Newton steps (||F|| = {nF:.1e})"), None


def _fista(gauge, A, b, mu, x_start=None):
    """Minimize 0.5 ||Ax - b||^2 + mu J(x) by accelerated proximal gradient.

    Fixed step 1/sigma_max(A)^2 with Nesterov momentum, restarted whenever
    the objective rises (needed because small mu makes the plain iteration
    crawl).  Stops once the relative objective decrease falls below 1e-12
    and the prox fixed-point residual below 1e-10 (scaled by max(1, ||x||)).
    The decrease is tested first; the fixed-point residual costs one more
    prox, so it is computed only on iterations that pass the first test.
    """
    smax = float(np.linalg.norm(A, 2))
    L = max(smax ** 2, 1e-300)
    x = np.zeros(A.shape[1]) if x_start is None else \
        np.asarray(x_start, dtype=float).copy()

    def obj(x):
        """(objective, residual A x - b) at x."""
        r = A @ x - b
        return (0.5 * float(np.add.reduce(r * r))
                + mu * float(gauge.value_batch(x[None])[0])), r

    F, r = obj(x)
    y = x.copy()
    x_prev = x
    tk = 1.0
    it = 0
    status = "maxiter"
    for it in range(1, SPLIT_MAXITER + 1):
        grad = A.T @ (A @ y - b)
        x_next = gauge.prox(y - grad / L, mu / L)
        F_next, r_next = obj(x_next)
        if F_next > F:
            # momentum overshot: restart from the last good iterate
            y = x.copy()
            tk = 1.0
            grad = A.T @ (A @ y - b)
            x_next = gauge.prox(y - grad / L, mu / L)
            F_next, r_next = obj(x_next)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
        y = x_next + ((tk - 1.0) / t_next) * (x_next - x)
        x_prev, x, tk, F_prev, F, r = x, x_next, t_next, F, F_next, r_next
        if not F_prev - F < 1e-12 * max(1.0, abs(F_prev)):
            continue
        # fixed-point residual of the unaccelerated map at x
        fp = float(np.linalg.norm(gauge.prox(x - (A.T @ r) / L, mu / L) - x))
        if fp < 1e-10 * max(1.0, float(np.linalg.norm(x))):
            status = "optimal"
            break
    step_move = float(np.linalg.norm(x - x_prev))
    return SolveResult(point=x, value=F, status=status,
                       residuals={"optimality": step_move,
                                  "data_misfit": float(np.linalg.norm(r))},
                       iterations=it,
                       info={"mu": float(mu), "route": "fista",
                             "fista_iterations": it, "newton_iterations": 0})


def solve_mozorov(gauge, A, b, delta):
    """Minimize J(x) subject to ||Ax - b|| <= delta.

    Finds the mu at which the Tikhonov residual r(mu) = ||A x(mu) - b||
    meets target = delta - 1e-6 / 2, the middle of the band.  delta = 0
    routes to the equality-constrained primal, and the point is 0 when
    ||b|| <= delta.

    One loop serves every kind.  Each step is one ``_tikhonov`` solve, on
    the route ``solve_tikhonov`` would take, and its certified steps read
    and add to the gauge's record of (A, b), as there.  The bracket's
    lower end is mu = 0: the least-squares point of a non-conic kind, or
    the solve at mu = 0 of a conic one (the least residual over dom J, the
    first entry of the path); a least residual above delta + 1e-6 makes the
    ball infeasible.  Its upper end starts at the zero point
    (J°(A^T b), ||b||), which needs no solve.  The next mu is the root of
    the last step's model when it lies inside the bracket, else the safe
    step mu_hi target / r_hi from the lowest step above the band, which
    never lands below the band's middle (see the module docstring).  After
    a certified step the model is the residual along its tangent,
    ||A (x + (mu' - mu) x') - b|| = target (``_tangent_root``); after a
    FISTA step, the secant through the last two steps on (log mu, log r),
    the first from the zero point.  A certified step starts from the path;
    only a step after a FISTA step is warm started, from its point.

    The loop stops once the highest step at or below delta lies within
    1e-6 of it (status 'optimal'), or after ``MOZOROV_MAXITER`` steps or
    when the next mu is one it solved at already ('maxiter'), and returns
    that step's point.  ``info["path"]`` holds the (mu, r) of every step in
    order, and residual monotonicity in mu is asserted on each; ``info``
    also holds mu and the residual, the summed ``qp_solves``,
    ``fista_iterations`` and ``newton_iterations`` of the steps, and the
    route (and any fallback reason and Newton start) of the returned step.
    """
    A, b = _shape(A, b)
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")
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
    record = _problem_record(gauge, A, b)
    path = []
    spent = dict.fromkeys(("qp_solves", "fista_iterations",
                           "newton_iterations"), 0)

    def step(mu, warm):
        sol, dx = _tikhonov(gauge, A, b, mu, warm, record)
        for key in spent:
            spent[key] += sol.info.get(key, 0)
        _record(path, mu, sol.residuals["data_misfit"])
        return sol, dx

    def info(sol, **extra):
        route = {k: sol.info[k] for k in ("route", "fallback", "start")
                 if k in sol.info}
        return dict(extra, **route, tikhonov_solves=len(path), path=path,
                    **spent)

    if gauge.is_conic:
        lo = step(0.0, None)[0]
    else:
        x = np.linalg.lstsq(A, b, rcond=None)[0]
        lo = SolveResult(point=x, value=math.nan, status="optimal",
                         residuals={"data_misfit":
                                    float(np.linalg.norm(A @ x - b))},
                         info={"mu": 0.0})
    r_lo = lo.residuals["data_misfit"]
    if r_lo > delta + MOZOROV_BAND:
        return SolveResult(point=None, value=math.nan, status="infeasible",
                           residuals={"feasibility": r_lo - delta},
                           iterations=len(path),
                           note="delta below the distance from b to A dom J",
                           info=info(lo))
    target = delta - 0.5 * MOZOROV_BAND
    mu_lo, mu_hi, r_hi = 0.0, gauge.polar(A.T @ b), float(np.linalg.norm(b))
    if not (math.isfinite(mu_hi) and mu_hi > 0):
        mu_hi = float(np.linalg.norm(A.T @ b)) + 1.0
    last, warm = (mu_hi, r_hi), None
    mu = mu_hi * target / r_hi
    while abs(r_lo - delta) > MOZOROV_BAND and len(path) < MOZOROV_MAXITER \
            and all(mu != mu_k for mu_k, _ in path):
        sol, dx = step(mu, warm)
        r = sol.residuals["data_misfit"]
        if r <= delta:
            mu_lo, lo, r_lo = mu, sol, r
        else:
            mu_hi, r_hi = mu, r
        root = (_log_secant(last, (mu, r), target) if dx is None
                else _tangent_root(A @ sol.point - b, A @ dx, mu, target))
        last = (mu, r)
        # a certified step starts from the path record instead
        warm = sol.point if sol.info["route"] == "fista" else None
        # r(mu) >= mu r_hi / mu_hi below mu_hi: r >= target at the safe step
        mu = root if mu_lo < root < mu_hi else mu_hi * target / r_hi
    discrepancy = abs(r_lo - delta)
    logger.debug("mozorov on %s: %d Tikhonov solves, %d QP solves",
                 gauge.kind, len(path), spent["qp_solves"])
    return SolveResult(point=lo.point, value=float(gauge.value(lo.point)),
                       status="optimal" if discrepancy <= MOZOROV_BAND
                       else "maxiter",
                       residuals={"feasibility": max(0.0, r_lo - delta),
                                  "discrepancy": discrepancy},
                       iterations=len(path), note=lo.note,
                       info=info(lo, mu=lo.info["mu"], residual=r_lo))


def _tangent_root(r0, r1, mu, target):
    """The larger mu' where ||r0 + (mu' - mu) r1|| = target, a root of a
    scalar quadratic: the residual along the tangent at mu, with
    r0 = A x - b and r1 = A x'(mu); nan when it has none."""
    aa, bb, cc = r1 @ r1, r0 @ r1, r0 @ r0 - target * target
    disc = bb * bb - aa * cc
    if not (aa > 0 and disc >= 0):
        return math.nan
    # the larger root, without cancellation
    return mu + float((-bb + math.sqrt(disc)) / aa if bb <= 0 else
                      -cc / (bb + math.sqrt(disc)))


def _log_secant(p, q, target):
    """The mu where the line through the solves p = (mu, r) and q, drawn in
    (log mu, log r), reaches r = target; nan when that line is undefined or
    flat."""
    (mu1, r1), (mu2, r2) = p, q
    # residuals that differ only in their last bits can have equal logs
    if min(r1, r2) <= 0.0 or math.log(r1) == math.log(r2):
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
