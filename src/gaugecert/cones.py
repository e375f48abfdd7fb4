"""Polyhedral/conic computation engine.

Everything the certification layer needs about cones lives here:

* ``lp_solve`` -- dense LPs solved by HiGHS's dual simplex through scipy's
  bundled binding ``scipy.optimize._highspy._core``: the model and options
  of scipy's ``highs-ds`` method, built without its per-call option checks,
  and each optimum re-verified by its KKT residual; LPs that share their
  rows and differ in cost go to HiGHS together as one block-diagonal LP.
  Each thread keeps one solver for all its LPs and QPs, and hands it the
  options and the model on every call; a new model clears the last one's
  basis, solution and status, so a solve returns the bits a fresh solver
  returns, whatever was solved (or failed) before it;
* ``qp_solve`` -- the same model with a Hessian, solved by HiGHS's
  active-set QP method (the polyhedral Tikhonov and Mozorov solves);
* ``negligible`` -- the one scale-free rule for numerical zero, which every
  support, tie, rank and kernel test reads; ``kernel_basis`` /
  ``range_basis`` / ``matrix_rank`` -- SVD-based subspace and rank tests,
  plus ``affine_solve`` and the eigenvalue search ``min_lambda_max`` of the
  certificate searches;
* ``ConeSpec`` -- a cone carried both as lifted inequalities (for exact LP
  work) and as a violation functional (for grid/subgradient probes);
  ``ConeSpec.on`` is the one membership rule, scaled by the cone's ``scale``;
* ``cone_trivial`` -- exact triviality test of ``cone ∩ span(K)`` by k + 1
  block LPs along a positive spanning set of span(K);
* ``sphere_min`` -- minimize a positively homogeneous convex function over
  the unit sphere of a subspace, with three engines (exact piecewise-linear,
  angular grid, multistart subgradient); exact-pl reads the sign of its
  minimum from ``min_norm_point`` (SciPy's NNLS on homogenized weights)
  and the rank of the pieces, and solves no LP;
* ``min_conic_singular`` -- minimum of ||Ah|| over a cone's unit sphere,
  exact on polyhedral cones by an active-set eigen search (``exact-active-set``,
  when the 2^r active sets of the r lifted rows are within ``VERTEX_CAP``),
  on one second-order constraint by meeting eigenvalue bounds
  (``exact-soc``), else by ``sphere_min``;
* ``nsp_constant`` -- the null-space-property constant by sign enumeration,
  the sign LPs solved as block LPs.

Cones and probe functions are batch-first: a ``ConeSpec`` holds one
``violation_batch`` and one ``violation_subgrad_batch``, and a probe
(``LinearMaxFn``, ``NormMapFn``, ``CallableFn``) one ``value_batch`` and one
``subgrad_batch``, each mapping a stack of directions (rows) to one value or
one subgradient row per direction.  The single-direction calls
(``violation``, ``violation_subgrad``, ``value``) are row 0 of the batch
ones, so the grid and multistart engines and the scalar checks read the
same numbers.

The multistart engine moves its restarts on the sphere in lockstep and
reads the probe's and the cone's subgradients once per step, so a step of a
spectral probe costs at most one decomposition, and none for nuclear tails
with a side of 1 or sdp kernel blocks of side <= 2, which the matrix gauges
solve in closed form; the gauges' critical cones read their violation
subgradients from one such call as well (``Gauge.dir_deriv_subgrad_batch``).
Its near-misses are pulled onto the cone together by ``_polish_to_cone``,
which bisects them in lockstep with one ``violation_batch`` call per step.

``min_lambda_max`` minimizes the largest eigenvalue of an affine family of
symmetric matrices by a primal-dual interior-point method, with a lower
bound from its dual iterate: the group, nuclear and sdp certificate
searches and the sdp Slater-point probe.
"""

import functools
import heapq
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls
from scipy.optimize._highspy import _core as _highs
from scipy.spatial import ConvexHull, QhullError

from . import config

__all__ = [
    "LpFailure",
    "LpResult",
    "lp_solve",
    "qp_solve",
    "negligible",
    "kernel_basis",
    "range_basis",
    "matrix_rank",
    "affine_solve",
    "LambdaMaxResult",
    "min_lambda_max",
    "ConeSpec",
    "cone_trivial",
    "min_norm_point",
    "SphereMinResult",
    "sphere_min",
    "LinearMaxFn",
    "NormMapFn",
    "CallableFn",
    "min_conic_singular",
    "nsp_constant",
    "EnumerationCapExceeded",
]


class LpFailure(RuntimeError):
    """The LP backend failed (numerical trouble, iteration cap, bad KKT)."""


class EnumerationCapExceeded(RuntimeError):
    """An enumeration (sign patterns, vertices) would exceed its cap."""


@dataclass
class LpResult:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    x: np.ndarray = None
    value: float = math.nan
    kkt_residual: float = math.nan
    #: multipliers of the equality rows: d(value) / d(b_eq)
    eq_marginals: np.ndarray = None


def _lp_rows(A, b, n, name):
    """Dense ``(rows, n)`` block and right-hand side of ``A x <= b`` or
    ``A x = b``; ``None`` is the empty block.  Shapes must match and data
    be finite, as scipy's ``highs-ds`` method requires (ValueError)."""
    if A is None:
        return np.zeros((0, n)), np.zeros(0)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    if A.size == 0:
        A = A.reshape(0, n)
    if A.shape != (b.size, n):
        raise ValueError(f"LP input: A_{name} must be ({b.size}, {n}) "
                         f"to match c and b_{name}, got {A.shape}")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError(f"LP input: A_{name} and b_{name} must be finite")
    return A, b


@functools.lru_cache(maxsize=8)
def _highs_options(maxiter, qp=False):
    """The options scipy's ``highs-ds`` method hands HiGHS, built once per
    iteration cap (scipy validates and builds them again for every LP); the
    cap binds ``qp_solve``'s QP iterations as well.  With ``qp``, the
    feasibility tolerances are HiGHS's defaults of 1e-7: HiGHS regularizes
    a QP by 1e-7 and checks its optimum against them, and at 1e-9 it calls
    some regularized optima a solve error.
    ``passOptions`` copies every option, so one object serves every solve,
    and a solve under one cap or kind leaves none of its options to the
    next solve on the same solver."""
    opts = _highs.HighsOptions()
    opts.presolve = "on"
    opts.solver = "simplex"
    opts.simplex_strategy = \
        _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.primal_feasibility_tolerance = 1e-7 if qp else 1e-9
    opts.dual_feasibility_tolerance = 1e-7 if qp else 1e-9
    opts.simplex_iteration_limit = maxiter
    opts.ipm_iteration_limit = maxiter
    opts.qp_iteration_limit = maxiter
    opts.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    opts.log_to_console = False
    opts.output_flag = False
    return opts


def _highs_lp(C, A_ub, b_ub, A_eq, b_eq, bounds):
    """Validate the costs, rows and bounds of ``lp_solve`` / ``qp_solve``
    for the (B, nvar) stack of costs ``C``, and build their HighsLp: B
    copies of the rows, copy i with cost ``C[i]``, as one block-diagonal
    model.

    Returns ``(lp, rows)``, ``rows`` holding the one block's dense
    ``A_ub, b_ub, A_eq, b_eq, lo, hi`` (missing bounds at +-inf)."""
    if not np.isfinite(C).all():
        raise ValueError("LP input: c must be finite")
    nblk, nvar = C.shape
    A_ub, b_ub = _lp_rows(A_ub, b_ub, nvar, "ub")
    A_eq, b_eq = _lp_rows(A_eq, b_eq, nvar, "eq")
    lo, hi = (np.full((2, nvar), math.nan) if bounds is None else
              np.array(bounds, dtype=float).reshape(nvar, 2).T)
    lo = np.where(np.isnan(lo), -_highs.kHighsInf, lo)
    hi = np.where(np.isnan(hi), _highs.kHighsInf, hi)

    # rows [A_ub; A_eq] column-wise with explicit zeros dropped, as
    # scipy's csc_array of the stacked rows; block i's entries are the
    # first block's, shifted by i blocks of rows and of nonzeros
    A = np.vstack((A_ub, A_eq))
    cols, rows = np.nonzero(A.T)
    nrow, shift = A.shape[0], np.arange(nblk)[:, None]
    start = np.cumsum(np.bincount(cols, minlength=nvar))
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = nblk * nvar
    lp.num_row_ = lp.a_matrix_.num_row_ = nblk * nrow
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.concatenate(([0], (start + rows.size * shift).ravel()))
    lp.a_matrix_.index_ = (rows + nrow * shift).ravel()
    lp.a_matrix_.value_ = np.tile(A[rows, cols], nblk)
    lp.col_cost_ = C.ravel()
    lp.col_lower_ = np.tile(lo, nblk)
    lp.col_upper_ = np.tile(hi, nblk)
    lp.row_lower_ = np.tile(np.concatenate(
        (np.full(b_ub.size, -_highs.kHighsInf), b_eq)), nblk)
    lp.row_upper_ = np.tile(np.concatenate((b_ub, b_eq)), nblk)
    return lp, (A_ub, b_ub, A_eq, b_eq, lo, hi)


#: this thread's HiGHS (``_thread.highs``), made on its first solve
_thread = threading.local()


def _highs_run(model, qp=False):
    """Solve ``model`` (a HighsLp, or a HighsModel with a Hessian) on this
    thread's HiGHS, made on first use and handed ``_highs_options`` and the
    model on every call.  ``passModel`` clears the solver's last model,
    basis, solution and status, so no solve reads its predecessor's.
    Returns the solver at an optimum, or the status 'infeasible' /
    'unbounded'; other statuses raise LpFailure."""
    highs = getattr(_thread, "highs", None)
    if highs is None:
        highs = _thread.highs = _highs._Highs()
    highs.passOptions(_highs_options(config.lp_maxiter(), qp))
    if highs.passModel(model) == _highs.HighsStatus.kError:
        return "infeasible"  # as scipy maps kModelError
    run_ok = highs.run() != _highs.HighsStatus.kError
    status = highs.getModelStatus()
    if status in (_highs.HighsModelStatus.kInfeasible,
                  _highs.HighsModelStatus.kModelError):
        return "infeasible"
    if status == _highs.HighsModelStatus.kUnbounded:
        return "unbounded"
    if status != _highs.HighsModelStatus.kOptimal or not run_ok:
        raise LpFailure(f"LP backend failure: "
                        f"{highs.modelStatusToString(status)}")
    return highs


def lp_solve(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None,
             blocks=None):
    """Solve ``min c @ x  s.t.  A_ub x <= b_ub, A_eq x = b_eq, bounds``.

    Variables are free by default (unlike the scipy default of x >= 0);
    a bound of None or +-inf is absent.  The model goes to HiGHS's dual
    simplex as scipy's ``highs-ds`` method builds it, on this thread's
    reused solver (``_highs_run``), which starts each model afresh: every
    optimum is the vertex that method returns.  Optimal
    solutions are re-verified: primal feasibility and the duality gap
    computed from the returned marginals must be finite and sit below 1e-8
    (scaled), otherwise LpFailure is raised.  Statuses other than
    optimal/infeasible/unbounded also raise; non-finite data raise
    ValueError.

    With ``blocks=B``, ``c`` is a (B, nvar) stack of costs and the other
    arguments describe one block: B independent copies of the LP, copy i
    minimizing ``c[i] @ x``, are solved as one block-diagonal model whose
    matrix tiles the block's.  ``x`` is then (B, nvar), ``value`` holds
    the B values ``c[i] @ x[i]`` and ``eq_marginals`` one row per block.
    The KKT test runs on the whole model: its duality gap is the sum of the
    blocks' gaps, each nonnegative, so it bounds every one of them.
    """
    C = np.asarray(c, dtype=float)
    if blocks is None:
        C = np.atleast_1d(C.squeeze())[None]
    if C.ndim != 2 or C.shape[0] != (blocks or 1) or C.size == 0:
        raise ValueError(f"LP input: c must be a nonempty vector, or one per "
                         f"block, got shape {np.shape(c)}")
    lp, (A_ub, b_ub, A_eq, b_eq, lo, hi) = _highs_lp(C, A_ub, b_ub, A_eq,
                                                     b_eq, bounds)
    highs = _highs_run(lp)
    if isinstance(highs, str):
        return LpResult(status=highs)
    nblk, nvar = C.shape
    nrow = b_ub.size + b_eq.size

    sol = highs.getSolution()
    X = np.array(sol.col_value).reshape(nblk, nvar)
    fun = highs.getInfo().objective_function_value
    row_dual = np.array(sol.row_dual).reshape(nblk, nrow)
    ineq_m, eq_m = row_dual[:, :b_ub.size], row_dual[:, b_ub.size:]
    # a bound's multiplier is the column dual where the column sits at it
    col_status = np.fromiter(map(int, highs.getBasis().col_status), int,
                             nblk * nvar)
    col_dual = np.array(sol.col_dual)
    lower_m = np.where(col_status == int(_highs.HighsBasisStatus.kLower),
                       col_dual, 0.0)
    upper_m = np.where(col_status == int(_highs.HighsBasisStatus.kUpper),
                       col_dual, 0.0)

    feas = max(0.0, max(float(np.max(np.concatenate((
        A_ub @ x - b_ub, np.abs(A_eq @ x - b_eq), lo - x, x - hi)))) for x in X))
    # duality gap from marginals (dual objective must meet the primal
    # value); the bound terms are added one by one, in column order
    lo_all, hi_all = np.tile(lo, nblk), np.tile(hi, nblk)
    bound_terms = np.column_stack((
        np.where(np.isfinite(lo_all), lo_all, 0.0) * lower_m,
        np.where(np.isfinite(hi_all), hi_all, 0.0) * upper_m))
    dual = float(np.tile(b_eq, nblk) @ eq_m.ravel()) + \
        float(np.tile(b_ub, nblk) @ ineq_m.ravel())
    dual = float(np.add.accumulate(np.append(dual, bound_terms))[-1])
    gap = abs(dual - fun)
    scale = max(1.0, float(np.max(np.abs(C))),
                float(np.max(np.abs(b_ub), initial=0.0)),
                float(np.max(np.abs(b_eq), initial=0.0)), abs(fun))
    kkt = max(feas, gap) / scale
    # max() drops a NaN argument, so a non-finite x or gap is tested apart
    if not (kkt <= 1e-8 and np.isfinite(X).all() and math.isfinite(gap)):
        raise LpFailure(f"LP KKT verification failed: residual {kkt:.3e}")
    if blocks is None:
        return LpResult(status="optimal", x=X[0], value=float(fun),
                        kkt_residual=kkt, eq_marginals=eq_m[0].copy())
    return LpResult(status="optimal", x=X, value=np.vecdot(C, X),
                    kkt_residual=kkt, eq_marginals=eq_m.copy())


def qp_solve(c, Q, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None):
    """Solve ``min 0.5 x @ Q @ x + c @ x`` over the rows and bounds of
    ``lp_solve``, for a symmetric positive semidefinite ``Q``.

    The model is ``lp_solve``'s HighsLp with Q's lower triangle as its
    HighsHessian, under the same options; HiGHS solves it by its
    active-set QP method.  That method does not scale the model: on l1
    lifts where one column of A was 1/40 of another, it called QPs that
    are bounded below unbounded, or reached its iteration cap.  A solve
    that ends other than optimal therefore runs again with each variable
    in units of its column's largest entry.  The first solve is unscaled:
    scaling every solve would move the optima of QPs HiGHS solves as
    given, by rounding.  Returns an ``LpResult`` with ``x`` and ``value``
    (no marginals, no KKT residual: the caller certifies the point).
    Statuses other than optimal/infeasible/unbounded raise LpFailure.
    """
    C = np.atleast_1d(np.asarray(c, dtype=float).squeeze())[None]
    n = C.shape[1]
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (n, n) or not np.isfinite(Q).all():
        raise ValueError(f"QP input: Q must be a finite ({n}, {n}) matrix, "
                         f"got shape {Q.shape}")
    A_ub, b_ub = _lp_rows(A_ub, b_ub, n, "ub")
    A_eq, b_eq = _lp_rows(A_eq, b_eq, n, "eq")
    bounds = (np.full((n, 2), math.nan) if bounds is None else
              np.array(bounds, dtype=float).reshape(n, 2))
    problem = C, Q, A_ub, b_ub, A_eq, b_eq, bounds
    try:
        res = _qp_run(*problem, np.ones(n))
    except LpFailure:
        res = None
    if res is None or res.status != "optimal":
        s = np.max(np.abs(np.vstack((A_ub, A_eq))), axis=0, initial=0.0)
        res = _qp_run(*problem, 1.0 / np.where(s > 0.0, s, 1.0))
    return res


def _qp_run(C, Q, A_ub, b_ub, A_eq, b_eq, bounds, s):
    """One HiGHS solve of ``qp_solve``'s problem in the variables x / s."""
    model = _highs.HighsModel()
    model.lp_, _ = _highs_lp(C * s, A_ub * s, b_ub, A_eq * s, b_eq,
                             bounds / s[:, None])
    Q = Q * np.outer(s, s)
    cols, rows = np.nonzero(np.tril(Q).T)
    hess = _highs.HighsHessian()
    hess.dim_ = Q.shape[0]
    hess.format_ = _highs.HessianFormat.kTriangular
    hess.start_ = np.concatenate(([0], np.cumsum(
        np.bincount(cols, minlength=Q.shape[0]))))
    hess.index_ = rows
    hess.value_ = Q[rows, cols]
    model.hessian_ = hess
    highs = _highs_run(model, qp=True)
    if isinstance(highs, str):
        return LpResult(status=highs)
    return LpResult(status="optimal",
                    x=s * np.array(highs.getSolution().col_value),
                    value=float(highs.getInfo().objective_function_value))


def negligible(v):
    """|v_i| <= RANK_TOL max |v|: the numerically zero entries of v (all of a
    zero v), alike for v and c v.  A caller that knows the unit of v appends
    it and drops its answer."""
    a = np.abs(np.asarray(v, dtype=float))
    return a <= config.RANK_TOL * a.max(initial=0.0)


def kernel_basis(A):
    """Orthonormal basis of Ker A as columns, shape (n, k).

    Rank counts the singular values that are not ``negligible``.  A zero or
    empty matrix yields the identity.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    if m == 0 or not np.any(A):
        return np.eye(n)
    _, s, vt = np.linalg.svd(A)
    rank = int(np.sum(~negligible(s)))
    K = vt[rank:].T
    if K.size:
        resid = float(np.max(np.abs(A @ K)))
        if resid > 1e-9 * max(1.0, s[0]):
            raise LpFailure(f"kernel basis residual {resid:.3e} too large")
    return K


def range_basis(A):
    """Orthonormal basis of Im A as columns of an (m, r) array (rank as in
    ``kernel_basis``)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    return u[:, ~negligible(s)]


def matrix_rank(M):
    """Numerical rank: the singular values that are not ``negligible``."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return int(np.sum(~negligible(np.linalg.svd(M, compute_uv=False))))


def affine_solve(C, d):
    """Least-squares solution of C y = d plus a basis of Ker C.

    Returns (y_p, N, resid); a resid above tolerance means infeasible.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    d = np.asarray(d, dtype=float)
    if C.shape[0] == 0:
        return np.zeros(C.shape[1]), np.eye(C.shape[1]), 0.0
    y_p, *_ = np.linalg.lstsq(C, d, rcond=None)
    resid = float(np.linalg.norm(C @ y_p - d))
    return y_p, kernel_basis(C), resid


#: ``min_lambda_max`` closes its gap at this many units of the pencil's
#: scale, and steps on to ``_GAP_STOP`` of them, for at most ``_IPM_STEPS``
GAP_TOL, _GAP_STOP, _IPM_STEPS = 1e-9, 1e-10, 50


@dataclass
class LambdaMaxResult:
    """``min_lambda_max``'s point t, lambda_max at t, a lower bound on its
    minimum (-inf: none read), its steps, and whether its gap closed."""

    t: np.ndarray
    upper: float
    lower: float
    iters: int
    certified: bool


def min_lambda_max(M0, Ms, stop=-math.inf):
    """Minimize lambda_max(M0 + sum_i t_i M_i) over t, for symmetric d x d
    M0 and a stack Ms, by the primal-dual interior-point method of Helmberg,
    Rendl, Vanderbei & Wolkowicz (1996): HKM direction, Mehrotra's
    predictor-corrector, on min z s.t. S = z I - M0 - sum_j tau_j B_j >= 0
    and its dual max <M0, W> s.t. tr W = 1, <B_j, W> = 0, W >= 0.

    B is a Frobenius-orthonormal basis of span(M_i) (t = R tau), so neither
    the scale nor the rotation of t matters.  Each iterate tau is a point,
    and the one with the least lambda_max is returned.  The primal iterate,
    projected onto the equations of W, gives the lower bound <M0, W>; where
    rounding leaves the projection indefinite, it is mixed with the most
    interior one seen.  Step lengths come from eigenvalues, and an iterate
    that is not definite, or a failed factorization, ends the iteration.
    The scale is the largest |entry| of M0 (that of the M_i is the
    parametrization's).

    The iteration also stops below ``stop``, and below lambda_min(M0),
    which no <M0, W> undercuts: the family is then unbounded below, and the
    point is pulled back along its ray from t = 0 to one scale below
    lambda_min(M0), 0 and ``stop``.  A span that holds the identity is
    unbounded along it, and goes there at once.
    """
    M0 = np.asarray(M0, dtype=float)
    d = len(M0)
    Ms = np.asarray(Ms, dtype=float).reshape(-1, d * d)
    scale, w0 = float(np.abs(M0).max()), np.linalg.eigvalsh(M0)
    U, s, Vt = np.linalg.svd(Ms.T, full_matrices=False) if len(Ms) else \
        (np.zeros((d * d, 0)), np.zeros(0), np.zeros((0, 0)))
    keep = ~negligible(s)
    B = U[:, keep].T.reshape(-1, d, d)
    B = 0.5 * (B + np.swapaxes(B, 1, 2))
    R, trB = Vt[keep].T / s[keep], np.trace(B, axis1=1, axis2=2)

    def result(tau, upper, lower, iters):
        return LambdaMaxResult(R @ tau, float(upper), float(lower), iters,
                               upper - lower <= GAP_TOL * scale)

    def step(w, V, D, frac):  # to the boundary of the PSD cone, by eigenvalues
        low = np.linalg.eigvalsh((V / np.sqrt(w)).T @ D @ (V / np.sqrt(w)))[0]
        return 1.0 if low >= -frac else -frac / low

    if not len(B):
        return result(np.zeros(0), w0[-1], w0[-1], 0)
    if w0[-1] < stop:
        return result(np.zeros(len(B)), w0[-1], -math.inf, 0)
    # one scale below lambda_min(M0), 0 and stop: where an unbounded search ends
    bottom = min(w0[0], 0.0, stop if math.isfinite(stop) else 0.0) - (scale or 1.0)
    if negligible([d, d - trB @ trB])[1]:  # I = sum_j tr(B_j) B_j
        return result((bottom - w0[-1]) * trB, bottom, -math.inf, 0)
    floor = max(stop, w0[0] - _GAP_STOP * scale)
    F = np.concatenate([np.eye(d)[None], B])  # the equations of W
    gram, e0 = np.einsum("iab,jab->ij", F, F), np.eye(len(F))[0]
    z, tau, X = w0[-1] + (np.abs(w0).max() or 1.0), np.zeros(len(B)), np.eye(d) / d
    best, lower, anchor, iters = (tau, w0[-1]), -math.inf, (0.0, 0.0), 0
    try:
        while True:
            S = z * np.eye(d) - M0 - np.tensordot(tau, B, 1)
            (wS, VS), (wX, VX) = np.linalg.eigh(S), np.linalg.eigh(X)
            if not (wS[0] > 0.0 and wX[0] > 0.0):
                break
            if z - wS[0] < best[1]:
                best = (tau, z - wS[0])
            W = X + np.tensordot(np.linalg.solve(
                gram, e0 - np.einsum("iab,ab->i", F, X)), F, 1)
            low, val = np.linalg.eigvalsh(W)[0], float(np.sum(M0 * W))
            if low > anchor[1]:
                anchor = (val, low)
            if anchor[1] > 0.0:  # W mixed with the most interior W seen is PSD
                theta = max(-low, 0.0) / anchor[1]
                lower = max(lower, (val + theta * anchor[0]) / (1.0 + theta))
            if (best[1] < floor or best[1] - lower <= _GAP_STOP * scale
                    or iters == _IPM_STEPS):
                break
            iters += 1
            Si, mu = (VS / wS) @ VS.T, float(np.sum(X * S)) / d
            G = np.einsum("iab,jab->ij", F, X @ F @ Si)

            def direction(target, C):
                # dS = sum_j v_j F_j, dX = sym(target S^-1 - X - X dS S^-1 - C)
                v = np.linalg.solve(G, np.einsum("iab,ab->i", F, target * Si - C) - e0)
                dS = np.tensordot(v, F, 1)
                dX = target * Si - X - X @ dS @ Si - C
                return v, dS, 0.5 * (dX + dX.T)

            v, dS, dX = direction(0.0, 0.0)
            ap, ad = step(wX, VX, dX, 1.0), step(wS, VS, dS, 1.0)
            sigma = min(1.0, (np.sum((X + ap * dX) * (S + ad * dS)) / (d * mu)) ** 3)
            v, dS, dX = direction(sigma * mu, dX @ dS @ Si)
            ad = step(wS, VS, dS, 0.95)
            X, z, tau = X + step(wX, VX, dX, 0.95) * dX, z + ad * v[0], tau - ad * v[1:]
    except np.linalg.LinAlgError:
        pass
    if best[1] < bottom:  # back along the ray from 0, where lambda_max is convex
        tau = best[0] * (w0[-1] - bottom) / (w0[-1] - best[1])
        best = (tau, np.linalg.eigvalsh(M0 + np.tensordot(tau, B, 1))[-1])
    return result(*best, lower, iters)


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

#: a unit direction lies on a cone when its violation is at most this many
#: of the cone's units (``ConeSpec.scale``)
ON_CONE_TOL = 1e-11


@dataclass
class ConeSpec:
    """A closed convex cone {h : exists u, G_h h + G_u u <= 0}.

    Non-polyhedral cones leave ``G_h`` as None and are described only by
    their violation functional (convex, positively homogeneous, zero exactly
    on the cone).  The cone stores that functional batch-first:
    ``violation_batch(H)`` gives one violation per row of H, and
    ``violation_subgrad_batch(H)`` one subgradient row per row of H (zeros
    where the violation is zero; None when the cone offers none).  The
    single-direction ``violation(h)`` and ``violation_subgrad(h)`` are row 0
    of these.  ``anchor`` is an optional strictly feasible direction used to
    polish near-boundary probe points.  A non-polyhedral cone that is one
    second-order constraint {h : <b, h> + ||W h|| <= 0} carries ``soc`` =
    (b, W), which ``min_conic_singular`` solves by an eigenvalue search.
    ``scale`` is the unit of the violation: the largest |entry| of a lift's
    rows (``from_lift``; its violation is J', so J and c J answer alike),
    else 1.  ``on``, a violation of at most ``ON_CONE_TOL`` times ``scale``,
    is the one membership rule.
    """

    n: int
    G_h: np.ndarray = None
    G_u: np.ndarray = None
    violation_batch: callable = None
    violation_subgrad_batch: callable = None
    anchor: np.ndarray = None
    note: str = ""
    soc: tuple = None
    scale: float = 1.0

    @property
    def is_polyhedral(self):
        return self.G_h is not None

    def on(self, H, tol=ON_CONE_TOL):
        """Which rows of H (or the one direction H) lie on the cone: a
        violation of at most ``tol`` times ``scale``."""
        return self.violation_batch(np.atleast_2d(H)) <= tol * self.scale

    def violation(self, h):
        return float(self.violation_batch(_row(h))[0])

    def violation_subgrad(self, h):
        return self.violation_subgrad_batch(_row(h))[0]

    @staticmethod
    def from_rows(G, anchor=None, note=""):
        """Pure inequality description {h : G h <= 0}."""
        G = np.atleast_2d(np.asarray(G, dtype=float))

        def violation_batch(H):
            # a column fold: the same maximum as max(axis=1, initial=0.0),
            # several times faster on the few columns of a cone
            V = np.atleast_2d(H) @ G.T
            out = np.zeros(V.shape[0])
            for j in range(V.shape[1]):
                np.maximum(out, V[:, j], out=out)
            return out

        def violation_subgrad_batch(H):
            V = np.atleast_2d(H) @ G.T
            out = np.zeros((V.shape[0], G.shape[1]))
            if G.shape[0]:
                hit = V.max(axis=1) > 0.0
                out[hit] = G[V[hit].argmax(axis=1)]
            return out

        return ConeSpec(n=G.shape[1], G_h=G, G_u=np.zeros((G.shape[0], 0)),
                        violation_batch=violation_batch,
                        violation_subgrad_batch=violation_subgrad_batch,
                        anchor=anchor, note=note)

    @staticmethod
    def from_lift(G_h, G_u, violation_batch, violation_subgrad_batch=None,
                  anchor=None, note=""):
        G_h = np.atleast_2d(np.asarray(G_h, dtype=float))
        G_u = np.atleast_2d(np.asarray(G_u, dtype=float))
        scale = max(np.abs(G_h).max(initial=0.0), np.abs(G_u).max(initial=0.0))
        return ConeSpec(n=G_h.shape[1], G_h=G_h, G_u=G_u,
                        violation_batch=violation_batch,
                        violation_subgrad_batch=violation_subgrad_batch,
                        anchor=anchor, note=note, scale=float(scale))

    @staticmethod
    def from_violation(n, violation_batch, violation_subgrad_batch=None,
                       anchor=None, note="", soc=None):
        return ConeSpec(n=n, violation_batch=violation_batch,
                        violation_subgrad_batch=violation_subgrad_batch,
                        anchor=anchor, note=note, soc=soc)


def _row(h):
    """A single direction as a one-row stack."""
    return np.asarray(h, dtype=float).reshape(1, -1)


#: a cone_trivial gain at or below this counts as zero
TRIVIAL_TOL = 1e-9
#: most blocks in one block LP.  HiGHS's time grows faster than the model:
#: nsp_constant at n = 20, m = 8, |I| = 12 (2048 sign LPs, 2-core Xeon) took
#: 8.6 s as one block LP (over the default iteration cap), 2.8 s as 2048
#: LPs, and 1.8-2.2 s as block LPs of 8 blocks (2.2-2.7 s at 4 or 64)
LP_BLOCKS = 8


def _block_optima(costs, caller, **lp):
    """Optima (x rows, values) of min costs[i] @ x over one feasible set, for
    every row of ``costs``, solved ``LP_BLOCKS`` rows to a block LP."""
    X, values = [], []
    for lo in range(0, costs.shape[0], LP_BLOCKS):
        group = costs[lo:lo + LP_BLOCKS]
        res = lp_solve(group, blocks=group.shape[0], **lp)
        if res.status != "optimal":
            raise LpFailure(f"{caller} LP status {res.status}")
        X.append(res.x)
        values.append(res.value)
    return np.vstack(X), np.concatenate(values)


def cone_trivial(cone, K):
    """Exact test whether ``cone ∩ span(K) = {0}``.

    Requires a polyhedral cone.  The k + 1 directions e_1, ..., e_k and
    -(e_1 + ... + e_k) positively span R^k, so every nonzero t of the section
    {t : exists u, G_h K t + G_u u <= 0} has a positive gain <v, t> along
    one of them.  For each v, one block of a block LP (``_block_optima``)
    maximizes the gain over the section and the unit box |t| <= 1; the
    section is trivial iff no gain exceeds ``TRIVIAL_TOL``.

    Returns ``(trivial, witness)``; when nontrivial the witness is the unit
    direction K t of the block with the largest gain.
    """
    if not cone.is_polyhedral:
        raise ValueError("cone_trivial needs a polyhedral (lifted) cone")
    K = np.atleast_2d(np.asarray(K, dtype=float))
    if K.ndim == 1:
        K = K[:, None]
    k = K.shape[1]
    if k == 0:
        return True, None
    GK = cone.G_h @ K
    q = cone.G_u.shape[1]
    A_ub = np.hstack([GK, cone.G_u]) if q else GK
    bounds = [(-1.0, 1.0)] * k + [(None, None)] * q
    # minimize -<v, t> for v = e_1, ..., e_k, -(e_1 + ... + e_k)
    costs = np.zeros((k + 1, k + q))
    costs[:k, :k] = -np.eye(k)
    costs[k, :k] = 1.0
    T, values = _block_optima(costs, "cone_trivial", A_ub=A_ub,
                              b_ub=np.zeros(GK.shape[0]), bounds=bounds)
    best = int(np.argmin(values))
    if -values[best] <= TRIVIAL_TOL:
        return True, None
    h = K @ T[best, :k]
    return False, h / np.linalg.norm(h)


def min_norm_point(P):
    """Minimum-norm point of conv(rows of P), by NNLS on the homogenized
    system (Lawson & Hanson 1974).

    mu >= 0 minimizes ||P^T mu||^2 + (1 - sum(mu))^2, and the point is
    P^T mu / sum(mu).  Along mu = t lam, lam convex weights, that residual is
    t^2 ||P^T lam||^2 + (1 - t)^2, whose minimum over t, a / (1 + a) with
    a = ||P^T lam||^2, grows with ||P^T lam||: so the NNLS optimum is a
    multiple of the convex weights of the minimum-norm point.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    E = np.vstack([P.T, np.ones(P.shape[0])])
    mu, _ = nnls(E, np.eye(E.shape[0])[-1])
    return P.T @ mu / mu.sum()


# ---------------------------------------------------------------------------
# sphere minimization
# ---------------------------------------------------------------------------

@dataclass
class SphereMinResult:
    value: float
    minimizer: np.ndarray
    engine: str
    certified: bool
    evals: int = 0
    note: str = ""


class _Probe:
    """The sphere-probe protocol, batch-first: ``value_batch(H)`` gives one
    value and ``subgrad_batch(H)`` one subgradient row per row of H, and
    ``pieces()`` the linear pieces of a piecewise-linear f (else None).
    ``value(h)`` is row 0 of ``value_batch``."""

    def value(self, h):
        return float(self.value_batch(_row(h))[0])

    def pieces(self):
        return None


class LinearMaxFn(_Probe):
    """f(h) = max_i <z_i, h> given the rows z_i."""

    def __init__(self, Z):
        self.Z = np.atleast_2d(np.asarray(Z, dtype=float))

    def value_batch(self, H):
        return _chunked_max(H, self.Z)

    def subgrad_batch(self, H):
        return self.Z[np.argmax(np.atleast_2d(H) @ self.Z.T, axis=1)]

    def pieces(self):
        return self.Z


class NormMapFn(_Probe):
    """f(h) = ||A h||_2."""

    def __init__(self, A):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))

    def value_batch(self, H):
        R = np.atleast_2d(H) @ self.A.T
        return np.sqrt(np.vecdot(R, R))

    def subgrad_batch(self, H):
        R = np.atleast_2d(H) @ self.A.T
        nr = np.maximum(np.linalg.norm(R, axis=1, keepdims=True), 1e-15)
        return (R / nr) @ self.A


class CallableFn(_Probe):
    """Adapter wrapping batch closures into the sphere-probe protocol."""

    def __init__(self, value_batch, subgrad_batch):
        self._value_batch = value_batch
        self._subgrad_batch = subgrad_batch

    def value_batch(self, H):
        return np.asarray(self._value_batch(H), dtype=float)

    def subgrad_batch(self, H):
        return np.asarray(self._subgrad_batch(H), dtype=float)


def _chunked_max(H, Z):
    H = np.atleast_2d(np.asarray(H, dtype=float))
    out = np.empty(H.shape[0])
    step = max(1, int(4e6 / max(1, Z.shape[0])))
    for lo in range(0, H.shape[0], step):
        hi = min(H.shape[0], lo + step)
        out[lo:hi] = (H[lo:hi] @ Z.T).max(axis=1)
    return out


def sphere_min(f, K, cone=None):
    """Minimize a convex positively homogeneous f over the unit sphere of
    span(K), optionally restricted to a cone.

    Engine choice: the exact piecewise-linear engine (``_exact_pl``, no LP)
    when f exposes its linear pieces and there is no cone restriction; the
    angular grid (certified) when the subspace dimension is at most 3;
    multistart subgradient descent (heuristic, labeled,
    ``config.probe_restarts()`` starts) otherwise.  Both probes test cone
    membership by ``cone.on``.

    Memory: the grid's first 3-D stage scores 1,236,377 directions.  It
    keeps two float64 scores per direction (about 20 MB) and maps the
    directions through f and the cone ``GRID_BLOCK`` at a time, so f and the
    cone see at most that many rows per call; a warm 3-D call peaks near
    30 MB.  The other engines hold O(restarts + pieces) rows.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim == 1:
        K = K[:, None]
    k = K.shape[1]
    if k == 0:
        raise ValueError("sphere_min over a zero-dimensional subspace")
    pieces = f.pieces()
    if pieces is not None and cone is None:
        return _exact_pl(f, pieces, K)
    if k <= 3:
        return _angular_grid(f, K, cone)
    return _multistart(f, K, cone)


def _finish(f, h, engine, certified, evals, note=""):
    # the value is f at the reported minimizer, so value and point agree
    return SphereMinResult(value=float(f.value(h)), minimizer=h, engine=engine,
                           certified=certified, evals=evals, note=note)


def _no_minimizer(engine, certified, evals, note):
    """The end of a probe that found no direction: the value +inf."""
    return SphereMinResult(value=math.inf, minimizer=None, engine=engine,
                           certified=certified, evals=evals, note=note)


def _exact_pl(f, Z, K):
    """Exact minimum of max_i <z_i, h> over the unit sphere of span(K).

    Writes the problem in subspace coordinates t (h = K t, C = Z K) and
    splits on the sign of the minimum, read from the minimum-norm point p of
    E = conv(C):

    * p not ``negligible`` beside max |C|  =>  0 lies outside E and the
      minimum is -||p||, attained at -p / ||p||;
    * else the minimum is 0 when C has rank below k, at a direction of
      Ker C, and otherwise the smallest facet distance of the
      full-dimensional E from the origin (convex hull).
    """
    C = np.atleast_2d(Z @ K)
    k = K.shape[1]
    if k == 1:
        vplus = float(np.max(C[:, 0]))
        vminus = float(np.max(-C[:, 0]))
        if vplus <= vminus:
            return _finish(f, K[:, 0].copy(), "exact-pl", True, 2)
        return _finish(f, -K[:, 0], "exact-pl", True, 2)

    p = min_norm_point(C)
    if not np.all(negligible(np.append(p, np.abs(C).max()))[:-1]):
        return _finish(f, K @ (-p / np.linalg.norm(p)), "exact-pl", True, 0)
    if matrix_rank(C) < k:
        return _finish(f, K @ kernel_basis(C)[:, 0], "exact-pl", True, 0)
    Cu = np.unique(np.round(C, 12), axis=0)
    joggled = False
    try:
        hull = ConvexHull(Cu)
    except QhullError:
        # near-degenerate pieces can fail qhull's topology checks; joggle
        # them, then refit the chosen facet's plane <n, c> = d (d may be 0)
        # through its pieces
        try:
            hull, joggled = ConvexHull(Cu, qhull_options="QJ"), True
        except QhullError as exc:
            raise LpFailure(f"convex hull failure in exact-pl: {exc}")
    offsets = hull.equations[:, -1]
    normals = hull.equations[:, :-1]
    i = int(np.argmin(-offsets))
    if joggled:
        n = np.linalg.svd(np.c_[Cu[hull.simplices[i]], -np.ones(k)])[2][-1, :k]
        normals[i] = n * np.sign(n @ normals[i])
    t = normals[i] / np.linalg.norm(normals[i])
    return _finish(f, K @ t, "exact-pl", True, 0)


#: most directions of one angular-grid block.  A stage is scored a block of
#: whole theta-rows at a time, so that the N x n image of its lattice is never
#: built: a 3-D stage keeps only its two length-N scores (``vals``, ``viol``)
GRID_BLOCK = 1 << 14


class _Lattice:
    """The directions of one angular-grid stage on S^{k-1} (k = 2 or 3),
    theta-major with phi fastest, kept as the sin/cos tables of the angle
    axes.  k = 2 has one angle phi over [0, 2 pi) (one point per row); k = 3
    has the polar angle theta over [0, pi] and the azimuth phi over
    [0, 2 pi), a row per theta.  A zoomed stage spans center +- span along
    each axis.  Direction i is column i of the lattice."""

    def __init__(self, k, res, center=None, span=None):
        if center is None:
            axes = [np.arange(0.0, 2 * np.pi, res)]
            if k == 3:
                axes.insert(0, np.arange(0.0, np.pi + res, res))
        else:
            axes = [np.arange(c - span, c + span + res, res) for c in center]
        ph = axes[-1]
        self.cos_ph, self.sin_ph = np.cos(ph), np.sin(ph)
        if k == 3:
            self.sin_th, self.cos_th = np.sin(axes[0]), np.cos(axes[0])
            self.row, self.size = ph.size, axes[0].size * ph.size
        else:
            self.row, self.size = 1, ph.size
        self.step = max(1, GRID_BLOCK // self.row) * self.row

    def block(self, lo):
        """Columns lo to lo + ``step`` of the lattice (lo a multiple of
        ``step``), built from the tables alone."""
        if self.row == 1:
            hi = lo + self.step
            return np.vstack([self.cos_ph[lo:hi], self.sin_ph[lo:hi]])
        rows = slice(lo // self.row, (lo + self.step) // self.row)
        s = self.sin_th[rows]
        return np.vstack([np.outer(s, self.cos_ph).ravel(),
                          np.outer(s, self.sin_ph).ravel(),
                          np.repeat(self.cos_th[rows], self.row)])

    def block_of(self, i):
        """(lo, block) of the block holding direction i."""
        lo = i - i % self.step
        return lo, self.block(lo)


def _grid_scores(f, K, cone, lat):
    """f and the cone violation (None without a cone) at every direction K t
    of the lattice, one block at a time."""
    vals = np.empty(lat.size)
    viol = None if cone is None else np.empty(lat.size)
    for lo in range(0, lat.size, lat.step):
        H = (K @ lat.block(lo)).T
        hi = lo + H.shape[0]
        vals[lo:hi] = f.value_batch(H)
        if viol is not None:
            viol[lo:hi] = cone.violation_batch(H)
    return vals, viol


def _angles_of(t):
    if t.size == 2:
        return np.array([math.atan2(t[1], t[0])])
    th = math.acos(min(1.0, max(-1.0, t[2])))
    ph = math.atan2(t[1], t[0])
    return np.array([th, ph])


def _angular_grid(f, K, cone):
    """Minimum of f over the unit sphere of span(K) (k <= 3 columns), on
    angular lattices.

    Stages:

    * k = 1 scores the two directions +-K.
    * k = 2, 3 first score the whole sphere, on a lattice of spacing
      ``GRID_RES`` (k = 2) or ``GRID_RES_3D`` (k = 3); each later stage
      scores a lattice 32 times finer (never below ``GRID_REFINE_RES``) over
      +-3 old spacings around the incumbent, and the stage at
      ``GRID_REFINE_RES`` is the last.  A stage is scored in blocks of
      ``GRID_BLOCK`` directions (``_Lattice``), and keeps one value and one
      cone violation per direction.
    * Band rule: with a cone, a direction counts as feasible in a stage of
      spacing res when its violation is within 2 res max(1, p75), p75 being
      the 75th percentile of the stage's violations (or within that band of
      the least violation, when no direction is).  The incumbent is the
      banded argmin of the current stage, not the best value seen so far.
    * End: an incumbent off the cone (not ``cone.on``) is pulled onto it by
      ``_polish_to_cone`` when that keeps its value (1e-5 relative); if not,
      a trivial polyhedral section certifies +inf; otherwise the point stays
      where it is, certified with a "thin section" note on a polyhedral cone
      (although it lies off the cone) and uncertified on any other.  An
      incumbent on the cone is zoomed by ``_angular_zoom``, which brings a
      kinked minimum from the lattice spacing to about 1e-12.

    ``certified`` is the grid's claim that the value, which is f at the
    returned direction, lies above the minimum by at most
    ``GRID_REFINE_RES`` times the Lipschitz constant of f: the last stage
    has that spacing around the incumbent.
    """
    k = K.shape[1]
    grid_res = config.GRID_RES if k <= 2 else config.GRID_RES_3D
    evals = 0
    if k == 1:
        H = (K @ np.array([[1.0, -1.0]])).T
        vals = f.value_batch(H)
        if cone is not None:
            feas = cone.on(H)
            if not np.any(feas):
                return _no_minimizer("angular-grid", True, 2,
                                     "no feasible direction")
            vals = np.where(feas, vals, np.inf)
        i = int(np.argmin(vals))
        return _finish(f, H[i], "angular-grid", True, 2)

    res = grid_res
    center = None
    span = None
    best_h = None
    best_t = None
    best_val = math.inf
    while True:
        lat = _Lattice(k, res, center, span)
        vals, viol = _grid_scores(f, K, cone, lat)
        evals += lat.size
        if cone is not None:
            vscale = max(1.0, float(np.percentile(viol, 75)))
            band = 2.0 * res * vscale
            ok = viol <= band
            if not np.any(ok):
                # cone too thin for this stage: chase the least-violating point
                ok = viol <= np.min(viol) + band
            vals = np.where(ok, vals, np.inf)
        i = int(np.argmin(vals))
        # the winner is taken from its own block, as it was scored
        lo, T = lat.block_of(i)
        if np.isfinite(vals[i]):
            # adopt the CURRENT stage's banded minimum: coarse stages use wide
            # cone bands whose minima undershoot, so cross-stage tracking of
            # the smallest value ever seen would freeze those artifacts in
            best_val = float(vals[i])
            best_h = (K @ T).T[i - lo]
            best_t = T[:, i - lo]
        center = _angles_of(T[:, i - lo] if best_t is None else best_t)
        span = 3.0 * res
        if res <= config.GRID_REFINE_RES:
            break
        res = max(config.GRID_REFINE_RES, res / 32.0)
    if best_h is None:
        if cone is not None:
            return _cone_fallback(f, K, cone, "angular-grid", evals)
        return _no_minimizer("angular-grid", True, evals,
                             "no finite value on grid")
    h = best_h
    note = ""
    certified = True
    if cone is not None and not cone.on(h)[0]:
        viol = cone.violation(h)
        # polishing must not drag the point away from the minimum (thin cones
        # can only be reached at the anchor itself, which is no minimizer)
        P, on_cone = _polish_to_cone(cone, h[None], K)
        if on_cone[0] and f.value(P[0]) <= best_val + 1e-5 * max(1.0, abs(best_val)):
            h = P[0]
            note = "boundary-polished"
        elif cone.is_polyhedral:
            trivial, _ = cone_trivial(cone, K)
            if trivial:
                return _no_minimizer("angular-grid", True, evals,
                                     "cone section trivial")
            note = f"thin section; minimizer within {viol:.1e} of the cone"
        else:
            certified = False
            note = f"minimizer within {viol:.1e} of the cone"
    if cone is None or cone.on(h)[0]:
        # the grid alone leaves an O(res) gap at kinked minima; close it so
        # sign decisions near zero are not hostage to the mesh
        h, _, zevals = _angular_zoom(f, K, cone, h, 4.0 * config.GRID_REFINE_RES)
        evals += zevals
    return _finish(f, h, "angular-grid", certified, evals, note)


def _angular_zoom(f, K, cone, h, width):
    """Local refinement of a feasible grid minimizer.

    Scans great circles through the incumbent along an orthonormal tangent
    frame in three sweeps, shrinking the angular window geometrically;
    infeasible samples are masked out, so the incumbent only ever moves to
    feasible improvements.  Brings kinked (V-shaped) minima from grid
    accuracy down to ~1e-12.
    """
    t = K.T @ h
    t /= np.linalg.norm(t)
    v = float(f.value(K @ t))
    evals = 1
    for _ in range(3):
        for _j in range(max(1, t.size - 1)):
            B = kernel_basis(t[None, :])
            if B.shape[1] == 0:
                break
            d = B[:, _j % B.shape[1]]
            w = width
            for _r in range(6):
                thetas = np.linspace(-w, w, 21)
                C = np.cos(thetas)[:, None] * t + np.sin(thetas)[:, None] * d
                Hc = C @ K.T
                vals = f.value_batch(Hc)
                evals += Hc.shape[0]
                if cone is not None:
                    vals = np.where(cone.on(Hc), vals, np.inf)
                i = int(np.argmin(vals))
                if np.isfinite(vals[i]) and vals[i] < v:
                    v = float(vals[i])
                    t = C[i] / np.linalg.norm(C[i])
                w /= 8.0
    return K @ t, v, evals


def _polish_to_cone(cone, H, K):
    """Pull near-feasible directions (rows of H) onto the cone along their
    segments to a strictly feasible anchor (requires cone.anchor), projected
    onto span(K) at every step so they never leave the probed subspace.
    All rows bisect in lockstep; returns the rows and which lie on the cone.
    """
    failed = (H, np.zeros(H.shape[0], dtype=bool))
    if cone.anchor is None:
        return failed
    a = cone.anchor / np.linalg.norm(cone.anchor)
    if cone.violation(a) > 0.0:
        return failed

    HK = H @ K @ K.T
    toward = a @ K @ K.T - HK

    def mix(s, tol):
        P = HK + s[:, None] * toward
        nc = np.linalg.norm(P, axis=1)
        live = nc > 1e-14
        P /= np.where(live, nc, 1.0)[:, None]
        return P, live & cone.on(P, tol)

    # bisect for the smallest feasible mixing weight: lo infeasible, hi feasible
    lo, hi = np.zeros(H.shape[0]), np.ones(H.shape[0])
    if not np.all(mix(hi, ON_CONE_TOL / 2)[1]):
        # the anchor leaves the subspace or its projection is infeasible
        return failed
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        feasible = mix(mid, ON_CONE_TOL / 2)[1]
        hi = np.where(feasible, mid, hi)
        lo = np.where(feasible, lo, mid)
    return mix(hi, ON_CONE_TOL)


def _cone_fallback(f, K, cone, engine, evals):
    """Honest endgame when the grid/descent never lands inside the cone.

    For polyhedral cones the section triviality is decidable exactly: a
    trivial section certifies the +inf minimum; otherwise the LP witness
    supplies a feasible direction whose value is an uncertified upper bound.
    """
    if cone.is_polyhedral:
        trivial, wit = cone_trivial(cone, K)
        if trivial:
            return _no_minimizer(engine, True, evals, "cone section trivial")
        return _finish(f, wit, engine, False, evals,
                       note="thin cone section; witness value only")
    return _no_minimizer(engine, False, evals, "no feasible direction resolved")


def _multistart(f, K, cone, seed=0):
    """Projected-subgradient descent on the sphere: all
    ``config.probe_restarts()`` restarts take up to 300 tangential steps of
    0.5 / sqrt(it) in lockstep, renormalized after each one; a restart whose
    tangent is below 1e-14 stays put, and the loop ends once all do."""
    restarts = config.probe_restarts()
    k = K.shape[1]
    rng = np.random.default_rng(seed)
    evals = 0
    T0 = rng.standard_normal((16, k))
    T0 /= np.linalg.norm(T0, axis=1, keepdims=True)
    fscale = max(1.0, float(np.median(np.abs(f.value_batch(T0 @ K.T)))))
    rho = 100.0 * fscale
    T = rng.standard_normal((restarts, k))
    T /= np.linalg.norm(T, axis=1, keepdims=True)

    def tangent(T):
        nonlocal evals
        H = T @ K.T
        G = f.subgrad_batch(H)
        evals += H.shape[0]
        if cone is not None and cone.violation_subgrad_batch is not None:
            G = G + rho * cone.violation_subgrad_batch(H)
        Gt = G @ K
        return Gt - (Gt * T).sum(axis=1, keepdims=True) * T

    for it in range(1, 301):
        G = tangent(T)
        gn = np.linalg.norm(G, axis=1, keepdims=True)
        live = gn[:, 0] >= 1e-14
        if not np.any(live):
            break
        T[live] -= (0.5 / math.sqrt(it)) * G[live] / gn[live]
        T /= np.linalg.norm(T, axis=1, keepdims=True)
    H = T @ K.T
    vals = f.value_batch(H)
    evals += H.shape[0]
    # polishing can only raise the value, so the near-misses worth it lie
    # below the best feasible value; then candidates go best value first
    on_cone = np.full(vals.size, True) if cone is None else cone.on(H)
    near = ~on_cone & np.isfinite(vals) & (
        vals <= vals[on_cone].min(initial=math.inf))
    polished = vals.copy()
    if np.any(near):
        H[near], on_cone[near] = _polish_to_cone(cone, H[near], K)
        polished[near] = f.value_batch(H[near])
    best_h, best_val = None, math.inf
    for i in np.argsort(vals):
        if not np.isfinite(vals[i]) or best_val <= vals[i]:
            break
        if on_cone[i] and polished[i] < best_val:
            best_val, best_h = float(polished[i]), H[i]
    if best_h is None:
        if cone is not None:
            return _cone_fallback(f, K, cone, "multistart-subgradient", evals)
        return _no_minimizer("multistart-subgradient", False, evals,
                             "no feasible point found")
    return _finish(f, best_h, "multistart-subgradient", False, evals,
                   note="heuristic")


def min_conic_singular(A, cone):
    """Minimum of ||A h|| over unit vectors of the cone.

    Exact and certified on two kinds of cone:

    * a polyhedral (lifted) cone whose r rows have 2^r <= ``VERTEX_CAP``
      active sets: the active-set eigen search ``_active_set_min``;
    * one second-order constraint (``cone.soc``): the eigenvalue bounds of
      ``_soc_min``, certified when they meet.

    Otherwise, and when the second-order bounds stay apart, it is
    ``sphere_min``: the angular grid (certified) in ambient dimension <= 3,
    else a labeled multistart probe.  The note says which route ran and why
    the exact ones did not.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    f = NormMapFn(A)
    skipped = ""
    if cone is not None and cone.is_polyhedral:
        r = cone.G_h.shape[0]
        if 2 ** r <= config.VERTEX_CAP:
            return _active_set_min(f, cone)
        skipped = f"2^{r} active sets exceed the cap {config.VERTEX_CAP}"
    elif cone is not None and cone.soc is not None:
        res = _soc_min(f, cone)
        if res.certified:
            return res
        skipped = res.note
    res = sphere_min(f, np.eye(A.shape[1]), cone=cone)
    res.note = "; ".join(filter(None, (skipped, res.note)))
    return res


def _soc_min(f, cone):
    """Minimum of f(h) = ||A h|| over the unit vectors of one second-order
    cone C = {h : <b, h> + ||W h|| <= 0}, (b, W) = ``cone.soc``, by two
    eigenvalue bounds (Ben-Tal & Teboulle 1996, hidden convexity; Polik &
    Terlaky 2007, the S-lemma).

    C lies in {h : h^T Q h <= 0}, Q = W^T W - b b^T, which is C u -C, and
    ||A h|| is even, so for every t >= 0 lambda(t) = lambda_min(A^T A + t Q)
    is a lower bound on alpha^2.  lambda is concave in t with slope v^T Q v
    at its bottom eigenvector v, so a bisection on the sign of that slope
    maximizes it.  The bottom eigenvector at the upper end of the bracket
    (slope <= 0), signed so that <b, v> <= 0, lies in C; after
    ``_polish_to_cone`` its ||A v|| is the upper bound (at a double bottom
    eigenvalue, so is that of a direction of span(v_lo, v), v_lo from the
    lower end, with h^T Q h = 0, when it is smaller).  Certified, with the
    upper bound as the value, when the bounds agree to 1e-8 max(1, ||A||_2);
    otherwise the result is uncertified and its note gives both bounds.
    """
    A = f.A
    b, W = cone.soc
    P, Q = A.T @ A, W.T @ W - np.outer(b, b)
    pn, qn = np.linalg.norm(P), np.linalg.norm(Q)
    evals = 0

    def bottom(t):
        nonlocal evals
        evals += 1
        w, V = np.linalg.eigh(P + t * Q)
        return float(w[0]), V[:, 0], float(V[:, 0] @ Q @ V[:, 0])

    best, v, slope = bottom(0.0)
    v_lo, bracketed = v, False
    if slope > 0.0:
        # bracket the maximum of lambda: slope > 0 at t_lo (v_lo), <= 0 at
        # t_hi (v), then bisect until P + t Q moves by no more than rounding
        # across the bracket (at most 200 steps)
        t_lo, t_hi = 0.0, 1.0
        for _ in range(64):
            lam, v, slope = bottom(t_hi)
            best = max(best, lam)
            if slope <= 0.0:
                bracketed = True
                break
            t_lo, t_hi, v_lo = t_hi, 2.0 * t_hi, v
        for _ in range(200 if bracketed else 0):
            if (t_hi - t_lo) * qn <= 1e-15 * (pn + t_hi * qn):
                break
            t = 0.5 * (t_lo + t_hi)
            lam, v_t, slope_t = bottom(t)
            best = max(best, lam)
            if slope_t > 0.0:
                t_lo, v_lo = t, v_t
            else:
                t_hi, v = t, v_t
    lo = math.sqrt(max(best, 0.0))
    H = np.zeros((0, cone.n))
    if slope <= 0.0:
        H = v[None]
    if bracketed:
        # a bottom eigenvalue that is multiple at the maximum splits v_lo
        # from v; its eigenspace then holds the directions of span(v_lo, v)
        # with h^T Q h = 0, which meet both bounds
        B = np.linalg.qr(np.column_stack([v_lo, v]))[0]
        mu, R = np.linalg.eigh(B.T @ Q @ B)
        if mu[0] <= 0.0 <= mu[1] and mu[0] < mu[1]:
            c = np.sqrt([mu[1], -mu[0]])
            H = np.vstack([H, (B @ R @ np.array([c, c * [1.0, -1.0]]).T).T])
    h = None
    if H.shape[0]:
        H = H / np.linalg.norm(H, axis=1, keepdims=True)
        H *= np.where(H @ b > 0.0, -1.0, 1.0)[:, None]
        on_cone = cone.on(H)
        if not np.all(on_cone):
            H[~on_cone], on_cone[~on_cone] = _polish_to_cone(
                cone, H[~on_cone], np.eye(cone.n))
        if np.any(on_cone):
            vals = np.where(on_cone, f.value_batch(H), np.inf)
            h = H[int(np.argmin(vals))]
    if h is None:
        return _no_minimizer("exact-soc", False, evals,
                             f"single second-order cone: lower bound "
                             f"{lo:.10g}, no cone direction to match it")
    hi = float(f.value(h))
    note = f"single second-order cone, bounds [{lo:.10g}, {hi:.10g}]"
    scale = max(1.0, float(np.linalg.norm(A, 2)))
    if hi - lo > 1e-8 * scale:
        return _finish(f, h, "exact-soc", False, evals, note + " too far apart")
    return _finish(f, h, "exact-soc", True, evals, note)


def _active_set_min(f, cone):
    """Exact minimum of f(h) = ||A h|| over the unit vectors of a polyhedral
    cone {h : exists u, M (h, u) <= 0}, M = [G_h | G_u] with r rows.

    For an active set I of rows, V_I is the h-projection of Ker M_I.  The
    minimizer (h, u) lies in the relative interior of the face of its own
    active set, so h is a local, hence global, minimizer of the Rayleigh
    quotient of A^T A on V_I.  alpha^2 is therefore the smallest
    lambda_min(V_I) whose bottom eigenspace E meets the cone (Seeger's
    cone-constrained eigenvalues).  A best-first branch and bound over I
    finds it: a child adds one row past max(I), so each subset comes once;
    its bound lambda_min(V_I) only grows with I; a node whose E meets the
    cone is a candidate and is not branched; the search stops once the
    smallest bound in the heap reaches the best candidate.  E meets the cone
    when +-v does for a basis vector v of E, else by ``cone_trivial``.  A
    node skips the test, but not its subtree, when its V_I was tested
    before or its lambda_min equals its parent's.
    """
    A = f.A
    n = cone.n
    M = np.hstack([cone.G_h, cone.G_u])
    r = M.shape[0]
    AtA = A.T @ A
    # eigenvalues this close to lambda_min belong to the bottom eigenspace
    etol = 1e-10 * max(1.0, float(np.linalg.norm(A, 2)) ** 2)
    evals = 0

    def node(I):
        """(lambda_min, bottom eigenspace E, key of V_I), or None if V_I = 0."""
        nonlocal evals
        evals += 1
        if I:
            _, s, vt = np.linalg.svd(M[list(I)])
            N = vt[int(np.sum(~negligible(s))):, :n]  # rows span V_I
            # N's rows are cut from unit vectors: 1 is its singular values' unit
            _, s, vt = np.linalg.svd(N, full_matrices=False)
            B = vt[~negligible(np.append(s, 1.0))[:-1]].T
        else:
            B = np.eye(n)
        if B.shape[1] == 0:
            return None
        w, U = np.linalg.eigh(B.T @ AtA @ B)
        key = (np.round(B @ B.T, 9) + 0.0).tobytes()
        return float(w[0]), B @ U[:, w <= w[0] + etol], key

    def meets_cone(E):
        """A unit direction of the cone in span(E), or None."""
        H = np.vstack([E.T, -E.T])
        ok = cone.on(H)
        if np.any(ok):
            return H[int(np.argmax(ok))]
        if E.shape[1] == 1:
            return None
        trivial, h = cone_trivial(cone, E)
        return None if trivial else h

    best_val, best_h = math.inf, None
    tested = {}  # key of V_I -> its cone direction or None
    heap, order = [], itertools.count()

    def push(I, parent_lam):
        nd = node(I)
        if nd is not None and nd[0] < best_val:
            heapq.heappush(heap, (nd[0], next(order), I, *nd[1:],
                                  nd[0] <= parent_lam + etol))

    push((), -math.inf)
    while heap and heap[0][0] < best_val:
        lam, _, I, E, key, inside_parent = heapq.heappop(heap)
        # at its parent's lambda_min, E lies in the parent's E, which
        # missed the cone (the parent was branched)
        if not inside_parent:
            if key not in tested:
                tested[key] = meets_cone(E)
            if tested[key] is not None:
                best_val, best_h = lam, tested[key]
                continue
        for j in range(I[-1] + 1 if I else 0, r):
            push(I + (j,), lam)
    note = "; ".join(filter(None, (cone.note, f"active sets visited: {evals}")))
    if best_h is None:
        return _no_minimizer("exact-active-set", True, evals,
                             "no feasible direction; " + note)
    return _finish(f, best_h, "exact-active-set", True, evals, note)


def nsp_constant(A, I):
    """Null-space-property constant max_{h in Ker A, h != 0} ||h_I||_1/||h||_1.

    Enumerates the sign patterns s on I: the LP for s maximizes <s, h_I>
    over the section ||h||_1 <= 1 of the kernel.  The section is symmetric,
    so s and -s give the same value and the sign of the last index of I
    stays fixed: 2^(|I|-1) LPs, which share their rows and go to HiGHS as
    block LPs (``_block_optima``).  Returns 0 for a trivial kernel.  Raises
    EnumerationCapExceeded when |I| exceeds ``config.NSP_CAP``.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[1]
    I = np.asarray(sorted(set(int(i) for i in I)), dtype=int)
    if I.size and (I.min() < 0 or I.max() >= n):
        raise ValueError("index set out of range")
    if I.size > config.NSP_CAP:
        raise EnumerationCapExceeded(
            f"|I| = {I.size} exceeds the enumeration cap {config.NSP_CAP}")
    K = kernel_basis(A)
    k = K.shape[1]
    if k == 0 or I.size == 0:
        return 0.0
    # variables (t, v): h = K t, |h| <= v, sum v <= 1
    A_ub = np.zeros((2 * n + 1, k + n))
    A_ub[:n, :k] = K
    A_ub[:n, k:] = -np.eye(n)
    A_ub[n:2 * n, :k] = -K
    A_ub[n:2 * n, k:] = -np.eye(n)
    A_ub[2 * n, k:] = 1.0
    b_ub = np.zeros(2 * n + 1)
    b_ub[2 * n] = 1.0
    bounds = [(None, None)] * k + [(0.0, None)] * n
    # pattern p has s_j = +1 where bit j of p is set; bit |I|-1 stays clear
    bits = np.arange(1 << (I.size - 1))[:, None] >> np.arange(I.size) & 1
    costs = np.zeros((bits.shape[0], k + n))
    costs[:, :k] = -(np.where(bits, 1.0, -1.0) @ K[I, :])
    _, values = _block_optima(costs, "nsp", A_ub=A_ub, b_ub=b_ub,
                              bounds=bounds)
    return float(min(max(0.0, -values.min()), 1.0))
