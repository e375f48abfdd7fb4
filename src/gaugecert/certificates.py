"""Uniqueness and sharpness certification for gauge-regularized problems.

Given min J(x) s.t. Ax = b0 with b0 := A x0, this module decides whether x0
is the unique solution and whether it is a *sharp* minimizer (linear growth
of J on the feasible set), and produces the witnessing objects: a dual
certificate y0 with A^T y0 in the relative interior of dJ(x0), the sharpness
constant kappa, and the minimum conic singular value alpha.

Two independent routes are always run and cross-checked:

* the range-space route -- an exact rank test of Im A^T against the affine
  hull of dJ(x0), plus a maximum-margin certificate search;
* the kernel route -- minimization of the directional derivative J'(x0; .)
  over the unit sphere of Ker A.

Whenever both routes produce certified verdicts they must agree; a certified
disagreement raises ``InternalDisagreementError`` (it would mean a bug, not a
hard instance).  Verdicts are the tri-state strings ``"Yes"``/``"No"``/
``"Unknown"``; Unknown is mandatory whenever only heuristic engines ran.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .cones import (CallableFn, ConeSpec, cone_trivial, kernel_basis, lp_solve,
                    matrix_rank, min_conic_singular, sphere_min)
from .gauges import (AnalysisL1Gauge, L1Gauge, NonnegL1Gauge, NuclearGauge,
                     SdpTraceGauge, SortedWeightedL1Gauge)
from .gauges.matrix import sym_basis

__all__ = [
    "YES",
    "NO",
    "UNKNOWN",
    "CertificateReport",
    "InternalDisagreementError",
    "find_dual_certificate",
    "check_sharp",
    "check_unique",
    "check_sharp_qp",
    "fuchs_check",
    "analysis_check",
    "wsl1_check",
    "nuclear_check",
    "nonneg_l1_check",
    "sdp_trace_check",
    "upper_lipschitz_probe",
]

YES = "Yes"
NO = "No"
UNKNOWN = "Unknown"


class InternalDisagreementError(RuntimeError):
    """Two certified tests of the same property returned opposite verdicts."""


@dataclass
class CertificateReport:
    """Outcome of a certification run.

    Attributes
    ----------
    is_sharp, is_unique : str
        Tri-state verdicts ("Yes" / "No" / "Unknown").
    kappa : float or None
        Sharpness constant: min of J'(x0; h) over unit kernel directions
        (+inf for a trivial kernel).
    alpha : float or None
        Minimum conic singular value: min ||Ah|| over unit directions of the
        critical cone (+inf when the cone is trivial).
    dual_certificate : ndarray or None
        y0 with A^T y0 in dJ(x0), at maximum relative-interior margin for
        the exactly solvable kinds.
    ri_margin : float or None
        Slack of A^T y0 inside dJ(x0); positive iff strictly interior.
    conditions_checked : list of (str, str, bool)
        (condition id, verdict, certified flag) per test that ran.
    notes : list of str
        Engine and provenance annotations.
    witness : ndarray or None
        A unit direction witnessing non-sharpness or non-uniqueness when one
        was found.
    kappa_certified, alpha_certified : bool
        Whether the reported kappa/alpha came from a certified engine.
    """

    is_sharp: str = UNKNOWN
    is_unique: str = UNKNOWN
    kappa: float = None
    alpha: float = None
    dual_certificate: np.ndarray = None
    ri_margin: float = None
    conditions_checked: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    witness: np.ndarray = None
    kappa_certified: bool = False
    alpha_certified: bool = False

    def to_dict(self):
        def _f(x):
            if x is None:
                return None
            if isinstance(x, np.ndarray):
                return x.tolist()
            return float(x)

        return {
            "is_sharp": self.is_sharp,
            "is_unique": self.is_unique,
            "kappa": _f(self.kappa),
            "alpha": _f(self.alpha),
            "dual_certificate": _f(self.dual_certificate),
            "ri_margin": _f(self.ri_margin),
            "conditions_checked": [
                [cid, verdict, bool(cert)]
                for cid, verdict, cert in self.conditions_checked
            ],
            "notes": list(self.notes),
            "kappa_certified": bool(self.kappa_certified),
            "alpha_certified": bool(self.alpha_certified),
        }


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------

def _complement(T, n):
    """Orthonormal basis of the orthogonal complement of col span(T) in R^n."""
    T = np.asarray(T, dtype=float)
    if T.size == 0:
        return np.eye(n)
    return kernel_basis(T.T)


def _through(batch, S, step=1 << 15):
    """``batch`` of the rows of T mapped through S, a slice at a time: the
    grid probes pass over a million rows, and the ambient images are wider."""
    def run(T):
        T = np.atleast_2d(T)
        return np.concatenate([batch(T[i:i + step] @ S.T)
                               for i in range(0, max(T.shape[0], 1), step)])
    return run


def _restrict(cone, S):
    """The cone {s : S s in cone} in the coordinates of the basis S."""
    if cone is None:
        return None
    sub = cone.violation_subgrad
    return ConeSpec.from_violation(
        S.shape[1], lambda s: cone.violation(S @ s),
        _through(cone.violation_batch, S),
        None if sub is None else (lambda s: S.T @ sub(S @ s)),
        anchor=None if cone.anchor is None else S.T @ cone.anchor,
        note=cone.note + " (subspace coordinates)")


# ---------------------------------------------------------------------------
# dual-certificate construction
# ---------------------------------------------------------------------------

def find_dual_certificate(gauge, A, x0):
    """Search for y0 with A^T y0 in the relative interior of dJ(x0).

    The search is the face model's ``certificate``.  For the polyhedral
    kinds it is an exact LP that maximizes the interior margin over the face
    of dJ(x0).  For the spectral kinds (nuclear, sdp_trace) and group l1/l2,
    the affine part of the face is matched by least squares and the residual
    freedom is used to push the boundary block inward by subgradient descent
    -- the *search* is heuristic but the margin of the returned certificate
    is verified exactly against the face model.

    Parameters
    ----------
    gauge : Gauge
    A : (m, n) ndarray
    x0 : ndarray
        Feasible point with finite J(x0); the problem is min J s.t. Ax = Ax0.

    Returns
    -------
    dict with keys ``y0``, ``ri_margin``, ``margin_is_max`` (True when the
    margin is the exact maximum over all certificates), ``note`` -- or None
    when no certificate exists (for the LP kinds this is a certified
    infeasibility; x0 then is not a minimizer, or only a degenerate one).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return gauge.face(gauge.flat(x0)).certificate(A)


# ---------------------------------------------------------------------------
# problem geometry in effective coordinates
# ---------------------------------------------------------------------------

class _Geometry:
    """Effective-coordinate view of (gauge, A, x0).

    A gauge whose domain lies in a subspace (the semidefinite kind lives on
    the symmetric matrices) reports an orthonormal basis S of it; everything
    the kernel route touches is then expressed in S coordinates
    (``to_ambient`` maps probe directions back).  All other kinds use the
    ambient coordinates unchanged.
    """

    def __init__(self, gauge, A, x0):
        self.gauge = gauge
        self.face = gauge.face(x0)
        self.S = S = gauge.coordinate_basis()
        probe = gauge.dir_probe(x0)
        dom_cone = gauge.domain_tangent_cone(x0)
        crit_cone = gauge.critical_cone(x0)
        if S is None:
            self.A_eff, self.T_eff = A, self.face.tangent
            self.probe, self.dom_cone, self.crit_cone = probe, dom_cone, crit_cone
        else:
            self.A_eff, self.T_eff = A @ S, S.T @ self.face.tangent
            self.probe = CallableFn(lambda s: probe.value(S @ s),
                                    _through(probe.value_batch, S),
                                    lambda s: S.T @ probe.subgrad(S @ s))
            self.dom_cone = _restrict(dom_cone, S)
            self.crit_cone = _restrict(crit_cone, S)
        self.n_eff = self.A_eff.shape[1]

    def to_ambient(self, h):
        if h is None or self.S is None:
            return h
        return self.S @ h


# ---------------------------------------------------------------------------
# the condition battery
# ---------------------------------------------------------------------------

def check_sharp(gauge, A, x0, with_alpha=True):
    """Decide whether x0 is a sharp minimizer of min J(x) s.t. Ax = Ax0.

    Primary path: the range-space condition -- A restricted to the orthogonal
    complement of the affine hull of dJ(x0) must be injective (exact rank
    test) and a certificate A^T y0 must exist strictly inside the face
    (margin above the strictness threshold).  Cross-check path: the kernel
    condition -- no unit kernel direction with J'(x0; h) <= 0; run exactly
    for the polyhedral kinds via cone LPs and through sphere probes
    otherwise.  Certified disagreement raises InternalDisagreementError.

    Also computes kappa (the sharpness constant) and alpha (minimum conic
    singular value of A against the critical cone).  alpha never feeds the
    verdicts, and its sphere probe dominates the runtime on small problems;
    callers that only need verdicts may pass ``with_alpha=False`` to skip it
    (the report then carries alpha=None, uncertified).

    Returns
    -------
    CertificateReport
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    x0 = gauge.flat(x0)
    v0 = gauge.value(x0)
    if not np.isfinite(v0):
        raise ValueError("J(x0) must be finite (x0 outside the domain)")
    rep = CertificateReport()
    tol = config.cert_tol()
    geom = _Geometry(gauge, A, x0)

    assumption_ok = True
    feasibility = gauge.interior_feasibility(A, A @ x0)
    if feasibility is not None:
        ok, note = feasibility
        rep.conditions_checked.append(("interior-feasibility", YES if ok else UNKNOWN, ok))
        rep.notes.append("interior feasibility: " + note)
        assumption_ok = ok

    # --- certificate and range-space condition ----------------------------
    cert = find_dual_certificate(gauge, A, x0)
    if cert is not None:
        rep.dual_certificate = cert["y0"]
        rep.ri_margin = cert["ri_margin"]
        rep.notes.append("certificate search: " + cert["note"])
    else:
        rep.notes.append("certificate search: no A^T y in the face "
                         "(affine part infeasible)")

    Q = _complement(geom.T_eff, geom.n_eff)
    rank_ok = matrix_rank(geom.A_eff @ Q) == Q.shape[1] if Q.shape[1] else True
    if not rank_ok:
        verdict_v, certified_v = NO, True
    elif cert is None:
        # the affine part of the certificate system is infeasible -- decisive
        # for the LP kinds and for the least-squares residual test alike
        verdict_v, certified_v = NO, True
    elif cert["ri_margin"] > tol:
        verdict_v, certified_v = YES, True
    elif cert["margin_is_max"]:
        verdict_v, certified_v = NO, True
    else:
        verdict_v, certified_v = UNKNOWN, False
    rep.conditions_checked.append(("range-space", verdict_v, certified_v))

    # --- kernel condition and kappa ----------------------------------------
    K = kernel_basis(geom.A_eff)
    if K.shape[1] == 0:
        rep.kappa = math.inf
        rep.kappa_certified = True
        verdict_k, certified_k = YES, True
        rep.notes.append("kernel trivial")
    else:
        res = sphere_min(geom.probe, K, cone=geom.dom_cone,
                         seed=0, restarts=config.probe_restarts())
        rep.kappa = float(res.value)
        rep.kappa_certified = bool(res.certified)
        rep.notes.append(f"kappa engine: {res.engine}"
                         + (f" ({res.note})" if res.note else ""))
        if rep.kappa > tol:
            verdict_k, certified_k = YES, res.certified
        else:
            # a concrete direction with J'(x0; h) <= tol refutes sharpness
            # regardless of how the engine found it -- verify it
            certified_k = res.certified or _no_witness_checks(geom, res.minimizer, tol)
            verdict_k = NO
            if res.minimizer is not None:
                rep.witness = geom.to_ambient(res.minimizer)
        if gauge.is_polyhedral and geom.crit_cone.is_polyhedral:
            # exact polyhedral cross-check of the same condition
            trivial, wit = cone_trivial(geom.crit_cone, K)
            verdict_c = YES if trivial else NO
            if certified_k and verdict_c != verdict_k:
                raise InternalDisagreementError(
                    f"kernel probe says {verdict_k} but the cone LP says {verdict_c}")
            verdict_k, certified_k = verdict_c, True
            if wit is not None:
                rep.witness = wit
    rep.conditions_checked.append(("kernel", verdict_k, certified_k))

    # --- alpha --------------------------------------------------------------
    if with_alpha:
        res_a = min_conic_singular(geom.A_eff, geom.crit_cone, seed=0,
                                   restarts=config.probe_restarts())
        rep.alpha = float(res_a.value)
        rep.alpha_certified = bool(res_a.certified)
        rep.notes.append(f"alpha engine: {res_a.engine}"
                         + (f" ({res_a.note})" if res_a.note else ""))

    # --- aggregate -----------------------------------------------------------
    if not assumption_ok:
        rep.is_sharp = UNKNOWN
        rep.notes.append("verdict withheld: interior feasibility unverified")
        return rep
    if certified_v and certified_k and YES in (verdict_v, verdict_k) \
            and NO in (verdict_v, verdict_k):
        raise InternalDisagreementError(
            f"range-space condition is {verdict_v} (certified) but the "
            f"kernel condition is {verdict_k} (certified)")
    if certified_v:
        rep.is_sharp = verdict_v
    elif certified_k:
        rep.is_sharp = verdict_k
    else:
        rep.is_sharp = UNKNOWN
    if rep.is_sharp == YES and (rep.dual_certificate is None
                                or not rep.ri_margin or rep.ri_margin <= 0):
        # structurally a Yes must carry an interior certificate
        rep.is_sharp = UNKNOWN
        rep.notes.append("verdict degraded: sharp by the kernel route but "
                         "no interior certificate was found")
    if rep.is_sharp == YES:
        rep.is_unique = YES
    elif gauge.is_polyhedral:
        rep.is_unique = rep.is_sharp
    return rep


def _no_witness_checks(geom, h, tol):
    if h is None:
        return False
    if abs(np.linalg.norm(h) - 1.0) > 1e-7:
        return False
    if float(np.linalg.norm(geom.A_eff.T @ (geom.A_eff @ h))) > 1e-8:
        return False
    if geom.dom_cone is not None and geom.dom_cone.violation(h) > 1e-11:
        return False
    return geom.probe.value(h) <= tol


def check_unique(gauge, A, x0, with_alpha=True):
    """Decide whether x0 is the unique solution of min J(x) s.t. Ax = Ax0.

    Polyhedral kinds inherit the verdict from ``check_sharp`` (uniqueness and
    sharpness coincide there).  For the spectral kinds two more tests run
    when sharpness did not already settle it: the tangent-space test at the
    dual certificate (the gauge's ``tangent_space_test``: an exact rank test
    when the certificate's reduced block is positive definite; certifies
    uniqueness-with-calmness), and a descent
    sampling probe over kernel directions (a hit certifies non-uniqueness).
    ``with_alpha`` is forwarded to ``check_sharp``.

    Returns
    -------
    CertificateReport
    """
    rep = check_sharp(gauge, A, x0, with_alpha=with_alpha)
    if gauge.is_polyhedral:
        certified = any(c for _, _, c in rep.conditions_checked)
        rep.is_unique = rep.is_sharp
        rep.conditions_checked.append(
            ("polyhedral-equivalence", rep.is_sharp, certified))
        rep.notes.append("polyhedral gauge: uniqueness equals sharpness")
        return rep
    if rep.is_sharp == YES:
        rep.is_unique = YES
        rep.notes.append("sharp minimizers are unique")
        return rep
    if any(cid == "interior-feasibility" and not ok
           for cid, _, ok in rep.conditions_checked):
        rep.notes.append("uniqueness tests withheld: interior feasibility "
                         "unverified")
        return rep

    x0 = gauge.flat(x0)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    verdict_t, certified_t = UNKNOWN, False
    test = None if rep.dual_certificate is None else \
        gauge.tangent_space_test(A, x0, rep.dual_certificate)
    if test is not None:
        unique, note = test
        verdict_t = {True: YES, False: NO, None: UNKNOWN}[unique]
        certified_t = unique is not None
        rep.conditions_checked.append(("tangent-space", verdict_t, certified_t))
        rep.notes.append("tangent-space test: " + note)

    witness = _descent_sample(gauge, A, x0, rep.witness)
    if witness is not None:
        rep.conditions_checked.append(("descent-sample", NO, True))
        rep.witness = witness
        if certified_t and verdict_t == YES:
            raise InternalDisagreementError(
                "tangent-space test certified uniqueness but a flat kernel "
                "direction was found")
        rep.is_unique = NO
        rep.notes.append("a second solution lies along the witness direction")
        return rep
    rep.conditions_checked.append(("descent-sample", UNKNOWN, False))

    if certified_t:
        rep.is_unique = verdict_t
        if verdict_t == YES:
            rep.notes.append("unique and calm (tangent-space rank test)")
    else:
        rep.is_unique = UNKNOWN
        rep.notes.append("descent probe found nothing; only heuristic "
                         "evidence for uniqueness")
    return rep


def _descent_sample(gauge, A, x0, hint, count=400, seed=7):
    """Search kernel directions for a genuinely flat step J(x0+th) <= J(x0).

    A hit exhibits a second minimizer (x0 being optimal), so it certifies
    non-uniqueness; not finding one proves nothing.  Steps are macroscopic
    on purpose: a genuine flat segment survives shrinking (the solution set
    is convex), whereas a direction that is only first-order flat picks up
    O(t^2) value growth that tiny steps would hide below the tolerance.
    Hits must also pass a strict domain check -- ``value`` tolerates
    O(1e-9) boundary violations, and a direction curving out of a conic
    domain quadratically would otherwise masquerade as flat.
    """
    S = gauge.coordinate_basis()
    if S is None:
        K = kernel_basis(A)
    else:
        K = kernel_basis(np.atleast_2d(A) @ S)
        K = S @ K if K.shape[1] else np.zeros((gauge.n, 0))
    k = K.shape[1]
    if k == 0:
        return None
    v0 = gauge.value(x0)
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((count, k))
    T /= np.linalg.norm(T, axis=1, keepdims=True)
    T = np.vstack([T, np.eye(k), -np.eye(k)])
    H = T @ K.T
    cands = [H]
    if hint is not None and np.linalg.norm(hint) > 0:
        h = np.asarray(hint, dtype=float)
        cands.append((h / np.linalg.norm(h))[None, :])
    H = np.vstack(cands)
    tol = 1e-11 * max(1.0, v0)
    scale = max(1.0, float(np.linalg.norm(x0)))
    for t in (1e-2 * scale, 1e-1 * scale, scale):
        vals = gauge.value_batch(x0[None, :] + t * H)
        for i in np.where(vals <= v0 + tol)[0]:
            x1 = x0 + t * H[i]
            if gauge.domain_residual(x1) <= 1e-13 * max(1.0, np.linalg.norm(x1)):
                return H[i]
    return None


def check_sharp_qp(gauge, A, b, mu, xhat):
    """Certify uniqueness/sharpness of x̂ for min mu*J(x) + 0.5||Ax - b||^2.

    The residual certificate ŷ = (b - A x̂)/mu must satisfy A^T ŷ in
    dJ(x̂) -- verified through the prox fixed-point identity (the
    stationarity condition of the quadratic problem).  The solution set of
    the quadratic problem equals the solution set of min J s.t. Ax = A x̂,
    so the equality-constrained battery runs at x̂; sharpness there makes
    x̂ a sharp minimizer of that problem as well.

    Raises
    ------
    ValueError
        "xhat not stationary" when the fixed-point residual is large.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    xhat = gauge.flat(xhat)
    mu = float(mu)
    if mu <= 0:
        raise ValueError("mu must be positive")
    smax = float(np.linalg.norm(A, 2))
    step = 1.0 / max(smax ** 2, 1e-12)
    grad = A.T @ (A @ xhat - b)
    fp = gauge.prox(xhat - step * grad, step * mu)
    resid = float(np.linalg.norm(fp - xhat))
    if resid > 1e-6 * max(1.0, float(np.linalg.norm(xhat))):
        raise ValueError(f"xhat not stationary (fixed-point residual {resid:.2e})")
    yhat = (b - A @ xhat) / mu
    rep = check_unique(gauge, A, xhat)
    margin_hat = gauge.face(xhat).margin(A.T @ yhat)
    rep.notes.append(f"stationarity verified (fixed-point residual {resid:.2e}); "
                     f"residual certificate margin {margin_hat:.6g}")
    if rep.dual_certificate is None and margin_hat > -1e-9:
        rep.dual_certificate = yhat
        rep.ri_margin = float(margin_hat)
    if rep.is_sharp == YES:
        rep.notes.append("x̂ is a sharp minimizer of the equality-constrained "
                         "problem with b0 := A x̂")
    return rep


# ---------------------------------------------------------------------------
# per-kind corollary checks
# ---------------------------------------------------------------------------

def fuchs_check(A, x0):
    """Sharpness of a sparse x0 for the l1 gauge, in source form.

    Checks injectivity of A on the support and solves the certificate LP
    minimize ||A_{I^c}^T y||_inf s.t. A_I^T y = sign(x0)_I; sharp iff the
    submatrix is injective and the LP value is strictly below one.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    x0 = np.asarray(x0, dtype=float).ravel()
    rep = CertificateReport()
    gauge = L1Gauge(x0.size)
    face = gauge.face(x0)
    I = face.support
    inj = matrix_rank(A[:, I]) == I.size if I.size else True
    rep.conditions_checked.append(("support-injectivity", YES if inj else NO, True))
    cert = find_dual_certificate(gauge, A, x0)
    if cert is None:
        rep.conditions_checked.append(("interior-certificate", NO, True))
        rep.notes.append("no y with A_I^T y = sign(x0)_I")
        rep.is_sharp = rep.is_unique = NO
        return rep
    rep.dual_certificate = cert["y0"]
    rep.ri_margin = cert["ri_margin"]
    lp_value = 1.0 - cert["ri_margin"] if np.isfinite(cert["ri_margin"]) else 0.0
    rep.notes.append(f"certificate LP value {lp_value:.12g}")
    strict = cert["ri_margin"] >= config.strict_lt_one_tol()
    rep.conditions_checked.append(("interior-certificate", YES if strict else NO, True))
    rep.is_sharp = YES if (inj and strict) else NO
    rep.is_unique = rep.is_sharp
    return rep


def analysis_check(A, D, x0):
    """Sharpness of x0 for J = ||D^T x||_1 in source form.

    Condition one: Ker A and Ker D_{I^c}^T intersect trivially (exact rank
    test on the stacked kernel bases).  Condition two: the coefficient-space
    certificate LP minimize ||u_{I^c}||_inf s.t. A^T y = D u, u_I =
    sign(D^T x0)_I has value strictly below one.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    x0 = np.asarray(x0, dtype=float).ravel()
    rep = CertificateReport()
    gauge = AnalysisL1Gauge(D)
    face = gauge.face(x0)
    K = kernel_basis(A)
    Doff = D[:, face.inactive]
    if K.shape[1] == 0:
        kernels_ok = True
    elif face.inactive.size == 0:
        kernels_ok = False  # Ker D_{I^c}^T is everything, Ker A is not {0}
    else:
        kernels_ok = matrix_rank(Doff.T @ K) == K.shape[1]
    rep.conditions_checked.append(("kernel-intersection", YES if kernels_ok else NO, True))
    cert = find_dual_certificate(gauge, A, x0)
    if cert is None:
        rep.conditions_checked.append(("interior-certificate", NO, True))
        rep.is_sharp = rep.is_unique = NO
        rep.notes.append("certificate system infeasible")
        return rep
    rep.dual_certificate = cert["y0"]
    rep.ri_margin = cert["ri_margin"]
    lp_value = 1.0 - cert["ri_margin"] if np.isfinite(cert["ri_margin"]) else 0.0
    rep.notes.append(f"certificate LP value {lp_value:.12g}")
    strict = cert["ri_margin"] >= config.strict_lt_one_tol()
    rep.conditions_checked.append(("interior-certificate", YES if strict else NO, True))
    rep.is_sharp = YES if (kernels_ok and strict) else NO
    rep.is_unique = rep.is_sharp
    return rep


def wsl1_check(A, w, x0):
    """Sharpness of x0 for the sorted weighted l1 gauge in source form.

    The subdifferential at x0 is the convex hull of a finite vertex set; the
    check tests (a) Im A^T together with the affine hull of that vertex set
    spans everything (rank test) and (b) some A^T y is a strictly positive
    convex combination of the vertices (max-min-weight LP).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    x0 = np.asarray(x0, dtype=float).ravel()
    rep = CertificateReport()
    gauge = SortedWeightedL1Gauge(w)
    face = gauge.face(x0)
    n = x0.size
    stacked = np.hstack([A.T, face.tangent]) if face.tangent.size else A.T
    aff_ok = matrix_rank(stacked) == n
    rep.conditions_checked.append(("affine-hull", YES if aff_ok else NO, True))
    cert = find_dual_certificate(gauge, A, x0)
    if cert is None:
        rep.conditions_checked.append(("positive-combination", NO, True))
        rep.is_sharp = rep.is_unique = NO
        rep.notes.append("no A^T y in the subdifferential polytope")
        return rep
    rep.dual_certificate = cert["y0"]
    rep.ri_margin = cert["ri_margin"]
    strict = cert["ri_margin"] > config.cert_tol()
    rep.notes.append(f"max-min vertex weight {cert['ri_margin']:.12g}")
    rep.conditions_checked.append(("positive-combination", YES if strict else NO, True))
    rep.is_sharp = YES if (aff_ok and strict) else NO
    rep.is_unique = rep.is_sharp
    return rep


def nuclear_check(Phi, X0):
    """Sharpness of a low-rank X0 for the nuclear norm in source form.

    Runs (a) the restricted-injectivity rank test of Phi on the subspace
    T = {Y : U2^T Y V2 = 0}, (b) the certificate search (exact affine part,
    heuristic spectral minimization, margin verified), and (c) the kernel
    probe minimizing tr(U1^T H V1) + ||U2^T H V2||_* over unit kernel
    directions (certified for kernel dimension <= 3).  The stronger
    singular-value sufficient condition is evaluated and reported
    separately; it never drives the verdict.
    """
    Phi = np.atleast_2d(np.asarray(Phi, dtype=float))
    X0 = np.asarray(X0, dtype=float)
    p, q = X0.shape
    gauge = NuclearGauge((p, q))
    x0 = X0.ravel()
    rep = CertificateReport()
    tol = config.cert_tol()
    face = gauge.face(x0)
    U2, V2 = face.U2, face.V2
    r = face.U1.shape[1]

    if U2.shape[1] and V2.shape[1]:
        Tbasis = _complement(np.kron(U2, V2), p * q)
    else:
        Tbasis = np.eye(p * q)
    inj = matrix_rank(Phi @ Tbasis) == Tbasis.shape[1]
    rep.conditions_checked.append(("restricted-injectivity", YES if inj else NO, True))

    cert = find_dual_certificate(gauge, Phi, x0)
    verdict_cert = UNKNOWN
    certified_cert = False
    if cert is None:
        verdict_cert, certified_cert = NO, True
        rep.notes.append("certificate affine system infeasible")
    else:
        rep.dual_certificate = cert["y0"]
        rep.ri_margin = cert["ri_margin"]
        if cert["ri_margin"] >= config.strict_lt_one_tol():
            verdict_cert, certified_cert = YES, True
        rep.notes.append(f"free-block spectral norm {1.0 - cert['ri_margin']:.12g}"
                         if np.isfinite(cert["ri_margin"]) else "singleton face")
    rep.conditions_checked.append(("interior-certificate", verdict_cert, certified_cert))
    verdict_a = YES if (inj and verdict_cert == YES) else \
        (NO if (not inj or (certified_cert and verdict_cert == NO)) else UNKNOWN)
    certified_a = verdict_a != UNKNOWN

    K = kernel_basis(Phi)
    if K.shape[1] == 0:
        rep.kappa = math.inf
        rep.kappa_certified = True
        verdict_b, certified_b = YES, True
        rep.notes.append("kernel trivial")
    else:
        res = sphere_min(gauge.dir_probe(x0), K, seed=0,
                         restarts=config.probe_restarts())
        rep.kappa = float(res.value)
        rep.kappa_certified = bool(res.certified)
        rep.notes.append(f"kernel probe value {res.value:.12g} ({res.engine})")
        if res.value > tol:
            verdict_b, certified_b = YES, res.certified
        else:
            verdict_b, certified_b = NO, res.certified
            rep.witness = res.minimizer
    rep.conditions_checked.append(("kernel-probe", verdict_b, certified_b))

    # sufficient condition: the nuclear tail dominates the head on Ker Phi
    if K.shape[1]:
        def tail_head(H):
            M = np.atleast_2d(H).reshape(-1, p, q)
            s = np.linalg.svd(M, compute_uv=False)
            return s[:, r:].sum(axis=1) - s[:, :r].sum(axis=1)

        def tail_head_sg(h):
            U, s, Vt = np.linalg.svd(h.reshape(p, q))
            signs = np.concatenate([-np.ones(r), np.ones(s.size - r)])
            k = min(U.shape[1], Vt.shape[0])
            return ((U[:, :k] * signs[:k]) @ Vt[:k]).ravel()

        fn = CallableFn(lambda h: float(tail_head(h[None, :])[0]),
                        tail_head, tail_head_sg)
        res_s = sphere_min(fn, K, seed=0, restarts=config.probe_restarts())
        suff = res_s.value > tol
        rep.conditions_checked.append(
            ("tail-dominance-sufficient", YES if suff else NO, res_s.certified))
        rep.notes.append(f"tail-dominance margin {res_s.value:.12g} "
                         "(sufficient condition only; not used for the verdict)")
    else:
        rep.conditions_checked.append(("tail-dominance-sufficient", YES, True))

    if certified_a and certified_b and YES in (verdict_a, verdict_b) \
            and NO in (verdict_a, verdict_b):
        raise InternalDisagreementError(
            f"certificate route says {verdict_a}, kernel probe says {verdict_b}")
    if certified_a:
        rep.is_sharp = verdict_a
    elif certified_b:
        rep.is_sharp = verdict_b
    else:
        rep.is_sharp = UNKNOWN
    if rep.is_sharp == YES and rep.dual_certificate is None:
        rep.is_sharp = UNKNOWN
        rep.notes.append("verdict degraded: no interior certificate in hand")
    rep.is_unique = YES if rep.is_sharp == YES else UNKNOWN
    return rep


def nonneg_l1_check(A, x0):
    """Sharpness of a nonnegative x0 for the conic l1 gauge in source form.

    Exact: the polyhedral cone {h : h_{I^c} >= 0, sum_i h_i <= 0} must meet
    Ker A only at the origin (cone LPs).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    x0 = np.asarray(x0, dtype=float).ravel()
    if np.min(x0, initial=0.0) < -1e-12:
        raise ValueError("x0 must be nonnegative")
    gauge = NonnegL1Gauge(x0.size)
    rep = CertificateReport()
    K = kernel_basis(A)
    if K.shape[1] == 0:
        rep.is_sharp = rep.is_unique = YES
        rep.conditions_checked.append(("descent-cone", YES, True))
        rep.notes.append("kernel trivial")
        return rep
    trivial, wit = cone_trivial(gauge.critical_cone(x0), K)
    rep.conditions_checked.append(("descent-cone", YES if trivial else NO, True))
    rep.is_sharp = rep.is_unique = YES if trivial else NO
    if wit is not None:
        rep.witness = wit
        rep.notes.append("kernel direction with nonpositive growth found")
    return rep


def sdp_trace_check(Phi, C, X0):
    """Sharpness of a PSD X0 for J = <C, X> + PSD indicator in source form.

    Probes symmetric kernel directions H of Phi: sharp iff no unit H keeps
    E^T H E positive semidefinite (E spanning Ker X0) while <C, H> stays
    nonpositive.  Certified for kernel dimension <= 3 via the angular grid.
    """
    Phi = np.atleast_2d(np.asarray(Phi, dtype=float))
    X0 = np.asarray(X0, dtype=float)
    gauge = SdpTraceGauge(C)
    nm = gauge.nmat
    x0 = X0.ravel()
    face = gauge.face(x0)  # validates PSD
    E = face.E
    rep = CertificateReport()
    tol = config.cert_tol()
    S = sym_basis(nm)
    K = kernel_basis(Phi @ S)
    if K.shape[1] == 0:
        rep.is_sharp = rep.is_unique = YES
        rep.conditions_checked.append(("kernel-probe", YES, True))
        rep.notes.append("kernel trivial on the symmetric subspace")
        return rep
    Cs = S.T @ gauge.C.ravel()

    def blocks(T):
        T = np.atleast_2d(np.asarray(T, dtype=float))
        H = (T @ S.T).reshape(T.shape[0], nm, nm)
        return np.einsum("ae,kab,bf->kef", E, H, E)

    def phi(s):
        lin = float(Cs @ s)
        if not E.shape[1]:
            return lin
        lam = float(np.linalg.eigvalsh(blocks(s[None, :])[0])[0])
        return max(-lam, lin)

    def phi_batch(T):
        lin = np.atleast_2d(T) @ Cs
        if not E.shape[1]:
            return lin
        lam = np.linalg.eigvalsh(blocks(T))[:, 0]
        return np.maximum(-lam, lin)

    def phi_sg(s):
        lin = float(Cs @ s)
        if not E.shape[1]:
            return Cs.copy()
        w, V = np.linalg.eigh(blocks(s[None, :])[0])
        if lin >= -w[0]:
            return Cs.copy()
        v = E @ V[:, 0]
        return -(S.T @ np.outer(v, v).ravel())

    res = sphere_min(CallableFn(phi, phi_batch, phi_sg), K, seed=0,
                     restarts=config.probe_restarts())
    rep.notes.append(f"kernel probe value {res.value:.12g} ({res.engine})")
    if res.value > tol:
        verdict, certified = YES, res.certified
    else:
        verdict, certified = NO, res.certified
        if res.minimizer is not None:
            rep.witness = S @ res.minimizer
    rep.conditions_checked.append(("kernel-probe", verdict, certified))
    rep.is_sharp = verdict if certified else UNKNOWN
    rep.is_unique = YES if rep.is_sharp == YES else UNKNOWN
    return rep


# ---------------------------------------------------------------------------
# upper-Lipschitz probe
# ---------------------------------------------------------------------------

def upper_lipschitz_probe(gauge, A, x0, y0, grid):
    """Empirical displacement ratios of the perturbed solution map.

    For each (v, w) on the grid, finds a point of S(v, w) = {x in the
    exposed face of A^T y0 + v : Ax = b0 + w} by a feasibility LP and
    records ||x - x0|| / (||v|| + ||w||).  The face comes from the gauge's
    ``exposed_face``, which only l1 and nonneg_l1 provide; a sharp base
    instance is required.

    Returns
    -------
    dict with ``rows`` (one record per grid point) and ``max_ratio``.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    x0 = gauge.flat(x0)
    rep = check_sharp(gauge, A, x0)
    if rep.is_sharp != YES:
        raise ValueError("upper_lipschitz_probe requires a sharp instance")
    b0 = A @ x0
    rows = []
    max_ratio = 0.0
    for v, w in grid:
        v = np.zeros(gauge.n) if v is None else np.asarray(v, dtype=float)
        w = np.zeros(A.shape[0]) if w is None else np.asarray(w, dtype=float)
        size = float(np.linalg.norm(v) + np.linalg.norm(w))
        z = A.T @ y0 + v
        row = {"v_norm": float(np.linalg.norm(v)),
               "w_norm": float(np.linalg.norm(w))}
        exposed = gauge.exposed_face(z)
        if exposed is None:
            row.update(status="outside polar set", ratio=math.nan)
            rows.append(row)
            continue
        act, signs = exposed
        if act.size == 0:
            x = np.zeros(gauge.n)
            feasible = float(np.linalg.norm(b0 + w)) <= 1e-9
            if not feasible:
                row.update(status="empty", ratio=math.nan)
                rows.append(row)
                continue
        else:
            Aact = A[:, act] * signs
            res = lp_solve(np.zeros(act.size), A_eq=Aact, b_eq=b0 + w,
                           bounds=[(0.0, None)] * act.size)
            if res.status != "optimal":
                row.update(status="empty", ratio=math.nan)
                rows.append(row)
                continue
            x = np.zeros(gauge.n)
            x[act] = signs * res.x
        disp = float(np.linalg.norm(x - x0))
        ratio = disp / size if size > 0 else 0.0
        row.update(status="ok", displacement=disp, ratio=ratio)
        rows.append(row)
        max_ratio = max(max_ratio, ratio)
    return {"rows": rows, "max_ratio": max_ratio, "kappa": rep.kappa}
