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

The per-application checkers are views of the same two routes, with their
own condition ids and margin thresholds.  ``fuchs_check``
(support-injectivity, interior-certificate), ``analysis_check``
(kernel-intersection, interior-certificate) and ``nuclear_check`` (both
routes: restricted-injectivity, interior-certificate, kernel-probe, and the
reported-only tail-dominance-sufficient) need a margin >= STRICT_LT_ONE_TOL
(1e-6); ``wsl1_check`` (affine-hull, positive-combination) and
``check_sharp`` (range-space, kernel) a margin > cert_tol (1e-8); the wsl1
margin is the smallest slack of the face's majorization inequalities.
``nonneg_l1_check`` (descent-cone) runs the kernel route's cone LPs alone,
``sdp_trace_check`` (kernel-probe) a cone-free kernel probe.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import config
from .cones import (CallableFn, ConeSpec, SphereMinResult, cone_trivial,
                    kernel_basis, lp_solve, matrix_rank, min_conic_singular,
                    sphere_min)
from .gauges import (AnalysisL1Gauge, L1Gauge, NonnegL1Gauge, NuclearGauge,
                     SdpTraceGauge, SortedWeightedL1Gauge)

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

def _through(batch, S):
    """``batch`` of the rows of T mapped through S."""
    return lambda T: batch(np.atleast_2d(T) @ S.T)


def _restrict(cone, S):
    """The cone {s : S s in cone} in the coordinates of the basis S (the
    cone itself when S is None), with its lift and second-order form."""
    if cone is None or S is None:
        return cone
    sub = cone.violation_subgrad_batch
    return ConeSpec(
        n=S.shape[1], G_h=None if cone.G_h is None else cone.G_h @ S,
        G_u=cone.G_u, violation_batch=_through(cone.violation_batch, S),
        violation_subgrad_batch=None if sub is None else
        _through(lambda H: sub(H) @ S, S),
        anchor=None if cone.anchor is None else S.T @ cone.anchor,
        note=cone.note + " (subspace coordinates)",
        soc=None if cone.soc is None else (S.T @ cone.soc[0], cone.soc[1] @ S),
        scale=cone.scale)


# ---------------------------------------------------------------------------
# dual-certificate construction
# ---------------------------------------------------------------------------

def find_dual_certificate(gauge, A, x0):
    """Search for y0 with A^T y0 in the relative interior of dJ(x0).

    The search is the face model's ``certificate``.  For the polyhedral
    kinds it is an exact LP that maximizes the interior margin over the face
    of dJ(x0).  For the spectral kinds (nuclear, sdp_trace) and group l1/l2,
    the affine part of the face is matched by least squares, and the largest
    eigenvalue of the boundary block over the residual freedom is minimized
    by ``cones.min_lambda_max``; the margin of the returned certificate is
    verified exactly against the face model, and it is the maximum when the
    search closed its duality gap.

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
    the two routes touch is then expressed in S coordinates (``to_ambient``
    maps probe directions back).  All other kinds use the ambient
    coordinates unchanged.  The kernel, probe and cones are built on first
    use: the range-space views need none of them.
    """

    def __init__(self, gauge, A, x0):
        self.gauge = gauge
        self.A = A = np.atleast_2d(np.asarray(A, dtype=float))
        self.x0 = x0 = gauge.flat(x0)
        self.face = gauge.face(x0)
        self.S = S = gauge.coordinate_basis()
        if S is None:
            self.A_eff, self.T_eff = A, self.face.tangent
        else:
            self.A_eff, self.T_eff = A @ S, S.T @ self.face.tangent

    @cached_property
    def K(self):
        return kernel_basis(self.A_eff)

    @cached_property
    def probe(self):
        probe, S = self.gauge.dir_probe(self.x0), self.S
        if S is None:
            return probe
        return CallableFn(_through(probe.value_batch, S),
                          _through(lambda H: probe.subgrad_batch(H) @ S, S))

    @cached_property
    def dom_cone(self):
        return _restrict(self.gauge.domain_tangent_cone(self.x0), self.S)

    @cached_property
    def crit_cone(self):
        return _restrict(self.gauge.critical_cone(self.x0), self.S)

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
    singular value of A against the critical cone).  alpha is certified
    exact by the kernel route's witness (``kernel-witness``: a unit h with
    ||A h|| <= 1e-8 max(1, ||A||_2) on the critical cone (``ConeSpec.on``)
    makes alpha = ||A h||, 0 up to rounding), else by
    ``min_conic_singular`` on a lifted critical cone with at most
    log2(VERTEX_CAP) rows or one second-order constraint; otherwise it is a
    sphere probe.  The ``alpha engine:`` note names the route and why.
    alpha never feeds the verdicts, and its probe can dominate the runtime
    on small problems; callers that only need verdicts may pass
    ``with_alpha=False`` to skip it (the report then carries alpha=None,
    uncertified).

    Returns
    -------
    CertificateReport
    """
    x0 = gauge.flat(x0)
    if not np.isfinite(gauge.value(x0)):
        raise ValueError("J(x0) must be finite (x0 outside the domain)")
    geom = _Geometry(gauge, A, x0)
    rep = CertificateReport()

    assumption_ok = True
    feasibility = gauge.interior_feasibility(geom.A, geom.A @ x0)
    if feasibility is not None:
        ok, note = feasibility
        rep.conditions_checked.append(("interior-feasibility", YES if ok else UNKNOWN, ok))
        rep.notes.append("interior feasibility: " + note)
        assumption_ok = ok

    rank_ok, cert_row = _range_space(
        geom, rep, _interior,
        "certificate search: no A^T y in the face (affine part infeasible)",
        lambda cert: "certificate search: " + cert["note"])
    range_row = cert_row if rank_ok else (NO, True)
    rep.conditions_checked.append(("range-space", *range_row))

    kernel_row, res, witness = _kernel_route(geom, rep)
    if res is not None:
        rep.notes.append(f"kappa engine: {res.engine}"
                         + (f" ({res.note})" if res.note else ""))
    rep.conditions_checked.append(("kernel", *kernel_row))

    if with_alpha:
        res_a = _kernel_witness_alpha(geom, witness) or \
            min_conic_singular(geom.A_eff, geom.crit_cone)
        rep.alpha = float(res_a.value)
        rep.alpha_certified = bool(res_a.certified)
        rep.notes.append(f"alpha engine: {res_a.engine}"
                         + (f" ({res_a.note})" if res_a.note else ""))

    if not assumption_ok:
        rep.is_sharp = UNKNOWN
        rep.notes.append("verdict withheld: interior feasibility unverified")
        return rep
    _aggregate(rep, gauge, range_row, kernel_row)
    return rep


def _interior(margin):
    """The main battery's strictness: a margin above ``cert_tol``."""
    return margin > config.cert_tol()


def _below_one(margin):
    """A source-form "value < 1", up to ``STRICT_LT_ONE_TOL``."""
    return margin >= config.STRICT_LT_ONE_TOL


def _range_space(geom, rep, strict, no_cert_note, cert_note):
    """Range-space route: the certificate search, and whether A is injective
    on the orthogonal complement of the face tangent.  Puts the certificate
    and its note (``no_cert_note`` or ``cert_note(cert)``) in ``rep`` and
    returns ``(rank_ok, cert_row)``, the (verdict, certified) of the
    certificate alone under ``strict(margin)``; the route's verdict is No
    when the rank test fails and ``cert_row`` otherwise.
    """
    cert = find_dual_certificate(geom.gauge, geom.A, geom.x0)
    Q = kernel_basis(geom.T_eff.T)  # the identity when the face is a point
    rank_ok = matrix_rank(geom.A_eff @ Q) == Q.shape[1]
    if cert is None:
        # the affine part of the certificate system is infeasible -- decisive
        # for the LP kinds and for the least-squares residual test alike
        rep.notes.append(no_cert_note)
        return rank_ok, (NO, True)
    rep.dual_certificate = cert["y0"]
    rep.ri_margin = cert["ri_margin"]
    rep.notes.append(cert_note(cert))
    if strict(cert["ri_margin"]):
        return rank_ok, (YES, True)
    if cert["margin_is_max"]:
        return rank_ok, (NO, True)
    return rank_ok, (UNKNOWN, False)


def _kernel_route(geom, rep, probe=True):
    """Kernel route: no unit h in Ker A with J'(x0; h) <= cert_tol inside the
    domain cone.  The sphere probe (skipped when ``probe`` is False) sets
    kappa and the witness; for polyhedral kinds the cone LPs then decide,
    and a certified probe must agree with them.  Returns ``((verdict,
    certified), res, witness)``: ``res`` is the probe's result or None, and
    ``witness`` the direction behind ``rep.witness`` in effective
    coordinates, or None.
    """
    K = geom.K
    if K.shape[1] == 0:
        rep.notes.append("kernel trivial")
        if probe:
            rep.kappa, rep.kappa_certified = math.inf, True
        return (YES, True), None, None
    verdict, certified, res, witness = UNKNOWN, False, None, None
    tol = config.cert_tol()
    if probe:
        res = sphere_min(geom.probe, K, cone=geom.dom_cone)
        rep.kappa = float(res.value)
        rep.kappa_certified = bool(res.certified)
        if rep.kappa > tol:
            verdict, certified = YES, res.certified
        else:
            # a concrete direction with J'(x0; h) <= tol refutes sharpness
            # regardless of how the engine found it -- verify it
            verdict = NO
            certified = res.certified or _no_witness_checks(geom, res.minimizer, tol)
            witness = res.minimizer
    if geom.gauge.is_polyhedral and geom.crit_cone.is_polyhedral:
        # exact polyhedral cross-check of the same condition
        trivial, wit = cone_trivial(geom.crit_cone, K)
        verdict_c = YES if trivial else NO
        if certified and verdict_c != verdict:
            raise InternalDisagreementError(
                f"kernel probe says {verdict} but the cone LP says {verdict_c}")
        verdict, certified = verdict_c, True
        if wit is not None:
            witness = wit
    if witness is not None:
        rep.witness = geom.to_ambient(witness)
    return (verdict, certified), res, witness


def _kernel_direction(geom, h, cone):
    """h / ||h|| when it lies in Ker A and in ``cone`` (None: no cone) up to
    rounding: ||A h|| <= 1e-8 max(1, ||A||_2) for the unit h, a bound that
    scales with A, and ``cone.on(h)``.  None otherwise."""
    norm = 0.0 if h is None else float(np.linalg.norm(h))
    if not norm > 0.0:
        return None
    h = h / norm
    bound = 1e-8 * max(1.0, float(np.linalg.norm(geom.A_eff, 2)))
    if float(np.linalg.norm(geom.A_eff @ h)) > bound:
        return None
    if cone is not None and not cone.on(h)[0]:
        return None
    return h


def _kernel_witness_alpha(geom, h):
    """alpha from a kernel direction h in the critical cone
    (``_kernel_direction``): alpha = ||A h|| is certified, 0 up to rounding.
    None when h does not qualify."""
    h = _kernel_direction(geom, h, geom.crit_cone)
    if h is None:
        return None
    r = float(np.linalg.norm(geom.A_eff @ h))
    return SphereMinResult(value=r, minimizer=h, engine="kernel-witness",
                           certified=True, evals=1,
                           note="the kernel route's direction "
                                "lies in Ker A and in the critical cone")


def _aggregate(rep, gauge, range_row, kernel_row):
    """Verdicts from the routes' (verdict, certified) rows: certified Yes
    against certified No raises, a certified range-space verdict goes before
    a certified kernel one, and a Yes without an interior certificate drops
    to Unknown.  Sharp means unique, and the converse for polyhedral kinds.
    """
    (verdict_v, certified_v), (verdict_k, certified_k) = range_row, kernel_row
    if certified_v and certified_k and {verdict_v, verdict_k} == {YES, NO}:
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
        rep.is_sharp = UNKNOWN
        rep.notes.append("verdict degraded: sharp by the kernel route but "
                         "no interior certificate was found")
    if rep.is_sharp == YES:
        rep.is_unique = YES
    elif gauge.is_polyhedral:
        rep.is_unique = rep.is_sharp


def _no_witness_checks(geom, h, tol):
    """A kernel direction in the domain cone (``_kernel_direction``) with
    J'(x0; h) <= tol refutes sharpness."""
    h = _kernel_direction(geom, h, geom.dom_cone)
    return h is not None and geom.probe.value(h) <= tol


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


def _descent_sample(gauge, A, x0, hint):
    """Search kernel directions (400 seeded random ones, +-the basis and
    the hint) for a genuinely flat step J(x0+th) <= J(x0).

    A hit exhibits a second minimizer (x0 being optimal), so it certifies
    non-uniqueness; not finding one proves nothing.  Steps are macroscopic
    on purpose: a genuine flat segment survives shrinking (the solution set
    is convex), whereas a direction that is only first-order flat picks up
    O(t^2) value growth that tiny steps would hide below the tolerance.
    Steps and tolerance are in units of ||x0|| and J(x0) (1 where these are 0).
    Hits must also pass a strict domain check -- ``value`` tolerates
    O(1e-9) boundary violations, and a direction curving out of a conic
    domain quadratically would otherwise masquerade as flat.
    """
    S = gauge.coordinate_basis()
    K = kernel_basis(A) if S is None else S @ kernel_basis(A @ S)
    k = K.shape[1]
    if k == 0:
        return None
    v0 = gauge.value(x0)
    rng = np.random.default_rng(7)
    T = rng.standard_normal((400, k))
    T /= np.linalg.norm(T, axis=1, keepdims=True)
    T = np.vstack([T, np.eye(k), -np.eye(k)])
    H = T @ K.T
    cands = [H]
    if hint is not None and np.linalg.norm(hint) > 0:
        h = np.asarray(hint, dtype=float)
        cands.append((h / np.linalg.norm(h))[None, :])
    H = np.vstack(cands)
    tol = 1e-11 * (v0 or 1.0)
    scale = float(np.linalg.norm(x0)) or 1.0
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
# per-application checkers: views of the two routes
# ---------------------------------------------------------------------------

def _range_rows(geom, rep, ids, strict, no_cert_note, cert_note):
    """The range-space route in source form: a rank row and a certificate
    row under ``ids``.  Returns the route's (verdict, certified)."""
    rank_ok, cert_row = _range_space(geom, rep, strict, no_cert_note, cert_note)
    rep.conditions_checked.append((ids[0], YES if rank_ok else NO, True))
    rep.conditions_checked.append((ids[1], *cert_row))
    return cert_row if rank_ok else (NO, True)


def _source_form(gauge, A, x0, ids, strict, no_cert_note, cert_note):
    """A polyhedral checker decided by the range-space route alone."""
    geom = _Geometry(gauge, A, x0)
    rep = CertificateReport()
    range_row = _range_rows(geom, rep, ids, strict, no_cert_note, cert_note)
    _aggregate(rep, gauge, range_row, (UNKNOWN, False))
    return rep


def _lp_value_note(cert):
    margin = cert["ri_margin"]
    return f"certificate LP value {(1.0 - margin if np.isfinite(margin) else 0.0):.12g}"


def fuchs_check(A, x0):
    """Sharpness of a sparse x0 for the l1 gauge, in source form.

    Checks injectivity of A on the support and solves the certificate LP
    minimize ||A_{I^c}^T y||_inf s.t. A_I^T y = sign(x0)_I; sharp iff the
    submatrix is injective and the LP value is strictly below one.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    return _source_form(L1Gauge(x0.size), A, x0,
                        ("support-injectivity", "interior-certificate"),
                        _below_one, "no y with A_I^T y = sign(x0)_I",
                        _lp_value_note)


def analysis_check(A, D, x0):
    """Sharpness of x0 for J = ||D^T x||_1 in source form.

    Condition one: Ker A and Ker D_{I^c}^T intersect trivially (A injective
    on the complement of the face tangent Im D_{I^c}).  Condition two: the
    coefficient-space certificate LP minimize ||u_{I^c}||_inf s.t. A^T y =
    D u, u_I = sign(D^T x0)_I has value strictly below one.
    """
    return _source_form(AnalysisL1Gauge(D), A, np.asarray(x0, dtype=float).ravel(),
                        ("kernel-intersection", "interior-certificate"),
                        _below_one, "certificate system infeasible",
                        _lp_value_note)


def wsl1_check(A, w, x0):
    """Sharpness of x0 for the sorted weighted l1 gauge in source form.

    The subdifferential at x0 is cut out by majorization inequalities; the
    check tests (a) Im A^T together with its affine hull spans everything
    (rank test) and (b) some A^T y meets the inequalities that are not
    implicit equalities with a slack above ``cert_tol`` (max-slack LP).
    """
    return _source_form(SortedWeightedL1Gauge(w), A, np.asarray(x0, dtype=float).ravel(),
                        ("affine-hull", "positive-combination"),
                        _interior, "no A^T y in the subdifferential polytope",
                        lambda cert: f"smallest majorization slack {cert['ri_margin']:.12g}")


def nuclear_check(Phi, X0):
    """Sharpness of a low-rank X0 for the nuclear norm in source form.

    Both routes: (a) the restricted-injectivity rank test of Phi on the
    subspace T = {Y : U2^T Y V2 = 0} and (b) the certificate search (exact
    affine part, interior-point spectral minimization, margin verified,
    free-block spectral norm strictly below one), against (c) the kernel probe
    minimizing tr(U1^T H V1) + ||U2^T H V2||_* over unit kernel directions
    (certified for kernel dimension <= 3).  The stronger singular-value
    sufficient condition is evaluated and reported separately; it never
    drives the verdict.
    """
    X0 = np.asarray(X0, dtype=float)
    p, q = X0.shape
    gauge = NuclearGauge((p, q))
    geom = _Geometry(gauge, Phi, X0.ravel())
    rep = CertificateReport()
    tol = config.cert_tol()
    range_row = _range_rows(
        geom, rep, ("restricted-injectivity", "interior-certificate"),
        _below_one, "certificate affine system infeasible",
        lambda cert: f"free-block spectral norm {1.0 - cert['ri_margin']:.12g}"
        if np.isfinite(cert["ri_margin"]) else "singleton face")
    kernel_row, res, _ = _kernel_route(geom, rep)
    if res is not None:
        rep.notes.append(f"kernel probe value {res.value:.12g} ({res.engine})")
    rep.conditions_checked.append(("kernel-probe", *kernel_row))

    # sufficient condition: the nuclear tail dominates the head on Ker Phi
    K, r = geom.K, geom.face.U1.shape[1]
    if K.shape[1]:
        def tail_head(H):
            M = np.atleast_2d(H).reshape(-1, p, q)
            s = np.linalg.svd(M, compute_uv=False)
            return s[:, r:].sum(axis=1) - s[:, :r].sum(axis=1)

        def tail_head_sg(H):
            U, s, Vt = np.linalg.svd(np.atleast_2d(H).reshape(-1, p, q))
            k = s.shape[1]
            signs = np.concatenate([-np.ones(r), np.ones(k - r)])
            return ((U[:, :, :k] * signs) @ Vt[:, :k]).reshape(-1, p * q)

        fn = CallableFn(tail_head, tail_head_sg)
        res_s = sphere_min(fn, K)
        suff = res_s.value > tol
        rep.conditions_checked.append(
            ("tail-dominance-sufficient", YES if suff else NO, res_s.certified))
        rep.notes.append(f"tail-dominance margin {res_s.value:.12g} "
                         "(sufficient condition only; not used for the verdict)")
    else:
        rep.conditions_checked.append(("tail-dominance-sufficient", YES, True))

    _aggregate(rep, gauge, range_row, kernel_row)
    return rep


def nonneg_l1_check(A, x0):
    """Sharpness of a nonnegative x0 for the conic l1 gauge in source form.

    Exact: the polyhedral cone {h : h_{I^c} >= 0, sum_i h_i <= 0} must meet
    Ker A only at the origin -- the kernel route's cone LPs, without its
    sphere probe.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    geom = _Geometry(NonnegL1Gauge(x0.size), A, x0)  # the face checks x0 >= 0
    rep = CertificateReport()
    (verdict, _), _, _ = _kernel_route(geom, rep, probe=False)
    rep.conditions_checked.append(("descent-cone", verdict, True))
    rep.is_sharp = rep.is_unique = verdict
    if rep.witness is not None:
        rep.notes.append("kernel direction with nonpositive growth found")
    return rep


def sdp_trace_check(Phi, C, X0):
    """Sharpness of a PSD X0 for J = <C, X> + PSD indicator in source form.

    Probes symmetric kernel directions H of Phi: sharp iff no unit H keeps
    E^T H E positive semidefinite (E spanning Ker X0) while <C, H> stays
    nonpositive.  The probe max(-lambda_min(E^T H E), <C, H>) needs no cone,
    so it is certified for kernel dimension <= 3 via the angular grid; it
    reads the blocks' bottom eigenpairs from the gauge's ``_bottom``, as its
    own oracles do.  A minimizer at or below cert_tol that passes
    ``_no_witness_checks`` certifies No, as on the kernel route.
    """
    gauge = SdpTraceGauge(C)
    geom = _Geometry(gauge, Phi, np.asarray(X0, dtype=float).ravel())  # validates PSD
    rep = CertificateReport()
    x0, S, K = geom.x0, geom.S, geom.K
    if K.shape[1] == 0:
        rep.is_sharp = rep.is_unique = YES
        rep.conditions_checked.append(("kernel-probe", YES, True))
        rep.notes.append("kernel trivial on the symmetric subspace")
        return rep
    Cs = S.T @ gauge.C.ravel()

    def phi_batch(T):
        T = np.atleast_2d(np.asarray(T, dtype=float))
        return np.maximum(-gauge._bottom(x0, T @ S.T)[0], T @ Cs)

    def phi_sg(T):
        T = np.atleast_2d(np.asarray(T, dtype=float))
        G = np.tile(Cs, (T.shape[0], 1))
        lam, _, Gk = gauge._bottom(x0, T @ S.T, vectors=True)
        low = T @ Cs < -lam
        G[low] = Gk[low] @ S
        return G

    phi = CallableFn(phi_batch, phi_sg)
    res = sphere_min(phi, K)
    rep.notes.append(f"kernel probe value {res.value:.12g} ({res.engine})")
    tol = config.cert_tol()
    verdict, certified = (YES, res.certified) if res.value > tol else \
        (NO, res.certified or _no_witness_checks(geom, res.minimizer, tol))
    if verdict == NO and res.minimizer is not None:
        rep.witness = geom.to_ambient(res.minimizer)
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
