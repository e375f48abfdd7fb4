"""Base classes for gauge penalties and their subdifferential faces.

A gauge here is a convex, nonnegative, positively homogeneous penalty J with
J(0) = 0, possibly taking the value +inf (conic kinds carry a domain
restriction).  Each gauge class, with its face class, is the one place that
holds what is specific to its kind; the certification, solver, recovery and
CLI layers call the hooks below instead of switching on ``kind``.

A new kind subclasses ``Gauge`` (and ``SubdiffFace``), registers itself in
``gauges.KINDS``, and implements:

* construction -- ``from_spec`` reading the problem-file vocabulary
  (``size_field``, plus the one parameter named by ``param_field``),
  ``spec_n`` translating an ambient dimension into that ``n``, and
  ``draw_x0`` for seeded recovery trials;
* evaluation -- ``value``, ``prox``, ``polar``, ``lipschitz``;
* first-order geometry -- ``dir_deriv``, ``face``, ``critical_cone``, and for
  conic kinds ``domain_tangent_cone`` / ``domain_residual``;
* the face's ``margin``, ``contains``, ``sample`` and ``certificate`` (the
  search for y with A^T y in the relative interior of the face);
* solvers -- polyhedral kinds give ``primal_lp`` (min J(x) s.t. Ax = b0 as
  one LP, whose equality multipliers are also the dual point); the others
  give ``polar_ball_project`` for the splitting path;
* optional extras, with defaults here that mean "not applicable":
  ``coordinate_basis`` (effective coordinates when the domain lies in a
  subspace), ``interior_feasibility``, ``tangent_space_test`` and
  ``exposed_face``.
"""

import numbers

import numpy as np

__all__ = ["Gauge", "SubdiffFace", "VertexCapExceeded", "spec_int",
           "spec_array", "construct", "sparse_draw"]


class VertexCapExceeded(RuntimeError):
    """Raised when a face/piece enumeration would exceed the configured cap."""


def spec_int(spec, name):
    """The positive integer field ``name`` of a spec (ValueError otherwise)."""
    val = spec.get(name)
    if not isinstance(val, numbers.Integral) or isinstance(val, bool) or val <= 0:
        raise ValueError(f"{name}: expected a positive integer")
    return int(val)


def spec_array(spec, name, ndim, size=None):
    """The nonempty numeric array field ``name`` with ``ndim`` dimensions
    (and ``size`` entries when given); ValueError otherwise."""
    what = "list of numbers" if ndim == 1 else "list of equal-length rows of numbers"
    try:
        arr = np.asarray(spec.get(name), dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name}: expected a nonempty {what}") from None
    if arr.ndim != ndim or arr.size == 0:
        raise ValueError(f"{name}: expected a nonempty {what}")
    if size is not None and arr.size != size:
        raise ValueError(f"{name}: expected {size} entries, got {arr.size}")
    return arr


def construct(cls, field, *args):
    """``cls(*args)``, with constructor errors reported against ``field``."""
    try:
        return cls(*args)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{field}: {exc}") from None


class SubdiffFace:
    """Explicit model of a subdifferential face ∂J(x0).

    Attributes
    ----------
    base : ndarray
        A point of the face, chosen in its relative interior whenever the
        face has more than one point.
    tangent : ndarray, shape (n, t)
        Orthonormal basis of aff(∂J(x0)) - base.  ``t = 0`` for singleton
        faces.
    param_desc : str
        Human-readable description of the parameter set (box, spectral ball,
        per-block balls, nonpositive orthant, ...).
    """

    base = None
    tangent = None
    param_desc = ""

    def margin(self, z):
        """Slack of z inside the face; positive iff z lies in its relative
        interior.  Returns -inf when z is not in the face at all, +inf when
        the face is a singleton containing z."""
        raise NotImplementedError

    def contains(self, z, tol=1e-9):
        """Whether z belongs to the face up to tolerance."""
        raise NotImplementedError

    def sample(self, rng, count):
        """Draw ``count`` points of the face (rows)."""
        raise NotImplementedError

    def certificate(self, A):
        """Search for y with A^T y in the relative interior of the face.

        Returns a dict with ``y0``, ``ri_margin``, ``margin_is_max`` and
        ``note``, or None when the affine part of the search is infeasible
        (see ``certificates.find_dual_certificate``).
        """
        raise NotImplementedError

    @property
    def dim(self):
        return 0 if self.tangent is None else self.tangent.shape[1]


class Gauge:
    """Abstract gauge penalty on a flat ambient space of dimension ``n``.

    Matrix-shaped kinds flatten row-major; all engine-level code works on
    flat vectors and the gauge reshapes internally.
    """

    kind = "abstract"
    is_polyhedral = False
    #: True for kinds whose J includes a cone indicator (domain restriction)
    is_conic = False
    #: the gauge-record field that sizes the kind in a problem file
    size_field = "n"
    #: the kind's one parameter field in a problem file, if any
    param_field = None

    def __init__(self, n):
        self.n = int(n)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_spec(cls, spec):
        """Build from a problem-file style dict; ValueError names the field."""
        return cls(spec_int(spec, "n"))

    @classmethod
    def spec_n(cls, dim):
        """The problem-file ``n`` of this kind acting on R^dim."""
        return dim

    def draw_x0(self, rng, sparsity=1, rank=1):
        """Random recovery target: ``sparsity`` nonzeros, magnitudes in
        [0.5, 1.5], random signs (``rank`` is for the matrix kinds)."""
        return sparse_draw(rng, self.n, sparsity, signed=True)

    # -- evaluation ---------------------------------------------------------

    def value(self, x):
        raise NotImplementedError

    def value_batch(self, X):
        X = np.asarray(X, dtype=float)
        return np.array([self.value(row) for row in X])

    def prox(self, x, tau):
        """argmin_z 0.5 ||z - x||^2 + tau * J(z)."""
        raise NotImplementedError

    def polar(self, z):
        raise NotImplementedError

    # -- first-order geometry ----------------------------------------------

    def dir_deriv(self, x0, h):
        """One-sided directional derivative J'(x0; h).

        Conic kinds return +inf when h leaves the tangent cone of the domain
        at x0.
        """
        raise NotImplementedError

    def dir_deriv_batch(self, x0, H):
        H = np.asarray(H, dtype=float)
        return np.array([self.dir_deriv(x0, row) for row in H])

    def face(self, x0):
        """Subdifferential face model at x0 (J(x0) must be finite)."""
        raise NotImplementedError

    def descent_pieces(self, x0):
        """Rows z_i with J'(x0; h) = max_i <z_i, h>, or None.

        Only finite polyhedral kinds can supply this (it is the vertex list
        of ∂J(x0)); the exact piecewise-linear sphere engine consumes it.
        Raises VertexCapExceeded past the configured cap.
        """
        return None

    def critical_cone(self, x0):
        """ConeSpec for {h : J'(x0; h) <= 0}."""
        raise NotImplementedError

    def _descent_violation(self, x0):
        """``violation`` and ``violation_batch`` of {h : J'(x0; h) <= 0}."""
        return (lambda h: max(0.0, self.dir_deriv(x0, h)),
                lambda H: np.maximum(self.dir_deriv_batch(x0, H), 0.0))

    def domain_tangent_cone(self, x0):
        """ConeSpec of the domain's tangent cone at x0, or None.

        Finite-valued kinds return None; conic kinds return the cone on which
        the directional derivative stays finite.
        """
        return None

    def domain_residual(self, x):
        """Distance-like measure of how far x sits outside dom J.

        Zero for the finite-valued kinds.  ``value`` tolerates small
        violations for numerical robustness; this is the strict companion
        used when a candidate point must *exactly* belong to the domain.
        """
        return 0.0

    def dir_probe(self, x0):
        """Sphere-probe view of h -> J'(x0; h).

        For conic kinds this is only the finite part, to be paired with
        ``domain_tangent_cone``.  Exposes linear pieces when available so the
        exact engine can run.
        """
        from ..cones import CallableFn, LinearMaxFn
        try:
            pieces = self.descent_pieces(x0)
        except VertexCapExceeded:
            pieces = None
        if pieces is not None:
            return LinearMaxFn(pieces)
        copy = np.array(self.flat(x0))

        def subgrad(h):
            raise NotImplementedError(f"{self.kind} has no generic subgradient")

        return CallableFn(lambda h: self.dir_deriv(copy, h),
                          lambda H: self.dir_deriv_batch(copy, H),
                          subgrad)

    def lipschitz(self):
        """A global Lipschitz constant of J on its domain, w.r.t. the
        Euclidean norm."""
        raise NotImplementedError

    # -- solvers -------------------------------------------------------------

    def primal_lp(self, A, b0):
        """Polyhedral kinds: ``(lp, to_x)`` where ``lp`` holds the
        ``lp_solve`` arguments of min J(x) s.t. Ax = b0, with A x = b0 as its
        last m equality rows, and ``to_x`` maps an LP solution to x."""
        raise NotImplementedError(f"{self.kind} has no LP formulation")

    def polar_ball_project(self, z):
        """Euclidean projection onto {z : J°(z) <= 1} (splitting kinds)."""
        raise NotImplementedError(f"no polar-ball projection for kind {self.kind!r}")

    # -- optional certification hooks ------------------------------------------

    def coordinate_basis(self):
        """Orthonormal basis of the subspace holding dom J, or None when the
        ambient coordinates are the effective ones."""
        return None

    def interior_feasibility(self, A, b0):
        """``(ok, note)`` of a Slater-point probe for {x in dom J : Ax = b0},
        or None for kinds whose verdicts do not depend on one."""
        return None

    def tangent_space_test(self, A, x0, y0):
        """``(verdict, certified, note)`` of a uniqueness rank test at the
        certificate y0, or None for kinds without one."""
        return None

    def exposed_face(self, z):
        """``(active, signs)`` describing the face of the unit ball exposed
        by z, or None when z lies outside the polar set."""
        raise NotImplementedError(
            "displacement probe implemented for l1 and nonneg_l1 only")

    # -- plumbing ------------------------------------------------------------

    def flat(self, x):
        x = np.asarray(x, dtype=float)
        if x.size != self.n:
            raise ValueError(
                f"{self.kind}: expected {self.n} entries, got shape {x.shape}"
            )
        return x.reshape(self.n)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


def sparse_draw(rng, n, sparsity, signed):
    """x0 with ``sparsity`` random nonzeros of magnitude in [0.5, 1.5]."""
    x0 = np.zeros(n)
    if sparsity:
        sup = rng.choice(n, size=sparsity, replace=False)
        mags = rng.uniform(0.5, 1.5, size=sparsity)
        x0[sup] = rng.choice([-1.0, 1.0], size=sparsity) * mags if signed else mags
    return x0
