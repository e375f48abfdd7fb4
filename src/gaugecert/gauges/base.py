"""Base classes for gauge penalties and their subdifferential faces.

A gauge here is a convex, nonnegative, positively homogeneous penalty J with
J(0) = 0, possibly taking the value +inf (conic kinds carry a domain
restriction).  Each gauge class, with its face class, is the one place that
holds what is specific to its kind; the certification, solver, recovery and
CLI layers call the hooks below instead of switching on ``kind``.

Every pointwise oracle is written once, on a stack of directions; the
single-direction ``value`` and ``dir_deriv`` here are row 0 of the batch
calls, and ``critical_cone`` and ``dir_probe`` are built here from the batch
oracles for every finite-valued kind.

A new kind subclasses ``Gauge`` (and ``SubdiffFace``), registers itself in
``gauges.KINDS``, and implements:

* construction -- ``from_spec`` reading the problem-file vocabulary
  (``size_field``, plus the one parameter named by ``param_field``),
  ``spec_n`` translating an ambient dimension into that ``n``, and
  ``draw_x0`` for seeded recovery trials;
* evaluation -- ``value_batch``, ``prox``, ``polar``, ``lipschitz``;
* first-order geometry -- ``face``, and a ``descent_form`` (J'(x0; .) as a
  sum of linear, l1 and l2 blocks of h @ M: the decomposable norms), from
  which ``dir_deriv_batch``, ``dir_deriv_subgrad_batch``, ``descent_lift``,
  ``descent_soc`` and ``descent_pieces`` are read here; or else the kind's
  own ``dir_deriv_batch``, one subgradient per row through
  ``dir_subgrad_batch`` or ``dir_deriv_subgrad_batch`` (each defaults to
  the other, so a kind writes one), and ``descent_pieces`` /
  ``descent_lift`` / ``descent_soc`` where they apply; a kind whose oracles
  start from a factorization of x0 computes it once per x0 with ``per_x0``;
* conic kinds also give ``domain_tangent_cone``, ``domain_residual``,
  ``finite_dir_deriv_batch`` (J' without the domain's +inf) and their own
  ``critical_cone``;
* the face's ``margin`` (for wsl1, the smallest slack of its majorization
  inequalities) and ``sample``; ``contains`` is written here, as
  ``margin >= -tol``.  ``certificate`` (the search for y with A^T y in the
  relative interior of the face) is written here too, as one
  interior-point eigenvalue search: a face gives its ``affine_part`` (the
  linear equations on y), its ``pencil`` (the affine symmetric matrix of y
  whose largest eigenvalue the search minimizes over their solutions) and
  a ``note``.  The polyhedral faces replace it with an exact max-margin LP,
  and answer a singleton face with ``point_certificate``;
* solvers -- polyhedral kinds give ``primal_lp`` (min J(x) s.t. Ax = b0 as
  one LP, whose equality multipliers are also the dual point; its lift
  also carries their Tikhonov and Mozorov QPs); the others are solved by
  splitting and FISTA, from ``prox`` and ``polar`` alone;
* optional extras, with defaults here that mean "not applicable":
  ``coordinate_basis`` (effective coordinates when the domain lies in a
  subspace), ``interior_feasibility``, ``tangent_space_test`` and
  ``exposed_face``.
"""

import functools
import itertools
import math
import numbers

import numpy as np

from .. import config
from ..cones import EnumerationCapExceeded, affine_solve, min_lambda_max

__all__ = ["Gauge", "SubdiffFace", "VertexCapExceeded", "spec_int",
           "spec_array", "construct", "sparse_draw", "Memo", "per_x0",
           "point_certificate"]

#: a face or piece enumeration past its cap: the one cap exception of
#: ``cones``, under the name the gauge layer has always raised
VertexCapExceeded = EnumerationCapExceeded


def spec_int(spec, name):
    """The positive integer field ``name`` of a spec (ValueError otherwise)."""
    val = spec.get(name)
    if not isinstance(val, numbers.Integral) or isinstance(val, bool) or val <= 0:
        raise ValueError(f"{name}: expected a positive integer")
    return int(val)


def spec_array(spec, name, ndim, size=None):
    """The nonempty finite numeric array field ``name`` with ``ndim``
    dimensions (and ``size`` entries when given); ValueError otherwise."""
    what = "list of numbers" if ndim == 1 else "list of equal-length rows of numbers"
    try:
        arr = np.asarray(spec.get(name), dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name}: expected a nonempty {what}") from None
    if arr.ndim != ndim or arr.size == 0:
        raise ValueError(f"{name}: expected a nonempty {what}")
    if size is not None and arr.size != size:
        raise ValueError(f"{name}: expected {size} entries, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite")
    return arr


def construct(cls, field, *args):
    """``cls(*args)``, with constructor errors reported against ``field``."""
    try:
        return cls(*args)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{field}: {exc}") from None


class Memo:
    """One value that an object keeps for the last key it was given, under
    the attribute ``attr`` of ``vars(obj)``: ``put`` replaces the last
    value, and ``get`` returns it when the key is that key, else None.  A
    pickled or deep-copied object keeps no memo (``_MemoEntry``)."""

    def __init__(self, attr):
        self.attr = attr

    def get(self, obj, key):
        hit = vars(obj).get(self.attr)
        return hit[1] if hit and hit[0] == key else None

    def put(self, obj, key, value):
        vars(obj)[self.attr] = _MemoEntry((key, value))
        return value


class _MemoEntry(tuple):
    """A memo's (key, value).  It pickles and deep-copies as an empty
    tuple, which ``Memo.get`` reads as a miss: a value may hold closures,
    which do not pickle, and a copy computes its values anew."""

    def __reduce__(self):
        return tuple, ()


def per_x0(method):
    """Cache ``method(self, x0)`` for the last x0 it saw (by its bytes), in a
    ``Memo``: the factorization of x0 that every oracle call at one point
    starts from.  The arrays it returns are shared between calls, so they
    are read-only."""
    memo = Memo("_last_" + method.__name__)

    @functools.wraps(method)
    def cached(self, x0):
        key = self.flat(x0).tobytes()
        out = memo.get(self, key)
        if out is None:
            out = method(self, x0)
            for arr in out if isinstance(out, tuple) else (out,):
                arr.setflags(write=False)
            memo.put(self, key, out)
        return out

    return cached


def _form_terms(form, H, subgrad):
    """J'(x0; h) at each row of H from a ``descent_form``, and with
    ``subgrad`` one subgradient row of it (else None)."""
    M, blocks = form
    H = np.atleast_2d(np.asarray(H, dtype=float))
    g = H if M is None else H @ M
    total = np.zeros(len(g))
    U = np.zeros_like(g) if subgrad else None
    for kind, cols, s in blocks:
        gc = g[:, cols]
        if kind == "lin":
            total += gc @ s
            if subgrad:
                U[:, cols] = s
        elif kind == "abs":
            total += np.abs(gc).sum(axis=1)
            if subgrad:
                U[:, cols] = np.where(gc >= 0.0, 1.0, -1.0)
        else:
            nh = np.linalg.norm(gc, axis=1, keepdims=True)
            total += nh[:, 0]
            if subgrad:
                U[:, cols] = np.divide(gc, nh, where=nh > 1e-15,
                                       out=np.zeros_like(gc))
    return total, U if not subgrad or M is None else U @ M.T


def point_certificate(C, target, tol=None):
    """The certificate of a face that is a single point: the least-squares
    y of C y = target, or None when its residual exceeds ``tol`` (by
    default 1e-9 max(1, max |target|))."""
    y, _, resid = affine_solve(C, target)
    if tol is None:
        tol = 1e-9 * max(1.0, np.abs(target).max(initial=0.0))
    if resid > tol:
        return None
    return {"y0": y, "ri_margin": math.inf, "margin_is_max": True,
            "note": "face is a singleton"}


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
    note : str
        What the ``certificate`` search minimizes, for its result.
    """

    base = None
    tangent = None
    note = ""

    def margin(self, z):
        """Slack of z inside the face; positive iff z lies in its relative
        interior.  Returns -inf when z is not in the face at all, +inf when
        the face is a singleton containing z."""
        raise NotImplementedError

    def contains(self, z):
        """Whether z belongs to the face up to a tolerance of 1e-9."""
        return self.margin(z) >= -1e-9

    def sample(self, rng, count):
        """Draw ``count`` points of the face (rows)."""
        raise NotImplementedError

    def certificate(self, A):
        """Search for y with A^T y in the relative interior of the face.

        Returns a dict with ``y0``, ``ri_margin``, ``margin_is_max`` and
        ``note``, or None when the affine part of the search is infeasible
        (see ``certificates.find_dual_certificate``).  The search: y solves
        ``affine_part`` by least squares, which settles a singleton face and
        a face whose affine part leaves y no free direction; otherwise
        ``cones.min_lambda_max`` lowers the largest eigenvalue of ``pencil``
        over the solutions.  The margin of the y returned is computed
        exactly, and it is the largest one when the engine closed its
        duality gap.
        """
        rows, rhs, tol = self.affine_part(A)
        if not self.dim:
            return point_certificate(rows, rhs, tol)
        y, N, resid = affine_solve(rows, rhs)
        if resid > tol:
            return None
        if not N.shape[1]:
            return {"y0": y, "ri_margin": float(self.margin(A.T @ y)),
                    "margin_is_max": True,
                    "note": self.note + " fixed by the affine part"}
        pencil = self.pencil(A)
        res = min_lambda_max(pencil(y[None])[0],
                             pencil(N.T) - pencil(np.zeros((1, len(y)))))
        y = y + N @ res.t
        # lower = -inf when the engine read no dual bound; a gap of inf
        # would read as a failure
        gap = (f"gap {res.upper - res.lower:.1e}" if res.lower > -math.inf
               else "no lower bound read")
        return {"y0": y, "ri_margin": float(self.margin(A.T @ y)),
                "margin_is_max": res.certified,
                "note": f"{self.note} minimized by interior point ({gap}, "
                        f"{res.iters} iterations)"}

    def affine_part(self, A):
        """``(rows, rhs, tol)``: A^T y lies in the affine hull of the face
        iff rows @ y = rhs, and a least-squares residual above tol means
        that no y does."""
        raise NotImplementedError

    def pencil(self, A):
        """The map from a stack of y (rows) to a stack of symmetric
        matrices, affine in y, whose largest eigenvalue is the size of the
        free block of A^T y (a largest group norm, spectral norm or
        eigenvalue): lowering it moves A^T y inward from the face's
        relative boundary."""
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
        """J(x): row 0 of ``value_batch``."""
        return float(self.value_batch(self.flat(x)[None, :])[0])

    def value_batch(self, X):
        """J at each row of X."""
        raise NotImplementedError

    def prox(self, x, tau):
        """argmin_z 0.5 ||z - x||^2 + tau * J(z)."""
        raise NotImplementedError

    def prox_jacobian(self, v, tau):
        """``(prox(v, tau), D)`` with D an n x n element of the generalized
        Jacobian of the prox at v, or None where the kind gives none (its
        Tikhonov solves then skip the semismooth Newton route)."""
        return None

    def polar(self, z):
        raise NotImplementedError

    # -- first-order geometry ----------------------------------------------

    def dir_deriv(self, x0, h):
        """J'(x0; h): row 0 of ``dir_deriv_batch``."""
        return float(self.dir_deriv_batch(x0, self.flat(h)[None, :])[0])

    def descent_form(self, x0):
        """``(M, blocks)`` that writes J'(x0; .) as a sum of block terms, or
        None where the kind gives its own oracles.  With g = h @ M (g = h
        when M is None), J'(x0; h) is the sum, in block order, of each
        block's term on the columns ``cols`` of g: ``g[cols] @ s`` for a
        ``("lin", cols, s)`` block, sum |g[cols]| for ``("abs", cols,
        None)`` and ||g[cols]|| for ``("l2", cols, None)``."""
        return None

    def dir_deriv_batch(self, x0, H):
        """One-sided directional derivative J'(x0; h) at each row h of H
        (by default from ``descent_form``).

        Conic kinds return +inf where h leaves the tangent cone of the
        domain at x0.
        """
        form = self.descent_form(x0)
        if form is None:
            raise NotImplementedError
        return _form_terms(form, H, subgrad=False)[0]

    def finite_dir_deriv_batch(self, x0, H):
        """The finite part of J'(x0; .) at each row of H: J' itself for the
        finite-valued kinds; conic kinds leave out the domain's +inf, which
        ``domain_tangent_cone`` carries instead."""
        return self.dir_deriv_batch(x0, H)

    def dir_subgrad_batch(self, x0, H):
        """One subgradient of the finite part of h -> J'(x0; h) at each row
        of H (one row each): by default the rows of
        ``dir_deriv_subgrad_batch``."""
        return self.dir_deriv_subgrad_batch(x0, H)[1]

    def dir_deriv_subgrad_batch(self, x0, H):
        """``(values, subgradients)``: J'(x0; h) and one subgradient row of
        it for each row h of H, from one pass over ``descent_form`` (else
        the two oracles above, unless the kind overrides this with a pass
        of its own)."""
        form = self.descent_form(x0)
        if form is None:
            return self.dir_deriv_batch(x0, H), self.dir_subgrad_batch(x0, H)
        return _form_terms(form, H, subgrad=True)

    def face(self, x0):
        """Subdifferential face model at x0 (J(x0) must be finite)."""
        raise NotImplementedError

    def _form_rows(self, x0):
        """The linear part b of ``descent_form`` (J'(x0; h) = <b, h> + its
        norm terms) and its norm blocks as ``(kind, W)``, W the rows that
        map h to the block; None without a form."""
        form = self.descent_form(x0)
        if form is None:
            return None
        M, blocks = form
        M = np.eye(self.n) if M is None else M
        b, norms = np.zeros(self.n), []
        for kind, cols, s in blocks:
            if kind == "lin":
                b += M[:, cols] @ s
            else:
                norms.append((kind, M[:, cols].T))
        return b, norms

    def _abs_rows(self, x0):
        """``(b, P)`` with J'(x0; h) = <b, h> + sum_j |<P_j, h>|, from a
        form whose l2 blocks are at most one column wide; else None."""
        rows = self._form_rows(x0)
        if rows is None or any(k == "l2" and len(W) > 1 for k, W in rows[1]):
            return None
        return rows[0], np.vstack([np.zeros((0, self.n))]
                                  + [W for _, W in rows[1]])

    def descent_pieces(self, x0):
        """Rows z_i with J'(x0; h) = max_i <z_i, h>, or None.

        Only finite polyhedral kinds can supply this (it is the vertex list
        of ∂J(x0)); the exact piecewise-linear sphere engine consumes it.
        By default the sign vertices b + sum_j (+-P_j) of ``_abs_rows``, in
        product order.  Raises VertexCapExceeded past the configured cap.
        """
        rows = self._abs_rows(x0) if self.is_polyhedral else None
        if rows is None:
            return None
        b, P = rows
        if 2 ** len(P) > config.VERTEX_CAP:
            raise VertexCapExceeded(f"2^{len(P)} sign vertices exceed cap")
        return b + np.array(list(itertools.product((1.0, -1.0),
                                                   repeat=len(P)))) @ P

    def descent_lift(self, x0):
        """``(G_h, G_u)`` with {h : J'(x0; h) <= 0} = {h : exists u,
        G_h h + G_u u <= 0}, or None where that cone is not polyhedral.  By
        default, from ``_abs_rows``: <b, h> + sum(u) <= 0, +-<P_j, h> <= u_j.
        """
        rows = self._abs_rows(x0)
        if rows is None:
            return None
        b, P = rows
        return (np.vstack([b, np.kron(P, [[1.0], [-1.0]])]),
                np.vstack([np.ones(len(P)),
                           np.kron(np.eye(len(P)), [[-1.0], [-1.0]])]))

    def descent_soc(self, x0):
        """``(b, W)`` with {h : J'(x0; h) <= 0} = {h : <b, h> + ||W h|| <=
        0}, one second-order constraint, or None where it is not one.  By
        default, a ``descent_form`` whose one norm block is an l2 block of
        two or more columns."""
        rows = self._form_rows(x0)
        if rows is None or len(rows[1]) != 1:
            return None
        (kind, W), = rows[1]
        return (rows[0], W) if kind == "l2" and len(W) > 1 else None

    def critical_cone(self, x0):
        """ConeSpec for {h : J'(x0; h) <= 0}.

        Its violation is max(0, J'(x0; h)), its subgradient that of J' where
        J' > 0 (zero elsewhere; both read from one
        ``dir_deriv_subgrad_batch`` call), and it is built by
        ``_descent_cone``.
        """
        x0 = np.array(self.flat(x0))

        def violation_batch(H):
            return np.maximum(self.dir_deriv_batch(x0, H), 0.0)

        def violation_subgrad_batch(H):
            vals, G = self.dir_deriv_subgrad_batch(x0, H)
            return np.where((vals > 0.0)[:, None], G, 0.0)

        return self._descent_cone(x0, violation_batch, violation_subgrad_batch,
                                  f"{self.kind} descent cone")

    def _descent_cone(self, x0, violation_batch, violation_subgrad_batch,
                      what):
        """The critical cone at x0 from its violation oracles: anchored at
        -x0 (when J(x0) > 0), lifted by the kind's ``descent_lift`` when it
        gives one at x0, else carrying its ``descent_soc``."""
        from ..cones import ConeSpec
        anchor = -x0 if self.value(x0) > 0 else None
        lift = self.descent_lift(x0)
        if lift is None:
            return ConeSpec.from_violation(
                self.n, violation_batch, violation_subgrad_batch, anchor=anchor,
                note=f"{what} (non-polyhedral)", soc=self.descent_soc(x0))
        return ConeSpec.from_lift(
            *lift, violation_batch, violation_subgrad_batch, anchor=anchor,
            note=f"lifted {what}")

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
        """Sphere-probe view of the finite part of h -> J'(x0; h) (pair it
        with ``domain_tangent_cone`` for the conic kinds): its linear pieces
        when the kind lists them under the cap, so the exact engine can run,
        else the batch oracles."""
        from ..cones import CallableFn, LinearMaxFn
        x0 = np.array(self.flat(x0))
        try:
            pieces = self.descent_pieces(x0)
        except VertexCapExceeded:
            pieces = None
        if pieces is not None:
            return LinearMaxFn(pieces)
        return CallableFn(lambda H: self.finite_dir_deriv_batch(x0, H),
                          lambda H: self.dir_subgrad_batch(x0, H))

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

    # -- optional certification hooks ------------------------------------------

    def coordinate_basis(self):
        """Orthonormal basis of the subspace holding dom J, or None when the
        ambient coordinates are the effective ones."""
        return None

    def interior_feasibility(self, A, b0):
        """``(ok, note)`` of a Slater-point probe for {x in dom J : Ax = b0},
        or None for kinds whose verdicts do not depend on one.  A kind that
        searches for the point does so with ``cones.min_lambda_max``:
        ok=True rests on a point found, while ok=False says that the search
        found none."""
        return None

    def tangent_space_test(self, A, x0, y0):
        """``(verdict, note)`` of a uniqueness rank test at the certificate
        y0 -- verdict True or False when the test decides, None when it does
        not apply -- or None for kinds without one."""
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
