"""Numerical tolerances and engine budgets.

Three settings may be changed per run without code changes:

``CERT_TOL``
    Strictness threshold for relative-interior margins and verdict
    thresholds (default ``1e-8``).
``LP_MAXITER``
    Iteration cap handed to the LP backend (default ``20000``).
``PROBE_RESTARTS``
    Restart count for the multistart subgradient sphere probe
    (default ``200``).

Each is read at call time from, in this order, the innermost active
``overrides`` scope (the command line's flags), the environment variable,
and the default.  A scope is a context variable and ends with its ``with``
block; nothing here writes to ``os.environ``.
"""

import contextlib
import contextvars
import os

__all__ = [
    "overrides",
    "cert_tol",
    "strict_lt_one_tol",
    "lp_maxiter",
    "probe_restarts",
    "RANK_TOL",
    "VERTEX_CAP",
    "NSP_CAP",
    "GRID_RES",
    "GRID_RES_3D",
    "GRID_REFINE_RES",
]

#: relative threshold on singular values when estimating ranks/kernels
RANK_TOL = 1e-10

#: cap on enumerated subdifferential vertices / linear pieces
VERTEX_CAP = 4096

#: cap on |I| for the null-space-property enumeration (2**(|I|-1) LPs)
NSP_CAP = 14

#: initial angular resolution (radians) of the grid sphere probe, 1-2 angles
GRID_RES = 1e-3

#: initial angular resolution for the two-angle (3-dim sphere) case; the
#: refinement stages below still certify down to GRID_REFINE_RES
GRID_RES_3D = 4e-3

#: final angular resolution after local refinement
GRID_REFINE_RES = 1e-6


_OVERRIDES = contextvars.ContextVar("gaugecert_overrides", default={})


@contextlib.contextmanager
def overrides(cert_tol=None, lp_maxiter=None, probe_restarts=None):
    """Scope in which the settings given (not None) win over the environment."""
    given = zip(("CERT_TOL", "LP_MAXITER", "PROBE_RESTARTS"),
                (cert_tol, lp_maxiter, probe_restarts))
    token = _OVERRIDES.set({**_OVERRIDES.get(),
                            **{k: v for k, v in given if v is not None}})
    try:
        yield
    finally:
        _OVERRIDES.reset(token)


def _setting(name, cast, default):
    raw = _OVERRIDES.get().get(name, os.environ.get(name))
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError as exc:
        what = "an integer" if cast is int else "a number"
        raise ValueError(f"{name} must be {what}, got {raw!r}") from exc


def cert_tol():
    """Margin strictness: z is accepted as relative-interior iff margin > this."""
    return _setting("CERT_TOL", float, 1e-8)


def strict_lt_one_tol():
    """Strict inequalities "< 1" are implemented as <= 1 minus this slack."""
    return 1e-6


def lp_maxiter():
    return _setting("LP_MAXITER", int, 20000)


def probe_restarts():
    return _setting("PROBE_RESTARTS", int, 200)
