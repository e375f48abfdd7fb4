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
block; nothing here writes to ``os.environ``.  A value that does not parse
or lies out of range (a negative or non-finite ``CERT_TOL``, an
``LP_MAXITER`` below 1 or above HiGHS's largest iteration limit 2^31 - 1,
a ``PROBE_RESTARTS`` below 1) raises ``SettingError``; ``validate`` reads
all three at once.
"""

import contextlib
import contextvars
import math
import os

__all__ = [
    "SettingError",
    "overrides",
    "validate",
    "cert_tol",
    "STRICT_LT_ONE_TOL",
    "lp_maxiter",
    "probe_restarts",
    "RANK_TOL",
    "VERTEX_CAP",
    "NSP_CAP",
    "GRID_RES",
    "GRID_RES_3D",
    "GRID_REFINE_RES",
]

#: the one relative threshold for numerical zero; only ``cones.negligible`` reads it
RANK_TOL = 1e-10

#: cap on enumerated subdifferential vertices / linear pieces
VERTEX_CAP = 4096

#: cap on |I| for the null-space-property enumeration (2**(|I|-1) LPs)
NSP_CAP = 14

#: initial angular resolution (radians) of the grid sphere probe, 1-2 angles
GRID_RES = 1e-3

#: initial angular resolution for the two-angle (3-dim sphere) case; the
#: refinement stages below still certify down to GRID_REFINE_RES.  The first
#: stage has 787 x 1571 = 1,236,377 directions (theta in [0, pi], phi in
#: [0, 2 pi)); the three refinement stages after it have about 193 x 193,
#: 193 x 193 and (at GRID_REFINE_RES) 25 x 25
GRID_RES_3D = 4e-3

#: final angular resolution after local refinement
GRID_REFINE_RES = 1e-6

#: strict inequalities "< 1" are implemented as <= 1 minus this slack
STRICT_LT_ONE_TOL = 1e-6


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


class SettingError(ValueError):
    """A setting, from a flag or the environment, is malformed or out of range."""


def _setting(name, cast, default, valid, what):
    raw = _OVERRIDES.get().get(name, os.environ.get(name))
    if raw is None:
        return default
    try:
        value = cast(raw)
        if valid(value):
            return value
    except ValueError:
        pass
    raise SettingError(f"{name} must be {what}, got {raw!r}")


def validate():
    """Read every setting once, so that a bad one fails before any work."""
    cert_tol()
    lp_maxiter()
    probe_restarts()


def cert_tol():
    """Margin strictness: z is accepted as relative-interior iff margin > this."""
    return _setting("CERT_TOL", float, 1e-8, lambda v: 0.0 <= v < math.inf,
                    "a finite number >= 0")


def lp_maxiter():
    # HiGHS's iteration limits are 32-bit integers
    return _setting("LP_MAXITER", int, 20000, lambda v: 1 <= v <= 2**31 - 1,
                    "an integer from 1 to 2147483647")


def probe_restarts():
    return _setting("PROBE_RESTARTS", int, 200, lambda v: v >= 1,
                    "an integer >= 1")
