"""Numerical tolerances and engine budgets, overridable via the environment.

Three knobs are exposed as environment variables so that command-line runs can
be tuned without code changes:

``CERT_TOL``
    Strictness threshold for relative-interior margins and verdict
    thresholds (default ``1e-8``).
``LP_MAXITER``
    Iteration cap handed to the LP backend (default ``20000``).
``PROBE_RESTARTS``
    Restart count for the multistart subgradient sphere probe
    (default ``200``).

Values are read at call time, not import time, so tests may monkeypatch the
environment.
"""

import os

__all__ = [
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


def _env_float(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be a number, got {raw!r}") from exc


def _env_int(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc


def cert_tol():
    """Margin strictness: z is accepted as relative-interior iff margin > this."""
    return _env_float("CERT_TOL", 1e-8)


def strict_lt_one_tol():
    """Strict inequalities "< 1" are implemented as <= 1 minus this slack."""
    return 1e-6


def lp_maxiter():
    return _env_int("LP_MAXITER", 20000)


def probe_restarts():
    return _env_int("PROBE_RESTARTS", 200)
