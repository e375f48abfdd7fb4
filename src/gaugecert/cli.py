"""Command-line front end: problem files in, reports and exit codes out.

A problem file is strict JSON: a ``version`` tag, a ``gauge`` record, the
operator ``A`` as a dense row-major nested list, and optional data fields
(``x0``, ``b``, ``b0``, ``delta``, ``mu``, ``c1``) plus the gauge parameter
the chosen kind needs (``D``, ``w``, ``partition``, or ``C``).  Unknown
fields are rejected and shapes are validated before any computation runs.

Four subcommands::

    gaugecert certify FILE [--condition ...] [--json]
    gaugecert solve   FILE --problem {primal,dual,tikhonov,mozorov} [--json]
    gaugecert recover FILE --deltas ... [--c1 ...] [--seeds ...] [--csv ...]
    gaugecert nsp     FILE --support ...

Exit codes are part of the contract::

    0   verdict Yes / solve optimal / all applicable bounds pass
    1   verdict No / a bound violated / NSP constant >= 1/2
    2   verdict Unknown
    3   problem-file or usage validation error
    4   infeasible system, enumeration cap exceeded, or internal error
    5   iteration budget exhausted before convergence

Tolerance knobs may be set per run with ``--cert-tol``, ``--lp-maxiter``
and ``--probe-restarts``.  A flag holds for that one call of ``main``, as a
``config.overrides`` scope that leaves ``os.environ`` untouched; a knob
without its flag reads the environment variable ``CERT_TOL``,
``LP_MAXITER`` or ``PROBE_RESTARTS``, then its default.  A knob that
does not parse or is out of range, from a flag or the environment, is a
validation error (exit 3) before any work starts.  All index
lists (``--support``, ``partition``) are 0-based.  Reports are printed as
aligned-column text or, with ``--json``, as strict JSON in which non-finite
numbers appear as the strings "inf"/"-inf"/"nan".
"""

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import config
from .certificates import (
    NO,
    UNKNOWN,
    YES,
    InternalDisagreementError,
    analysis_check,
    check_sharp,
    check_unique,
    fuchs_check,
    nonneg_l1_check,
    nuclear_check,
    sdp_trace_check,
    wsl1_check,
)
from .cones import EnumerationCapExceeded, LpFailure, nsp_constant
from .gauges import KINDS, from_spec
from .gauges.base import spec_array
from .recovery import (ProblemInstance, RecoveryReport, noise_draw,
                       rows_to_csv, run_recovery)
from .solvers import (
    ResidualMonotonicityError,
    solve_dual,
    solve_mozorov,
    solve_primal_eq,
    solve_tikhonov,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_VALIDATION = 3
EXIT_ERROR = 4
EXIT_NOCONV = 5

_LABEL = 18  # label column width of the text reports


class ProblemValidationError(ValueError):
    """A problem file or flag combination failed validation."""


def _fail(msg):
    raise ProblemValidationError(msg)


# ---------------------------------------------------------------------------
# problem-file parsing


#: the top-level gauge parameter fields, mapped to the kind that reads each
_PARAM_OWNER = {cls.param_field: kind for kind, cls in KINDS.items()
                if cls.param_field}
_TOP_FIELDS = {"version", "gauge", "A", "x0", "b", "b0", "delta", "mu",
               "c1"} | set(_PARAM_OWNER)


def _as_array(raw, name, ndim, size=None):
    try:
        return spec_array(raw, name, ndim, size)
    except ValueError as exc:
        _fail(str(exc))


def _as_number(obj, name, positive=False, nonneg=False):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        _fail(f"{name}: expected a number")
    val = float(obj)
    if not math.isfinite(val):
        _fail(f"{name}: must be finite")
    if positive and not val > 0:
        _fail(f"{name}: must be positive")
    if nonneg and not val >= 0:
        _fail(f"{name}: must be nonnegative")
    return val


def load_problem(path):
    """Parse and validate a problem file.

    Returns a dict with the constructed gauge, the operator ``A`` and the
    optional data fields (absent ones map to None).  Raises
    ProblemValidationError with a located message on any defect; JSON
    syntax errors carry the line and column.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        _fail(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        _fail(f"{path}: not UTF-8 text (byte {exc.start})")
    try:
        raw = json.loads(text, parse_constant=lambda name: _fail(
            f"{name} is not a number in strict JSON"))
    except json.JSONDecodeError as exc:
        _fail(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        _fail("top level must be a JSON object")
    unknown = sorted(set(raw) - _TOP_FIELDS)
    if unknown:
        _fail(f"unknown field(s): {', '.join(unknown)}")
    if "version" not in raw:
        _fail("missing required field 'version'")
    if raw["version"] != 1:
        _fail(f"unsupported version {raw['version']!r} (this reader handles 1)")

    rec = raw.get("gauge")
    if not isinstance(rec, dict):
        _fail("missing or malformed 'gauge' record")
    kind = rec.get("kind")
    if kind not in KINDS:
        _fail(f"gauge.kind: expected one of {sorted(KINDS)}, got {kind!r}")
    cls = KINDS[kind]
    extra = sorted(set(rec) - {"kind", cls.size_field})
    if extra:
        _fail(f"gauge: unknown field(s): {', '.join(extra)}")
    for fld, owner in _PARAM_OWNER.items():
        if fld in raw and fld != cls.param_field:
            _fail(f"field {fld!r} requires gauge kind {owner!r}")
    spec = dict(rec)
    if cls.param_field is not None:
        if cls.param_field not in raw:
            _fail(f"gauge kind {kind!r} requires field {cls.param_field!r}")
        spec[cls.param_field] = raw[cls.param_field]
    try:
        gauge = from_spec(spec)
    except ValueError as exc:
        _fail(str(exc))
    ambient = gauge.n

    if "A" not in raw:
        _fail("missing required field 'A'")
    A = _as_array(raw, "A", 2)
    if A.shape[1] != ambient:
        _fail(f"A: expected {ambient} columns for this gauge, got {A.shape[1]}")
    m = A.shape[0]

    prob = {"gauge": gauge, "A": A, "x0": None, "b": None, "b0": None,
            "delta": None, "mu": None, "c1": None}
    if "x0" in raw:
        prob["x0"] = _as_array(raw, "x0", 1, size=ambient)
    for fld in ("b", "b0"):
        if fld in raw:
            prob[fld] = _as_array(raw, fld, 1, size=m)
    if "delta" in raw:
        prob["delta"] = _as_number(raw["delta"], "delta", nonneg=True)
    if "mu" in raw:
        prob["mu"] = _as_number(raw["mu"], "mu", positive=True)
    if "c1" in raw:
        prob["c1"] = _as_number(raw["c1"], "c1", positive=True)
    return prob


# ---------------------------------------------------------------------------
# report serialization


def _json_safe(obj):
    """Recursively convert to strict-JSON-serializable values.

    Non-finite floats become the strings "inf"/"-inf"/"nan" so the emitted
    report always re-parses under a strict JSON reader.
    """
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        if math.isnan(val):
            return "nan"
        if math.isinf(val):
            return "inf" if val > 0 else "-inf"
        return val
    return obj


def _print(text):
    """Print a report line; a reader that closed the pipe early only loses
    the rest of the output, not the exit code."""
    try:
        print(text)
    except BrokenPipeError:
        _drop_stdout()


def _drop_stdout():
    """Point stdout at the null device once its reader has gone away."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


@contextlib.contextmanager
def _fd1_on_stderr():
    """Point fd 1 at stderr while a command runs, so that text a C library
    prints there cannot mix with the report (HiGHS's QP code prints
    "dimension mismatch" from C++); ``sys.stdout``, when it wrote to fd 1,
    writes to the original stdout meanwhile.  Under a Python-level
    redirect of ``sys.stdout`` only fd 1 moves.  On exit ``sys.stdout`` is
    flushed (a reader that went away early only loses the rest of the
    report), and both are restored."""
    stream, saved = sys.stdout, None
    try:
        try:
            real = stream.fileno() == 1
        except (AttributeError, OSError, ValueError):
            real = False
        if real:
            stream.flush()
        saved = os.dup(1)
        if real:
            sys.stdout = open(saved, "w", closefd=False,
                              buffering=1 if stream.line_buffering else -1,
                              encoding=stream.encoding, errors=stream.errors)
        os.dup2(2, 1)
    except OSError:
        pass
    try:
        yield
    finally:
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            _drop_stdout()
        if sys.stdout is not stream:
            sys.stdout.close()
            sys.stdout = stream
        if saved is not None:
            os.dup2(saved, 1)
            os.close(saved)


def _emit_json(payload):
    _print(json.dumps(_json_safe(payload), indent=2, sort_keys=True,
                      allow_nan=False))


def _kv(label, value):
    _print(f"{label:<{_LABEL}} {value}")


def _fmt_float(val):
    if val is None:
        return "-"
    val = float(val)
    return repr(val) if math.isfinite(val) else str(val)


# ---------------------------------------------------------------------------
# certify


#: the kind-specific checkers: condition -> (gauge kind, call)
_CHECKERS = {
    "fuchs": ("l1", lambda g, A, x0: fuchs_check(A, x0)),
    "analysis": ("analysis_l1", lambda g, A, x0: analysis_check(A, g.D, x0)),
    "wsl1": ("wsl1", lambda g, A, x0: wsl1_check(A, g.w, x0)),
    "nuclear": ("nuclear",
                lambda g, A, x0: nuclear_check(A, x0.reshape(g.shape))),
    "nonneg": ("nonneg_l1", lambda g, A, x0: nonneg_l1_check(A, x0)),
    "sdp": ("sdp_trace",
            lambda g, A, x0: sdp_trace_check(A, g.C, x0.reshape(g.nmat, g.nmat))),
}
#: condition ids of the two generic routes, selectable by name
_ROUTE_IDS = {"v": "range-space", "vii": "kernel"}


def _headline(report, condition):
    """The verdict that drives the exit code for the chosen condition."""
    route = _ROUTE_IDS.get(condition)
    if route is None:
        return report.is_sharp
    for cid, verdict, _certified in report.conditions_checked:
        if cid == route:
            return verdict
    return UNKNOWN


def cmd_certify(args):
    prob = load_problem(args.file)
    gauge, A, x0 = prob["gauge"], prob["A"], prob["x0"]
    if x0 is None:
        _fail("certify requires x0 in the problem file")
    if not math.isfinite(gauge.value(x0)):
        _fail("x0 lies outside the gauge domain (J(x0) is not finite)")

    cond = args.condition
    if cond == "auto":
        report = check_unique(gauge, A, x0)
    elif cond in _ROUTE_IDS:
        report = check_sharp(gauge, A, x0)
    else:
        want, check = _CHECKERS[cond]
        if gauge.kind != want:
            _fail(f"--condition {cond} applies to gauge kind {want!r}, "
                  f"the file declares {gauge.kind!r}")
        report = check(gauge, A, x0)

    verdict = _headline(report, cond)
    if args.json:
        _emit_json({"command": "certify", "condition": cond,
                    "verdict": verdict, "report": report.to_dict()})
    else:
        _kv("condition", cond)
        _kv("verdict", verdict)
        _kv("gauge", f"{gauge.kind}  (ambient dim {gauge.n})")
        _kv("operator", f"{A.shape[0]} x {A.shape[1]}")
        _kv("is_sharp", report.is_sharp)
        _kv("is_unique", report.is_unique)
        _kv("kappa", _fmt_float(report.kappa)
            + ("  (certified)" if report.kappa_certified else ""))
        _kv("alpha", _fmt_float(report.alpha)
            + ("  (certified)" if report.alpha_certified else ""))
        _kv("ri_margin", _fmt_float(report.ri_margin))
        _print("conditions")
        for cid, v, certified in report.conditions_checked:
            tag = "certified" if certified else "heuristic"
            _print(f"  {cid:<{_LABEL - 2}} {v:<8} {tag}")
        for note in report.notes:
            _print(f"note: {note}")
    return {YES: EXIT_YES, NO: EXIT_NO}.get(verdict, EXIT_UNKNOWN)


# ---------------------------------------------------------------------------
# solve


def _solver_exit(status):
    if status == "optimal":
        return EXIT_YES
    if status == "maxiter":
        return EXIT_NOCONV
    return EXIT_ERROR  # infeasible and anything unexpected


def _print_solve(payload):
    _kv("problem", payload["problem"])
    _kv("status", payload["status"])
    _kv("value", _fmt_float(payload["value"]))
    point = payload["point"]
    if point is None:
        _kv("point", "-")
    else:
        _kv("point", "[" + ", ".join(_fmt_float(v) for v in point) + "]")
    for key, val in sorted(payload["residuals"].items()):
        _kv(key, _fmt_float(val))
    if "dual_value" in payload:
        _kv("dual_value", _fmt_float(payload["dual_value"]))
    if "duality_gap" in payload:
        _kv("duality_gap", _fmt_float(payload["duality_gap"]))
    _kv("iterations", payload["iterations"])
    info = payload.get("info", {})
    # Tikhonov and Mozorov: zero, exact-qp, newton or fista, with the reason
    # a certified route fell back to fista
    if "route" in info:
        _kv("route", info["route"] + (f" ({info['fallback']})"
                                      if "fallback" in info else ""))
    if payload.get("note"):
        _kv("note", payload["note"])


def cmd_solve(args):
    prob = load_problem(args.file)
    gauge, A = prob["gauge"], prob["A"]
    which = args.problem

    if which in ("primal", "dual"):
        b0 = prob["b0"]
        if b0 is None and prob["x0"] is not None:
            b0 = A @ prob["x0"]
        if b0 is None:
            _fail(f"--problem {which} requires b0 (or x0) in the problem file")
        rp = solve_primal_eq(gauge, A, b0)
        rd = solve_dual(gauge, A, b0)
        res = rp if which == "primal" else rd
        point = None if res.point is None else np.asarray(res.point).ravel()
        payload = {
            "command": "solve", "problem": which, "status": res.status,
            "value": res.value, "point": point,
            "residuals": res.residuals, "iterations": res.iterations,
            "note": res.note,
        }
        other = rd if which == "primal" else rp
        payload["dual_value" if which == "primal" else "primal_value"] = other.value
        if rp.status == "optimal" and rd.status == "optimal":
            payload["duality_gap"] = abs(rp.value - rd.value)
        code = max(_solver_exit(rp.status), _solver_exit(rd.status))
    else:
        b = prob["b"]
        if b is None:
            _fail(f"--problem {which} requires b in the problem file")
        if which == "tikhonov":
            mu = prob["mu"]
            if mu is None and prob["c1"] is not None and prob["delta"] is not None:
                mu = prob["c1"] * prob["delta"]
            if mu is None or mu <= 0:
                _fail("--problem tikhonov requires mu > 0 (or c1 and delta)")
            res = solve_tikhonov(gauge, A, b, mu)
        else:
            if prob["delta"] is None:
                _fail("--problem mozorov requires delta in the problem file")
            res = solve_mozorov(gauge, A, b, prob["delta"])
        x = np.asarray(res.point).ravel()
        payload = {
            "command": "solve", "problem": which, "status": res.status,
            "value": res.value, "point": x,
            "residuals": dict(res.residuals,
                              data_misfit=float(np.linalg.norm(A @ x - b)),
                              gauge_value=gauge.value(x)),
            "iterations": res.iterations, "note": res.note,
        }
        if res.info:
            payload["info"] = res.info
        code = _solver_exit(res.status)

    if args.json:
        _emit_json(payload)
    else:
        _print_solve(payload)
    return code


# ---------------------------------------------------------------------------
# recover


def _parse_deltas(text):
    try:
        deltas = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        _fail(f"--deltas: could not parse {text!r}")
    if not deltas or not all(math.isfinite(d) and d >= 0 for d in deltas):
        _fail("--deltas: expected a comma list of finite nonnegative reals")
    return deltas


def _parse_seeds(text):
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            seeds = list(range(int(lo), int(hi)))
        else:
            seeds = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        _fail(f"--seeds: could not parse {text!r}")
    if not seeds:
        _fail("--seeds: empty range")
    if min(seeds) < 0:
        _fail("--seeds: seeds must be nonnegative integers")
    return seeds


_RECOVER_COLS = ("instance_id", "delta", "err_mozorov", "bound_mozorov",
                 "err_tikhonov", "bound_tikhonov_y0", "bound_tikhonov_lip",
                 "pass")


def cmd_recover(args):
    prob = load_problem(args.file)
    gauge, A, x0 = prob["gauge"], prob["A"], prob["x0"]
    if x0 is None:
        _fail("recover requires x0 in the problem file")
    if args.deltas is not None:
        deltas = _parse_deltas(args.deltas)
    elif prob["delta"] is not None:
        deltas = [prob["delta"]]
    else:
        _fail("provide --deltas or a delta field in the problem file")
    seeds = _parse_seeds(args.seeds)
    c1 = args.c1 if args.c1 is not None else (prob["c1"] or 1.0)
    if not (math.isfinite(c1) and c1 > 0):
        _fail("--c1 must be finite and positive")
    overrides = {}
    if args.force_kappa is not None:
        overrides["kappa"] = args.force_kappa
    if args.force_alpha is not None:
        overrides["alpha"] = args.force_alpha

    # one fixed design, many noise draws: certify once up front
    certificate = check_sharp(gauge, A, x0)
    b0 = A @ x0
    m, n = A.shape
    tag = "-adv" if args.noise == "adversarial" else ""
    agg = RecoveryReport()
    for delta in deltas:
        for seed in seeds:
            omega = noise_draw(np.random.default_rng(seed), b0, delta,
                               args.noise)
            inst = ProblemInstance(
                A=A, x0=x0, b0=b0, delta=delta, omega=omega, seed=seed,
                gauge=gauge,
                instance_id=f"file-{gauge.kind}-m{m}-n{n}-s{seed}-d{delta!r}{tag}")
            agg.extend(run_recovery(inst, c1, overrides=overrides or None,
                                    cert=certificate))

    csv_text = rows_to_csv(agg.rows)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)

    if args.json:
        _emit_json({"command": "recover", "c1": c1, "deltas": deltas,
                    "seeds": seeds, "noise": args.noise,
                    "summary": agg.summary(), "rows": agg.rows})
    else:
        widths = {c: max(len(c), *(len(_csv_cell(r[c])) for r in agg.rows))
                  for c in _RECOVER_COLS}
        _print("  ".join(c.ljust(widths[c]) for c in _RECOVER_COLS))
        for r in agg.rows:
            _print("  ".join(_csv_cell(r[c]).ljust(widths[c])
                             for c in _RECOVER_COLS))
        s = agg.summary()
        _kv("rows", s["rows"])
        _kv("applicable", s["applicable"])
        _kv("passed", s["passed"])
        _kv("worst_violation", _fmt_float(s["worst_violation"]))
    if agg.n_applicable == 0:
        print("warning: bounds not applicable on any row "
              "(no certified sharp minimum)", file=sys.stderr)
    if any(r["pass"] == "error" for r in agg.rows):
        return EXIT_NOCONV
    return EXIT_YES if agg.all_pass else EXIT_NO


def _csv_cell(val):
    return _fmt_float(val) if isinstance(val, float) else str(val)


# ---------------------------------------------------------------------------
# nsp


def cmd_nsp(args):
    prob = load_problem(args.file)
    A = prob["A"]
    try:
        support = sorted({int(tok) for tok in args.support.split(",")
                          if tok.strip()})
    except ValueError:
        _fail(f"--support: could not parse {args.support!r}")
    try:
        value = nsp_constant(A, support)
    except ValueError as exc:
        _fail(f"--support: {exc}")
    guaranteed = value < 0.5
    if args.json:
        _emit_json({"command": "nsp", "support": support,
                    "nsp_constant": value,
                    "uniqueness_guaranteed": guaranteed})
    else:
        _kv("support", "[" + ", ".join(str(i) for i in support) + "]")
        _kv("nsp_constant", _fmt_float(value))
        if guaranteed:
            _kv("verdict", "P1 < 1/2: every vector supported on I is the "
                           "unique minimizer of its own measurements")
        else:
            _kv("verdict", "P1 >= 1/2: uniqueness not guaranteed by this test")
    return EXIT_YES if guaranteed else EXIT_NO


# ---------------------------------------------------------------------------
# parser and dispatch


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this contract reserves 2 for
    verdict Unknown, so usage errors exit with the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cert-tol", type=float, metavar="TOL", default=None,
                        help="margin strictness threshold (env CERT_TOL)")
    common.add_argument("--lp-maxiter", type=int, metavar="N", default=None,
                        help="LP iteration cap (env LP_MAXITER)")
    common.add_argument("--probe-restarts", type=int, metavar="N", default=None,
                        help="sphere-probe restart count (env PROBE_RESTARTS)")
    common.add_argument("--json", action="store_true",
                        help="emit the report as strict JSON")

    parser = _Parser(
        prog="gaugecert",
        description="Certify, solve, and stress-test gauge-regularized "
                    "linear inverse problems.",
        epilog="exit codes: 0 Yes/pass, 1 No/violation, 2 Unknown, "
               "3 validation error, 4 infeasible/cap/internal, "
               "5 no convergence")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", parents=[common],
                       help="decide sharpness/uniqueness of x0")
    p.add_argument("file", help="problem file (strict JSON)")
    p.add_argument("--condition", default="auto",
                   choices=["auto", *_ROUTE_IDS, *_CHECKERS],
                   help="certification route: auto runs the full battery, "
                        "v/vii select the range-space or kernel route, the "
                        "rest are the kind-specific checkers")

    p = sub.add_parser("solve", parents=[common],
                       help="solve one of the four problem forms")
    p.add_argument("file", help="problem file (strict JSON)")
    p.add_argument("--problem", required=True,
                   choices=["primal", "dual", "tikhonov", "mozorov"])

    p = sub.add_parser("recover", parents=[common],
                       help="noise sweep on a fixed design, checking the "
                            "recovery-error bounds")
    p.add_argument("file", help="problem file (strict JSON, needs x0)")
    p.add_argument("--deltas", default=None, metavar="D1,D2,...",
                   help="noise levels (default: the file's delta field)")
    p.add_argument("--c1", type=float, default=None,
                   help="penalty scaling, mu = c1*delta (default 1)")
    p.add_argument("--seeds", default="0:4", metavar="A:B|S1,S2,...",
                   help="noise seeds, a half-open range or a list (default 0:4)")
    p.add_argument("--noise", default="sphere",
                   choices=["sphere", "adversarial"],
                   help="noise model (default sphere)")
    p.add_argument("--csv", default=None, metavar="PATH",
                   help="write the per-trial table to PATH")
    p.add_argument("--force-kappa", type=float, default=None,
                   help="testing knob: replace the certified kappa")
    p.add_argument("--force-alpha", type=float, default=None,
                   help="testing knob: replace the certified alpha")

    p = sub.add_parser("nsp", parents=[common],
                       help="null-space-property constant of A on a support")
    p.add_argument("file", help="problem file (strict JSON; only A is used)")
    p.add_argument("--support", required=True, metavar="I1,I2,...",
                   help="0-based coordinate indices of the support set")
    return parser


@functools.cache
def _parser():
    """The parser, built on the first call of ``main`` in a process."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION

    try:
        with _fd1_on_stderr(), config.overrides(
                cert_tol=args.cert_tol, lp_maxiter=args.lp_maxiter,
                probe_restarts=args.probe_restarts):
            config.validate()
            # looked up at call time, so a replaced cmd_* is the one run
            code = globals()[f"cmd_{args.command}"](args)
        return code
    except (ProblemValidationError, config.SettingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"error: cannot read {exc.filename}", file=sys.stderr)
        return EXIT_VALIDATION
    except (EnumerationCapExceeded, LpFailure,
            InternalDisagreementError, ResidualMonotonicityError, ValueError,
            NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
