"""Per-layer tracing of gaugecert from outside the package.

``Tracer.installed()`` wraps public functions and gauge methods of the
program in spans for the duration of a ``with`` block and restores them
afterwards.  A function bound under one name in several modules (``lp_solve``
lives in ``cones``, ``certificates``, ``solvers`` and ``gauges.vector``) is
replaced everywhere it is bound.  Spans are recorded only while ``enabled``
is set, i.e. inside the benchmark's timed calls, never during its checks.

Each span knows its parent, so the tracer keeps, per span name, the call
count, the inclusive time and the self time (inclusive time minus the time
covered by child spans), plus a call tree keyed by (parent, name).  Counts
the program reports in its results (probe engine, evaluations, solver
iterations and statuses, certificate search kind) are read from the returned
``SphereMinResult``, ``SolveResult`` and certificate dict.
"""

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.optimize._linprog_highs as linprog_highs

import gaugecert.cones as cones
import gaugecert.gauges as gauges
import gaugecert.gauges.base as gauge_base

#: module-level functions traced, by module; the span is "<module>.<name>"
FUNCTIONS = {
    "cones": ("lp_solve", "kernel_basis", "range_basis", "cone_trivial",
              "sphere_min", "min_conic_singular", "nsp_constant",
              "min_norm_point"),
    "certificates": ("check_sharp", "check_unique", "find_dual_certificate",
                     "check_sharp_qp", "fuchs_check", "analysis_check",
                     "wsl1_check", "nuclear_check", "nonneg_l1_check",
                     "sdp_trace_check"),
    "solvers": ("solve_primal_eq", "solve_dual", "solve_tikhonov",
                "solve_mozorov"),
    "cli": ("main", "load_problem"),
}
#: gauge methods traced on every Gauge subclass; the span is "gauges.<name>"
GAUGE_METHODS = ("value", "value_batch", "prox", "polar", "dir_deriv",
                 "dir_deriv_batch", "face", "critical_cone", "dir_probe",
                 "descent_pieces")
#: nearest enclosing span that names the caller of an LP
LP_CALLERS = (("cones.cone_trivial", "cone_trivial"),
              ("cones.nsp_constant", "nsp_constant"),
              ("gauges.face_margin", "face_margin"),
              ("certificates.find_dual_certificate", "find_dual_certificate"),
              ("solvers.", "solvers"),
              ("cones.sphere_min", "sphere_min"))
ENGINES = ("exact-pl", "angular-grid", "multistart-subgradient")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stack = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.tree = defaultdict(lambda: [0, 0.0, 0.0])
        self.count = defaultdict(float)
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.stack.pop()
                tracer._close(name, frame[1], dt)
            if on_result is not None:
                on_result(tracer, dt, args, result)
            return result

        return span

    def _close(self, name, child, dt):
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += dt
        self.calls[name] += 1
        self.total[name] += dt
        self.self_time[name] += dt - child
        node = self.tree[(parent[0] if parent else "", name)]
        node[0] += 1
        node[1] += dt
        node[2] += dt - child
        if name == "cones.lp_solve":
            self.count["lp." + self._lp_caller()] += 1
        elif name == "solvers.solve_tikhonov" and self._inside("solvers.solve_mozorov"):
            self.count["mozorov.tikhonov"] += 1

    def _inside(self, name):
        return any(f[0] == name for f in self.stack)

    def _lp_caller(self):
        for frame in reversed(self.stack):
            for prefix, label in LP_CALLERS:
                if frame[0].startswith(prefix):
                    return label
        return "other"

    # -- installing ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        try:
            self._install()
            yield self
        finally:
            for owner, attr, original in reversed(self._undo):
                setattr(owner, attr, original)
            self._undo.clear()

    def _install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "gaugecert" or name.startswith("gaugecert.")]
        hooks = {"cones.sphere_min": _on_sphere_min,
                 "certificates.find_dual_certificate": _on_certificate,
                 "solvers.solve_tikhonov": _on_tikhonov}
        for mod, names in FUNCTIONS.items():
            home = sys.modules[f"gaugecert.{mod}"]
            for fname in names:
                original = getattr(home, fname)
                span = self.wrap(f"{mod}.{fname}", original,
                                 hooks.get(f"{mod}.{fname}"))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is original:
                            self._set(m, attr, span)
        batch_hooks = {"value_batch": _rows("value_batch", 1),
                       "dir_deriv_batch": _rows("dir_deriv_batch", 2)}
        for cls in _subclasses(gauges.Gauge):
            for meth in GAUGE_METHODS:
                if meth in cls.__dict__:
                    self._set(cls, meth, self.wrap(
                        f"gauges.{meth}", cls.__dict__[meth],
                        batch_hooks.get(meth)))
        for cls in _subclasses(gauge_base.SubdiffFace):
            if "margin" in cls.__dict__:
                self._set(cls, "margin",
                          self.wrap("gauges.face_margin", cls.__dict__["margin"]))
        self._set(linprog_highs, "_highs_wrapper",
                  self.wrap("scipy.highs", linprog_highs._highs_wrapper))
        # cone violation subgradients are closures stored on each ConeSpec
        init = cones.ConeSpec.__init__
        tracer = self

        @functools.wraps(init)
        def cone_init(spec, *args, **kwargs):
            init(spec, *args, **kwargs)
            if spec.violation_subgrad is not None:
                spec.violation_subgrad = tracer.wrap(
                    "cones.violation_subgrad", spec.violation_subgrad)

        self._set(cones.ConeSpec, "__init__", cone_init)

    # -- results -------------------------------------------------------------

    def metrics(self, rounds, overhead_s):
        """Per-layer metrics per round (see README for what each moves)."""
        R = float(rounds)
        c, t, st, k = self.calls, self.total, self.self_time, self.count

        def ratio(a, b):
            return a / b if b else 0.0

        lp = c["cones.lp_solve"]
        m = {
            "cones.lp_solve.calls": (lp / R, "count"),
            "cones.lp_solve.s": (t["cones.lp_solve"] / R, "s"),
            "cones.lp_solve.highs_s": (t["scipy.highs"] / R, "s"),
            "cones.lp_solve.ms_per_call": (1e3 * ratio(t["cones.lp_solve"], lp), "ms"),
        }
        for _, label in LP_CALLERS + (("", "other"),):
            m[f"cones.lp_solve.calls.{label}"] = (k["lp." + label] / R, "count")
        m["cones.cone_trivial.calls"] = (c["cones.cone_trivial"] / R, "count")
        m["cones.cone_trivial.lps_per_call"] = (
            ratio(k["lp.cone_trivial"], c["cones.cone_trivial"]), "count")
        m["cones.nsp_constant.s"] = (t["cones.nsp_constant"] / R, "s")
        m["cones.nsp_constant.lps_per_call"] = (
            ratio(k["lp.nsp_constant"], c["cones.nsp_constant"]), "count")
        m["cones.range_basis.s"] = (t["cones.range_basis"] / R, "s")
        m["gauges.face.calls"] = (c["gauges.face"] / R, "count")
        m["gauges.face.s"] = (t["gauges.face"] / R, "s")
        for e in ENGINES:
            m[f"cones.sphere_min.{e}.calls"] = (k[f"engine.{e}.calls"] / R, "count")
            m[f"cones.sphere_min.{e}.s"] = (k[f"engine.{e}.s"] / R, "s")
            m[f"cones.sphere_min.{e}.evals"] = (k[f"engine.{e}.evals"] / R, "count")
        m["cones.sphere_min.certified_share"] = (
            ratio(k["sphere_min.certified"], c["cones.sphere_min"]), "share")
        m["cones.min_conic_singular.s"] = (t["cones.min_conic_singular"] / R, "s")
        m["cones.violation_subgrad.calls"] = (c["cones.violation_subgrad"] / R, "count")
        m["cones.violation_subgrad.s"] = (t["cones.violation_subgrad"] / R, "s")
        for meth in ("dir_deriv", "prox"):
            m[f"gauges.{meth}.calls"] = (c[f"gauges.{meth}"] / R, "count")
            m[f"gauges.{meth}.s"] = (t[f"gauges.{meth}"] / R, "s")
        m["gauges.value.calls"] = (c["gauges.value"] / R, "count")
        m["gauges.polar.calls"] = (c["gauges.polar"] / R, "count")
        for meth in ("value_batch", "dir_deriv_batch"):
            m[f"gauges.{meth}.rows"] = (k[f"rows.{meth}"] / R, "count")
            m[f"gauges.{meth}.s"] = (t[f"gauges.{meth}"] / R, "s")
        tik = c["solvers.solve_tikhonov"]
        moz = c["solvers.solve_mozorov"]
        m["solvers.solve_tikhonov.calls"] = (tik / R, "count")
        m["solvers.solve_tikhonov.s"] = (t["solvers.solve_tikhonov"] / R, "s")
        m["solvers.solve_tikhonov.iters_per_call"] = (ratio(k["tikhonov.iters"], tik), "count")
        m["solvers.solve_tikhonov.maxiter_hits"] = (k["tikhonov.maxiter"] / R, "count")
        m["solvers.solve_mozorov.calls"] = (moz / R, "count")
        m["solvers.solve_mozorov.s"] = (t["solvers.solve_mozorov"] / R, "s")
        m["solvers.solve_mozorov.tikhonov_per_call"] = (
            ratio(k["mozorov.tikhonov"], moz), "count")
        m["solvers.solve_primal_eq.s"] = (t["solvers.solve_primal_eq"] / R, "s")
        m["solvers.solve_dual.s"] = (t["solvers.solve_dual"] / R, "s")
        fdc = c["certificates.find_dual_certificate"]
        m["certificates.find_dual_certificate.calls"] = (fdc / R, "count")
        m["certificates.find_dual_certificate.s"] = (
            t["certificates.find_dual_certificate"] / R, "s")
        m["certificates.find_dual_certificate.heuristic_share"] = (
            ratio(k["certificate.heuristic"], fdc), "share")
        m["certificates.check_sharp.self_s"] = (st["certificates.check_sharp"] / R, "s")
        m["certificates.check_unique.self_s"] = (st["certificates.check_unique"] / R, "s")
        m["cli.load_problem.s"] = (t["cli.load_problem"] / R, "s")
        m["cli.main.self_s"] = (st["cli.main"] / R, "s")
        m["trace.overhead_s"] = (overhead_s, "s")
        return {name: {"value": float(v), "unit": u} for name, (v, u) in m.items()}

    def write(self, path):
        spans = [{"parent": parent, "name": name, "calls": node[0],
                  "s": node[1], "self_s": node[2]}
                 for (parent, name), node in sorted(self.tree.items())]
        path.write_text(json.dumps({"spans": spans, "counts": dict(self.count)},
                                   indent=1), encoding="utf-8")


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


def _rows(meth, pos):
    def hook(tracer, dt, args, result):
        tracer.count["rows." + meth] += np.atleast_2d(np.asarray(args[pos])).shape[0]
    return hook


def _on_sphere_min(tracer, dt, args, result):
    e = result.engine
    tracer.count[f"engine.{e}.calls"] += 1
    tracer.count[f"engine.{e}.s"] += dt
    tracer.count[f"engine.{e}.evals"] += result.evals
    tracer.count["sphere_min.certified"] += bool(result.certified)


def _on_certificate(tracer, dt, args, result):
    if result is not None and not result["margin_is_max"]:
        tracer.count["certificate.heuristic"] += 1


def _on_tikhonov(tracer, dt, args, result):
    tracer.count["tikhonov.iters"] += result.iterations
    tracer.count["tikhonov.maxiter"] += result.status == "maxiter"

