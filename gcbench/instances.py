"""Seeded inputs for the three workloads.

Every function takes the workload seed and returns one round: a list of
operation records (plain dicts).  The same seed gives the same round.  Each
record carries the problem data, the gauge as a ``(kind, params)`` pair, and
what the benchmark expects, derived here from ``oracle`` (never from
gaugecert).

Why the inputs look the way they do:

* ``verdicts-lp`` fills slots of fixed structure (kind, sizes, sparsity)
  with random data and keeps a fixed number of Yes and of No instances per
  slot, decided by the LP oracle, so each round exercises both outcomes of
  the cone LPs and costs about the same on every seed.
* ``certify-cli`` and ``recovery-sweep`` run few, heavy operations whose cost
  depends on the geometry of each instance (probe engine, cone width,
  conditioning): perturbing the data by 3 % moved one recovery trial's time
  by up to 3 times between seeds.  Their seeded instances are perturbations of relative
  size ``JITTER`` of fixed base designs, so every seed runs the same engines
  on the same geometry while every number the program sees still changes
  with the seed.  Each perturbed instance is decided afresh by the oracle.
"""

import math

import numpy as np

import oracle

#: verdicts-lp slots: (kind, n, m, nonzeros or cosupport size, Yes count,
#: No count).  The structure of every slot is fixed so that each slot costs
#: about the same on every seed; the seed draws the data.  The counts place
#: the median op inside the l1 slots and the 90th percentile inside the
#: 48-vertex wsl1 slots, both dense clusters of similar cost.
POLY_SLOTS = [
    ("analysis_l1", 4, 3, 2, 6, 6),
    ("nonneg_l1", 5, 3, 2, 8, 6),
    ("l1", 5, 3, 2, 10, 10),
    ("analysis_l1", 4, 2, 3, 4, 4),
    ("wsl1", 5, 3, 2, 7, 7),     # 3! * 2^3 = 48 face vertices
    ("wsl1", 5, 3, 1, 1, 1),     # 4! * 2^4 = 384 face vertices
]
#: nsp_constant calls per verdicts-lp round
NSP_CALLS = 14
#: relative size of the seeded perturbation of the base designs
JITTER = 1e-3


def _rec(kind, params, A, x0, **extra):
    out = {"kind": kind, "params": params, "A": np.asarray(A, dtype=float),
           "x0": np.asarray(x0, dtype=float)}
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# verdicts-lp
# ---------------------------------------------------------------------------

def draw_poly(kind, n, m, k, rng):
    if kind == "analysis_l1":
        q = 6
        D = rng.standard_normal((n, q))
        cos = rng.choice(q, size=k, replace=False)
        # x0 orthogonal to the cosupport columns: D^T x0 vanishes there
        comp = oracle.kernel(D[:, cos].T)
        x0 = comp @ rng.standard_normal(comp.shape[1])
        return _rec(kind, {"D": D}, rng.standard_normal((m, n)),
                    x0 / np.abs(x0).max())
    x0 = np.zeros(n)
    mags = rng.uniform(0.5, 1.5, k)
    if kind != "nonneg_l1":
        mags *= rng.choice([-1.0, 1.0], size=k)
    x0[rng.choice(n, size=k, replace=False)] = mags
    params = {"w": np.sort(rng.uniform(0.5, 2.0, n))[::-1]} if kind == "wsl1" else {}
    return _rec(kind, params, rng.standard_normal((m, n)), x0)


def _classify(inst):
    """Oracle verdict, or None when the instance is too close to call."""
    res = oracle.uniqueness(inst["kind"], inst["params"], inst["A"], inst["x0"])
    scale = max(1.0, res["j0"])
    if res["verdict"] == "No":
        clear = (res["j0"] - res["optimum"] > 1e-4 * scale
                 or res["spread"] > 1e-3)
        return res if clear else None
    # unique: demand a visible linear growth, so that tolerance-level
    # margins cannot decide the program's answer
    loose = oracle.uniqueness(inst["kind"], inst["params"], inst["A"],
                              inst["x0"], slack=1e-4 * scale)
    return res if loose["spread"] <= 0.1 else None


def verdicts_lp(seed):
    rng = np.random.default_rng([seed, 11])
    ops = []
    for kind, n, m, k, yes, no in POLY_SLOTS:
        want = {"Yes": yes, "No": no}
        for _ in range(100 * (yes + no)):
            if not any(want.values()):
                break
            inst = draw_poly(kind, n, m, k, rng)
            res = _classify(inst)
            if res is not None and want[res["verdict"]] > 0:
                want[res["verdict"]] -= 1
                ops.append(dict(inst, op="poly", expect=res))
        else:
            raise RuntimeError(f"{kind} n={n} m={m}: verdict quota not met")
    # one wsl1 face with 5! * 2^5 = 3840 vertices (single nonzero at n = 6);
    # its LPs cost 1.5 s on some draws and 5 s on others, so like the
    # certify-cli designs it is a perturbed base design.  A No instance keeps
    # the round short (1.6 s against 5.5 s for a Yes) and still builds the
    # full face twice.
    inst = _design("wsl1", 6, "No", 243, rng, margin=0.0)
    ops.append(dict(inst, op="poly"))
    for _ in range(NSP_CALLS):
        A = rng.standard_normal((3, 6))
        I = sorted(rng.choice(6, size=3, replace=False).tolist())
        ops.append({"op": "nsp", "A": A, "I": I, "expect": oracle.nsp(A, I)})
    ops.append(fixed_nonneg_failure())
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def fixed_nonneg_failure():
    """The nonneg_l1 instance on which the kernel probe certifies a false No.

    Independent of the workload seed; it fails on every run.
    """
    rng = np.random.default_rng(115)
    A = rng.standard_normal((3, 6))
    k = int(rng.integers(1, 4))
    x0 = np.zeros(6)
    x0[rng.choice(6, k, replace=False)] = rng.uniform(0.5, 1.5, k)
    inst = _rec("nonneg_l1", {}, A, x0)
    return dict(inst, op="poly", expect=_classify(inst), known_failure=True)


# ---------------------------------------------------------------------------
# closed-form sharpness on one-dimensional kernels
# ---------------------------------------------------------------------------

def kernel_line(kind, params, A):
    """The unit kernel direction of A when Ker A is a line, else None.

    For sdp_trace the kernel is taken inside the symmetric matrices.
    """
    if kind == "sdp_trace":
        nm = int(round(math.sqrt(A.shape[1])))
        K = oracle.sym_kernel(A, nm)
    else:
        K = oracle.kernel(A)
    return K[:, 0] if K.shape[1] == 1 else None


def dir_deriv(kind, params, x0, h):
    """J'(x0; h) from first principles (+inf when h leaves the domain)."""
    x0 = np.asarray(x0, dtype=float)
    if kind in ("l1", "nonneg_l1"):
        on = x0 != 0.0
        if kind == "nonneg_l1":
            return math.inf if h[~on].min(initial=0.0) < 0 else float(h.sum())
        return float(np.sign(x0[on]) @ h[on] + np.abs(h[~on]).sum())
    if kind == "group_l12":
        tot = 0.0
        for g in params["partition"]:
            ng = np.linalg.norm(x0[g])
            tot += float(x0[g] @ h[g]) / ng if ng > 0 else float(np.linalg.norm(h[g]))
        return tot
    if kind == "nuclear":
        X = x0.reshape(params["shape"])
        U, s, Vt = np.linalg.svd(X)
        r = int(np.sum(s > 1e-10 * s[0]))
        H = h.reshape(params["shape"])
        U1, V1, U2, V2 = U[:, :r], Vt[:r].T, U[:, r:], Vt[r:].T
        tail = np.linalg.svd(U2.T @ H @ V2, compute_uv=False).sum() \
            if U2.shape[1] and V2.shape[1] else 0.0
        return float(np.trace(U1.T @ H @ V1) + tail)
    if kind == "sdp_trace":
        C = np.asarray(params["C"])
        X = x0.reshape(C.shape)
        H = oracle.sym(h.reshape(C.shape))
        w, V = np.linalg.eigh(X)
        E = V[:, w <= 1e-10 * w[-1]]
        if E.shape[1] and np.linalg.eigvalsh(E.T @ H @ E)[0] < -1e-12:
            return math.inf
        return float(np.tensordot(C, H))
    raise ValueError(kind)


def line_sharpness(kind, params, A, x0):
    """min(J'(x0; h), J'(x0; -h)) on a one-dimensional kernel: the sharpness
    constant kappa itself; x0 is the sharp minimizer iff it is positive."""
    h = kernel_line(kind, params, A)
    return min(dir_deriv(kind, params, x0, h), dir_deriv(kind, params, x0, -h))


def sdp_interior(params, A, x0):
    """Whether X0 + t H is positive definite for some t (H the kernel line)."""
    h = kernel_line("sdp_trace", params, A)
    C = np.asarray(params["C"])
    X = x0.reshape(C.shape)
    H = oracle.sym(h.reshape(C.shape))
    ts = np.linspace(-2.0, 2.0, 401)
    return max(np.linalg.eigvalsh(X + t * H)[0] for t in ts) > 1e-3


# ---------------------------------------------------------------------------
# base designs and their seeded perturbations
# ---------------------------------------------------------------------------

def base_draw(kind, shape, rng):
    """One candidate design of the given kind and size (kernel a line)."""
    if kind == "nuclear":
        p, q = shape
        u, v = rng.standard_normal(p), rng.standard_normal(q)
        X = np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        return _rec(kind, {"shape": [p, q]},
                    rng.standard_normal((p * q - 1, p * q)), X.ravel())
    if kind == "sdp_trace":
        nm = shape
        u = rng.standard_normal(nm)
        X = np.outer(u, u) / (u @ u)
        ms = nm * (nm + 1) // 2 - 1
        S = oracle.sym_basis(nm)
        # symmetric measurements: rows of A live in the symmetric subspace
        A = rng.standard_normal((ms, S.shape[1])) @ S.T
        return _rec(kind, {"C": np.eye(nm)}, A, X.ravel())
    n = shape
    if kind == "group_l12":
        part = [list(range(i, min(i + 2, n))) for i in range(0, n, 2)]
        x0 = np.zeros(n)
        g = part[int(rng.integers(len(part)))]
        x0[g] = rng.standard_normal(len(g))
        return _rec(kind, {"partition": part},
                    rng.standard_normal((n - 1, n)), x0)
    if kind == "l1" and n >= 4:
        # certify-cli l1 files: two nonzeros, a two-dimensional kernel
        return draw_poly(kind, n, n - 2, 2, rng)
    if kind == "wsl1":
        return draw_poly(kind, n, n - 1, 1, rng)
    x0 = np.zeros(n)
    x0[int(rng.integers(n))] = rng.uniform(0.5, 1.5) * (
        1.0 if kind == "nonneg_l1" else rng.choice([-1.0, 1.0]))
    return _rec(kind, {}, rng.standard_normal((n - 1, n)), x0)


def _jitter(inst, rng):
    """The base design with seeded noise on A and on the nonzeros of x0."""
    A = inst["A"]
    x0 = inst["x0"]
    out = dict(inst)
    if inst["kind"] == "sdp_trace":
        nm = int(round(math.sqrt(x0.size)))
        S = oracle.sym_basis(nm)
        out["A"] = A + JITTER * rng.standard_normal((A.shape[0], S.shape[1])) @ S.T
        u = np.linalg.eigh(x0.reshape(nm, nm))[1][:, -1]
        u = u + JITTER * rng.standard_normal(nm)
        out["x0"] = (np.outer(u, u) / (u @ u)).ravel()
        return out
    out["A"] = A + JITTER * np.abs(A).max() * rng.standard_normal(A.shape)
    if inst["kind"] == "nuclear":
        p, q = inst["params"]["shape"]
        U, s, Vt = np.linalg.svd(x0.reshape(p, q))
        u = U[:, 0] + JITTER * rng.standard_normal(p)
        v = Vt[0] + JITTER * rng.standard_normal(q)
        out["x0"] = (s[0] * np.outer(u / np.linalg.norm(u),
                                     v / np.linalg.norm(v))).ravel()
        return out
    on = x0 != 0.0
    x1 = x0.copy()
    x1[on] *= rng.uniform(1.0 - JITTER, 1.0 + JITTER, int(on.sum()))
    out["x0"] = x1
    return out


def _verdict(inst, margin):
    """The oracle's verdict on a design, or None when it is too close to call.

    A kernel line is decided by the closed-form sharpness constant, which
    must clear ``margin``; other kernels, and the kinds without a closed-form
    directional derivative here, by the LP oracle.
    """
    if inst["kind"] in ("wsl1", "analysis_l1") or \
            kernel_line(inst["kind"], inst["params"], inst["A"]) is None:
        return _classify(inst)
    if inst["kind"] == "sdp_trace" and not sdp_interior(
            inst["params"], inst["A"], inst["x0"]):
        return None
    kappa = line_sharpness(inst["kind"], inst["params"], inst["A"], inst["x0"])
    if abs(kappa) < margin:
        return None
    return {"verdict": "Yes" if kappa > 0 else "No", "kappa": kappa}


def _design(kind, shape, want, base_seed, rng, margin):
    """A base design with the wanted verdict, then its seeded perturbation.

    The base comes from a fixed stream (``base_seed``), so every workload
    seed perturbs the same designs.  A perturbation whose verdict differs,
    or is too close to call, is redrawn from the seeded stream.
    """
    brng = np.random.default_rng(base_seed)
    while True:
        base = base_draw(kind, shape, brng)
        res = _verdict(base, 2 * margin)
        if res is not None and res["verdict"] == want:
            break
    while True:
        inst = _jitter(base, rng)
        res = _verdict(inst, margin)
        if res is not None and res["verdict"] == want:
            return dict(inst, expect=res)


# ---------------------------------------------------------------------------
# certify-cli
# ---------------------------------------------------------------------------

#: demo problems and their hand-derived answers (criteria 03 and 08)
DEMOS = {
    "sharp_line": {"verdict": "Yes", "kappa": 1 / math.sqrt(5),
                   "alpha": 1 / math.sqrt(2)},
    "flat_line": {"verdict": "No"},
    "noisy_line": {"verdict": "Yes", "kappa": 1 / math.sqrt(5),
                   "alpha": 1 / math.sqrt(2)},
    "spiked_matrix": {"verdict": "Yes", "kappa": 1.0},
}

#: seeded CLI designs: (kind, size, wanted verdict, base stream)
CLI_DESIGNS = [
    ("nuclear", (2, 2), "No", 201),
    ("nuclear", (2, 3), "Yes", 202),
    ("group_l12", 4, "Yes", 211),
    ("group_l12", 6, "No", 216),
    ("sdp_trace", 2, "Yes", 221),
    ("sdp_trace", 3, "No", 223),
    ("l1", 4, "Yes", 231),
    ("l1", 6, "No", 234),
]
#: the kind-specific checker run on each kind, beside the full battery
CONDITION = {"l1": "fuchs", "nuclear": "nuclear", "sdp_trace": "sdp"}


def problem_json(inst):
    """The strict-JSON problem file of an instance."""
    kind, p = inst["kind"], inst["params"]
    if kind == "nuclear":
        gauge = {"kind": kind, "shape": list(p["shape"])}
    elif kind == "sdp_trace":
        gauge = {"kind": kind, "n": len(p["C"])}
    else:
        gauge = {"kind": kind, "n": int(inst["x0"].size)}
    doc = {"version": 1, "gauge": gauge, "A": inst["A"].tolist(),
           "x0": inst["x0"].tolist()}
    if kind == "group_l12":
        doc["partition"] = p["partition"]
    if kind == "sdp_trace":
        doc["C"] = np.asarray(p["C"]).tolist()
    return doc


def demo_instance(name, doc):
    """The oracle view of a demo file."""
    g = doc["gauge"]
    params = {"shape": g["shape"]} if g["kind"] == "nuclear" else {}
    return _rec(g["kind"], params, doc["A"], doc["x0"],
                expect=dict(DEMOS[name]), file=f"demos/problems/{name}.json")


def certify_cli(seed, demo_docs):
    """One certify-cli round; ``demo_docs`` maps demo names to parsed files.

    Seeded files carry ``doc`` (to be written) and no ``file`` yet.
    """
    rng = np.random.default_rng([seed, 12])
    files = [demo_instance(name, demo_docs[name]) for name in DEMOS]
    for kind, shape, want, base_seed in CLI_DESIGNS:
        inst = _design(kind, shape, want, base_seed, rng, margin=0.05)
        files.append(dict(inst, doc=problem_json(inst)))
    ops = []
    for f in files:
        ops.append(dict(f, op="cli", condition="auto"))
        cond = CONDITION.get(f["kind"])
        if cond is not None:
            ops.append(dict(f, op="cli", condition=cond))
    return ops


# ---------------------------------------------------------------------------
# recovery-sweep
# ---------------------------------------------------------------------------

RECOVERY_DESIGNS = [
    ("l1", 2, 301),
    ("l1", 3, 302),
    ("group_l12", 3, 303),
    ("nonneg_l1", 3, 304),
]
DELTAS = (1e-3, 1e-2, 1e-1)
#: noise per design and delta: two directions on the sphere, one along A x0.
#: Sphere directions are fixed per design (stream ``base_seed + 1000``) and
#: perturbed by the seed like the designs: fully random directions moved one
#: group_l12 trial's FISTA time by up to 2 times between seeds.
NOISES = ("sphere", "sphere", "adversarial")


def fixed_alpha_overestimate():
    """The nonneg_l1 design whose certified alpha is 2e-4 ||A|| too high.

    Unperturbed base draw 47 of ``base_draw("nonneg_l1", 3, ...)``: the
    angular grid probe over its critical cone certifies alpha = 0.0556687
    while a cone direction has ||A h|| = 0.0550200, far beyond the probe's
    1e-6 rad resolution.  Independent of the workload seed, and checked with
    a fixed sample stream (``check_seed``), so it is counted as a failed
    operation on every run.
    """
    inst = base_draw("nonneg_l1", 3, np.random.default_rng(47))
    res = _verdict(inst, 0.1)
    assert res is not None and res["verdict"] == "Yes"
    return dict(inst, op="design", expect=res, known_wrong=True, check_seed=47)


def recovery_sweep(seed):
    """Designs (a check_sharp op each) followed by their noisy trials, and
    the fixed design of ``fixed_alpha_overestimate``."""
    rng = np.random.default_rng([seed, 13])
    ops = []
    trial = 0
    for kind, n, base_seed in RECOVERY_DESIGNS:
        design = _design(kind, n, "Yes", base_seed, rng, margin=0.1)
        nrng = np.random.default_rng(base_seed + 1000)
        index = len(ops)
        ops.append(dict(design, op="design"))
        b0 = design["A"] @ design["x0"]
        for delta in DELTAS:
            for noise in NOISES:
                if noise == "adversarial":
                    omega = delta * b0 / np.linalg.norm(b0)
                else:
                    g = nrng.standard_normal(b0.size)
                    g = g / np.linalg.norm(g) + JITTER * rng.standard_normal(b0.size)
                    omega = delta * g / np.linalg.norm(g)
                ops.append({"op": "trial", "design": index,
                            "kind": kind, "params": design["params"],
                            "A": design["A"], "x0": design["x0"],
                            "b": b0 + omega, "delta": delta,
                            "c1": 0.1 if trial % 2 == 0 else 1.0,
                            "noise": noise})
                trial += 1
    ops.append(fixed_alpha_overestimate())
    return ops
