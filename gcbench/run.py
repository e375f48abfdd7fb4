"""Run one gaugecert benchmark workload and print its metrics.

    python3 gcbench/run.py --workload verdicts-lp --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Times are reported at a fixed reference speed of the machine, measured by
a calibration loop around every timed operation (``calibrate``).  The same
object, with the check problems and run details, is written to
``.gcbench_out/``.  See ``gcbench/README.md``.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".gcbench_out"
WORK = ROOT / ".gcbench_work"

WORKLOADS = ("verdicts-lp", "certify-cli", "recovery-sweep")
#: program seconds of one round on the reference machine (2-core x86-64);
#: a run makes round(seconds / ROUND_SECONDS) whole rounds, at least one, so
#: every run of a given length attempts the same operations
ROUND_SECONDS = {"verdicts-lp": 5.0, "certify-cli": 6.5,
                 "recovery-sweep": 4.5}
#: fresh interpreters timed for setup_s (median reported)
SETUP_REPEATS = 5
#: seconds one calibration step takes at the reference speed; every timing
#: is reported at that speed (see ``calibrate``)
REF_CAL_S = 1.5e-3
#: each calibration repeats its step for this share of the wall time of the
#: operation it follows (at least once)
CAL_SHARE = 0.2
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_cpu():
    """Run on one CPU, the last this process may use; return its number.

    On the shared reference machine the speed a process sees moves by up to
    25 % between 20-s windows when the scheduler may move it between CPUs;
    pinned, the run-to-run spread of the workloads' figures halved.
    gaugecert computes in one thread (BLAS aside, on matrices of a few dozen
    entries), so BLAS gets one thread too unless the caller set it.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    return cpu


def program_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def calibrate(window=0.0, _a=np.linspace(-1.0, 1.0, 18).reshape(3, 6),
              _v=np.ones(6)):
    """Mean wall seconds of a fixed step of small numpy and Python work,
    repeated for ``window`` seconds (at least once).

    The step does the same work on every machine and in every version of
    gaugecert (it imports nothing of it).  On the shared reference machine a
    process's speed switches between two levels about 1.7 times apart,
    every few tens of milliseconds and in proportions that change from
    minute to minute; CPU time moves with wall time, so it is contention for
    the core, not preemption.  Each timed call is bracketed by two
    calibrations, each lasting ``CAL_SHARE`` of the call's wall time, and
    reported as ``seconds * REF_CAL_S / (mean of the two)``: its time at the
    reference speed.
    """
    t_end = time.perf_counter() + window
    steps = []
    while True:
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(300):
            acc += float(np.abs(_a @ _v * k).sum()) + sum(range(50))
        steps.append(time.perf_counter() - t0)
        if time.perf_counter() >= t_end:
            return statistics.fmean(steps)


def measure_setup():
    """Median time, at the reference speed, of a fresh interpreter importing
    gaugecert.cli."""
    times = []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import gaugecert.cli"],
                       cwd=ROOT, env=program_env(), check=True)
        wall = time.perf_counter() - t0
        after = calibrate(CAL_SHARE * wall)
        times.append(wall * REF_CAL_S / (0.5 * (before + after)))
        before = after
    return statistics.median(times)


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def make_round(workload, seed, workdir):
    import instances
    if workload == "verdicts-lp":
        return instances.verdicts_lp(seed)
    if workload == "recovery-sweep":
        return instances.recovery_sweep(seed)
    demos = {name: json.loads((ROOT / "demos" / "problems" / f"{name}.json")
                              .read_text(encoding="utf-8"))
             for name in instances.DEMOS}
    ops = instances.certify_cli(seed, demos)
    written = {}
    for op in ops:
        if "doc" in op:
            key = id(op["doc"])
            if key not in written:
                path = workdir / f"problem{len(written):02d}.json"
                path.write_text(json.dumps(op["doc"]), encoding="utf-8")
                written[key] = str(path)
            op["file"] = written[key]
        else:
            op["file"] = str(ROOT / op["file"])
    return ops


def describe(op):
    parts = [op["op"], op.get("kind", ""), op.get("condition", "")]
    if op["op"] == "trial":
        parts.append(f"delta={op['delta']:g},{op['noise']}")
    return " ".join(p for p in parts if p)


def run_rounds(ops, rounds, seed, tracer=None):
    """Run ``rounds`` rounds of the same operations; return per-op records.

    Outputs of the first round are checked against the oracle; every later
    round must reproduce them exactly (same inputs, deterministic program)
    and inherits the first round's verdict on them.  Operations on fixed
    inputs (``check_seed``) are checked with their own sample stream.
    """
    import workloads as wl
    rng = np.random.default_rng([seed, 99])
    records = []
    first = {}
    designs = {}
    for r in range(rounds):
        before = calibrate()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.enabled = True
            try:
                out = wl.run_op(op)
            finally:
                if tracer is not None:
                    tracer.enabled = False
            after = calibrate(CAL_SHARE * out.seconds)
            scale = REF_CAL_S / (0.5 * (before + after))
            before = after
            text = wl.fingerprint(out)
            if r == 0:
                op_rng = rng if "check_seed" not in op else \
                    np.random.default_rng(op["check_seed"])
                wl.check_op(i, op, out, designs, op_rng)
                first[i] = (text, out.failed)
            elif text != first[i][0]:
                out.problems.append("outputs differ from the first round")
            else:
                out.failed = first[i][1]
            records.append({"round": r, "index": i, "what": describe(op),
                            "seconds": out.seconds * scale,
                            "wall_seconds": out.seconds,
                            "failed": out.failed,
                            "problems": out.problems,
                            "certified": out.certified,
                            "known_failure": bool(op.get("known_failure")
                                                  or op.get("known_wrong"))})
    return records


def slot_seconds(records):
    """Median time (at the reference speed) of each operation over the
    rounds of a run; the inputs and the program are the same in every
    round."""
    by_slot = {}
    for rec in records:
        by_slot.setdefault(rec["index"], []).append(rec["seconds"])
    return {i: statistics.median(v) for i, v in by_slot.items()}


def end_to_end(records, setup_s):
    times = slot_seconds(records)
    failed = {r["index"] for r in records if r["failed"]}
    # a failed operation misses every latency target: rank it last
    lat = [math.inf if i in failed else 1e3 * t for i, t in times.items()]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": (len(times) - len(failed)) / sum(times.values()),
                      "unit": "1/s"},
        "op_ms_p50": {"value": nearest_rank(lat, 0.5), "unit": "ms"},
        "op_ms_p90": {"value": nearest_rank(lat, 0.9), "unit": "ms"},
        "certified_outputs": {"value": sum(r["certified"] for r in records
                                           if r["round"] == 0),
                              "unit": "count"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gaugecert" / "__init__.py").is_file():
        print(f"error: no gaugecert sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    cpu = pin_cpu()
    threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    setup_s = measure_setup()
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        ops = make_round(args.workload, args.seed, workdir)
        rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
        records = run_rounds(ops, rounds, args.seed)
        tracer = None
        if args.trace:
            import tracer as tr
            tracer = tr.Tracer()
            with tracer.installed():
                traced = run_rounds(ops, rounds, args.seed, tracer)
            overhead = (sum(slot_seconds(traced).values())
                        - sum(slot_seconds(records).values()))
            metrics = tracer.metrics(rounds, overhead)
        else:
            traced = []
            metrics = end_to_end(records, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # the traced rounds are checked too, but only the untraced ones count
    problems = [r for r in records + traced if r["problems"]]
    unexpected = [r for r in records + traced
                  if r["failed"] and not r["known_failure"]]
    correct = not problems
    for r in problems:
        print(f"check failed: round {r['round']} op {r['index']} "
              f"({r['what']}): "
              + "; ".join(r["problems"]), file=sys.stderr)
    for r in unexpected:
        print(f"operation failed: round {r['round']} op {r['index']} "
              f"({r['what']}): "
              f"{r['failed']}", file=sys.stderr)
    result = {"correct": correct, "attempted": len(records),
              "failed": sum(1 for r in records if r["failed"]),
              "metrics": metrics}
    # the machine's speed relative to the reference speed (1 = reference)
    speed = statistics.median(r["seconds"] / r["wall_seconds"]
                              for r in records if r["wall_seconds"] > 0)
    OUT.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, rounds=rounds, ops_per_round=len(ops),
                  cpu=cpu, blas_threads=threads, speed=speed,
                  operations=records,
                  traced_operations=traced)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    print(f"cpu {cpu}  blas_threads {threads}  rounds {rounds}  "
          f"ops/round {len(ops)}  speed {speed:.3f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
