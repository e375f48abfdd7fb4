"""Run one workload several times and report how steady its metrics are.

    python3 gcbench/repeat.py --workload certify-cli --runs 10

Each run is a fresh ``gcbench/run.py --trace 0`` process of
``run_seconds`` (``BENCHMARK.json``) with its own seed (first seed, first
seed + 1, ...), run one after another from the checkout root.
Per metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the quartile spread as a share of
the median, and that spread as a share of the metric's bound in
``BENCHMARK.json``.  It exits 1 when a run is incorrect, or when the
attempted count, the failed count or ``certified_outputs`` differ between
runs; these must repeat exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["run_seconds"], {m["name"]: m.get("bound")
                                 for m in spec["end_to_end"]}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    seconds, bound = bounds()

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        res = run_once(args.workload, seed, seconds)
        results.append(res)
        print(f"seed {seed}: correct {res['correct']} attempted "
              f"{res['attempted']} failed {res['failed']}", flush=True)

    ok = all(r["correct"] for r in results)
    for key in ("attempted", "failed"):
        seen = sorted({r[key] for r in results})
        if len(seen) > 1:
            print(f"{key} differs between runs: {seen}")
            ok = False
    print(f"{'metric':<48} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'of bound':>8}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
            else (vals[0], None, vals[0])
        spread = (q3 - q1) / med if med else 0.0
        b = bound.get(name)
        share = f"{spread / b:8.3f}" if b else f"{'-':>8}"
        print(f"{name:<48} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {share}")
        if name == "certified_outputs" and len(set(vals)) > 1:
            print(f"certified_outputs differs between runs: {sorted(set(vals))}")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
