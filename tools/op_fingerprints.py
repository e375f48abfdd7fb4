"""Print one line per gcbench operation: ``workload seed index md5``.

    python3 tools/op_fingerprints.py --seeds 1 2 7 > after.txt
    python3 tools/op_fingerprints.py --root ../parent --seeds 1 2 7 > before.txt
    diff before.txt after.txt

or, in one command, ``--against ../parent``: both checkouts run in child
processes, only the lines that differ are printed (``-`` the other
checkout's, ``+`` this one's), and the exit status is 1 on any difference.
With ``--show`` as well, each differing operation is followed by the output
fields that differ, one per line: dotted path, old value, new value (a
string that holds JSON, such as the CLI's ``--json`` output, is compared
field by field) and by its solve routes when they changed, and the output
ends with three summary lines per workload: how many of its operations
differ, with the largest absolute difference over the numeric fields that
differ; how many solves took each route (``SolveResult.info["route"]``) in
the other checkout and in this one; and the summed ``qp_solves``,
``newton_iterations`` and ``fista_iterations`` of its solve results
(``SolveResult.info``), "other -> this".  ``--show`` alone prints each
operation's fingerprinted text, its routes and its step sums after its
md5.

The md5 is taken over ``gcbench.workloads.fingerprint`` of the operation's
outputs (floats written in full, or the error text of a failed operation),
so two checkouts that print the same lines returned the same bits on every
benchmark operation.  This is the "outputs unchanged" check for a change
that should only make the program faster.  The routes are not
fingerprinted: a solve that changes route but not its outputs does not
count as a difference.

Each operation runs once, untimed and unchecked.  ``--root`` names the
checkout whose ``src/`` and ``gcbench/`` are imported (default: the one
holding this script).  ``gcbench`` is imported read-only: no bytecode is
written, and the certify-cli problem files go to a temporary directory.

``--recovery`` checks the recovery CSV in place of the benchmark
operations: it runs ``gaugecert.recovery.sweep`` on a fixed grid (the five
vector kinds at three sizes, three noise levels, both noise kinds and four
seeds) at c1 = 0.1 and c1 = 1, and prints the CSV rows, each led by its
c1.  With ``--against`` both checkouts run it, each row that differs is
printed (``-`` the other checkout's, ``+`` this one's) with its largest
relative difference and the column where it is, and the exit status is 1
on any difference.
"""

import argparse
import collections
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("verdicts-lp", "certify-cli", "recovery-sweep")
#: the step counters of a solve result's ``info``, summed per workload
STEPS = ("qp_solves", "newton_iterations", "fista_iterations")
#: the ``--recovery`` grid: (m, n), noise levels, seeds and values of c1
RECOVERY_SIZES = ((3, 6), (4, 8), (5, 10))
RECOVERY_DELTAS = (0.1, 0.01, 0.001)
RECOVERY_SEEDS = (0, 1, 2, 3)
RECOVERY_C1 = (0.1, 1.0)
#: as in ``gcbench/run.py``: BLAS computes in one thread
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="source checkout to run (default: this one)")
    ap.add_argument("--against", type=Path, metavar="OTHER_ROOT",
                    help="also run this checkout; print only the lines that "
                         "differ and exit 1 on any difference")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                    default=list(WORKLOADS))
    ap.add_argument("--show", action="store_true",
                    help="print the outputs behind the md5s: with --against, "
                         "the fields that differ; alone, the full text")
    ap.add_argument("--recovery", action="store_true",
                    help="print (with --against: compare) the recovery CSV "
                         "of a fixed sweep instead of the operations")
    args = ap.parse_args(argv)
    if args.recovery:
        if args.against is not None:
            return compare_recovery(args.against, args.root)
        for line in recovery_rows(args.root.resolve()):
            print(line, flush=True)
        return 0
    if args.against is not None:
        return compare(args.against, args.root, args.seeds, args.workloads,
                       args.show)

    for workload, seed, i, text, routes, steps in rounds(
            args.root.resolve(), args.workloads, args.seeds):
        digest = hashlib.md5(text.encode("utf-8")).hexdigest()
        line = f"{workload} {seed} {i} {digest}"
        if args.show:
            line += "".join("\t" + json.dumps(v) for v in (text, routes, steps))
        print(line, flush=True)
    return 0


def rounds(root, names, seeds):
    """Run one round of each workload in ``names`` at each seed, from the
    ``src/`` and ``gcbench/`` of the checkout ``root``; yield
    ``(workload, seed, index, text, routes, steps)`` per operation,
    ``text`` being ``gcbench.workloads.fingerprint`` of its outputs,
    ``routes`` the ``info["route"]`` of each of its solve results, by
    output name, and ``steps`` the sums of their ``STEPS`` counters.

    Each operation runs once, untimed and unchecked.  ``gcbench`` is
    imported read-only: no bytecode is written, and the certify-cli problem
    files go to a temporary directory."""
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "gcbench")]
    import run
    import workloads

    with tempfile.TemporaryDirectory(prefix="op-fingerprints-") as tmp:
        for workload in names:
            for seed in seeds:
                workdir = Path(tmp) / f"{workload}-{seed}"
                workdir.mkdir()
                for i, op in enumerate(run.make_round(workload, seed,
                                                      workdir)):
                    out = workloads.run_op(op)
                    infos = {key: val.info for key, val in out.outputs.items()
                             if isinstance(getattr(val, "info", None), dict)}
                    routes = {key: info["route"] for key, info in infos.items()
                              if "route" in info}
                    steps = {name: sum(info.get(name, 0)
                                       for info in infos.values())
                             for name in STEPS}
                    yield (workload, seed, i, workloads.fingerprint(out),
                           routes, steps)


def _run_both(other, root, args):
    """Run this script with ``args`` on the checkouts ``other`` and
    ``root`` (``--root``), in two child processes side by side; return
    their standard outputs, or None when one fails (its error is
    printed)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *args, "--root"]
    procs = [subprocess.Popen(cmd + [str(r)], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for r in (other, root)]
    outs = [p.communicate() for p in procs]
    for r, p, (_, err) in zip((other, root), procs, outs):
        if p.returncode:
            sys.stderr.write(f"{r}: exit {p.returncode}\n{err}")
            return None
    return [out for out, _ in outs]


def recovery_grid():
    """The configs of the ``--recovery`` sweep, in order: per size, the
    five vector kinds (wsl1 with distinct weights, analysis_l1 with the
    identity and the difference operator, group_l12 with pairs), each at
    every noise level and noise kind."""
    import numpy as np

    grid = []
    for m, n in RECOVERY_SIZES:
        eye = np.eye(n)
        params = {"l1": {}, "nonneg_l1": {},
                  "wsl1": {"w": np.linspace(2.0, 0.5, n).tolist()},
                  "analysis_l1": {
                      "D": np.hstack([eye, np.diff(eye, axis=1)]).tolist()},
                  "group_l12": {"partition": [[i, i + 1]
                                              for i in range(0, n, 2)]}}
        for kind, param in params.items():
            for delta in RECOVERY_DELTAS:
                for noise in ("sphere", "adversarial"):
                    grid.append(dict(param, kind=kind, m=m, n=n, delta=delta,
                                     noise=noise,
                                     sparsity=1 if kind == "group_l12" else 2))
    return grid


def recovery_rows(root):
    """The ``--recovery`` sweep from the ``src/`` of ``root``: the CSV
    header, then each row, each line led by c1 and a comma."""
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src")]
    from gaugecert import recovery

    yield "c1," + recovery.CSV_HEADER
    for c1 in RECOVERY_C1:
        _, csv = recovery.sweep(recovery_grid(), RECOVERY_SEEDS, c1)
        for line in csv.splitlines()[1:]:
            yield f"{c1!r},{line}"


def _largest_relative_difference(old, new, columns):
    """(difference, column) of the numeric field of two CSV rows that
    differs most, relative to the larger magnitude; a non-numeric field
    that differs counts as 1."""
    worst = (0.0, "")
    for col, a, b in zip(columns, old.split(","), new.split(",")):
        if a == b:
            continue
        try:
            a, b = float(a), float(b)
            diff = abs(a - b) / max(abs(a), abs(b))
        except (ValueError, ZeroDivisionError):
            diff = 1.0
        worst = max(worst, (diff if diff == diff else 1.0, col))
    return worst


def compare_recovery(other, root):
    """Run the ``--recovery`` sweep in ``other`` and ``root`` (two child
    processes); print each row that differs with its largest relative
    difference, return 1 if any does."""
    outs = _run_both(other, root, ["--recovery"])
    if outs is None:
        return 1
    old_rows, new_rows = (out.splitlines() for out in outs)
    if old_rows[:1] != new_rows[:1] or len(old_rows) != len(new_rows):
        print("the two checkouts write different CSV headers or row counts",
              file=sys.stderr)
        return 1
    columns = old_rows[0].split(",")
    differ = 0
    for old, new in zip(old_rows[1:], new_rows[1:]):
        if old != new:
            differ += 1
            diff, col = _largest_relative_difference(old, new, columns)
            print(f"- {old}\n+ {new}\n    largest relative difference "
                  f"{diff:.3g} ({col})")
    print(f"{differ} of {len(old_rows) - 1} recovery rows differ" if differ
          else f"all {len(old_rows) - 1} recovery rows identical",
          file=sys.stderr)
    return 1 if differ else 0


def _parsed(val):
    """``val``, or the document it holds when it is a JSON string."""
    if isinstance(val, str):
        try:
            return json.loads(val)
        except ValueError:
            pass
    return val


def field_diffs(old, new, path=""):
    """(dotted path, old value, new value) for each leaf where the two
    documents differ; list items are numbered from 0."""
    old, new = _parsed(old), _parsed(new)
    if isinstance(old, dict) and isinstance(new, dict):
        keys = sorted(old.keys() | new.keys())
        pairs = ((k, old.get(k), new.get(k)) for k in keys)
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        pairs = ((str(k), a, b) for k, (a, b) in enumerate(zip(old, new)))
    else:
        return [] if old == new else [(path or "(output)", old, new)]
    return [d for key, a, b in pairs
            for d in field_diffs(a, b, f"{path}.{key}" if path else key)]


def _is_number(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def compare(other, root, seeds, workloads, show=False):
    """Fingerprint ``other`` and ``root`` side by side (two child
    processes); print the lines that differ (with ``show``, followed by
    their differing fields), return 1 if any do."""
    outs = _run_both(other, root, ["--seeds", *map(str, seeds),
                                   "--workloads", *workloads]
                     + (["--show"] if show else []))
    if outs is None:
        return 1
    differ = 0
    # workload -> [operations, operations that differ, largest |difference|,
    #              route counts of the other checkout, of this one,
    #              step sums of the other checkout, of this one]
    summary = {}
    lines = itertools.zip_longest(*(out.splitlines() for out in outs))
    for old, new in lines:
        (old, old_text, old_routes, old_steps), \
            (new, new_text, new_routes, new_steps) = (
                line.split("\t", 3) if line and show else (line, None, None,
                                                            None)
                for line in (old, new))
        counts = summary.setdefault(
            (old or new).split()[0],
            [0, 0, 0.0] + [collections.Counter() for _ in range(4)])
        counts[0] += 1
        routes = [json.loads(r) if r is not None else {}
                  for r in (old_routes, new_routes)]
        for side, got in zip(counts[3:5], routes):
            side.update(got.values())
        for side, got in zip(counts[5:], (old_steps, new_steps)):
            side.update(json.loads(got) if got is not None else {})
        if old != new:
            differ += 1
            counts[1] += 1
            print(*(f"{sign} {line}" for sign, line in (("-", old), ("+", new))
                    if line is not None), sep="\n")
            if old_text is not None and new_text is not None:
                for path, a, b in field_diffs(json.loads(old_text),
                                              json.loads(new_text)):
                    print(f"    {path}: {a!r} -> {b!r}")
                    if _is_number(a) and _is_number(b):
                        counts[2] = max(counts[2], abs(a - b))
            for path, a, b in field_diffs(*routes, "route"):
                print(f"    {path}: {a!r} -> {b!r}")
    if show:
        for workload, (total, changed, largest, *sides) in summary.items():
            print(f"{workload}: {changed} of {total} operations differ, "
                  f"largest numeric difference {largest:.3g}")
            names = sorted(set().union(*sides[:2]))
            print(f"{workload} routes: " + (", ".join(
                f"{name} {sides[0][name]} -> {sides[1][name]}"
                for name in names) or "none"))
            print(f"{workload} steps: " + ", ".join(
                f"{name} {sides[2][name]} -> {sides[3][name]}"
                for name in STEPS))
    print(f"{differ} of the operations differ" if differ
          else "all operations identical", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
