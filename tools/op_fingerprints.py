"""Print one line per gcbench operation: ``workload seed index md5``.

    python3 tools/op_fingerprints.py --seeds 1 2 7 > after.txt
    python3 tools/op_fingerprints.py --root ../parent --seeds 1 2 7 > before.txt
    diff before.txt after.txt

or, in one command, ``--against ../parent``: both checkouts run in child
processes, only the lines that differ are printed (``-`` the other
checkout's, ``+`` this one's), and the exit status is 1 on any difference.

The md5 is taken over ``gcbench.workloads.fingerprint`` of the operation's
outputs (floats written in full, or the error text of a failed operation),
so two checkouts that print the same lines returned the same bits on every
benchmark operation.  This is the "outputs unchanged" check for a change
that should only make the program faster.

Each operation runs once, untimed and unchecked.  ``--root`` names the
checkout whose ``src/`` and ``gcbench/`` are imported (default: the one
holding this script).  ``gcbench`` is imported read-only: no bytecode is
written, and the certify-cli problem files go to a temporary directory.
"""

import argparse
import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("verdicts-lp", "certify-cli", "recovery-sweep")
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
    args = ap.parse_args(argv)
    if args.against is not None:
        return compare(args.against, args.root, args.seeds, args.workloads)

    root = args.root.resolve()
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "gcbench")]
    import run
    import workloads

    with tempfile.TemporaryDirectory(prefix="op-fingerprints-") as tmp:
        for workload in args.workloads:
            for seed in args.seeds:
                workdir = Path(tmp) / f"{workload}-{seed}"
                workdir.mkdir()
                ops = run.make_round(workload, seed, workdir)
                for i, op in enumerate(ops):
                    text = workloads.fingerprint(workloads.run_op(op))
                    digest = hashlib.md5(text.encode("utf-8")).hexdigest()
                    print(workload, seed, i, digest, flush=True)
    return 0


def compare(other, root, seeds, workloads):
    """Fingerprint ``other`` and ``root`` side by side (two child
    processes); print the lines that differ, return 1 if any do."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--seeds", *map(str, seeds), "--workloads", *workloads, "--root"]
    procs = [subprocess.Popen(cmd + [str(r)], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for r in (other, root)]
    outs = [p.communicate() for p in procs]
    for r, p, (_, err) in zip((other, root), procs, outs):
        if p.returncode:
            sys.stderr.write(f"{r}: exit {p.returncode}\n{err}")
            return 1
    differ = 0
    lines = itertools.zip_longest(*(out.splitlines() for out, _ in outs))
    for old, new in lines:
        if old != new:
            differ += 1
            print(*(f"{sign} {line}" for sign, line in (("-", old), ("+", new))
                    if line is not None), sep="\n")
    print(f"{differ} of the operations differ" if differ
          else "all operations identical", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
