"""Print one line per gcbench operation: ``workload seed index md5``.

    python3 tools/op_fingerprints.py --seeds 1 2 7 > after.txt
    python3 tools/op_fingerprints.py --root ../parent --seeds 1 2 7 > before.txt
    diff before.txt after.txt

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
import os
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
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                    default=list(WORKLOADS))
    args = ap.parse_args(argv)

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


if __name__ == "__main__":
    sys.exit(main())
