"""Print, per module of ``src/gaugecert``, how many executable lines never ran.

    python3 tools/line_traffic.py                      # Tier-1 and all workloads
    python3 tools/line_traffic.py tier1 verdicts-lp --show

Each target runs in its own child process, so every target counts from a
fresh import: ``tier1`` is the test suite under ``pytest.main`` in that
process, and a workload name is one seed-1 round of that gcbench workload,
run by ``op_fingerprints.rounds`` (every operation once, untimed and
unchecked, its outputs fingerprinted as ``gcbench/run.py`` does, and
``gcbench`` imported read-only).  ``--show`` adds, under each module, the
line numbers that never ran, and ends with the lines that no target ran
(when every target ran to its end).

Only the standard library is used: ``sys.settrace`` and ``threading.settrace``
with a line tracer on frames whose code lies in ``src/gaugecert``.  (The
``trace`` module's ignore list caches its answer per file base name, so a
package ``__init__.py`` or ``config.py`` inherits the answer given for an
ignored file of the same name elsewhere.)  The executable lines of a module
are the line numbers of the instructions of its compiled code objects
(``co_lines``); a function's first line counts as run when the function is
called.  Lines run only in the suite's own child processes (the CLI tests)
are not counted.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

from op_fingerprints import WORKLOADS, rounds

TARGETS = ("tier1",) + WORKLOADS


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("targets", nargs="*", metavar="TARGET",
                    help=f"any of {', '.join(TARGETS)} (default: all)")
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="source checkout to run (default: this one)")
    ap.add_argument("--show", action="store_true",
                    help="list the lines that never ran")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    unknown = set(args.targets) - set(TARGETS)
    if unknown:
        ap.error(f"unknown target(s): {', '.join(sorted(unknown))}")
    args.targets = args.targets or list(TARGETS)
    root = args.root.resolve()
    if args.child:
        (target,) = args.targets
        json.dump(trace_target(target, root), sys.stdout)
        return 0
    status, ran_any = 0, {}
    for target in args.targets:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child",
             "--root", str(root), target],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode:
            print(f"{target}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        ran = json.loads(proc.stdout)
        report(target, ran, root, args.show)
        for path, lines in ran.items():
            ran_any.setdefault(path, set()).update(lines)
    if args.show and not status:
        report("no target", ran_any, root, True)
    return status


def run_target(target, root):
    if target != "tier1":
        for _ in rounds(root, [target], [1]):
            pass
        return
    import pytest
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))
    # the suite's own child processes (CLI tests) import the same checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    # stdout carries the report: the suite's own output goes to stderr; the
    # hypothesis database goes to a temporary directory
    out, sys.stdout = sys.stdout, sys.stderr
    try:
        with tempfile.TemporaryDirectory(prefix="line-traffic-") as tmp:
            os.chdir(tmp)
            pytest.main([str(root / "tests"), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.stdout = out


def trace_target(target, root):
    """Run ``target`` under the line tracer; {file: sorted lines run}."""
    package = str(root / "src" / "gaugecert")
    ran = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(package):
            return None
        ran.setdefault(path, set()).add(frame.f_lineno)
        return local

    threading.settrace(call)
    sys.settrace(call)
    try:
        run_target(target, root)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return {path: sorted(lines) for path, lines in ran.items()}


def executable_lines(path):
    """Line numbers of the instructions of every code object in ``path``."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line is not None)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def spans(lines):
    """``[1, 2, 3, 7]`` -> ``"1-3, 7"``."""
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def report(target, ran, root, show):
    src = root / "src"
    print(f"{target}: executable lines that never ran")
    missed_total = lines_total = 0
    for path in sorted((src / "gaugecert").rglob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - set(ran.get(str(path), ())))
        missed_total += len(missed)
        lines_total += len(lines)
        print(f"  {str(path.relative_to(src)):<32} {len(missed):>5} "
              f"of {len(lines):>5}")
        if show and missed:
            print(f"    {spans(missed)}")
    print(f"  {'total':<32} {missed_total:>5} of {lines_total:>5}")


if __name__ == "__main__":
    sys.exit(main())
