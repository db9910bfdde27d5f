#!/usr/bin/env python3
"""Check that two source trees give the same command-line output.

Runs every `sieve-scans` and `cli-queries` operation of
`perfbench/workloads.py` at the given seeds, plus the argv lines of an
optional file, as `python -m ffstat.cli ...` on each of two `src` trees,
and compares exit code, stdout and stderr byte for byte.  In stderr each
tree's own path reads as `SRC`, so tracebacks compare by content.  Prints
each run that differs and a count; exits 1 if any differs.

    python tools/same_output.py OLD/src NEW/src --seeds 1 2 3 --extra tools/scan_progressions_grid.txt

The extra file holds one argv a line, split as by a shell, without the
leading `python -m ffstat.cli`; blank lines and lines starting with `#`
are skipped.  The two trees run side by side, one process each.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def workload_argvs(seeds) -> list[list[str]]:
    """The argv of every CLI operation of the two CLI workloads at these seeds, in order."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    argvs = []
    for seed in seeds:
        for workload in ("sieve-scans", "cli-queries"):
            argvs += [op["argv"] for op in workloads.cli_ops(workload, seed)]
    return argvs


def extra_argvs(path: str) -> list[list[str]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.lstrip().startswith("#")]


def start(src: str, argv: list[str]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.Popen([sys.executable, "-m", "ffstat.cli"] + argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)


def outcome(src: str, proc: subprocess.Popen) -> tuple[int, bytes, bytes]:
    out, err = proc.communicate()
    return proc.returncode, out, err.replace(os.fsencode(src), b"SRC")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="the first src directory")
    parser.add_argument("new", help="the second src directory")
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 2, 3], help="workload seeds (default 1 2 3)")
    parser.add_argument("--extra", help="a file of extra argv lines")
    args = parser.parse_args(argv)
    trees = [os.path.abspath(args.old), os.path.abspath(args.new)]

    runs, seen = [], set()
    for run in workload_argvs(args.seeds) + (extra_argvs(args.extra) if args.extra else []):
        if tuple(run) not in seen:
            seen.add(tuple(run))
            runs.append(run)
    differ = 0
    for run in runs:
        procs = [start(src, run) for src in trees]
        (old_code, old_out, old_err), (new_code, new_out, new_err) = (outcome(src, p) for src, p in zip(trees, procs))
        fields = [name for name, a, b in (("exit", old_code, new_code), ("stdout", old_out, new_out),
                                          ("stderr", old_err, new_err)) if a != b]
        if fields:
            differ += 1
            print(f"DIFFERS ({', '.join(fields)}): {shlex.join(run)}")
    print(f"{differ} of {len(runs)} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
