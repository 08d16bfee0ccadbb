"""The worker, command line and comparison rule of solve_digest.py,
sweep_table.py and tight_random.py.

A tool computes its records in a worker: a fresh interpreter that imports
the package from --src (default: this checkout's src), with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to the thread
count, since the BLAS reads them when it loads, and no bytecode written.
With --against DIR, both sources run, each pair of records that differs
prints as "DIR's line → this line", the closing lines follow, and the tool
exits 1 when a pair differs or the record counts differ.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path


def spawn(tool: str, src: str, *args: str, threads: int = 1) -> list:
    """The records that `tool --worker --src src *args` prints as JSON, with
    `threads` BLAS threads."""
    env = {**os.environ, **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), str(threads))}
    command = [sys.executable, "-B", tool, "--worker", "--src", src, *args]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)


def main(doc, work, collect, show, closing, line=str, flags={},
         differs=lambda args, a, b: a != b, needs_against=(), argv=None) -> int:
    """A tool's command line.  The worker prints work(args) as JSON;
    collect(args, src) gives src's records and show(records) their plain
    output.  With --against, line(record) is what is compared, differs(args,
    a, b) says whether two lines differ, closing(args, theirs, ours) gives
    the closing lines, and the exit code is 1 when a pair or the record
    counts differ.  flags maps each of the tool's own flags to its
    add_argument keywords; needs_against names those that need --against."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--against", metavar="DIR", help="a second source directory to compare with")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    for flag, kwargs in flags.items():
        parser.add_argument(flag, **kwargs)
    args = parser.parse_args(argv)
    for name in needs_against:
        if getattr(args, name) is not None and args.against is None:
            parser.error(f"--{name} needs --against")
    if args.worker:
        sys.path.insert(0, args.src)
        print(json.dumps(work(args)))
    elif args.against is None:
        print(show(collect(args, args.src)))
    else:
        theirs, ours = collect(args, args.against), collect(args, args.src)
        pairs = zip(map(line, theirs), map(line, ours))
        lines = [f"{a} → {b}" for a, b in pairs if differs(args, a, b)]
        if len(theirs) != len(ours):
            lines.append(f"{len(theirs)} records → {len(ours)} records")
        print("\n".join([*lines, *closing(args, theirs, ours)]))
        return int(bool(lines))
    return 0
