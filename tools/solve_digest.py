"""Print one digest line per SDP solve of one ladder and one batch pass.

    python tools/solve_digest.py [--src DIR] [--seed N] [--against DIR [--rel R]]

Builds the ladder and batch workloads of this checkout's
perfbench/workloads.py at the seed (default 7), runs the calls of one pass
of each, with one BLAS thread and thetabody.solve_sdp wrapped, and prints a
line per solve: the workload and the name of the call that made it, as
"ladder | theta H(4,2) | ", then the SHA-1 of the program solve_sdp
receives (its block_dims, index, coef, rhs and objective bytes), its rows,
status, stop rule, iterations and primal value as float.hex().  Two
sources that print the same lines solved the same programs in the same
form and reached the same value bits in the same iterations.  --src names
the source directory to import the package from (default: this
checkout's src).  With --against DIR, both sources run, each in a fresh
interpreter, and the tool prints "identical: N solves", or every pair of
lines that differ, exiting 1 on a difference.  With --rel R as well, the
primal values of a pair may differ by at most R * max(1, |value|), value
the one from --against; everything before them must still match.  The
tool then prints "within R: N solves, K values differ, largest relative
difference X", or every pair out of bounds, exiting 1.  The workloads are
read, not written: no bytecode is cached next to them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digest(problem, sol) -> str:
    h = hashlib.sha1(repr(problem.block_dims).encode())
    for arr in (problem.index, problem.coef, problem.rhs, *problem.objective):
        h.update(arr.tobytes())
    return (
        f"{h.hexdigest()} rows {problem.num_constraints} {sol.status} {sol.stop} "
        f"{sol.iterations} {float(sol.primal).hex()}"
    )


def _lines(seed: int) -> list[str]:
    """The digest lines of one ladder and one batch pass, in this interpreter."""
    from hypertheta import thetabody

    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    names = ("ladder", "batch")
    built = [workloads.build(name, seed, Path(os.devnull)) for name in names]

    lines, where = [], [""]
    solve_sdp = thetabody.solve_sdp

    def wrapped(problem, *args, **kwargs):
        sol = solve_sdp(problem, *args, **kwargs)
        lines.append(f"{where[0]} | {_digest(problem, sol)}")
        return sol

    thetabody.solve_sdp = wrapped
    for name, workload in zip(names, built):
        res: dict = {}
        for call in workload.calls:
            where[0] = f"{name} | {call.name}"
            res[call.name] = call.run(res)
    return lines


def _relative(a: str, b: str) -> float:
    """|value_a - value_b| / max(1, |value_b|) for two digest lines that
    match up to their primal values; inf when anything else differs."""
    (head_a, value_a), (head_b, value_b) = a.rsplit(" ", 1), b.rsplit(" ", 1)
    if head_a != head_b:
        return math.inf
    x, y = float.fromhex(value_a), float.fromhex(value_b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    diff = abs(x - y) / max(1.0, abs(y))
    return math.inf if math.isnan(diff) else diff


def run(src: str, seed: int) -> list[str]:
    """The digest lines of src, from a fresh interpreter with one BLAS thread."""
    env = {**os.environ, **{k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    done = subprocess.run(
        [sys.executable, __file__, "--worker", "--src", src, "--seed", str(seed)],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return done.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--against", metavar="DIR", help="a second source directory to compare with")
    parser.add_argument("--rel", type=float, metavar="R", help="the primal values' relative bound, with --against")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rel is not None and args.against is None:
        parser.error("--rel needs --against")
    if args.worker:
        sys.dont_write_bytecode = True
        sys.path.insert(0, args.src)
        print("\n".join(_lines(args.seed)))
        return 0
    ours = run(args.src, args.seed)
    if args.against is None:
        print("\n".join(ours))
        return 0
    theirs = run(args.against, args.seed)
    diffs, failed = [], False
    for k, (a, b) in enumerate(zip(ours, theirs)):
        diffs.append(0.0 if a == b else math.inf if args.rel is None else _relative(a, b))
        if diffs[-1] > (args.rel or 0.0):
            print(f"solve {k} differs:\n  {args.src}: {a}\n  {args.against}: {b}")
            failed = True
    if len(ours) != len(theirs):
        print(f"{args.src} made {len(ours)} solves, {args.against} {len(theirs)}")
        failed = True
    if failed:
        return 1
    if args.rel is None:
        print(f"identical: {len(ours)} solves")
    else:
        print(
            f"within {args.rel:g}: {len(ours)} solves, {sum(d > 0 for d in diffs)} values differ, "
            f"largest relative difference {max(diffs, default=0.0):.2g}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
