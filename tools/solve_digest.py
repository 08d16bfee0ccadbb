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
form and reached the same value bits in the same iterations.  --src and
--against follow tools/_sources.py: with --against DIR, the tool prints
each pair of lines that differs and then "identical: N solves", N the
solves whose lines match.  With --rel R as well, a pair passes when its
rows, status, stop rule and iterations match and its primal values differ
by at most R * max(1, |value|), value the one from --against; the program
hashes may differ.  The closing line is then "within R: N solves, K values
differ, largest relative difference X, P programs differ".
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import math
import os
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # importing _sources leaves tools/ unwritten
sys.path.insert(0, str(Path(__file__).resolve().parent))
import _sources  # noqa: E402

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
    """|value_a - value_b| / max(1, |value_a|) for two digest lines that match
    but for their program hashes (the 7th word from the end) and primal
    values (the last); inf when anything else differs."""
    a, b = a.split(" "), b.split(" ")
    if a[:-7] + a[-6:-1] != b[:-7] + b[-6:-1]:
        return math.inf
    if a[-1] == b[-1]:
        return 0.0
    x, y = float.fromhex(a[-1]), float.fromhex(b[-1])
    diff = abs(x - y) / max(1.0, abs(x))
    return math.inf if math.isnan(diff) else diff


def _bound(text: str) -> float:
    """The R of --rel: a finite number, at least 0."""
    bound = float(text)
    if not 0.0 <= bound < math.inf:
        raise argparse.ArgumentTypeError(f"R must be finite and at least 0, not {text}")
    return bound


def _differs(args, a: str, b: str) -> bool:
    return a != b if args.rel is None else _relative(a, b) > args.rel


def _closing(args, theirs: list[str], ours: list[str]) -> list[str]:
    pairs = list(zip(theirs, ours))
    if args.rel is None:
        return [f"identical: {sum(a == b for a, b in pairs)} solves"]
    diffs = [_relative(a, b) for a, b in pairs]
    programs = sum(a.split(" ")[-7] != b.split(" ")[-7] for a, b in pairs)
    return [
        f"within {args.rel:g}: {len(ours)} solves, {sum(d > 0 for d in diffs)} values differ, "
        f"largest relative difference {max(diffs, default=0.0):.2g}, {programs} programs differ"
    ]


if __name__ == "__main__":
    sys.exit(_sources.main(
        __doc__,
        work=lambda args: _lines(args.seed),
        collect=lambda args, src: _sources.spawn(__file__, src, "--seed", str(args.seed)),
        show="\n".join,
        closing=_closing,
        flags={
            "--seed": dict(type=int, default=7),
            "--rel": dict(type=_bound, metavar="R", help="the primal values' relative bound, with --against"),
        },
        differs=_differs,
        needs_against=("rel",),
    ))
