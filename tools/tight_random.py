"""Solve 60 random hypergraph thetas at tol 1e-11 and print one line each.

    python tools/tight_random.py [--src DIR] [--against DIR]

For s = 0 to 59, with rng = random.Random(s), n = rng.randint(5, 8) and
r = rng.randint(2, 4), solves theta(random_hypergraph(n, r, 0.4, rng),
tol=1e-11), the tight-tolerance set of ROADMAP item 4.  Each line reads
"seed s: n, r, form, status, stop, iterations, max_ridge"; a solve that
raises ThetaSolverError reads its status and stop from the error's
solution.  The closing line gives the failing seeds and, over the solves
that did not fail, those above 30 iterations, the most iterations and the
total.  --src names the source directory to import the package from
(default: this checkout's src).  With --against DIR, both sources run and
the tool prints each seed line that differs as "against's line → src's
line", then the summary line of --against and that of --src, each headed
by its directory.  Each source's solves run in a fresh interpreter with
one BLAS thread.
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
from pathlib import Path

SEEDS = range(60)
TOL = 1e-11


def _report() -> list[str]:
    """The seed lines and the summary line, in this interpreter."""
    from hypertheta import thetabody
    from hypertheta.hypercore import random_hypergraph

    forms = []
    free_form = thetabody._free_form

    def spied(problem):
        free = free_form(problem)
        forms.append("rows" if free is None else "free")
        return free

    thetabody._free_form = spied
    lines, failing, iters = [], [], []
    for s in SEEDS:
        rng = random.Random(s)
        n, r = rng.randint(5, 8), rng.randint(2, 4)
        hg = random_hypergraph(n, r, 0.4, rng)
        forms.clear()
        try:
            res = thetabody.theta(hg, tol=TOL)
            status, stop = "optimal", "optimal"
            count, ridge = res.diagnostics["iterations"], res.diagnostics["residuals"]["max_ridge"]
        except thetabody.ThetaSolverError as exc:
            sol = exc.solution
            status, stop, count, ridge = sol.status, sol.stop, sol.iterations, sol.residuals["max_ridge"]
            failing.append(s)
        else:
            iters.append(count)
        form = forms[-1] if forms else "?"
        lines.append(
            f"seed {s}: n {n}, r {r}, form {form}, {status}, stop {stop}, "
            f"{count} iterations, max_ridge {ridge:.2g}"
        )
    lines.append(
        f"failing seeds {failing}; of the other {len(iters)}, {sum(k > 30 for k in iters)} above 30 "
        f"iterations, most {max(iters)}, total {sum(iters)} iterations"
    )
    return lines


def run(src: str) -> list[str]:
    """_report()'s lines, from a fresh interpreter with one BLAS thread that
    imports the package from src."""
    env = {**os.environ, **{k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    done = subprocess.run(
        [sys.executable, __file__, "--worker", "--src", src],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return done.stdout.splitlines()


def format_changes(before: list[str], after: list[str], names: tuple) -> str:
    """Each seed line of two run()s that differs, as "before → after", then
    the summary line of each, headed by its name."""
    lines = [f"{old} → {new}" for old, new in zip(before[:-1], after[:-1]) if old != new]
    lines += [f"{name}: {report[-1]}" for name, report in zip(names, (before, after))]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--against", metavar="DIR", help="a second source directory to compare with")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        sys.path.insert(0, args.src)
        print("\n".join(_report()))
    elif args.against is None:
        print("\n".join(run(args.src)))
    else:
        print(format_changes(run(args.against), run(args.src), (args.against, args.src)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
