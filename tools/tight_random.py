"""Solve 60 random hypergraph thetas at tol 1e-11 and print one line each.

    python tools/tight_random.py [--src DIR]

For s = 0 to 59, with rng = random.Random(s), n = rng.randint(5, 8) and
r = rng.randint(2, 4), solves theta(random_hypergraph(n, r, 0.4, rng),
tol=1e-11), the tight-tolerance set of ROADMAP item 4.  Each line reads
"seed s: n, r, form, status, stop, iterations, max_ridge"; a solve that
raises ThetaSolverError reads its status and stop from the error's
solution.  The closing line gives the failing seeds and, over the solves
that did not fail, those above 30 iterations, the most iterations and the
total.  --src names the source directory to import the package from
(default: this checkout's src), so that two checkouts can be compared.
The solves run in a fresh interpreter with one BLAS thread.
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        sys.path.insert(0, args.src)
        print("\n".join(_report()))
        return 0
    env = {**os.environ, **{k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    done = subprocess.run([sys.executable, __file__, "--worker", "--src", args.src], env=env, check=False)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
