"""Solve 60 random hypergraph thetas at tol 1e-11 and print one line each.

    python tools/tight_random.py [--src DIR] [--against DIR]

For s = 0 to 59, with rng = random.Random(s), n = rng.randint(5, 8) and
r = rng.randint(2, 4), solves theta(random_hypergraph(n, r, 0.4, rng),
tol=1e-11), the tight-tolerance set of ROADMAP item 4.  Each line reads
"seed s: n, r, form, status, stop, iterations, max_ridge"; a solve that
raises ThetaSolverError reads its status and stop from the error's
solution.  The closing line gives the failing seeds and, over the solves
that did not fail, those above 30 iterations, the most iterations and the
total.  The form is the one thetabody._free_form gives the seed's
unit-weight program, the program theta solves.  --src and --against
follow tools/_sources.py; the closing lines are the summary line of
--against and that of --src, each headed by its directory.  Each source's
solves run in a worker with one BLAS thread.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # importing _sources leaves tools/ unwritten
sys.path.insert(0, str(Path(__file__).resolve().parent))
import _sources  # noqa: E402

SEEDS = range(60)
TOL = 1e-11


def _records() -> list[dict]:
    """One record per seed, with its line, in this interpreter."""
    from hypertheta import thetabody
    from hypertheta.hypercore import random_hypergraph

    out = []
    for s in SEEDS:
        rng = random.Random(s)
        n, r = rng.randint(5, 8), rng.randint(2, 4)
        hg = random_hypergraph(n, r, 0.4, rng)
        form = "rows" if thetabody._free_form(thetabody.assemble_theta_sdp(hg)[0]) is None else "free"
        try:
            res = thetabody.theta(hg, tol=TOL)
            status, stop = "optimal", "optimal"
            count, ridge = res.diagnostics["iterations"], res.diagnostics["residuals"]["max_ridge"]
        except thetabody.ThetaSolverError as exc:
            sol = exc.solution
            status, stop, count, ridge = sol.status, sol.stop, sol.iterations, sol.residuals["max_ridge"]
        line = (
            f"seed {s}: n {n}, r {r}, form {form}, {status}, stop {stop}, "
            f"{count} iterations, max_ridge {ridge:.2g}"
        )
        out.append({"seed": s, "failed": status != "optimal", "iters": count, "line": line})
    return out


def _summary(records: list[dict]) -> str:
    failing = [rec["seed"] for rec in records if rec["failed"]]
    iters = [rec["iters"] for rec in records if not rec["failed"]]
    return (
        f"failing seeds {failing}; of the other {len(iters)}, {sum(k > 30 for k in iters)} above 30 "
        f"iterations, most {max(iters)}, total {sum(iters)} iterations"
    )


if __name__ == "__main__":
    sys.exit(_sources.main(
        __doc__,
        work=lambda args: _records(),
        collect=lambda args, src: _sources.spawn(__file__, src),
        show=lambda records: "\n".join([*(rec["line"] for rec in records), _summary(records)]),
        line=lambda rec: rec["line"],
        closing=lambda args, theirs, ours: [f"{args.against}: {_summary(theirs)}", f"{args.src}: {_summary(ours)}"],
    ))
