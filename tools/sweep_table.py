"""Print the tolerance-sweep table of numlin.solve_sdp.

    python tools/sweep_table.py [--src DIR] [--against DIR]

Solves the uniform-measure theta of Mantel 4, Mantel 5 and K3(3), where it
meets the Hoffman bound hoff, at tol 1e-8 to 1e-11, with 1 and 2 BLAS
threads and substitution blocks 16, 48 and 128.  The border, the rows that
solve_sdp factors together after it has eliminated the groups (see
sdp._split), is solved by one LU of its Schur complement up to
sdp._LU_BORDER rows and else by triangular substitution with its Cholesky
factor, whose summation order the block (sdp._SUBST_BLOCK) sets; the
groups' own solves depend on neither.  The column of the shipped block
(48) runs solve_sdp as shipped, which takes the LU on every border here,
and the columns of blocks 16 and 128 set sdp._LU_BORDER to 0, so that they
solve every border by substitution.  Above the table, each case's line
gives the form it is solved in, its Schur rows, its border rows, its groups
and its block stacks (k blocks padded to d x d read "k of dxd").  Each cell
reads "iterations / max_ridge / centering fallbacks / |value - hoff|"; a
solve that does not end "optimal" is marked FAIL with its status.  --src
names the source directory to import the package from (default: this
checkout's src).  With --against DIR, both sources run and the tool
prints each cell that differs as "case tol, threads, block: against → src",
then the summary line of --against and that of --src.  OpenBLAS reads its
thread count when it loads, so each count runs in a fresh interpreter.

tests/test_hoffman.py loads this file and gates every cell of run() on
ending "optimal" with |value - hoff| < 1e-6, so CASES, TOLS, THREADS and
BLOCKS below are the sweep's only definition.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

CASES = ("mantel4", "mantel5", "edge3")
TOLS = (1e-8, 1e-9, 1e-10, 1e-11)
THREADS = (1, 2)
BLOCKS = (16, 48, 128)


def _rows() -> list[dict]:
    """One record per (case, tol, block), in the current interpreter."""
    from hypertheta.hoffman import hoff, uniform_weighted
    from hypertheta.hypercore import complete_hypergraph
    from hypertheta.numlin import sdp
    from hypertheta.symmetry import mantel_hypergraph
    from hypertheta.thetabody import ThetaSolverError, theta

    sizes = {}  # of the current theta call's solve; None where it made no layout
    prepare = sdp._prepare

    def spied(problem, kept):
        lay = prepare(problem, kept)
        # A checkout older than the split has every row on the border.
        border = len(getattr(lay, "border", range(lay.m)))
        stacks = ", ".join(f"{k} of {d}x{d}" for d, k in zip(lay.sizes, lay.counts))
        sizes.update(
            schur_rows=lay.m, border=border, groups=len(getattr(lay, "priv", ())), stacks=stacks
        )
        return lay

    sdp._prepare = spied

    graphs = {
        "mantel4": mantel_hypergraph(4),
        "mantel5": mantel_hypergraph(5),
        "edge3": complete_hypergraph(3, 3),
    }
    out = []
    shipped = sdp._SUBST_BLOCK, getattr(sdp, "_LU_BORDER", 0)
    for block in BLOCKS:
        sdp._SUBST_BLOCK = block
        sdp._LU_BORDER = shipped[1] if block == shipped[0] else 0
        for name in CASES:
            wh = uniform_weighted(graphs[name])
            mu = [float(v) for v in wh.vertex_measure()]
            bound = hoff(wh)
            for tol in TOLS:
                row = {"case": name, "tol": tol, "block": block}
                sizes.update(schur_rows=None, border=None, groups=None, stacks=None)
                try:
                    res = theta(graphs[name], mu, tol=tol)
                    sol_res, iters = res.diagnostics["residuals"], res.diagnostics["iterations"]
                    row.update(status="optimal", err=abs(res.value - bound), form=res.diagnostics["form"])
                except ThetaSolverError as exc:
                    sol_res, iters = exc.solution.residuals, exc.solution.iterations
                    row.update(status=exc.solution.status, err=None, form=None)
                row.update(
                    iters=iters,
                    ridge=sol_res["max_ridge"],
                    fallbacks=sol_res["centering_fallbacks"],
                    **sizes,
                )
                out.append(row)
    return out


def _cell(row: dict) -> str:
    text = f"{row['iters']} / {row['ridge']:.2g} / {row['fallbacks']}"
    if row["status"] != "optimal":
        return f"FAIL {row['status']}: {text}"
    return f"{text} / {row['err']:.1e}"


def run(src: str) -> list[dict]:
    """One record per cell, importing the package from src: case, tol,
    block, threads, status, err (None unless "optimal"), iters, ridge,
    fallbacks, and the case's form (None unless "optimal"), schur_rows,
    border, groups and stacks, its block stacks as "k of dxd" (None when the
    solve stopped before its layout)."""
    rows = []
    for threads in THREADS:
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
        done = subprocess.run(
            [sys.executable, __file__, "--worker", "--src", src],
            env=env, stdout=subprocess.PIPE, text=True, check=True,
        )
        rows += [{**row, "threads": threads} for row in json.loads(done.stdout)]
    return rows


def format_table(rows: list[dict]) -> str:
    """The markdown table of run()'s records, with a closing summary line."""
    table = {(r["case"], r["tol"], r["threads"], r["block"]): r for r in rows}
    cols = [(t, b) for t in THREADS for b in BLOCKS]
    lines = []
    for name in CASES:
        r = next(r for r in rows if r["case"] == name)
        lines.append(
            f"{name}: form {r['form'] or '?'}, {r['schur_rows']} Schur rows, "
            f"{r['border']} border rows, {r['groups']} groups, stacks {r['stacks']}"
        )
    lines += [
        "cells: iterations / max_ridge / fallbacks / |value - hoff|",
        "| case | " + " | ".join(f"{t} thr, block {b}" for t, b in cols) + " |",
        "|---" * (len(cols) + 1) + "|",
    ]
    for name in CASES:
        for tol in TOLS:
            cells = (_cell(table[name, tol, t, b]) for t, b in cols)
            lines.append(f"| {name} {tol:.0e} | " + " | ".join(cells) + " |")
    lines.append(_summary(rows))
    return "\n".join(lines)


def _summary(rows: list[dict]) -> str:
    worst = max(rows, key=lambda r: r["iters"])
    return (
        f"worst: {worst['iters']} iterations ({worst['case']} {worst['tol']:.0e}, "
        f"{worst['threads']} thr, block {worst['block']}); largest max_ridge {max(r['ridge'] for r in rows):.2g}; "
        f"failures {sum(r['status'] != 'optimal' for r in rows)}"
    )


def format_changes(before: list[dict], after: list[dict], names: tuple) -> str:
    """Each cell of two run()s' records that differs, as "before → after",
    then the summary line of each, headed by its name."""
    def key(r):
        return r["case"], r["tol"], r["threads"], r["block"]

    old = {key(r): _cell(r) for r in before}
    lines = []
    for r in after:
        if old[key(r)] != _cell(r):
            lines.append(
                f"{r['case']} {r['tol']:.0e}, {r['threads']} thr, block {r['block']}: "
                f"{old[key(r)]} → {_cell(r)}"
            )
    lines += [f"{name}: {_summary(rows)}" for name, rows in zip(names, (before, after))]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--against", metavar="DIR", help="a second source directory to compare with")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        sys.path.insert(0, args.src)
        print(json.dumps(_rows()))
    elif args.against is None:
        print(format_table(run(args.src)))
    else:
        print(format_changes(run(args.against), run(args.src), (args.against, args.src)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
