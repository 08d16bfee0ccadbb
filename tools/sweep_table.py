"""Print the tolerance-sweep table of numlin.solve_sdp.

    python tools/sweep_table.py [--src DIR] [--against DIR]

Solves the uniform-measure theta of Mantel 4, Mantel 5 and K3(3), where it
meets the Hoffman bound hoff, at tol 1e-8 to 1e-11, with 1 and 2 BLAS
threads and substitution blocks 16, 48 and 128.  Each instance is solved
twice: as its unreduced program, with thetabody's automorphism search
patched to find none (cases mantel4, mantel5 and edge3), and as theta
ships, merged over the instance's automorphisms (cases mantel4-orbits,
mantel5-orbits and edge3-orbits).  The border, the rows that
solve_sdp factors together after it has eliminated the groups (see
sdp._split), is solved by one LU of its Schur complement up to
sdp._LU_BORDER rows and else by triangular substitution with its Cholesky
factor, whose summation order the block (sdp._SUBST_BLOCK) sets; the
groups' own solves depend on neither.  The column of the shipped block
(48) runs solve_sdp as shipped, which takes the LU on every border here,
and the columns of blocks 16 and 128 set sdp._LU_BORDER to 0, so that they
solve every border by substitution.  Above the table, each case's line
gives the form it is solved in, its Schur rows, its border rows, its groups
and its block stacks with the Schur formula each takes (k blocks padded to
d x d, built by SDPA's F1, read "k of dxd F1"; see sdp._prepare).  Each
cell reads "iterations / max_ridge / centering fallbacks / |value - hoff|"; a
solve that does not end "optimal" is marked FAIL with its status.  --src
and --against follow tools/_sources.py, with one worker per thread count:
a cell's line reads "case tol, threads, block: cell", and the closing
lines are the summary line of --against and that of --src.

tests/test_hoffman.py loads this file and gates every cell of run() on
ending "optimal" with |value - hoff| < 1e-6, so CASES, TOLS, THREADS and
BLOCKS below are the sweep's only definition.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.dont_write_bytecode = True  # importing _sources leaves tools/ unwritten
sys.path.insert(0, str(Path(__file__).resolve().parent))
import _sources  # noqa: E402

CASES = ("mantel4", "mantel5", "edge3", "mantel4-orbits", "mantel5-orbits", "edge3-orbits")
TOLS = (1e-8, 1e-9, 1e-10, 1e-11)
THREADS = (1, 2)
BLOCKS = (16, 48, 128)


def _rows() -> list[dict]:
    """One record per (case, tol, block), in the current interpreter."""
    from hypertheta import thetabody
    from hypertheta.hoffman import hoff, uniform_weighted
    from hypertheta.hypercore import complete_hypergraph
    from hypertheta.numlin import sdp
    from hypertheta.symmetry import mantel_hypergraph
    from hypertheta.thetabody import ThetaSolverError, theta

    sizes = {}  # of the current theta call's solve; None where it made no layout
    prepare = sdp._prepare

    def spied(problem, kept):
        lay = prepare(problem, kept)
        dense = getattr(lay, "dense", (None,) * len(lay.sizes))  # a source without F1 has none
        formulas = ["F3" if f is None else "F1" for f in dense]
        stacks = ", ".join(f"{k} of {d}x{d} {f}" for d, k, f in zip(lay.sizes, lay.counts, formulas))
        sizes.update(schur_rows=lay.m, border=len(lay.border), groups=len(lay.priv), stacks=stacks)
        return lay

    sdp._prepare = spied

    graphs = {
        "mantel4": mantel_hypergraph(4),
        "mantel5": mantel_hypergraph(5),
        "edge3": complete_hypergraph(3, 3),
    }
    search = vars(thetabody).get("automorphisms")  # a source without the search has none
    out = []
    shipped = sdp._SUBST_BLOCK, sdp._LU_BORDER
    for block in BLOCKS:
        sdp._SUBST_BLOCK = block
        sdp._LU_BORDER = shipped[1] if block == shipped[0] else 0
        for name in CASES:
            graph, _, orbits = name.partition("-")
            thetabody.automorphisms = search if orbits else (lambda *args: [])
            wh = uniform_weighted(graphs[graph])
            mu = [float(v) for v in wh.vertex_measure()]
            bound = hoff(wh)
            for tol in TOLS:
                row = {"case": name, "tol": tol, "block": block}
                sizes.update(schur_rows=None, border=None, groups=None, stacks=None)
                try:
                    res = theta(graphs[graph], mu, tol=tol)
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
    border, groups and stacks, its block stacks as "k of dxd F3" (None when the
    solve stopped before its layout)."""
    return [{**row, "threads": t} for t in THREADS for row in _sources.spawn(__file__, src, threads=t)]


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


if __name__ == "__main__":
    sys.exit(_sources.main(
        __doc__,
        work=lambda args: _rows(),
        collect=lambda args, src: run(src),
        show=format_table,
        line=lambda r: f"{r['case']} {r['tol']:.0e}, {r['threads']} thr, block {r['block']}: {_cell(r)}",
        closing=lambda args, theirs, ours: [f"{args.against}: {_summary(theirs)}", f"{args.src}: {_summary(ours)}"],
    ))
