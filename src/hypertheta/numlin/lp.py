"""Dense linear programming by the two-phase simplex method.

One implementation serves two arithmetic modes: exact Fractions (every
comparison is exact, results are rationals) and floats with tolerance-based
pivoting.  Bland's rule is used throughout, so degenerate instances cannot
cycle.  Problems are stated with equality rows plus per-variable bounds and
are converted internally to standard form.  A pivot finds the nonzero
columns of the pivot row once and updates only those entries of the other
rows and of the cost row, in place; the covering LPs built here are mostly
zeros, and in exact mode every skipped entry saves Fraction arithmetic.

An exact solve first runs the float simplex on the float image of its
standard form, only to find a basis.  That basis is then checked once in
Fractions: the basis matrix B must be nonsingular, x_B = B^-1 b must be
nonnegative and every reduced cost must have the optimal sign.  A basis
that passes is optimal, and the point and value are computed from it in
exact arithmetic.  When the float run is not optimal, drops a row as
redundant, cannot convert the data (beyond the double range) or ends on a
basis that fails the check, the exact simplex runs from the start.  So an
exact result never depends on a float: "infeasible" and "unbounded" always
come from the exact simplex, and the float run only finds a basis to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = ["LpResult", "solve_lp"]

_EPS = 1e-9  # pivoting tolerance in float mode


@dataclass
class LpResult:
    """Status, and for an optimal LP its value and a basic optimal point."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: object = None
    x: list | None = None


def _simplex(tab, basis, cost, limit_col, eps):
    """Bland-rule simplex on an in-place tableau; columns >= limit_col barred.

    tab rows are [coefficients..., rhs]; cost is the reduced-cost row with
    the negated objective in its last slot.  Returns "optimal" or
    "unbounded".
    """
    while True:
        enter = None
        for j in range(limit_col):
            if cost[j] < -eps:
                enter = j
                break
        if enter is None:
            return "optimal"
        leave = None
        best = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > eps:
                ratio = row[-1] / a
                if (
                    best is None
                    or ratio < best - eps
                    or (abs(ratio - best) <= eps and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave is None:
            return "unbounded"
        _pivot(tab, basis, cost, leave, enter)


def _pivot(tab, basis, cost, row, col):
    """Pivot on tab[row][col] in place, touching only the columns where the
    pivot row is nonzero: elsewhere every other row keeps its entry."""
    piv = tab[row][col]
    prow = tab[row]
    nz = [j for j, v in enumerate(prow) if v != 0]
    for j in nz:
        prow[j] /= piv
    for other in tab + [cost]:
        f = other[col]
        if other is not prow and f != 0:
            for j in nz:
                other[j] -= f * prow[j]
    basis[row] = col


def solve_lp(
    c: Sequence,
    a_eq: Sequence[Sequence] | None = None,
    b_eq: Sequence | None = None,
    bounds: Sequence[tuple] | None = None,
    sense: str = "max",
    exact: bool = False,
) -> LpResult:
    """Optimize c'x subject to a_eq x = b_eq and per-variable bounds.

    bounds entries are (lo, hi) with None for unbounded; the default is
    (0, None).  In exact mode all data is converted to Fractions and the
    result is exact: an optimal basis found in floats is used only after an
    exact check (see the module docstring).  Float mode pivots with
    tolerance 1e-9.  Returns the status and, when optimal, the optimum and a
    basic optimal point.
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    nv = len(c)
    a_eq = [list(row) for row in (a_eq or [])]
    b_eq = list(b_eq or [])
    if len(a_eq) != len(b_eq):
        raise ValueError("a_eq and b_eq sizes disagree")
    for row in a_eq:
        if len(row) != nv:
            raise ValueError("a_eq row length does not match c")
    if bounds is None:
        bounds = [(0, None)] * nv
    bounds = list(bounds)
    if len(bounds) != nv:
        raise ValueError("bounds length does not match c")

    conv = Fraction if exact else float
    zero, one = conv(0), conv(1)
    cvec = [conv(v) for v in c]
    amat = [[conv(v) for v in row] for row in a_eq]
    bvec = [conv(v) for v in b_eq]
    m0 = len(amat)

    # Standard-form columns: x_j = base_j + sum(sign_k * u_k).
    col_var: list[tuple[int, int]] = []  # (orig var, sign)
    base = [zero] * nv
    chat = []
    ub_rows: list[tuple[int, object]] = []
    for j in range(nv):
        lo, hi = bounds[j]
        lo = conv(lo) if lo is not None else None
        hi = conv(hi) if hi is not None else None
        if lo is not None:
            if hi is not None and hi < lo:
                return LpResult("infeasible")
            base[j] = lo
            col_var.append((j, 1))
            chat.append(cvec[j])
            if hi is not None:
                ub_rows.append((len(col_var) - 1, hi - lo))
        elif hi is not None:
            base[j] = hi
            col_var.append((j, -1))
            chat.append(-cvec[j])
        else:
            base[j] = zero
            col_var.append((j, 1))
            chat.append(cvec[j])
            col_var.append((j, -1))
            chat.append(-cvec[j])

    nprim = len(col_var)
    nslack = len(ub_rows)
    ncols = nprim + nslack

    rows = []
    rhs = []
    shifted = [j for j in range(nv) if base[j] != 0]
    for i in range(m0):
        row = [zero] * ncols
        for k, (j, sg) in enumerate(col_var):
            if amat[i][j] != 0:
                row[k] = amat[i][j] if sg > 0 else -amat[i][j]
        rows.append(row)
        rhs.append(bvec[i] - sum((amat[i][j] * base[j] for j in shifted), zero))
    for t, (k, ub) in enumerate(ub_rows):
        row = [zero] * ncols
        row[k] = one
        row[nprim + t] = one
        rows.append(row)
        rhs.append(ub)
    chat = chat + [zero] * nslack
    if sense == "max":
        cmin = [-v for v in chat]
    else:
        cmin = list(chat)

    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]

    found = _from_float_basis(rows, rhs, cmin) if exact else None
    status, basis, xb = found or _two_phase(rows, rhs, cmin, exact)
    if status != "optimal":
        return LpResult(status)

    u = [zero] * ncols
    for b, v in zip(basis, xb):
        u[b] = v
    x = [base[j] for j in range(nv)]
    for k, (j, sg) in enumerate(col_var):
        x[j] = x[j] + sg * u[k]
    value = sum((cvec[j] * x[j] for j in range(nv)), zero)
    return LpResult("optimal", value, x)


def _two_phase(rows, rhs, cmin, exact):
    """Two-phase simplex for min cmin'u subject to rows u = rhs >= 0, u >= 0.

    Returns (status, basis, values): on "optimal", the basic column of each
    row and its value, with rows found redundant dropped; otherwise
    "infeasible" or "unbounded" and two empty lists.
    """
    conv = Fraction if exact else float
    zero, one = conv(0), conv(1)
    eps = 0 if exact else _EPS
    nrows, ncols = len(rows), len(cmin)

    # Phase 1: artificial basis.
    tab = [rows[i] + [zero] * nrows + [rhs[i]] for i in range(nrows)]
    for i in range(nrows):
        tab[i][ncols + i] = one
    basis = [ncols + i for i in range(nrows)]
    cost = [zero] * ncols + [one] * nrows + [zero]
    for i in range(nrows):
        _pivot(tab, basis, cost, i, ncols + i)  # prices out artificial i
    _simplex(tab, basis, cost, ncols, eps)  # phase 1 is bounded below by 0
    scale_b = max([abs(v) for v in rhs], default=zero)
    tol_inf = zero if exact else 1e-7 * (1 + float(scale_b))
    if -cost[-1] > tol_inf:
        return "infeasible", [], []

    # Drive artificials out of the basis; all-zero rows are redundant.
    i = 0
    while i < len(tab):
        if basis[i] >= ncols:
            piv_col = next((j for j in range(ncols) if abs(tab[i][j]) > eps), None)
            if piv_col is None:
                tab.pop(i)
                basis.pop(i)
                continue
            _pivot(tab, basis, cost, i, piv_col)
        i += 1

    # Phase 2 on the artificial-free tableau.
    tab = [row[:ncols] + [row[-1]] for row in tab]
    cost = list(cmin) + [zero]
    for i, b in enumerate(basis):
        _pivot(tab, basis, cost, i, b)  # column b is a unit column: prices out cost[b]
    if _simplex(tab, basis, cost, ncols, eps) == "unbounded":
        return "unbounded", [], []
    return "optimal", basis, [row[-1] for row in tab]


def _from_float_basis(rows, rhs, cmin):
    """The exact optimum from the basis that the float simplex ends on, or
    None when that run is not optimal, drops a row, cannot be run (data
    beyond the double range) or its basis fails the exact check."""
    try:
        image = (
            [[float(v) for v in row] for row in rows],
            [float(v) for v in rhs],
            [float(v) for v in cmin],
        )
    except OverflowError:
        return None
    status, basis, _ = _two_phase(*image, exact=False)
    if status != "optimal" or len(basis) != len(rows):
        return None
    xb = _certify(rows, rhs, cmin, basis)
    return None if xb is None else ("optimal", basis, xb)


def _certify(rows, rhs, cmin, basis):
    """Exact values of the basic columns when basis is optimal for
    min cmin'u subject to rows u = rhs, u >= 0; else None.

    With B the basis columns, the basis is optimal when B is nonsingular,
    x_B = B^-1 rhs >= 0, and every reduced cost cmin_j - y'A_j is >= 0,
    where y'B = c_B'.
    """
    xb = _solve_square([[row[b] for b in basis] for row in rows], rhs)
    if xb is None or any(v < 0 for v in xb):
        return None
    # B' is nonsingular because B is.
    y = _solve_square([[row[b] for row in rows] for b in basis], [cmin[b] for b in basis])
    ynz = [(row, yi) for row, yi in zip(rows, y) if yi != 0]
    for j, cj in enumerate(cmin):
        d = cj
        for row, yi in ynz:
            if row[j] != 0:
                d -= yi * row[j]
        if d < 0:
            return None
    return xb


def _solve_square(mat, rhs):
    """The solution of mat x = rhs by exact Gauss-Jordan elimination, or
    None when the square matrix mat is singular."""
    n = len(mat)
    aug = [list(row) + [v] for row, v in zip(mat, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        # the earlier pivots left exact zeros left of col in this row, and
        # the cost row is zero, so only columns col..n change
        _pivot(aug, [None] * n, [0] * (n + 1), col, col)
    return [row[n] for row in aug]
