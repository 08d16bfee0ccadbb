"""Block-diagonal semidefinite programming by a primal-dual interior-point
method with Nesterov-Todd scaling.

Problems are stated in the form

    maximize   sum_b <C_b, X_b>
    subject to sum_b <A_ib, X_b> = rhs_i   (i = 1..m)
               X_b positive semidefinite,

with a dense symmetric objective C_b per block and each row A_i given by
sparse terms (see SdpProblem).  The solver is aimed at desk scale instances
(a few hundred total dimensions): every iteration factors the blocks directly
and solves the Schur-complement normal equations by Cholesky, then blocked
forward and back substitution on the factor, with one refinement step
against the unregularized Schur complement.  A presolve pass keeps, in
order, each equality row whose distance from the span of the rows kept
before it passes a QR rank test (threshold 1e-10), and checks the
right-hand sides of the dropped rows by one least-squares solve.

Solves are deterministic per numpy/BLAS build and BLAS thread count: with
both fixed, identical inputs give bit-identical iterates; another build or
thread count may differ in the last digits.  Problem and solution objects
are immutable after construction and may be shared across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .eig import as_symmetric

__all__ = ["SdpProblem", "SdpSolution", "solve_sdp"]

_MAX_ITER = 300
_PSD_TOL = 1e-9  # an "optimal" solve keeps every block PSD to -_PSD_TOL
# Rows per diagonal block of the triangular substitutions.  The summation
# order it sets decides some 1e-11 endgames: 16 fails the tolerance sweep.
_SUBST_BLOCK = 48


@dataclass(frozen=True)
class SdpProblem:
    """Block PSD program data: dimensions, per-block objectives, equality rows.

    Each constraint is (entries, rhs); an entry (block, i, j, coef) is coef
    times the unordered entry {i, j}: coef on a diagonal entry, coef/2 on each
    side of an off-diagonal one, and repeated terms add up.  Stored as
    read-only arrays index ((row, block, i, j) per term, i <= j), coef and
    rhs; the constraints property gives the dense view.
    """

    block_dims: tuple
    objective: tuple
    rhs: np.ndarray
    index: np.ndarray
    coef: np.ndarray

    def __init__(self, block_dims, objective, constraints):
        dims = tuple(int(d) for d in block_dims)
        if any(d < 1 for d in dims):
            raise ValueError("block dimensions must be positive")
        obj = tuple(as_symmetric(c) for c in objective)
        if [c.shape for c in obj] != [(d, d) for d in dims]:
            raise ValueError("objective must provide one d x d matrix per block")
        rows = list(constraints)
        terms = [(r, b, i, j, c) for r, (ts, _) in enumerate(rows) for b, i, j, c in ts]
        terms = np.array(terms, dtype=float).reshape(-1, 5)
        index, coef = terms[:, :4].astype(np.intp), terms[:, 4]
        rhs = np.array([value for _, value in rows], dtype=float)
        if np.any(index != terms[:, :4]):
            raise ValueError("constraint term indices must be integers")
        index[:, 2:].sort(axis=1)
        blk, lo, hi = index[:, 1:].T
        if np.any((blk < 0) | (blk >= len(dims))):
            raise ValueError("constraint references unknown block")
        if np.any((lo < 0) | (hi >= np.array(dims, dtype=np.intp)[blk])):
            raise ValueError("constraint entry lies outside its block")
        if not (np.isfinite(coef).all() and np.isfinite(rhs).all()):
            raise ValueError("constraint data must be finite")
        for arr in (rhs, index, coef):
            arr.flags.writeable = False
        fields = dict(block_dims=dims, objective=obj, rhs=rhs, index=index, coef=coef)
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def num_constraints(self) -> int:
        return len(self.rhs)

    @property
    def constraints(self) -> tuple:
        """Per row ({block: dense symmetric matrix}, rhs), built on each read."""
        rows = [({}, float(v)) for v in self.rhs]
        for (row, b, i, j), c in zip(self.index.tolist(), self.coef.tolist()):
            mat = rows[row][0].setdefault(b, np.zeros((self.block_dims[b],) * 2))
            mat[i, j] += c / 2.0  # twice on a diagonal entry
            mat[j, i] += c / 2.0
        return tuple(rows)


@dataclass(frozen=True)
class SdpSolution:
    status: str  # "optimal" | "infeasible" | "numerical-failure"
    blocks: tuple = ()
    y: tuple = ()
    primal: float = float("nan")
    dual: float = float("nan")
    gap: float = float("nan")
    iterations: int = 0
    residuals: dict = field(default_factory=dict)


def _stack(problem: SdpProblem):
    """The constraint rows as one matrix and the right-hand sides.

    Column k is one (block, i <= j) entry that some term names; off-diagonal
    columns carry coef * sqrt(1/2), so dot products of rows are the Frobenius
    inner products of the constraint matrices.
    """
    row, entry = problem.index[:, 0], problem.index[:, 1:]
    keys, col = np.unique(entry, axis=0, return_inverse=True)
    scale = np.where(entry[:, 1] == entry[:, 2], 1.0, np.sqrt(0.5))
    a = np.zeros((problem.num_constraints, len(keys)))
    np.add.at(a, (row, col.ravel()), problem.coef * scale)
    return a, problem.rhs


def _presolve(a: np.ndarray, rhs: np.ndarray, tol: float = 1e-10):
    """Greedy rank filter on the constraint rows, taken in order.

    Row i is kept when its distance from the span of the rows kept before it
    exceeds tol * (1 + |row i|).  In the QR factorization of a^T that
    distance is |R_ii| up to the first dependent row p; the columns of
    R[p:, p+1:] hold the later rows' parts orthogonal to the kept ones, and
    the test repeats on them.  Returns (kept_indices, None), or
    (None, "infeasible") when a dependent row carries an inconsistent
    right-hand side.
    """
    limit = tol * (1.0 + np.linalg.norm(a, axis=1))
    keep = np.zeros(len(a), dtype=bool)
    rest, res = np.arange(len(a)), a.T
    while len(rest) and len(res):
        r = np.linalg.qr(res, mode="r")
        dist = np.zeros(len(rest))
        dist[: len(r)] = np.abs(np.diag(r))
        p = np.append(dist <= limit[rest], True).argmax()  # first dependent
        keep[rest[:p]] = True
        rest, res = rest[p + 1 :], r[p:, p + 1 :]
    kept, dropped = np.flatnonzero(keep), np.flatnonzero(~keep)
    if len(dropped):
        coef, *_ = np.linalg.lstsq(a[kept].T, a[dropped].T, rcond=None)
        implied = rhs[kept] @ coef
        want = rhs[dropped]
        if np.any(np.abs(want - implied) > 1e-7 * (1.0 + np.abs(want))):
            return None, "infeasible"
    return kept, None


class _BlockData:
    """One block's kept constraint rows and their (k, d, d) matrix stack,
    scattered from the terms: coef/2 on entry (i, j) and on (j, i), which
    sums to coef on the diagonal.  kept is sorted, as _presolve returns it,
    and rows are positions in kept."""

    def __init__(self, problem: SdpProblem, b: int, d: int, kept: np.ndarray):
        row, blk, i, j = problem.index.T
        on = (blk == b) & np.isin(row, kept)
        self.rows, slot = np.unique(np.searchsorted(kept, row[on]), return_inverse=True)
        mats = np.zeros((len(self.rows), d, d))
        np.add.at(mats, (slot.ravel(), i[on], j[on]), problem.coef[on] / 2.0)
        self.mats = mats + mats.transpose(0, 2, 1)
        self.flat = self.mats.reshape(len(self.rows), -1)


def _prepare(problem: SdpProblem, kept):
    return [_BlockData(problem, b, d, kept) for b, d in enumerate(problem.block_dims)]


def _apply_a(blocks, xs, m):
    out = np.zeros(m)
    for b, data in enumerate(blocks):
        np.add.at(out, data.rows, data.flat @ xs[b].ravel())
    return out


def _apply_at(blocks, y):
    return [np.einsum("m,mij->ij", y[data.rows], data.mats) for data in blocks]


def _chol_solve(chol: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """x with chol @ chol.T @ x = vec, for lower triangular chol.

    Blocked forward, then back substitution: each diagonal block of the
    factor is solved directly and the rest of the right-hand side updated by
    one product, O(m^2) in all.  With m <= _SUBST_BLOCK this is the two
    plain solves by the whole factor.
    """
    out = np.array(vec, dtype=float)
    starts = range(0, len(out), _SUBST_BLOCK)
    for lo in starts:
        hi = lo + _SUBST_BLOCK
        out[lo:hi] = np.linalg.solve(chol[lo:hi, lo:hi], out[lo:hi])
        out[hi:] -= chol[hi:, lo:hi] @ out[lo:hi]
    for lo in reversed(starts):
        hi = lo + _SUBST_BLOCK
        out[lo:hi] = np.linalg.solve(chol[lo:hi, lo:hi].T, out[lo:hi])
        out[:lo] -= chol[lo:hi, :lo].T @ out[lo:hi]
    return out


def _max_step(eig: tuple, dx: np.ndarray) -> float:
    """Largest a with x + a*dx psd, computed through the x-whitened pencil;
    eig is np.linalg.eigh(x)."""
    vals, vecs = eig
    vals = np.maximum(vals, 1e-300)
    z = vecs / np.sqrt(vals)
    lo = np.linalg.eigvalsh(z.T @ dx @ z).min()
    if lo >= -1e-13:
        return np.inf
    return -1.0 / lo


def solve_sdp(problem: SdpProblem, tol: float = 1e-8) -> SdpSolution:
    """Solve the block SDP to the requested duality-gap tolerance.

    The feasible regions produced by this package are bounded with interior
    points, so the central path exists and the method converges at desk
    scale; if progress stalls the solution is returned with status
    "numerical-failure" and diagnostics attached.  The residuals hold the
    final relative gap, the scaled primal and dual residuals, the smallest
    block eigenvalue and max_ridge, the largest multiple of the identity
    added to the Schur complement when its Cholesky factorization failed
    (0.0 when it never did).
    """
    kept, bad = _presolve(*_stack(problem))
    if bad is not None:
        return SdpSolution(status="infeasible")
    m = len(kept)
    if m == 0:
        raise ValueError("SDP needs at least one equality constraint")
    dims = problem.block_dims
    rhs = problem.rhs[kept]
    blocks = _prepare(problem, kept)
    cs = [np.array(c) for c in problem.objective]
    total_dim = sum(dims)

    scale0 = max(1.0, float(np.abs(rhs).max()))
    scale_c = max(1.0, max(float(np.abs(c).max()) for c in cs))
    xs = [np.eye(d) * scale0 for d in dims]
    ss = [np.eye(d) * scale_c for d in dims]
    y = np.zeros(m)

    b_norm = 1.0 + float(np.abs(rhs).max())
    c_norm = 1.0 + scale_c
    status = "numerical-failure"
    iterations = 0
    stall = 0
    rel_gap = np.inf
    rp_norm = rd_norm = np.inf
    max_ridge = 0.0

    for iterations in range(1, _MAX_ITER + 1):
        aty = _apply_at(blocks, y)
        rp = rhs - _apply_a(blocks, xs, m)
        rd = [cs[b] + ss[b] - aty[b] for b in range(len(dims))]
        pobj = sum(float(np.tensordot(cs[b], xs[b])) for b in range(len(dims)))
        dobj = float(y @ rhs)
        gap = sum(float(np.tensordot(xs[b], ss[b])) for b in range(len(dims)))
        mu = gap / total_dim
        rel_gap = abs(gap) / (1.0 + abs(pobj) + abs(dobj))
        rp_norm = float(np.abs(rp).max()) / b_norm
        rd_norm = max(float(np.abs(r).max()) for r in rd) / c_norm
        if rel_gap <= tol and rp_norm <= tol * 10 and rd_norm <= tol * 10:
            status = "optimal"
            break

        # Nesterov-Todd scaling point per block.  Steps keep the iterates
        # definite mathematically; eigenvalues at roundoff scale are clamped,
        # anything more negative is a genuine breakdown.  eigh(S) here, like
        # eigh(X) below, is computed once per iteration and also serves the
        # step lengths.
        seigs = [np.linalg.eigh(s) for s in ss]
        ws, sinvs = [], []
        broke = False
        for b in range(len(dims)):
            sval, svec = seigs[b]
            floor = 1e-14 * max(float(sval.max()), 1e-30)
            if sval.min() < -10 * floor:
                broke = True
                break
            sval = np.maximum(sval, floor)
            shalf = (svec * np.sqrt(sval)) @ svec.T
            sinvh = (svec / np.sqrt(sval)) @ svec.T
            sinvs.append((svec / sval) @ svec.T)
            tval, tvec = np.linalg.eigh(shalf @ xs[b] @ shalf)
            tfloor = 1e-14 * max(float(tval.max()), 1e-30)
            if tval.min() < -10 * tfloor:
                broke = True
                break
            tval = np.maximum(tval, tfloor)
            thalf = (tvec * np.sqrt(tval)) @ tvec.T
            w = sinvh @ thalf @ sinvh
            ws.append((w + w.T) / 2.0)
        if broke:
            break

        # Schur complement M[i,j] = <A_i, W A_j W>.
        mmat = np.zeros((m, m))
        for b, data in enumerate(blocks):
            waw = ws[b] @ data.mats @ ws[b]
            sub = data.flat @ waw.reshape(len(data.rows), -1).T
            mmat[np.ix_(data.rows, data.rows)] += sub

        chol = None
        ridge = 0.0
        base = np.trace(mmat) / m
        for attempt in range(8):
            try:
                chol = np.linalg.cholesky(
                    mmat + ridge * np.eye(m) if ridge else mmat
                )
                break
            except np.linalg.LinAlgError:
                ridge = max(ridge * 100.0, 1e-14 * max(base, 1.0))
        max_ridge = max(max_ridge, ridge)
        if chol is None:
            break

        def solve_normal(vec):
            out = _chol_solve(chol, vec)
            out += _chol_solve(chol, vec - mmat @ out)
            return out

        def directions(rmats):
            inner = [
                rmats[b] + ws[b] @ rd[b] @ ws[b] for b in range(len(dims))
            ]
            vec = _apply_a(blocks, inner, m) - rp
            dy = solve_normal(vec)
            aty_dy = _apply_at(blocks, dy)
            ds = [aty_dy[b] - rd[b] for b in range(len(dims))]
            dx = []
            for b in range(len(dims)):
                d = rmats[b] - ws[b] @ ds[b] @ ws[b]
                dx.append((d + d.T) / 2.0)
            return dx, dy, ds

        # Predictor (affine scaling) fixes the centering weight from its full
        # steps to the cone boundary.
        xeigs = [np.linalg.eigh(x) for x in xs]
        dxa, dya, dsa = directions([-xs[b] for b in range(len(dims))])
        ap = min(1.0, min(_max_step(xeigs[b], dxa[b]) for b in range(len(dims))))
        ad = min(1.0, min(_max_step(seigs[b], dsa[b]) for b in range(len(dims))))
        gap_aff = sum(
            float(np.tensordot(xs[b] + ap * dxa[b], ss[b] + ad * dsa[b]))
            for b in range(len(dims))
        )
        sigma = min(0.999, max(1e-8, (max(gap_aff, 0.0) / gap) ** 3)) if gap > 0 else 0.1

        dx, dy, ds = directions(
            [sigma * mu * sinvs[b] - xs[b] for b in range(len(dims))]
        )
        # Step fraction of SDPT3 (Toh, Todd & Tutuncu 1999): shorter steps
        # while the predictor is blocked keep the endgame off the cone
        # boundary, where the Schur complement loses all accuracy.
        gamma = 0.9 + 0.09 * min(ap, ad)
        ap = min(1.0, gamma * min(_max_step(xeigs[b], dx[b]) for b in range(len(dims))))
        ad = min(1.0, gamma * min(_max_step(seigs[b], ds[b]) for b in range(len(dims))))
        if max(ap, ad) < 1e-10:
            stall += 1
            if stall >= 3:
                break
        else:
            stall = 0
        xs = [(xs[b] + ap * dx[b] + (xs[b] + ap * dx[b]).T) / 2.0 for b in range(len(dims))]
        ss = [(ss[b] + ad * ds[b] + (ss[b] + ad * ds[b]).T) / 2.0 for b in range(len(dims))]
        y = y + ad * dy

    pobj = sum(float(np.tensordot(cs[b], xs[b])) for b in range(len(dims)))
    dobj = float(y @ rhs)
    gap = sum(float(np.tensordot(xs[b], ss[b])) for b in range(len(dims)))
    min_eig = min(float(np.linalg.eigvalsh(x).min()) for x in xs)
    if status == "optimal" and min_eig < -_PSD_TOL:
        status = "numerical-failure"

    y_full = np.zeros(problem.num_constraints)
    y_full[kept] = y

    return SdpSolution(
        status=status,
        blocks=tuple(x.copy() for x in xs),
        y=tuple(float(v) for v in y_full),
        primal=pobj,
        dual=dobj,
        gap=gap,
        iterations=iterations,
        residuals={
            "rel_gap": float(rel_gap),
            "primal": float(rp_norm),
            "dual": float(rd_norm),
            "min_eig": min_eig,
            "max_ridge": float(max_ridge),
        },
    )
