"""Block-diagonal semidefinite programming by a primal-dual interior-point
method with Nesterov-Todd scaling.

Problems are stated in the form

    maximize   sum_b <C_b, X_b>
    subject to sum_b <A_ib, X_b> = rhs_i   (i = 1..m)
               X_b positive semidefinite,

with dense symmetric data on each block.  The solver is aimed at dense desk
scale instances (a few hundred total dimensions): every iteration factors the
blocks directly and solves the Schur-complement normal equations by Cholesky.
A presolve pass keeps, in order, each equality row whose distance from the
span of the rows kept before it passes a QR rank test (threshold 1e-10), and
checks the right-hand sides of the dropped rows by one least-squares solve.

Solves are deterministic per numpy/BLAS build: on one build, identical
inputs give bit-identical iterates; other builds may differ in the last
digits.  Problem and solution objects are immutable after construction and
may be shared across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .eig import as_symmetric

__all__ = ["SdpProblem", "SdpSolution", "solve_sdp"]

_MAX_ITER = 300
_PSD_TOL = 1e-9  # an "optimal" solve keeps every block PSD to -_PSD_TOL


@dataclass(frozen=True)
class SdpProblem:
    """Block PSD program data: dimensions, per-block objectives, equality rows.

    constraints is a list of (coeffs, rhs) with coeffs a dict mapping block
    index to a dense symmetric coefficient matrix.
    """

    block_dims: tuple
    objective: tuple
    constraints: tuple

    def __init__(self, block_dims, objective, constraints):
        dims = tuple(int(d) for d in block_dims)
        if any(d < 1 for d in dims):
            raise ValueError("block dimensions must be positive")
        if len(objective) != len(dims):
            raise ValueError("objective must provide one matrix per block")
        obj = tuple(
            as_symmetric(np.asarray(c, dtype=float)) for c in objective
        )
        for b, c in enumerate(obj):
            if c.shape != (dims[b], dims[b]):
                raise ValueError(f"objective block {b} has wrong shape")
        cons = []
        for coeffs, rhs in constraints:
            clean = {}
            for b, mat in coeffs.items():
                if not 0 <= b < len(dims):
                    raise ValueError(f"constraint references unknown block {b}")
                mat = as_symmetric(np.asarray(mat, dtype=float))
                if mat.shape != (dims[b], dims[b]):
                    raise ValueError("constraint block has wrong shape")
                clean[b] = mat
            rhs = float(rhs)
            if not np.isfinite(rhs):
                raise ValueError("constraint right-hand side must be finite")
            cons.append((clean, rhs))
        object.__setattr__(self, "block_dims", dims)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraints", tuple(cons))

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)


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
    """All constraint rows as one matrix; the only reader of the rows.

    Row i is vec(A_i0), vec(A_i1), ... in block order, so Frobenius inner
    products of constraints are dot products of rows.  Returns the matrix,
    the right-hand sides and the column offsets of the blocks and the end.
    """
    offsets = np.cumsum([0] + [d * d for d in problem.block_dims])
    a = np.zeros((problem.num_constraints, offsets[-1]))
    rhs = np.zeros(problem.num_constraints)
    for i, (coeffs, value) in enumerate(problem.constraints):
        for b, mat in coeffs.items():
            a[i, offsets[b] : offsets[b + 1]] = mat.ravel()
        rhs[i] = value
    return a, rhs, offsets


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
    """One block's touched constraint rows and their stacked matrices."""

    def __init__(self, rows, flat, dim):
        self.rows = rows
        self.flat = flat
        self.mats = flat.reshape(len(rows), dim, dim)


def _prepare(dims, a, offsets, kept):
    blocks = []
    for b, d in enumerate(dims):
        cols = a[kept, offsets[b] : offsets[b + 1]]
        rows = np.flatnonzero(cols.any(axis=1))
        blocks.append(_BlockData(rows, cols[rows], d))
    return blocks


def _apply_a(blocks, xs, m):
    out = np.zeros(m)
    for b, data in enumerate(blocks):
        np.add.at(out, data.rows, data.flat @ xs[b].ravel())
    return out


def _apply_at(blocks, y):
    return [np.einsum("m,mij->ij", y[data.rows], data.mats) for data in blocks]


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest a with x + a*dx psd, computed through the x-whitened pencil."""
    vals, vecs = np.linalg.eigh(x)
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
    a, rhs, offsets = _stack(problem)
    kept, bad = _presolve(a, rhs)
    if bad is not None:
        return SdpSolution(status="infeasible")
    m = len(kept)
    if m == 0:
        raise ValueError("SDP needs at least one equality constraint")
    dims = problem.block_dims
    rhs = rhs[kept]
    blocks = _prepare(dims, a, offsets, kept)
    del a  # the blocks hold all the constraint data from here on
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
        # anything more negative is a genuine breakdown.
        ws, sinvs = [], []
        broke = False
        for b in range(len(dims)):
            sval, svec = np.linalg.eigh(ss[b])
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
            z = np.linalg.solve(chol, vec)
            out = np.linalg.solve(chol.T, z)
            resid = vec - mmat @ out
            z = np.linalg.solve(chol, resid)
            out += np.linalg.solve(chol.T, z)
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
        dxa, dya, dsa = directions([-xs[b] for b in range(len(dims))])
        ap = min(1.0, min(_max_step(xs[b], dxa[b]) for b in range(len(dims))))
        ad = min(1.0, min(_max_step(ss[b], dsa[b]) for b in range(len(dims))))
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
        ap = min(1.0, gamma * min(_max_step(xs[b], dx[b]) for b in range(len(dims))))
        ad = min(1.0, gamma * min(_max_step(ss[b], ds[b]) for b in range(len(dims))))
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
