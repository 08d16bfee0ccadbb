"""Block-diagonal semidefinite programming by a primal-dual interior-point
method with Nesterov-Todd scaling.

Problems are stated in the form

    maximize   sum_b <C_b, X_b>
    subject to sum_b <A_ib, X_b> = rhs_i   (i = 1..m)
               X_b positive semidefinite,

with a dense symmetric objective C_b per block and each row A_i given by
sparse terms (see SdpProblem).  The solver is aimed at desk scale instances
(a few hundred total dimensions).  Blocks of equal size are kept as one
(k, d, d) stack, so every per-block step of an iteration (the
eigendecompositions of the Nesterov-Todd scaling, the directions, the step
lengths) is one broadcast numpy call per distinct size.  The rows act on the
stacks by one gather and one np.bincount over their terms; the Schur
complement is built the same way from the pairs of terms that share a
block, and solved by Cholesky and blocked triangular substitution, with one
refinement step against the unregularized Schur complement.  A presolve pass
keeps, in order, each equality row whose distance from the span of the rows
kept before it passes a QR rank test (threshold 1e-10), and checks the
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


@dataclass(frozen=True)
class _Layout:
    """The blocks grouped by size and the kept terms.  A block quantity is a
    list of (k, d, d) stacks, one per distinct size in increasing order;
    block b of the problem is slot where[b][1] of stack where[b][0].  pos
    and quad index the stacks raveled and concatenated.  Each kept term
    appears twice in (row, pos, half), at entry (i, j) and at (j, i), with
    half its coefficient.  Each pair of kept terms that share a block has a
    column of quad, a weight and two entries of cell, as _schur reads them."""

    sizes: tuple
    counts: tuple
    bounds: tuple  # stack s spans bounds[s]:bounds[s + 1] of the flat vector
    where: tuple
    m: int
    row: np.ndarray
    pos: np.ndarray
    half: np.ndarray
    quad: np.ndarray
    cell: np.ndarray
    weight: np.ndarray


def _prepare(problem: SdpProblem, kept: np.ndarray) -> _Layout:
    """The (size, slot) map of the blocks, the kept terms and their pairs."""
    dims = problem.block_dims
    sizes = sorted(set(dims))
    counts = [dims.count(d) for d in sizes]
    where = [(sizes.index(d), dims[:b].count(d)) for b, d in enumerate(dims)]
    offsets = np.cumsum([0] + [k * d * d for k, d in zip(counts, sizes)])
    start = np.array([offsets[g] + slot * d * d for d, (g, slot) in zip(dims, where)])
    on = np.isin(problem.index[:, 0], kept)
    row, blk, i, j = problem.index[on].T
    row, coef, m = np.searchsorted(kept, row), problem.coef[on], len(kept)
    dim, base = np.array(dims)[blk], start[blk]
    ri, rj = base + i * dim, base + j * dim  # flat positions of rows i and j
    # In the terms sorted by block, u runs from t to the last term of t's block.
    order = np.argsort(blk, kind="stable")
    lens = np.searchsorted(blk[order], blk[order], side="right") - np.arange(len(order))
    first = np.repeat(np.arange(len(order)), lens)
    second = first + np.arange(len(first)) - np.repeat(np.cumsum(lens) - lens, lens)
    t, u = order[first], order[second]
    return _Layout(
        sizes=tuple(sizes),
        counts=tuple(counts),
        bounds=tuple(int(v) for v in offsets),
        where=tuple(where),
        m=m,
        row=np.tile(row, 2),
        pos=np.concatenate([ri + j, rj + i]),
        half=np.tile(coef / 2.0, 2),
        quad=np.stack([ri[t] + i[u], rj[t] + j[u], ri[t] + j[u], rj[t] + i[u]]),
        cell=np.concatenate([row[t] * m + row[u], row[u] * m + row[t]]),
        weight=coef[t] * coef[u] / np.where(t == u, 4.0, 2.0),
    )


def _schur(lay: _Layout, ws) -> np.ndarray:
    """The Schur complement M[r, s] = <A_r, W A_s W> of the kept rows, by
    SDPA's F3 formula (Fujisawa, Kojima & Nakata, Math. Prog. 79, 1997):
    terms t = (i, j, c), u = (k, l, c') of one block give
    c c' (W_ik W_jl + W_il W_jk) / 2, read at the flat positions in quad and
    added at M positions (row_t, row_u) and (row_u, row_t) from cell.  A pair
    t = u thus lands twice on one entry and weighs c^2/4; a pair t < u, c c'/2."""
    flat = np.concatenate([w.ravel() for w in ws])
    ik, jl, il, jk = lay.quad
    value = lay.weight * (flat[ik] * flat[jl] + flat[il] * flat[jk])
    return np.bincount(lay.cell, np.tile(value, 2), lay.m**2).reshape(lay.m, -1)


def _stacked(lay: _Layout, mats) -> list:
    """Per-block matrices, in block order, as the layout's stacks."""
    out = [np.empty((k, d, d)) for d, k in zip(lay.sizes, lay.counts)]
    for (g, slot), mat in zip(lay.where, mats):
        out[g][slot] = mat
    return out


def _apply_a(lay: _Layout, stacks) -> np.ndarray:
    """<A_i, X> for every kept row i, read from the symmetric part of X."""
    flat = np.concatenate([x.ravel() for x in stacks])
    return np.bincount(lay.row, lay.half * flat[lay.pos], minlength=lay.m)


def _apply_at(lay: _Layout, y: np.ndarray) -> list:
    """sum_i y_i A_i as stacks."""
    flat = np.bincount(lay.pos, lay.half * y[lay.row], minlength=lay.bounds[-1])
    spans = zip(lay.bounds, lay.bounds[1:], lay.sizes)
    return [flat[lo:hi].reshape(-1, d, d) for lo, hi, d in spans]


def _inner(a, b) -> float:
    """sum_b <a_b, b_b> over two block quantities."""
    return sum(float(np.vdot(p, q)) for p, q in zip(a, b))


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.transpose(0, 2, 1)) / 2.0


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
    """Largest a with x + a*dx psd in every block of one stack, computed
    through the x-whitened pencils; eig is np.linalg.eigh(x).  A block whose
    pencil has no eigenvalue below -1e-13 allows any step; since that rule
    is monotone in the eigenvalue, applying it to the stack's smallest one
    gives the smallest of the per-block steps."""
    vals, vecs = eig
    z = vecs / np.sqrt(np.maximum(vals, 1e-300))[:, None, :]
    lo = np.linalg.eigvalsh(z.transpose(0, 2, 1) @ dx @ z).min()
    if lo >= -1e-13:
        return np.inf
    return -1.0 / lo


def _nt_scaling(seig: tuple, xeig: tuple):
    """(W, S^-1) of the Nesterov-Todd scaling point of one stack, or None on
    breakdown; seig and xeig are np.linalg.eigh of s and x.  Steps keep the
    iterates definite mathematically, so per block, eigenvalues at roundoff
    scale are clamped and anything more negative is a genuine breakdown.

    W = S^-1/2 T^1/2 S^-1/2 with T = S^1/2 X S^1/2.  T^1/2 comes from the SVD
    of S^1/2 X^1/2: near the optimum every eigenvalue of T is about mu, below
    the roundoff of forming T itself, while the singular values of the
    factor product keep their accuracy.
    """

    def floored(vals):
        floor = 1e-14 * np.maximum(vals.max(axis=1, keepdims=True), 1e-30)
        return None if np.any(vals < -10 * floor) else np.maximum(vals, floor)

    (sval, svec), (xval, xvec) = seig, xeig
    sval, xval = floored(sval), floored(xval)
    if sval is None or xval is None:
        return None
    svt = svec.transpose(0, 2, 1)
    shalf = (svec * np.sqrt(sval)[:, None, :]) @ svt
    sinvh = (svec / np.sqrt(sval)[:, None, :]) @ svt
    sinv = (svec / sval[:, None, :]) @ svt
    xhalf = (xvec * np.sqrt(xval)[:, None, :]) @ xvec.transpose(0, 2, 1)
    u, sig, _ = np.linalg.svd(shalf @ xhalf)
    # T's eigenvalues sig^2, floored at 1e-14 of the largest like S's
    sig = np.maximum(sig, 1e-7 * np.maximum(sig[:, :1], 1e-15))
    thalf = (u * sig[:, None, :]) @ u.transpose(0, 2, 1)
    return _sym(sinvh @ thalf @ sinvh), sinv


def solve_sdp(problem: SdpProblem, tol: float = 1e-8) -> SdpSolution:
    """Solve the block SDP to the requested duality-gap tolerance.

    The feasible regions produced by this package are bounded with interior
    points, so the central path exists and the method converges at desk
    scale; if progress stalls or the iterates diverge (an unbounded or
    infeasible program), the solution is returned with status
    "numerical-failure" and diagnostics attached.  The residuals hold the
    final relative gap, the scaled primal and dual residuals, the smallest
    block eigenvalue and max_ridge, the largest multiple of the identity
    added to the Schur complement when its Cholesky factorization failed
    (0.0 when it never did).  Raises ValueError unless 0 < tol < inf.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    kept, bad = _presolve(*_stack(problem))
    if bad is not None:
        return SdpSolution(status="infeasible")
    m = len(kept)
    if m == 0:
        raise ValueError("SDP needs at least one equality constraint")
    rhs = problem.rhs[kept]
    lay = _prepare(problem, kept)
    cs = _stacked(lay, problem.objective)
    eyes = _stacked(lay, [np.eye(d) for d in problem.block_dims])
    total_dim = sum(problem.block_dims)

    scale0 = max(1.0, float(np.abs(rhs).max()))
    scale_c = max(1.0, max(float(np.abs(c).max()) for c in cs))
    xs = [e * scale0 for e in eyes]
    ss = [e * scale_c for e in eyes]
    y = np.zeros(m)

    b_norm = 1.0 + float(np.abs(rhs).max())
    c_norm = 1.0 + scale_c
    status = "numerical-failure"
    iterations = stall = 0
    rel_gap = rp_norm = rd_norm = np.inf
    max_ridge = 0.0

    try:
        for iterations in range(1, _MAX_ITER + 1):
            rp = rhs - _apply_a(lay, xs)
            rd = [c + s - a for c, s, a in zip(cs, ss, _apply_at(lay, y))]
            pobj = _inner(cs, xs)
            dobj = float(y @ rhs)
            gap = _inner(xs, ss)
            mu = gap / total_dim
            rel_gap = abs(gap) / (1.0 + abs(pobj) + abs(dobj))
            rp_norm = float(np.abs(rp).max()) / b_norm
            rd_norm = max(float(np.abs(r).max()) for r in rd) / c_norm
            if rel_gap <= tol and rp_norm <= tol * 10 and rd_norm <= tol * 10:
                status = "optimal"
                break
            if not np.isfinite([pobj, dobj, gap, rp_norm, rd_norm]).all():
                break  # diverged: an unbounded program, or overflow

            # eigh(S) and eigh(X) are computed once per iteration; they serve the
            # scaling point and the step lengths.
            seigs = [np.linalg.eigh(s) for s in ss]
            xeigs = [np.linalg.eigh(x) for x in xs]
            scaling = [_nt_scaling(e, x) for e, x in zip(seigs, xeigs)]
            if None in scaling:
                break
            ws, sinvs = zip(*scaling)
            mmat = _schur(lay, ws)

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
                inner = [r + w @ q @ w for r, w, q in zip(rmats, ws, rd)]
                dy = solve_normal(_apply_a(lay, inner) - rp)
                ds = [a - q for a, q in zip(_apply_at(lay, dy), rd)]
                dx = [_sym(r - w @ d @ w) for r, w, d in zip(rmats, ws, ds)]
                return dx, dy, ds

            # Predictor (affine scaling) fixes the centering weight from its full
            # steps to the cone boundary.
            dxa, dya, dsa = directions([-x for x in xs])
            ap = min(1.0, *map(_max_step, xeigs, dxa))
            ad = min(1.0, *map(_max_step, seigs, dsa))
            gap_aff = _inner(
                [x + ap * d for x, d in zip(xs, dxa)],
                [s + ad * d for s, d in zip(ss, dsa)],
            )
            sigma = min(0.999, max(1e-8, (max(gap_aff, 0.0) / gap) ** 3)) if gap > 0 else 0.1

            dx, dy, ds = directions([sigma * mu * v - x for v, x in zip(sinvs, xs)])
            # Step fraction of SDPT3 (Toh, Todd & Tutuncu 1999): shorter steps
            # while the predictor is blocked keep the endgame off the cone
            # boundary, where the Schur complement loses all accuracy.
            gamma = 0.9 + 0.09 * min(ap, ad)
            ap = min(1.0, gamma * min(map(_max_step, xeigs, dx)))
            ad = min(1.0, gamma * min(map(_max_step, seigs, ds)))
            if max(ap, ad) < 1e-10:
                stall += 1
                if stall >= 3:
                    break
            else:
                stall = 0
            xs = [_sym(x + ap * d) for x, d in zip(xs, dx)]
            ss = [_sym(s + ad * d) for s, d in zip(ss, ds)]
            y = y + ad * dy
    except np.linalg.LinAlgError:
        pass  # LAPACK gave up on an overflowing iterate: the solve diverged

    pobj = _inner(cs, xs)
    dobj = float(y @ rhs)
    gap = _inner(xs, ss)
    min_eig = min(float(np.linalg.eigvalsh(x).min()) for x in xs)
    if status == "optimal" and min_eig < -_PSD_TOL:
        status = "numerical-failure"

    y_full = np.zeros(problem.num_constraints)
    y_full[kept] = y

    return SdpSolution(
        status=status,
        blocks=tuple(xs[g][slot].copy() for g, slot in lay.where),
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
