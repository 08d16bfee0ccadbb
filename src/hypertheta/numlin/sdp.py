"""Block-diagonal semidefinite programming by a primal-dual interior-point
method with Nesterov-Todd scaling.

Problems are stated in the form

    maximize   sum_b <C_b, X_b>
    subject to sum_b <A_ib, X_b> = rhs_i   (i = 1..m)
               X_b positive semidefinite,

with a dense symmetric objective C_b per block and each row A_i given by
sparse terms (see SdpProblem).  Each iteration takes a predictor step
(affine scaling, right-hand side -X), whose steps to the cone boundary fix
the centering weight sigma, and then Mehrotra's corrector, right-hand side
sigma mu S^-1 - X - G L(G^-1 dXa dSa G) G^T with the predictor's dXa and
dSa, in the scaled space of the Nesterov-Todd factor G (Mehrotra, SIAM J.
Optim. 2, 1992; Todd, Toh & Tutuncu, SIAM J. Optim. 8, 1998).  When the
corrector's step length falls below the predictor's, that iteration drops
the second-order term and steps along the centering direction
sigma mu S^-1 - X instead, from the same Cholesky factor; the solution
counts those iterations.  The solver is aimed at desk scale instances
(a few hundred total dimensions).  Blocks of equal size are kept as one
(k, d, d) stack, so every per-block step of an iteration (the
eigendecompositions of the Nesterov-Todd scaling, the directions, the step
lengths) is one broadcast numpy call per distinct size, and the S and X
stacks of one size share their eigh call and each step's eigvalsh call.
The rows act on the stacks by one gather and one np.bincount over their
terms; the Schur complement is built the same way from the pairs of terms
that share a block, and solved by Cholesky and blocked triangular
substitution.  When the Cholesky needed a ridge on the diagonal, each solve
of that iteration takes one refinement step against the unregularized Schur
complement.  A presolve pass keeps, in order, each equality row whose
distance from the span of the rows kept before it passes a rank test
(threshold 1e-10), and checks the right-hand sides of the dropped rows.  A
row that shares no entry with another row is orthogonal to all of them and
is tested by its norm; the others go through one QR of their dense stack
and one least-squares solve.

Solves are deterministic per numpy/BLAS build and BLAS thread count: with
both fixed, identical inputs give bit-identical iterates; another build or
thread count may differ in the last digits.  Problem and solution objects
are immutable after construction and may be shared across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .eig import as_symmetric

__all__ = ["SdpProblem", "SdpSolution", "solve_sdp"]

_MAX_ITER = 300
_PSD_TOL = 1e-9  # an "optimal" solve keeps every block PSD to -_PSD_TOL
_PRESOLVE_TOL = 1e-10  # rank threshold of _presolve
# Rows per diagonal block of the triangular substitutions.  It sets the
# summation order; the tolerance sweep passes at 16 to 128 with 1 or 2 threads.
_SUBST_BLOCK = 48


@dataclass(frozen=True)
class SdpProblem:
    """Block PSD program data: dimensions, per-block objectives, equality rows.

    Each constraint is (entries, rhs); an entry (block, i, j, coef) is coef
    times the unordered entry {i, j}: coef on a diagonal entry, coef/2 on each
    side of an off-diagonal one, and repeated terms add up.  Stored as
    read-only arrays index ((row, block, i, j) per term, i <= j), coef and
    rhs, next to the read-only objective matrices; the constraints property
    gives the dense view.
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
        for arr in (rhs, index, coef, *obj):
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
    residuals: Mapping = field(default_factory=lambda: MappingProxyType({}))


def _stack(problem: SdpProblem, rows=None):
    """The constraint rows (all, or the sorted indices in rows) as one matrix,
    and their right-hand sides.

    Column k is one (block, i <= j) entry that a term of those rows names;
    off-diagonal columns carry coef * sqrt(1/2), so dot products of rows are
    the Frobenius inner products of the constraint matrices.
    """
    if rows is None:
        rows = np.arange(problem.num_constraints)
    on = np.isin(problem.index[:, 0], rows)
    row, entry = np.searchsorted(rows, problem.index[on, 0]), problem.index[on, 1:]
    keys, col = np.unique(entry, axis=0, return_inverse=True)
    scale = np.where(entry[:, 1] == entry[:, 2], 1.0, np.sqrt(0.5))
    a = np.zeros((len(rows), len(keys)))
    np.add.at(a, (row, col.ravel()), problem.coef[on] * scale)
    return a, problem.rhs[rows]


def _presolve(a: np.ndarray, rhs: np.ndarray):
    """Greedy rank filter on the constraint rows, taken in order.

    Row i is kept when its distance from the span of the rows kept before it
    exceeds _PRESOLVE_TOL * (1 + |row i|).  In the QR factorization of a^T that
    distance is |R_ii| up to the first dependent row p; the columns of
    R[p:, p+1:] hold the later rows' parts orthogonal to the kept ones, and
    the test repeats on them.  Returns (kept_indices, None), or
    (None, "infeasible") when a dependent row carries an inconsistent
    right-hand side.
    """
    limit = _PRESOLVE_TOL * (1.0 + np.linalg.norm(a, axis=1))
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


def _kept_rows(problem: SdpProblem):
    """_presolve's verdict on the problem's rows, with the QR only where it
    is needed.

    A row that names no entry that another row names is orthogonal to every
    other row, so its distance from the span of the rows kept before it is
    its norm, and no later row's distance depends on it: the in-order test
    keeps it when its norm passes _presolve's threshold, and a dropped one
    implies the right-hand side 0.  Only the other rows are stacked and
    go through _presolve, so a program whose rows share no entry forms no
    dense matrix at all.  Returns what _presolve returns.
    """
    m = problem.num_constraints
    row, blk, i, j = problem.index.T
    dims = np.array(problem.block_dims, dtype=np.intp)
    start = np.cumsum(dims * dims) - dims * dims
    entry = start[blk] + i * dims[blk] + j
    width = int((dims * dims).sum())
    # One (row, entry) pair per distinct entry of a row, its terms summed.
    pair, at = np.unique(row * width + entry, return_inverse=True)
    prow, pentry = np.divmod(pair, width)
    scale = np.where(i == j, 1.0, np.sqrt(0.5))
    value = np.bincount(at, problem.coef * scale, len(pair))
    shared = np.zeros(m, dtype=bool)
    shared[prow[np.bincount(pentry)[pentry] > 1]] = True
    norm = np.sqrt(np.bincount(prow, value * value, m))
    keep = ~shared & (norm > _PRESOLVE_TOL * (1.0 + norm))
    rhs = problem.rhs
    if np.any(~shared & ~keep & (np.abs(rhs) > 1e-7 * (1.0 + np.abs(rhs)))):
        return None, "infeasible"
    rest = np.flatnonzero(shared)
    if len(rest):
        kept, bad = _presolve(*_stack(problem, rest))
        if bad is not None:
            return None, bad
        keep[rest[kept]] = True
    return np.flatnonzero(keep), None


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


def _whiten(eig: tuple) -> np.ndarray:
    """z with z^T x z = I per block of one stack; eig is np.linalg.eigh(x)."""
    vals, vecs = eig
    return vecs / np.sqrt(np.maximum(vals, 1e-300))[:, None, :]


def _max_step(z: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Per block of one stack, the largest a with x + a*dx psd, computed
    through the whitened pencil z^T dx z with z = _whiten(np.linalg.eigh(x)).
    A block whose pencil has no eigenvalue below -1e-13 allows any step."""
    lo = np.linalg.eigvalsh(z.transpose(0, 2, 1) @ dx @ z).min(axis=1)
    return np.where(lo >= -1e-13, np.inf, -1.0 / np.minimum(lo, -1e-13))


def _max_steps(zs, dxs, dss) -> tuple:
    """(primal, dual): the smallest _max_step over every block of X along
    dxs and of S along dss, by one eigvalsh call per size for both; zs[g]
    whitens stack g of S and X concatenated, in that order.  Each matrix of a
    stacked LAPACK call is processed alone, so this equals taking the two
    stacks apart."""
    ap = ad = np.inf
    for z, dx, ds in zip(zs, dxs, dss):
        steps = _max_step(z, np.concatenate([ds, dx]))
        ad = min(ad, steps[: len(ds)].min())
        ap = min(ap, steps[len(ds) :].min())
    return ap, ad


def _nt_scaling(seig: tuple, xeig: tuple):
    """(W, S^-1, G, G^-1, lam) of the Nesterov-Todd scaling point of one
    stack; seig and xeig are np.linalg.eigh of s and x.  Steps keep the
    iterates definite mathematically, so per block, eigenvalues at roundoff
    scale are clamped, and anything more negative is a breakdown: it raises
    np.linalg.LinAlgError, which ends solve_sdp.

    W = S^-1/2 T^1/2 S^-1/2 with T = S^1/2 X S^1/2.  T^1/2 comes from the SVD
    S^1/2 X^1/2 = U diag(lam) Q^T: near the optimum every eigenvalue of T is
    about mu, below the roundoff of forming T itself, while the singular
    values of the factor product keep their accuracy.  The factor
    G = S^-1/2 U diag(lam)^1/2 has W = G G^T and
    G^T S G = G^-1 X G^-T = diag(lam), the scaled space of the corrector.
    """

    def floored(vals):
        floor = 1e-14 * np.maximum(vals.max(axis=1, keepdims=True), 1e-30)
        if np.any(vals < -10 * floor):
            raise np.linalg.LinAlgError("indefinite iterate")
        return np.maximum(vals, floor)

    (sval, svec), (xval, xvec) = seig, xeig
    sval, xval = floored(sval), floored(xval)
    svt = svec.transpose(0, 2, 1)
    shalf = (svec * np.sqrt(sval)[:, None, :]) @ svt
    sinvh = (svec / np.sqrt(sval)[:, None, :]) @ svt
    sinv = (svec / sval[:, None, :]) @ svt
    xhalf = (xvec * np.sqrt(xval)[:, None, :]) @ xvec.transpose(0, 2, 1)
    u, lam, _ = np.linalg.svd(shalf @ xhalf)
    # T's eigenvalues lam^2, floored at 1e-14 of the largest like S's
    lam = np.maximum(lam, 1e-7 * np.maximum(lam[:, :1], 1e-15))
    thalf = (u * lam[:, None, :]) @ u.transpose(0, 2, 1)
    root = np.sqrt(lam)[:, None, :]
    g = sinvh @ (u * root)
    ginv = (u / root).transpose(0, 2, 1) @ shalf
    return _sym(sinvh @ thalf @ sinvh), sinv, g, ginv, lam


def _second_order(scaling: tuple, dx: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """Mehrotra's second-order term G L(G^-1 dx ds G) G^T of one stack, with
    L(P)_ij = (P + P^T)_ij / (lam_i + lam_j): the solution Z of the Lyapunov
    equation diag(lam) Z + Z diag(lam) = P + P^T, mapped back from the
    scaled space of _nt_scaling, where diag(lam) makes it elementwise."""
    _, _, g, ginv, lam = scaling
    p = ginv @ dx @ ds @ g
    z = (p + p.transpose(0, 2, 1)) / (lam[:, :, None] + lam[:, None, :])
    return g @ z @ g.transpose(0, 2, 1)


def solve_sdp(problem: SdpProblem, tol: float = 1e-8) -> SdpSolution:
    """Solve the block SDP to the requested duality-gap tolerance.

    The solve stops as "optimal" when |gap| / (1 + |pobj| + |dobj|) <= tol
    and the primal and dual residuals, scaled by 1 + max |rhs| and by
    1 + max(1, max |objective entry|), are at most 10 * tol.  So tol does
    not bound the error of the value: theta on H(5, 2) at tol 1e-8, which
    thetabody solves in its free form, returns 12 - 1.95e-8 at a relative
    gap of 8.8e-10 after 12 iterations (1 and 2 BLAS threads alike).

    The feasible regions produced by this package are bounded with interior
    points, so the method converges at desk scale.  A solve that diverges (a
    non-finite objective, gap or residual), stalls (steps below 1e-10 three
    times running), breaks down (np.linalg.LinAlgError from an indefinite
    iterate, eight failed ridged Cholesky factorizations or LAPACK) or hits
    _MAX_ITER ends "numerical-failure" with its last iterate.  The residuals
    hold the final relative gap, the scaled primal and dual residuals, the
    smallest block eigenvalue, max_ridge, the largest multiple of the
    identity added to the Schur complement when its Cholesky factorization
    failed (0.0 when it never did), and centering_fallbacks, the number of
    iterations that dropped the corrector's second-order term (0 when it was
    always kept).  Raises ValueError unless 0 < tol < inf.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    kept, bad = _kept_rows(problem)
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
    iterations = stall = fallbacks = 0
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

            # One eigh per size, of S and X together, serves the scaling point
            # and, whitened once, the step lengths of the iteration.
            eigs = [np.linalg.eigh(np.concatenate([s, x])) for s, x in zip(ss, xs)]
            zs = [_whiten(e) for e in eigs]
            scaling = [
                _nt_scaling((val[:k], vec[:k]), (val[k:], vec[k:]))
                for (val, vec), k in zip(eigs, lay.counts)
            ]
            ws, sinvs, *_ = zip(*scaling)
            wrw = [w @ q @ w for w, q in zip(ws, rd)]
            mmat = _schur(lay, ws)

            chol = None  # frees the last factor before the next is formed
            ridge = 0.0
            base = np.trace(mmat) / m
            for _ in range(8):
                try:
                    chol = np.linalg.cholesky(mmat + ridge * np.eye(m) if ridge else mmat)
                    break
                except np.linalg.LinAlgError:
                    ridge = max(ridge * 100.0, 1e-14 * max(base, 1.0))
                    max_ridge = max(max_ridge, ridge)
            else:
                raise np.linalg.LinAlgError("no ridge made the Schur complement definite")

            # An unridged factor gives a normwise backward stable solve by
            # itself.  A ridged one solves M + ridge * I, so one refinement
            # step against the unridged mmat follows: with no refinement at
            # all the tolerance sweep failed at _SUBST_BLOCK 16, 64 and 128.
            def solve_normal(vec):
                out = _chol_solve(chol, vec)
                if ridge:
                    out += _chol_solve(chol, vec - mmat @ out)
                return out

            def directions(rmats):
                inner = [r + t for r, t in zip(rmats, wrw)]
                dy = solve_normal(_apply_a(lay, inner) - rp)
                ds = [a - q for a, q in zip(_apply_at(lay, dy), rd)]
                dx = [_sym(r - w @ d @ w) for r, w, d in zip(rmats, ws, ds)]
                return dx, dy, ds

            # Predictor (affine scaling) fixes the centering weight from its full
            # steps to the cone boundary.
            dxa, dya, dsa = directions([-x for x in xs])
            ap, ad = (min(1.0, a) for a in _max_steps(zs, dxa, dsa))
            gap_aff = _inner(
                [x + ap * d for x, d in zip(xs, dxa)],
                [s + ad * d for s, d in zip(ss, dsa)],
            )
            sigma = min(0.999, max(1e-8, (max(gap_aff, 0.0) / gap) ** 3)) if gap > 0 else 0.1

            # Step fraction of SDPT3 (Toh, Todd & Tutuncu 1999): shorter steps
            # while the predictor is blocked keep the endgame off the cone
            # boundary, where the Schur complement loses all accuracy.
            reach = min(ap, ad)
            gamma = 0.9 + 0.09 * reach

            def steps(dx, ds):
                return tuple(min(1.0, gamma * a) for a in _max_steps(zs, dx, ds))

            # Mehrotra's corrector: centering plus the second-order term of
            # the predictor.  When it steps shorter than the predictor could,
            # the centering direction alone is taken instead.
            center = [sigma * mu * v - x for v, x in zip(sinvs, xs)]
            second = map(_second_order, scaling, dxa, dsa)
            dx, dy, ds = directions([c - t for c, t in zip(center, second)])
            ap, ad = steps(dx, ds)
            if min(ap, ad) < reach:
                fallbacks += 1
                dx, dy, ds = directions(center)
                ap, ad = steps(dx, ds)
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
        pass  # a breakdown, as the docstring lists

    pobj = _inner(cs, xs)
    dobj = float(y @ rhs)
    gap = _inner(xs, ss)
    min_eig = min(float(np.linalg.eigvalsh(x).min()) for x in xs)
    # A guard against roundoff only.  In exact arithmetic X stays positive
    # definite: X0 = scale0 * I, and a step of at most gamma <= 0.99 of the
    # largest PSD step gives X_new >= (1 - gamma) X, while a step taken when
    # _max_step is inf (whitened pencil >= -1e-13) gives X_new >= (1 - 1e-13) X.
    # So min_eig can fall below -_PSD_TOL only through roundoff of order
    # 1e-16 * ||X||, which needs entries near 1e7 or above.
    if status == "optimal" and min_eig < -_PSD_TOL:
        status = "numerical-failure"

    y_full = np.zeros(problem.num_constraints)
    y_full[kept] = y
    blocks = tuple(xs[g][slot].copy() for g, slot in lay.where)
    for block in blocks:
        block.flags.writeable = False

    return SdpSolution(
        status=status,
        blocks=blocks,
        y=tuple(float(v) for v in y_full),
        primal=pobj,
        dual=dobj,
        gap=gap,
        iterations=iterations,
        residuals=MappingProxyType({
            "rel_gap": float(rel_gap),
            "primal": float(rp_norm),
            "dual": float(rd_norm),
            "min_eig": min_eig,
            "max_ridge": float(max_ridge),
            "centering_fallbacks": fallbacks,
        }),
    )
