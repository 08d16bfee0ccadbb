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
(a few hundred total dimensions).  The blocks are kept as (k, d, d) stacks,
so every per-block step of an iteration (the Cholesky factors and the SVD
of the Nesterov-Todd scaling, the directions, the step lengths) is one
broadcast numpy call per stack, and the S and X stacks share their Cholesky
call and each step's eigvalsh call.  Blocks of equal size share a stack,
and the blocks of a small size join the next larger size when the cubic
work on their pad is small (_MERGE_WORK), since at these sizes the fixed
cost of a LAPACK call outweighs its arithmetic (Dongarra et al., Procedia
Comput. Sci. 108, 2017).  A block is zero-padded in its slot: C, X and S
are 0 on the pad, so the residuals, the gap and the dual direction are too.
The scaling factors S and X plus 1e-200 on the pad diagonal, which, unlike
an identity pad, cannot raise the floor on a block's lam.  Only the primal
direction is masked to the blocks' own entries after symmetrizing: its
right-hand side carries sigma mu S^-1, not 0 on the pad, and the mask also
stops roundoff in W from reaching the pad.
The rows act on the stacks by one gather and one np.bincount over their
terms.  The Schur complement M is built per stack by one of SDPA's formulas
(Fujisawa, Kojima & Nakata, Math. Prog. 79, 1997): F3 the same way, from
the pairs of terms that share a block, and F1, where every row is on the
border and the stack's rows are dense enough (_F1_WORK, _F1_PAIRS), from
those rows formed as dense matrices once per solve.  M is factored in the
order of the block tree (George & Liu, Computer Solution of Large Sparse
Positive Definite Systems, 1981; Vandenberghe & Andersen, Found. Trends
Optim. 1, 2015).  Once per solve the rows are split: the border is the
rows on the block most rows touch, and the other rows fall into groups
that share no block (found by
_least_labels, which symmetry.pair_orbits shares), each coupled in M only
to its separator, the border rows on its blocks.  M is never formed as an
m x m array: every iteration scatters it into the groups' private blocks,
their couplings to their separators and the border block.  One
batched Cholesky factors the private blocks, one batched solve eliminates
the couplings, and the border's Schur complement gets one Cholesky; a
normal solve is a batched forward solve over the groups, one LU solve by
the border's Schur complement (blocked triangular substitution by its
factor above _LU_BORDER rows) and a batched back solve.  A program with
no group is factored as one dense block.  When a Cholesky needed a
ridge on the diagonal of M, each solve of that iteration takes one
refinement step, its residual that of the unregularized M computed from
the rows as A(W A^T(x) W), so no part of M is read outside its
factorization.  A presolve pass keeps, in order, each equality row whose
distance from the span of the rows kept before it passes a rank test
(threshold 1e-10), and checks the right-hand sides of the dropped rows.
A row that shares no entry with another row is orthogonal to all of them
and is kept when its norm passes; the rest go through one QR of their
dense stack, built from the per-entry sums the norms came from, and one
least-squares solve.

Solves are deterministic per numpy/BLAS build and BLAS thread count: with
both fixed, identical inputs give bit-identical iterates; another build or
thread count may differ in the last digits.  Problem and solution objects
are immutable after construction and may be shared across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .eig import _symmetrized

__all__ = ["SdpProblem", "SdpSolution", "border_rows", "solve_sdp"]

_MAX_ITER = 300
_PSD_TOL = 1e-9  # an "optimal" solve keeps every block PSD to -_PSD_TOL
_PRESOLVE_TOL = 1e-10  # rank threshold of _presolve
# Rows per diagonal block of the triangular substitutions by the border's
# factor.  It sets their summation order; the tolerance sweep passes at 16 and
# 128 with 1 or 2 threads.
_SUBST_BLOCK = 48
# Largest border solved by one LU of its Schur complement (_border_solve).
# Per solve (one BLAS thread) that LU took 0.3-0.4 of _chol_solve's time up
# to 64 rows, 0.91 at 128 and 1.13 at 160; on every border it made theta
# 65% slower on H(5,2) (528 border rows) and 25% on Mantel 8 (406).
_LU_BORDER = 128
# Merge rule of the stacks (see _prepare): the k blocks at size d are
# zero-padded to the next larger size D when k * (D^3 - d^3) <= _MERGE_WORK.
# It weighs the fixed cost of one more stack in every iteration against the
# cubic work on the pad.  Timed per iteration of solve_sdp (best of 7 solves,
# one BLAS thread, 2-vCPU machine) on programs of k blocks of size d and one
# of size D (d = 3 to 11, D = 5 to 20, k = 1 to 16): one stack was 10-28%
# faster at every k * (D^3 - d^3) up to 6,734; from about 10,000 on the
# winner changed from program to program, and above 26,000 two stacks won.
_MERGE_WORK = 6000
# Schur formula of a stack in a program with no group (see _prepare): F1 when
# its multiply-adds / _F1_WORK + _F1_PAIRS <= the stack's pairs of terms, so
# _F1_WORK prices F1's multiply-adds in F3 pairs and _F1_PAIRS its fixed cost.
# Timed per _schur call (best of 7, one BLAS thread, 2-vCPU machine) on 203
# programs of 2 to 12 dense rows on 1 or 2 blocks of size 3 to 33, F3 took
# about 13 ns per pair and F1 a few microseconds plus about 0.1 ns per
# multiply-add.  The rule that lost the least time there to the faster
# formula had _F1_WORK 150-200 and _F1_PAIRS 200; these more cautious values
# lost 69 us over the 203 calls and took F1 only once where F3 was faster
# (by 1 us).  On theta's merged Mantel 6 program F1 took 14-22 us per call
# against 134-145 us; no random program of a ladder or batch pass of the
# benchmark takes it at seeds 1 to 30.
_F1_WORK = 100
_F1_PAIRS = 400


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
        rows = list(constraints)
        terms = [(r, b, i, j, c) for r, (ts, _) in enumerate(rows) for b, i, j, c in ts]
        terms = np.array(terms, dtype=float).reshape(-1, 5)
        rhs = np.array([value for _, value in rows], dtype=float)
        self._store(block_dims, objective, terms[:, :4], terms[:, 4], rhs)

    @classmethod
    def _of_terms(cls, block_dims, objective, index, coef, rhs) -> "SdpProblem":
        """The program of term arrays index (row, block, i, j), coef and rhs."""
        problem = cls.__new__(cls)
        problem._store(block_dims, objective, index, coef, rhs)
        return problem

    def _store(self, block_dims, objective, index, coef, rhs) -> None:
        dims = tuple(int(d) for d in block_dims)
        if any(d < 1 for d in dims):
            raise ValueError("block dimensions must be positive")
        mats = [np.asarray(c, dtype=float) for c in objective]
        if [c.shape for c in mats] != [(d, d) for d in dims]:
            raise ValueError("objective must provide one d x d matrix per block")
        by_size, obj = {}, [None] * len(mats)
        for b, d in enumerate(dims):
            by_size.setdefault(d, []).append(b)
        for blocks in by_size.values():  # checked and symmetrized per block size
            sym = _symmetrized(np.array([mats[b] for b in blocks]))
            sym.flags.writeable = False
            for b, c in zip(blocks, sym):
                obj[b] = c
        index, given = index.astype(np.intp), index
        if np.any(index != given):
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
        vars(self).update(block_dims=dims, objective=tuple(obj), rhs=rhs, index=index, coef=coef)

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
    status: str  # "optimal" | "accepted" | "infeasible" | "numerical-failure"
    blocks: tuple = ()
    y: tuple = ()
    primal: float = float("nan")
    dual: float = float("nan")
    gap: float = float("nan")
    iterations: int = 0
    residuals: Mapping = field(default_factory=lambda: MappingProxyType({}))
    stop: str = "unrecorded"  # the stop rule that ended the solve (solve_sdp)


def _presolve(a: np.ndarray, rhs: np.ndarray):
    """Greedy rank filter on the constraint rows a, taken in order.

    A row of a sums a row's terms per (block, i <= j) entry, off-diagonal
    ones times sqrt(1/2), so dot products of rows are the Frobenius inner
    products of the constraint matrices.  Row i is kept when its distance
    from the span of the rows kept before it exceeds
    _PRESOLVE_TOL * (1 + |row i|).  In the QR factorization of a^T that
    distance is |R_ii| up to the first dependent row p; the columns of
    R[p:, p+1:] hold the later rows' parts orthogonal to the kept ones, and
    the test repeats on them.  Returns (kept_indices, None), or
    (None, "infeasible") when a dropped row's right-hand side differs from
    the one its least-squares combination of kept rows implies.
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
    keeps it when its norm passes _presolve's threshold.  The other rows go
    through _presolve, stacked from the per-entry sums the norms came from,
    one column per entry in (block, i, j) order.  An unshared row among them
    is dropped again, and its right-hand side is checked against 0, the value
    its least-squares combination of kept rows implies.  A program whose rows
    share no entry and pass the norm test forms no dense matrix at all.
    Returns what _presolve returns.
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
    rest = np.flatnonzero(~keep)
    if len(rest):
        on = ~keep[prow]
        cols, col = np.unique(pentry[on], return_inverse=True)
        a = np.zeros((len(rest), len(cols)))
        a[np.searchsorted(rest, prow[on]), col] = value[on]
        kept, bad = _presolve(a, problem.rhs[rest])
        if bad is not None:
            return None, bad
        keep[rest[kept]] = True
    return np.flatnonzero(keep), None


@dataclass(frozen=True)
class _Layout:
    """The blocks grouped into stacks, the kept terms and the split of the
    kept rows.  A block quantity is a list of (k, d, d) stacks, in increasing
    size d; block b of the problem is slot where[b][1] of stack where[b][0],
    in the top left corner of the slot when the block is smaller than d.
    pos and quad index the stacks raveled and concatenated.  Each kept term
    appears twice in (row, pos, half), at entry (i, j) and at (j, i), with
    half its coefficient.  Each pair of kept terms that share a block of an
    F3 stack has a column of quad, a weight and two entries of cell, where
    its value lands in the parts of the Schur complement, as _schur reads
    them.  An F1 stack of k blocks of size d has instead the kept rows with
    a term on it, ascending, and those rows as a dense (rows, k, d, d)
    array."""

    sizes: tuple
    counts: tuple
    bounds: tuple  # stack s spans bounds[s]:bounds[s + 1] of the flat vector
    where: tuple
    m: int
    row: np.ndarray
    pos: np.ndarray
    half: np.ndarray
    quad: np.ndarray
    weight: np.ndarray
    cell: np.ndarray
    dense: tuple  # per stack, (rows, A) of an F1 stack, else None
    pad: np.ndarray  # the identity diagonal that pads the groups to P rows
    priv: np.ndarray  # (G, P) kept rows of each group, m on padding
    sep: np.ndarray  # (G, Q) border places of each separator, nb on padding
    border: np.ndarray  # (nb,) kept rows of the border, in order
    update: np.ndarray  # (G, Q, Q) border cells of the separators' pairs, nb * nb on padding


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, sorted: np.unique without index outputs would
    import numpy.ma on its first call."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _least_labels(n: int, edges) -> np.ndarray:
    """The least node of each node's component, over nodes 0..n-1 and the
    edges (a[k], b[k]) of each pair of index arrays (a, b) in edges, by
    min-label propagation and pointer jumping until a sweep changes nothing."""
    label = np.arange(n)
    while True:
        before = label.copy()
        for a, b in edges:
            np.minimum.at(label, a, label[b])
            np.minimum.at(label, b, label[a])
        if (label == before).all():
            return label
        while not ((jumped := label[label]) == label).all():
            label = jumped


def _split(row: np.ndarray, blk: np.ndarray, m: int, nblk: int):
    """The kept rows split for a Cholesky factorization of the Schur
    complement ordered by the block tree; row and blk are the kept terms'.

    The border is the rows on the block that most rows touch (the root).
    The other blocks fall into components, joined by the rows that miss the
    root; a component's rows are private to it, and its separator is the
    border rows on its blocks.  So a private row couples in M only with the
    rows of its own component and of its separator.  A component whose
    private rows do not outnumber its separator rows joins the border, since
    eliminating it would fill a separator block at least as large as the
    block it removes; the others are the groups, numbered in block order.
    Returns (group, place, sep): per kept row its group (-1 on the border)
    and its place in kept order within the group or the border, and the
    (G, Q) border places of each group's separator, ascending and padded
    with nb, the number of border rows.  _least_labels finds the components.
    """
    r, b = np.divmod(_distinct(row * nblk + blk), nblk)
    root = np.bincount(b, minlength=nblk).argmax()
    on_border = np.zeros(m, dtype=bool)
    on_border[r[b == root]] = True
    inner = ~on_border[r]
    ri, bi = r[inner], b[inner]
    low = np.full(m, nblk)  # per row, its least block
    np.minimum.at(low, ri, bi)
    lab = _least_labels(nblk, [(bi, low[ri])])  # per block, the least block of its component
    comp = np.full(m, nblk)  # per row, its component; nblk on the border
    comp[ri] = lab[bi]
    on_sep = on_border[r]
    sep_comp, sep_row = np.divmod(_distinct(lab[b[on_sep]] * m + r[on_sep]), m)
    private = np.bincount(comp[~on_border], minlength=nblk + 1)
    is_group = private > np.bincount(sep_comp, minlength=nblk + 1)
    if not is_group.any():
        return np.full(m, -1), np.arange(m), np.zeros((0, 0), dtype=np.intp)
    on_border |= ~is_group[comp]
    number = np.cumsum(is_group) - 1
    group = np.where(on_border, -1, number[comp])
    place = np.zeros(m, dtype=np.intp)
    place[on_border] = np.arange(int(on_border.sum()))

    def places(of):
        """Each item's place among the items of its group, in their order."""
        size = np.bincount(of, minlength=int(is_group.sum()))
        return np.arange(len(of)) - np.repeat(np.cumsum(size) - size, size), size

    order = np.flatnonzero(~on_border)[np.argsort(group[~on_border], kind="stable")]
    place[order] = places(group[order])[0]
    on = is_group[sep_comp]
    sep_group = number[sep_comp[on]]
    slot, size = places(sep_group)
    sep = np.full((len(size), size.max(initial=0)), int(on_border.sum()))
    sep[sep_group, slot] = place[sep_row[on]]
    return group, place, sep


def border_rows(row: np.ndarray, blk: np.ndarray, m: int, nblk: int) -> int:
    """The rows that solve_sdp factors as one dense block in every iteration,
    the border of _split, for a program of m rows on nblk blocks whose
    terms lie on rows row and blocks blk, when it keeps every row.  It
    eliminates the other rows first, group by group."""
    group, _, _ = _split(row, blk, m, nblk)
    return int((group < 0).sum())


def _prepare(problem: SdpProblem, kept: np.ndarray) -> _Layout:
    """The (stack, slot) map of the blocks, the kept terms, the split of the
    rows with the Schur complement's parts, and per stack its Schur formula:
    the dense rows of an F1 stack, the pairs of terms of the F3 stacks.

    The distinct sizes are taken in increasing order.  The k blocks at size
    d, with any lifted into d before, move up to the next size D when
    k * (D^3 - d^3) <= _MERGE_WORK; otherwise the stack stops at d and the
    next size starts a new one.  In a program with no group, a stack of k
    blocks of size d whose m_s rows (those with a term on it) cost
    F = 2 m_s k d^3 + m_s^2 k d^2 multiply-adds in F1, the products W A W
    and their inner products, takes F1 when F / _F1_WORK + _F1_PAIRS is at
    most the number of its pairs of terms that share a block; every other
    stack takes F3."""
    dims = problem.block_dims
    sizes, counts, stack_of = [], [], {}
    for d in sorted(set(dims)):
        if sizes and counts[-1] * (d**3 - sizes[-1] ** 3) <= _MERGE_WORK:
            sizes[-1] = d  # lift the last stack's blocks to d
        else:
            sizes.append(d)
            counts.append(0)
        counts[-1] += dims.count(d)
        stack_of[d] = len(sizes) - 1
    where, filled = [], [0] * len(sizes)
    for d in dims:
        g = stack_of[d]
        where.append((g, filled[g]))
        filled[g] += 1
    padded = np.array([sizes[g] for g, _ in where])
    offsets = np.cumsum([0] + [k * d * d for k, d in zip(counts, sizes)])
    start = np.array([offsets[g] + slot * d * d for d, (g, slot) in zip(padded, where)])
    index, coef, m = problem.index, problem.coef, len(kept)
    if m < problem.num_constraints:  # the presolve dropped rows
        on = np.isin(index[:, 0], kept)
        index, coef = index[on], coef[on]
    row, blk, i, j = index.T
    row = np.searchsorted(kept, row)
    dim, base = padded[blk], start[blk]
    ri, rj = base + i * dim, base + j * dim  # flat positions of rows i and j
    pos, half, rows = np.concatenate([ri + j, rj + i]), np.tile(coef / 2.0, 2), np.tile(row, 2)

    grp, place, sep = _split(row, blk, m, len(dims))
    stack = np.array([g for g, _ in where])
    f1 = np.zeros(len(sizes), dtype=bool)
    if not len(sep):  # every row on the border, in kept order
        per_block = np.bincount(blk, minlength=len(dims))
        pairs = np.bincount(stack, per_block * (per_block + 1) // 2, len(sizes))
        m_s = np.bincount(_distinct(stack[blk] * m + row) // m, minlength=len(sizes))
        k, d = np.array(counts), np.array(sizes)
        f1 = (2 * m_s * k * d**3 + m_s * m_s * k * d * d) / _F1_WORK + _F1_PAIRS <= pairs
    dense = [None] * len(sizes)
    for s in np.flatnonzero(f1):
        lo, hi = offsets[s], offsets[s + 1]
        at = (pos >= lo) & (pos < hi)
        touched = _distinct(rows[at])
        flat = np.searchsorted(touched, rows[at]) * (hi - lo) + pos[at] - lo
        mats = np.bincount(flat, half[at], len(touched) * (hi - lo))
        dense[s] = touched, mats.reshape(len(touched), counts[s], sizes[s], sizes[s])
    # In the F3 stacks' terms sorted by block, u runs from t to the last term
    # of t's block.
    t3 = np.flatnonzero(~f1[stack[blk]])
    order = t3[np.argsort(blk[t3], kind="stable")]
    lens = np.searchsorted(blk[order], blk[order], side="right") - np.arange(len(order))
    first = np.repeat(np.arange(len(order)), lens)
    second = first + np.arange(len(first)) - np.repeat(np.cumsum(lens) - lens, lens)
    t, u = order[first], order[second]

    border = np.flatnonzero(grp < 0)
    (ng, q), nb = sep.shape, len(border)
    size = np.bincount(grp[grp >= 0], minlength=ng)
    p = int(size.max(initial=0))
    priv = np.full((ng, p), m)
    priv[grp[grp >= 0], place[grp >= 0]] = np.flatnonzero(grp >= 0)
    slot = np.zeros((ng, nb + 1), dtype=np.intp)  # a border row's place in a separator
    slot[np.arange(ng)[:, None], sep] = np.arange(q)
    # Where M[x, y] lands in the parts: place[y] past start_of[x] when x and
    # y are both private or both on the border, slot[g, place[y]] past
    # coupled_at[x] when x is private to group g and y on the border, and in
    # the spare last entry when x is on the border and y private: _schur
    # keeps only the coupling below the private rows.
    start_of = np.where(grp < 0, ng * p * (p + q) + place * nb, grp * p * p + place * p)
    coupled_at = ng * p * p + grp * p * q + place * q
    spare = ng * p * (p + q) + nb * nb

    def cells(x, y):
        cell = start_of[x] + place[y]
        if not ng:  # every row on the border
            return cell
        gx, gy = grp[x], grp[y]
        coupled = (gx >= 0) & (gy < 0)
        cell[coupled] = coupled_at[x[coupled]] + slot[gx[coupled], place[y[coupled]]]
        cell[(gx < 0) & (gy >= 0)] = spare
        return cell

    a, c = sep[:, :, None], sep[:, None, :]
    update = np.where((a == nb) | (c == nb), nb * nb, a * nb + c)
    diag = np.arange(ng)[:, None] * p * p + np.arange(p) * (p + 1)  # of priv
    return _Layout(
        sizes=tuple(sizes),
        counts=tuple(counts),
        bounds=tuple(int(v) for v in offsets),
        where=tuple(where),
        m=m,
        row=rows,
        pos=pos,
        half=half,
        quad=np.stack([ri[t] + i[u], rj[t] + j[u], ri[t] + j[u], rj[t] + i[u]]),
        weight=coef[t] * coef[u] / np.where(t == u, 4.0, 2.0),
        cell=np.concatenate([cells(row[t], row[u]), cells(row[u], row[t])]),
        dense=tuple(dense),
        pad=diag[np.arange(p) >= size[:, None]],
        priv=priv,
        sep=sep,
        border=border,
        update=update,
    )


def _schur(lay: _Layout, ws) -> tuple:
    """The Schur complement M[r, s] = <A_r, W A_s W> of the kept rows, in
    the split of _split, summed over the stacks by each stack's formula of
    SDPA (Fujisawa, Kojima & Nakata, Math. Prog. 79, 1997).  On the F3
    stacks, terms t = (i, j, c), u = (k, l, c') of one block give
    c c' (W_ik W_jl + W_il W_jk) / 2, added at M positions (row_t, row_u)
    and (row_u, row_t).  A pair t = u thus lands twice on one entry and
    weighs c^2/4; a pair t < u, c c'/2.  An F1 stack, taken only where
    every row is on the border, forms W A_s W from its dense rows A and
    adds A vec(W A W)^T, symmetrized, to the rows it touches.  M is never
    formed: the values go straight into its parts, (priv, coup, border).
    priv (G, P, P) holds each group's private block, padded with the
    identity; coup (G, P, Q) each group's rows against its separator, the
    only copy of that coupling; border (nb, nb) the border rows against
    each other."""
    (ng, p), q, nb = lay.priv.shape, lay.sep.shape[1], len(lay.border)
    size = ng * p * (p + q) + nb * nb
    flat = ws[0].ravel() if len(ws) == 1 else np.concatenate([w.ravel() for w in ws])
    ik, jl, il, jk = lay.quad
    value = lay.weight * (flat[ik] * flat[jl] + flat[il] * flat[jk])
    parts = np.bincount(lay.cell, np.concatenate([value, value]), size + 1)[:-1]
    parts = parts.astype(float, copy=False)  # bincount of no pair (F1 everywhere) is integer
    parts[lay.pad] = 1.0
    cut = ng * p * p
    border = parts[cut + ng * p * q :].reshape(nb, nb)
    for w, dense in zip(ws, lay.dense):
        if dense is not None:
            rows, a = dense
            inner = a.reshape(len(rows), -1) @ (w @ a @ w).reshape(len(rows), -1).T
            border[np.ix_(rows, rows)] += (inner + inner.T) / 2.0
    return parts[:cut].reshape(ng, p, p), parts[cut : cut + ng * p * q].reshape(ng, p, q), border


def _factor(lay: _Layout, parts: tuple, ridge: float) -> tuple:
    """M + ridge * I factored in the split of _split: (L, E, (chol, B)) with
    L L^T the groups' private blocks, E = L^-1 coup, B the border's Schur
    complement border - sum_g E_g^T E_g (each E_g^T E_g scattered onto its
    separator), kept up to _LU_BORDER rows and else None, and chol its
    Cholesky factor.  One batched Cholesky and one batched solve serve all
    groups; a program with no group factors its border alone, which is all
    of M.  Raises np.linalg.LinAlgError when a block is not definite."""
    priv, coup, border = parts
    nb = len(border)
    if ridge:
        priv = priv + ridge * np.eye(priv.shape[1])
        border = border + ridge * np.eye(nb)
    low = e = priv
    if len(priv):
        low = np.linalg.cholesky(priv)
        e = np.linalg.solve(low, coup)
        fill = np.bincount(lay.update.ravel(), (e.transpose(0, 2, 1) @ e).ravel(), nb * nb + 1)
        border = border - fill[:-1].reshape(nb, nb)
    return low, e, (np.linalg.cholesky(border), border if nb <= _LU_BORDER else None)


def _border_solve(border: tuple, vec: np.ndarray) -> np.ndarray:
    """x with B x = vec for border = (chol, B) of _factor: one LU solve by B
    when kept, else, or when roundoff gives a numerically singular B's LU an
    exactly zero pivot (chol's diagonal is positive), _chol_solve by chol."""
    chol, schur = border
    if schur is not None:
        try:
            return np.linalg.solve(schur, vec)
        except np.linalg.LinAlgError:
            pass
    return _chol_solve(chol, vec)


def _factor_solve(lay: _Layout, factor: tuple, v: np.ndarray) -> np.ndarray:
    """x with (M + ridge * I) x = v for factor = _factor(lay, parts, ridge):
    batched forward and back solves over the groups, each an LU of their
    triangular factor by np.linalg.solve, around _border_solve."""
    low, e, border = factor
    if not len(low):  # the border is every row, in order
        return _border_solve(border, v)
    z = np.linalg.solve(low, v.take(lay.priv, mode="clip")[:, :, None])
    ez = np.bincount(lay.sep.ravel(), (e.transpose(0, 2, 1) @ z).ravel(), len(lay.border) + 1)
    vb = _border_solve(border, v[lay.border] - ez[:-1])
    vs = vb.take(lay.sep, mode="clip")[:, :, None]
    out = np.empty(lay.m + 1)
    out[lay.border] = vb
    out[lay.priv] = np.linalg.solve(low.transpose(0, 2, 1), z - e @ vs)[:, :, 0]
    return out[:-1]


def _stacked(lay: _Layout, mats) -> list:
    """Per-block matrices, in block order, as the layout's stacks, each
    zero-padded into the top left corner of its slot."""
    out = [np.zeros((k, d, d)) for d, k in zip(lay.sizes, lay.counts)]
    for (g, slot), mat in zip(lay.where, mats):
        out[g][slot, : len(mat), : len(mat)] = mat
    return out


def _apply_a(lay: _Layout, stacks) -> np.ndarray:
    """<A_i, X> for every kept row i, read from the symmetric part of X."""
    flat = stacks[0].ravel() if len(stacks) == 1 else np.concatenate([x.ravel() for x in stacks])
    return np.bincount(lay.row, lay.half * flat[lay.pos], minlength=lay.m)


def _apply_at(lay: _Layout, y: np.ndarray) -> list:
    """sum_i y_i A_i as stacks."""
    flat = np.bincount(lay.pos, lay.half * y[lay.row], minlength=lay.bounds[-1])
    spans = zip(lay.bounds, lay.bounds[1:], lay.sizes)
    return [flat[lo:hi].reshape(-1, d, d) for lo, hi, d in spans]


def _schur_times(lay: _Layout, ws, x: np.ndarray) -> np.ndarray:
    """M @ x = A(W A^T(x) W), through the rows: no part of M is read."""
    return _apply_a(lay, [w @ a @ w for w, a in zip(ws, _apply_at(lay, x))])


def _inner(a, b) -> float:
    """sum_b <a_b, b_b> over two block quantities."""
    return sum(float(np.vdot(p, q)) for p, q in zip(a, b))


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.transpose(0, 2, 1)) / 2.0


def _chol_solve(chol: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """x with chol @ chol.T @ x = vec, for lower triangular chol.

    Blocked forward, then back substitution: each diagonal block of the
    factor is solved directly and the rest of the right-hand side updated by
    one product, O(m^2) in all, for a border above _LU_BORDER rows.
    With m <= _SUBST_BLOCK this is the two plain solves by the whole factor.
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


def _eig_minima(blocks):
    """Per block size, the least eigenvalue of its blocks, by one eigvalsh call."""
    for d in {len(b) for b in blocks}:
        yield float(np.linalg.eigvalsh(np.stack([b for b in blocks if len(b) == d])).min())


def _pencil_minima(z: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Per block of one stack, the least eigenvalue of the whitened pencil
    z^T dx z."""
    return np.linalg.eigvalsh(z.transpose(0, 2, 1) @ dx @ z).min(axis=1)


def _max_step(z: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Per block of one stack, the largest a with x + a*dx psd, computed
    through the whitened pencil z^T dx z, for any z with z^T x z = I.  A
    block whose pencil has no eigenvalue below -1e-13 allows any step."""
    lo = _pencil_minima(z, dx)
    return np.where(lo >= -1e-13, np.inf, -1.0 / np.minimum(lo, -1e-13))


def _max_steps(zs, dxs, dss) -> tuple:
    """(primal, dual): the smallest _max_step over every block of X along
    dxs and of S along dss, by one eigvalsh call per stack for both; zs[g]
    whitens stack g of S and X concatenated (_nt_scaling).  Each matrix of a
    stacked LAPACK call is processed alone, so this equals taking the two
    stacks apart.  The step falls as the pencil's minimum does, so the rule
    of _max_step is applied once, to the least minimum of each side."""
    lp = ld = np.inf
    for z, dx, ds in zip(zs, dxs, dss):
        lo = _pencil_minima(z, np.concatenate([ds, dx]))
        ld = min(ld, lo[: len(ds)].min())
        lp = min(lp, lo[len(ds) :].min())
    return tuple(np.inf if least >= -1e-13 else -1.0 / least for least in (lp, ld))


def _nt_scaling(s: np.ndarray, x: np.ndarray):
    """(W, S^-1, G, G^-1, lam, z) of the Nesterov-Todd scaling point of the
    stacks s and x, from their Cholesky factors as in SDPT3 (Todd, Toh &
    Tutuncu, SIAM J. Optim. 8, 1998).  Steps keep the iterates definite
    mathematically, so a failed Cholesky of a block is a breakdown: it
    raises np.linalg.LinAlgError, which ends solve_sdp.

    With S = Ls Ls^T, X = Lx Lx^T and the SVD Ls^T Lx = U diag(lam) V^T,
    G = Lx V diag(lam)^-1/2 and G^-1 = diag(lam)^-1/2 U^T Ls^T give
    G^T S G = G^-1 X G^-T = diag(lam), the corrector's scaled space, so
    W = G G^T and S^-1 = G diag(lam)^-1 G^T, all with lam floored at 1e-7 of
    each block's largest.  z = [Lx V; Ls U] diag(lam)^-1 with lam before the
    floor has z^T [S; X] z = I, the whitening of _max_steps.  Near the
    optimum the factor product keeps the accuracy that XS loses to roundoff,
    and a triangular factor carries a diagonal scaling through, where an
    eigenvector square root loses the small direction."""
    both = np.linalg.cholesky(np.concatenate([s, x]))
    ls, lx = both[: len(s)], both[len(s) :]
    u, lam, vt = np.linalg.svd(ls.transpose(0, 2, 1) @ lx)
    v = vt.transpose(0, 2, 1)
    z = np.concatenate([lx @ v, ls @ u]) / np.maximum(np.concatenate([lam, lam]), 1e-300)[:, None, :]
    lam = np.maximum(lam, 1e-7 * np.maximum(lam[:, :1], 1e-15))
    root = np.sqrt(lam)[:, None, :]
    g = lx @ (v / root)
    ginv = (u / root).transpose(0, 2, 1) @ ls.transpose(0, 2, 1)
    sinv = (g / lam[:, None, :]) @ g.transpose(0, 2, 1)
    return _sym(g @ g.transpose(0, 2, 1)), sinv, g, ginv, lam, z


def _second_order(scaling: tuple, dx: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """Mehrotra's second-order term G L(G^-1 dx ds G) G^T of one stack, with
    L(P)_ij = (P + P^T)_ij / (lam_i + lam_j): the solution Z of the Lyapunov
    equation diag(lam) Z + Z diag(lam) = P + P^T, mapped back from the
    scaled space of _nt_scaling, where diag(lam) makes it elementwise."""
    _, _, g, ginv, lam, _ = scaling
    p = ginv @ dx @ ds @ g
    z = (p + p.transpose(0, 2, 1)) / (lam[:, :, None] + lam[:, None, :])
    return g @ z @ g.transpose(0, 2, 1)


def solve_sdp(problem: SdpProblem, tol: float = 1e-8, *, _accept=None) -> SdpSolution:
    """Solve the block SDP to the requested duality-gap tolerance.

    The solve stops as "optimal" when |gap| / (1 + |pobj| + |dobj|) <= tol
    and the primal and dual residuals, scaled by 1 + max |rhs| and by
    1 + max(1, max |objective entry|), are at most 10 * tol.  So tol does
    not bound the error of the value: thetabody's unreduced free form of
    theta on H(5, 2), its program before the automorphisms are merged, at
    tol 1e-8 gives 12 - 1.95e-8 at a relative gap of 8.8e-10 after 12
    iterations (1 and 2 BLAS threads alike).

    Each iteration factors the Schur complement M along the split of
    _split.  The 1008 rows of that program make 32 groups of 15 private
    rows and a border of 528, so no 1008 x 1008 array is formed.

    The feasible regions produced by this package are bounded with interior
    points, so the method converges at desk scale.  A solve that diverges (a
    non-finite objective, gap or residual), stalls (steps below 1e-10 three
    times running), breaks down (np.linalg.LinAlgError from a failed
    Cholesky factor of an iterate, eight failed ridged Cholesky factors of
    the Schur complement, or LAPACK) or hits _MAX_ITER ends
    "numerical-failure" with its last iterate, and so does one that meets
    the stop test with a block below -_PSD_TOL.  The solution's stop names
    the rule that ended the solve: "optimal", "diverged", "stalled",
    "breakdown", "iteration-limit", "indefinite" (that last case),
    "infeasible" (the presolve's verdict) or "accepted" (below).  The
    residuals hold the final relative gap, the scaled primal and dual
    residuals, the smallest block eigenvalue, max_ridge, the largest
    multiple of the identity added to the Schur complement when a Cholesky
    of its factorization failed (0.0 when it never did), ridged_iterations,
    the number of iterations that needed that ridge, each of whose normal
    solves takes one refinement step (0 exactly when max_ridge is 0), and
    centering_fallbacks, the number of iterations that dropped the
    corrector's second-order term (0 when it was always kept).

    _accept, private to thetabody, is called with y (one entry per row of
    problem, 0 on the rows the presolve drops) at every finite iterate that
    misses the stop test; when it returns True the solve ends there, with
    status and stop "accepted" and that iterate.
    Raises ValueError unless 0 < tol < inf.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    kept, bad = _kept_rows(problem)
    if bad is not None:
        return SdpSolution(status="infeasible", stop="infeasible")
    m = len(kept)
    if m == 0:
        raise ValueError("SDP needs at least one equality constraint")
    rhs = problem.rhs[kept]

    def full_y(y):
        out = np.zeros(problem.num_constraints)
        out[kept] = y
        return out

    lay = _prepare(problem, kept)
    cs = _stacked(lay, problem.objective)
    eyes = _stacked(lay, [np.eye(d) for d in problem.block_dims])
    masks = _stacked(lay, [np.ones((d, d)) for d in problem.block_dims])  # 0 on the pad
    pads = [1e-200 * (np.eye(d) - e) for d, e in zip(lay.sizes, eyes)]
    total_dim = sum(problem.block_dims)

    scale0 = max(1.0, float(np.abs(rhs).max()))
    scale_c = max(1.0, max(float(np.abs(c).max()) for c in cs))
    xs = [e * scale0 for e in eyes]
    ss = [e * scale_c for e in eyes]
    y = np.zeros(m)

    b_norm = 1.0 + float(np.abs(rhs).max())
    c_norm = 1.0 + scale_c
    status, stop = "numerical-failure", "iteration-limit"
    iterations = stall = fallbacks = ridged = 0
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
                status = stop = "optimal"
                break
            if not all(map(math.isfinite, (pobj, dobj, gap, rp_norm, rd_norm))):
                stop = "diverged"  # an unbounded program, or overflow
                break
            if _accept is not None and _accept(full_y(y)):
                status = stop = "accepted"
                break

            scaling = [_nt_scaling(s + p, x + p) for s, x, p in zip(ss, xs, pads)]
            ws, sinvs, _, _, _, zs = zip(*scaling)
            wrw = [w @ q @ w for w, q in zip(ws, rd)]
            parts = _schur(lay, ws)

            factor = None  # frees the last factor before the next is formed
            ridge = 0.0
            for _ in range(8):
                try:
                    factor = _factor(lay, parts, ridge)
                    break
                except np.linalg.LinAlgError:
                    ridged += ridge == 0.0  # the first failure of this iteration
                    priv, _, border = parts  # the first ridge scales with M's mean diagonal
                    trace = np.trace(border) + np.trace(priv, axis1=1, axis2=2).sum() - len(lay.pad)
                    ridge = max(ridge * 100.0, 1e-14 * max(trace / m, 1.0))
                    max_ridge = max(max_ridge, ridge)
            else:
                raise np.linalg.LinAlgError("no ridge made the Schur complement definite")

            # An unridged factor gives a normwise backward stable solve by
            # itself.  A ridged one solves M + ridge * I, so one refinement
            # step follows, its residual that of the unridged M computed
            # from the rows: with no refinement at all the tolerance sweep
            # failed at _SUBST_BLOCK 16, 64 and 128.
            def solve_normal(vec):
                out = _factor_solve(lay, factor, vec)
                if ridge:
                    out += _factor_solve(lay, factor, vec - _schur_times(lay, ws, out))
                return out

            def directions(rmats):
                inner = [r + t for r, t in zip(rmats, wrw)]
                dy = solve_normal(_apply_a(lay, inner) - rp)
                ds = [a - q for a, q in zip(_apply_at(lay, dy), rd)]
                dx = [_sym(r - w @ d @ w) * k for r, w, d, k in zip(rmats, ws, ds, masks)]
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
                    stop = "stalled"
                    break
            else:
                stall = 0
            xs = [_sym(x + ap * d) for x, d in zip(xs, dx)]
            ss = [_sym(s + ad * d) for s, d in zip(ss, ds)]
            y = y + ad * dy
    except np.linalg.LinAlgError:
        stop = "breakdown"

    pobj = _inner(cs, xs)
    dobj = float(y @ rhs)
    gap = _inner(xs, ss)
    blocks = tuple(xs[g][slot, :d, :d].copy() for d, (g, slot) in zip(problem.block_dims, lay.where))
    min_eig = min(_eig_minima(blocks))
    # A guard against roundoff only.  In exact arithmetic X stays positive
    # definite: X0 = scale0 * I, and a step of at most gamma <= 0.99 of the
    # largest PSD step gives X_new >= (1 - gamma) X, while a step taken when
    # _max_step is inf (whitened pencil >= -1e-13) gives X_new >= (1 - 1e-13) X.
    # So min_eig can fall below -_PSD_TOL only through roundoff of order
    # 1e-16 * ||X||, which needs entries near 1e7 or above.
    if status == "optimal" and min_eig < -_PSD_TOL:
        status, stop = "numerical-failure", "indefinite"

    for block in blocks:
        block.flags.writeable = False

    return SdpSolution(
        status=status,
        blocks=blocks,
        y=tuple(float(v) for v in full_y(y)),
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
            "ridged_iterations": ridged,
            "centering_fallbacks": fallbacks,
        }),
        stop=stop,
    )
