"""Recursive PSD relaxation of the independent-set polytope.

The relaxation body of an r-uniform hypergraph is defined recursively: a
vector f belongs to it when some matrix F with diagonal f has a positive
semidefinite bordered extension and, for every vertex x with a nonempty
link, the row of F restricted to the link lies in F(x,x) times the body of
the link.  At r = 1 the body is the independent-set polytope itself, a box
over the non-edge vertices.

The scaled memberships are flattened into one block SDP: each recursion
node owns a bordered block whose corner carries the scaling.  For t > 0,
g in t * body(K) holds iff some G with diagonal g makes [[t, g'], [g, G]]
positive semidefinite with the rows of G recursively constrained (divide by
t); for t = 0 the block forces g = 0, matching closedness of the body.
Graph nodes need no child blocks: the link of a vertex in a graph is a
1-uniform hypergraph all of whose vertices are edges, so its body is {0}
and the row constraint collapses to zero entries on graph edges.

Two programs are built on that one node: theta's, with corner 1 and
objective w on the diagonal, and the gauge min{lam : v in lam * body}, with
diagonal v and the corner lam as objective.  theta_membership runs the gauge
on f, which lies in the body iff lam* <= 1, and theta_dual on the complement
with w: the antiblocker pairing's gauge of body(H-bar).  A membership test
needs a decision, not lam*, so its solve stops at the first iterate whose
free-form witness X(y) (below), with its corner set to 1, passes an
eigvalsh test >= 0 in every block: X(y) meets every fix and tie exactly, so
that matrix is a witness of f in the body itself.  theta, theta_dual, the
row form and the points that no iterate proves members run to tol.

Each program reaches numlin.solve_sdp in one of two forms.  Every row the
assembly emits fixes one entry or ties two to be equal.  The row form is
the program as assembled, one row per fix or tie.  The free form eliminates
them.  Each tie points one entry at another further up the recursion, so
the ties form a forest, and pointer jumping finds its trees, the classes of
tied entries.  The classes that hold a fixed entry are one fixed matrix E0,
and each other class k, an entry no row names being a class alone, is one
free scalar y_k with matrix E_k.  The witness blocks are
X(y) = E0 + sum_k y_k E_k, which meet every fix and tie exactly and are psd
up to the solve's dual residual, and the solve runs on the conic dual with
one row per free class.  A class couples only with classes of its own root
subtree and of the root block, so the solver factors the root subtrees'
classes group by group and only the rest, its border (numlin.border_rows),
as one dense block.  The free form is taken when that border has fewer
rows than the row form.  Theta on H(4, 2) has 417 rows and 184 classes, all
on the border.  Mantel 6 has 331 rows but 480 classes, of which 120 are on
the border, and 15 groups of 24; the tolerance sweep of tools/sweep_table.py
takes at most 12 iterations per solve.  A graph's program is one block, so
every class is on the border: the 5-cycle takes the free form (10 classes
against 11 rows) but the 8-cycle keeps the row form (28 against 17).  A
program with no free class (a single point) keeps the row form too.  The
diagnostics of theta and theta_dual name the form and the number of rows
solved.

All assemblies here are pure; solves are delegated to numlin and share no
state between calls, so concurrent independent calls are safe.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .hypercore import (
    Hypergraph,
    HypergraphError,
    UniformityError,
    check_weights,
    complement,
    induced,
    link,
)
from .numlin import SdpProblem, SdpSolution, border_rows, solve_sdp

__all__ = [
    "ThetaCertificate",
    "ThetaResult",
    "DualResult",
    "ThetaSolverError",
    "assemble_theta_sdp",
    "theta",
    "theta_membership",
    "theta_dual",
    "check_certificate",
    "certificate_to_json",
    "certificate_from_json",
]

MEMBERSHIP_TOL = 1e-7


class ThetaSolverError(RuntimeError):
    """The interior-point solve did not reach its tolerance."""

    def __init__(self, message: str, solution: SdpSolution | None = None):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True)
class ThetaCertificate:
    """Witness tree for membership of a vector in the relaxation body.

    Each node carries its scaling (the bordered corner), the matrix over the
    node's vertex set, the node uniformity, the map from local vertex labels
    to the parent's labels, and child certificates indexed by local vertex.
    """

    scale: float
    matrix: np.ndarray
    uniformity: int
    vertex_map: tuple
    children: dict = field(default_factory=dict)

    @property
    def vector(self) -> np.ndarray:
        return np.diag(self.matrix).copy()


@dataclass(frozen=True)
class ThetaResult:
    value: float
    optimizer: np.ndarray
    certificate: ThetaCertificate
    diagnostics: dict


@dataclass(frozen=True)
class DualResult:
    """The gauge value (the root corner) and the witness tree for w in
    value * body(H-bar), rooted on the support of w: its diagonal is w there,
    and w is zero off its vertex_map."""

    value: float
    certificate: ThetaCertificate
    diagnostics: dict


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

class _Builder:
    """Accumulates PSD blocks and sparse symmetric equality rows."""

    def __init__(self):
        self.dims: list[int] = []
        self.cons: list[tuple[list, float]] = []

    def block(self, dim: int) -> int:
        self.dims.append(dim)
        return len(self.dims) - 1

    def add(self, entries: list[tuple[int, int, int, float]], rhs: float) -> None:
        """entries: (block, i, j, coefficient) terms, as SdpProblem reads them.

        A tie (terms c and -c, rhs 0) names first the entry that it
        determines (a border entry, a child's corner or diagonal), and no
        entry comes first in two ties, so the ties form a forest."""
        self.cons.append((entries, rhs))

    def problem(self, objective: dict[int, np.ndarray]) -> SdpProblem:
        obj = [objective.get(b, np.zeros((d, d))) for b, d in enumerate(self.dims)]
        return SdpProblem(self.dims, obj, self.cons)


@dataclass
class _Node:
    hyper: Hypergraph
    blk: int
    vmap: tuple
    children: dict


def _membership_node(builder: _Builder, hg: Hypergraph, vmap: tuple) -> _Node:
    """Bordered block for one recursion node with all its internal ties."""
    assert hg.r >= 2
    blk = builder.block(hg.n + 1)
    for i in range(hg.n):
        builder.add([(blk, 0, i + 1, 1.0), (blk, i + 1, i + 1, -1.0)], 0.0)
    children: dict[int, _Node] = {}
    if hg.r == 2:
        # Each edge once; the 1-uniform links would emit it from both ends.
        for u, v in hg.edges:
            builder.add([(blk, u + 1, v + 1, 1.0)], 0.0)
    else:
        def entry(i, j):
            return [(blk, i + 1, j + 1, 1.0)]

        for x in range(hg.n):
            child = _attach_link(builder, entry, x, *link(hg, x))
            if child is not None:
                children[x] = child
    return _Node(hg, blk, vmap, children)


def _attach_link(
    builder: _Builder,
    entry: Callable[[int, int], list],
    x: int,
    sub: Hypergraph,
    smap: tuple,
) -> _Node | None:
    """Tie row x of the parent matrix F to F(x,x) times the body of its link sub.

    entry(i, j) gives the terms (block, a, b, coef) whose sum is F(i, j).
    Returns the child node, or None when the link needs no child block: an
    empty link constrains nothing, and a 1-uniform link (every vertex an
    edge, body {0}) makes the row zero on it.
    """
    if sub.n == 0:
        return None

    def minus(i, j):
        return [(b, p, q, -c) for b, p, q, c in entry(i, j)]

    if sub.r == 1:
        for v in smap:
            builder.add(entry(x, v), 0.0)
        return None
    child = _membership_node(builder, sub, smap)
    builder.add([(child.blk, 0, 0, 1.0)] + minus(x, x), 0.0)
    for j, v in enumerate(smap):
        builder.add([(child.blk, j + 1, j + 1, 1.0)] + minus(x, v), 0.0)
    return child


def assemble_theta_sdp(hg: Hypergraph, w=None) -> tuple[SdpProblem, "_Node"]:
    """Assemble the block SDP whose optimum is the relaxation value for w.

    Requires uniformity at least 2; 1-uniform instances are evaluated
    exactly by theta() without an SDP.
    """
    if hg.r < 2:
        raise UniformityError(
            "1-uniform relaxation is the independence polytope; use theta()"
        )
    wv = _float_weights(hg, w)
    builder = _Builder()
    root = _membership_node(builder, hg, tuple(range(hg.n)))
    builder.add([(root.blk, 0, 0, 1.0)], 1.0)
    cobj = np.zeros((hg.n + 1, hg.n + 1))
    for x in range(hg.n):
        cobj[x + 1, x + 1] = wv[x]
    return builder.problem({root.blk: cobj}), root


def _extract(node: _Node, blocks, c: float = 1.0) -> ThetaCertificate:
    """The solution's witness tree times c; all ties are linear and homogeneous."""
    mat = c * np.array(blocks[node.blk])
    return ThetaCertificate(
        scale=float(mat[0, 0]),
        matrix=mat[1:, 1:].copy(),
        uniformity=node.hyper.r,
        vertex_map=tuple(node.vmap),
        children={
            x: _extract(child, blocks, c) for x, child in node.children.items()
        },
    )


def _box_certificate(f, vmap) -> ThetaCertificate:
    """Witness F = ff' + diag(f - f^2) for f in a 1-uniform body (a box);
    [[1, f'], [f, F]] = [1; f][1; f]' + diag(0, f - f^2) is PSD on [0, 1]."""
    f = np.asarray(f, dtype=float)
    mat = np.outer(f, f)
    np.fill_diagonal(mat, f)
    return ThetaCertificate(scale=1.0, matrix=mat, uniformity=1, vertex_map=tuple(vmap))


def _float_weights(hg: Hypergraph, w) -> list[float]:
    """check_weights(hg, w) as floats, refusing entries beyond the double range."""
    out = []
    for i, v in enumerate(check_weights(hg, w)):
        try:
            out.append(float(v))
        except OverflowError:
            raise HypergraphError(f"weight {i} lies beyond the double range") from None
    return out


def _restrict(hg: Hypergraph, v: list) -> tuple[Hypergraph, tuple, list]:
    """Induced instance on the support of v, its vertex map and v on it."""
    sub, smap = induced(hg, [x for x in range(hg.n) if v[x] > 0])
    return sub, smap, [v[x] for x in smap]


def _solved(problem: SdpProblem, tol: float, what: str, accept=None) -> SdpSolution:
    """solve_sdp(problem, tol), which may also end "accepted" when accept,
    its private stop hook, is given; any other end than these raises."""
    hook = {} if accept is None else {"_accept": accept}
    sol = solve_sdp(problem, tol=tol, **hook)
    if sol.status not in ("optimal", "accepted"):
        raise ThetaSolverError(
            f"{what}: solver status {sol.status} after {sol.iterations} iterations, "
            f"stop rule {sol.stop} (residuals {dict(sol.residuals)})",
            sol,
        )
    return sol


def _free_form(problem: SdpProblem):
    """The program with its fixes and ties eliminated.

    Every row that _Builder assembles fixes one entry (c X[e] = rhs) or ties
    two (c X[e] - c X[e'] = 0), the dependent entry e first (see
    _Builder.add).  Pointing each e at its e' gives a forest whose pointers
    lead up the recursion tree, and pointer jumping (parent = parent[parent])
    takes each entry to the root of its tree, whose value every entry of the
    tree shares.  The trees that hold a fixed entry make up E0, and each
    other tree k, an entry no row names being a tree alone, is one free
    variable with matrix E_k.  So the feasible blocks are
    X(y) = E0 + sum_k y_k E_k, and maximizing <C, X(y)> over X(y) psd is the
    dual side of the program with one row <E_k, Z> = -<C, E_k> per tree and
    objective -E0 (Lofberg, Optim. Methods Softw. 24, 2009; the elimination
    is the doubleton rule of Andersen & Andersen, Math. Prog. 71, 1995).
    Returns (that program, <C, E0>, lift) with lift(y) the blocks X(y), or
    None when a row has another shape (a tie whose two coefficients do not
    cancel, too), an entry depends on two ties, the ties close a cycle or a
    tree is fixed twice (the row form's presolve settles those), no tree is
    free, or the trees that the solve would factor as one dense block,
    border_rows of that program, are not fewer than problem's rows.
    """
    m, coef = problem.num_constraints, problem.coef
    count = np.bincount(problem.index[:, 0], minlength=m)
    first, tie = np.cumsum(count) - count, count == 2
    t, f = first[tie], first[~tie]
    if (
        m == 0 or count.min() < 1 or count.max() > 2 or not coef.all()
        or problem.rhs[tie].any() or (coef[t + 1] != -coef[t]).any()
    ):
        return None
    dims = np.array(problem.block_dims, dtype=np.intp)
    start, width = np.cumsum(dims * dims) - dims * dims, int((dims * dims).sum())
    _, blk, i, j = problem.index.T
    entry = start[blk] + i * dims[blk] + j
    parent, root = np.arange(width), np.ones(width, dtype=bool)
    parent[entry[t]], root[entry[t]] = entry[t + 1], False
    for _ in range(width.bit_length()):
        if (parent[parent] == parent).all():
            break
        parent = parent[parent]
    fixes = np.bincount(parent[entry[f]], minlength=width)
    # An entry that depends on two ties, a cycle (it keeps pointers on
    # entries that depend on a tie) or a tree fixed twice.
    if root.sum() > width - len(t) or not root[parent].all() or fixes.max() > 1:
        return None
    value = np.bincount(parent[entry[f]], problem.rhs[~tie] / coef[f], width)

    # Every entry (b, i <= j) of every block, with its tree's root.
    flat = np.arange(width)
    ub = np.repeat(np.arange(len(dims)), dims * dims)
    ui, uj = np.divmod(flat - start[ub], dims[ub])
    on = ui <= uj
    ub, ui, uj, upper = ub[on], ui[on], uj[on], flat[on]
    lower = start[ub] + uj * dims[ub] + ui
    tree = parent[upper]
    fix, free = fixes[tree] > 0, fixes[tree] == 0
    classes, k = np.unique(tree[free], return_inverse=True)
    if not len(classes) or border_rows(k, ub[free], len(classes), len(dims)) >= m:
        return None

    e0 = np.zeros(width)
    e0[upper[fix]] = e0[lower[fix]] = value[tree[fix]]
    cflat = np.concatenate([c.ravel() for c in problem.objective])
    coef_k = np.where(ui[free] == uj[free], 1.0, 2.0)
    rhs_k = -np.bincount(k, cflat[upper[free]] * coef_k, len(classes))
    order = np.argsort(k, kind="stable")
    index = np.stack([k, ub[free], ui[free], uj[free]], axis=1)[order]
    spans = [(lo, lo + d * d, d) for lo, d in zip(start.tolist(), dims.tolist())]
    objective = [-e0[lo:hi].reshape(d, d) for lo, hi, d in spans]

    def lift(y):
        x = e0.copy()
        x[upper[free]] = x[lower[free]] = np.asarray(y)[k]
        return tuple(x[lo:hi].reshape(d, d) for lo, hi, d in spans)

    reduced = SdpProblem._of_terms(problem.block_dims, objective, index, coef_k[order], rhs_k)
    return reduced, float(cflat @ e0), lift


def _solved_free(
    problem: SdpProblem, tol: float, what: str, accept=None
) -> tuple[SdpSolution, dict]:
    """_solved on _free_form(problem) whenever there is one, else on problem,
    and the diagnostics "form" ("free" or "rows") and "rows" (the rows
    solved).  A free-form solution is stated for problem: blocks X(y), primal
    <C, X(y)> = <C, E0> minus the reduced dual value, dual <C, E0> minus the
    reduced primal value, and no y.  In the free form, accept(X(y)) is asked
    at every iterate that misses tol, and the first it passes ends the solve
    "accepted"; the row form, whose blocks meet their rows only to the
    residual, ignores accept and runs to tol."""
    free = _free_form(problem)
    if free is None:
        return _solved(problem, tol, what), {"form": "rows", "rows": problem.num_constraints}
    reduced, c0, lift = free
    sol = _solved(reduced, tol, what, None if accept is None else (lambda y: accept(lift(y))))
    stated = replace(
        sol, blocks=lift(sol.y), y=(), primal=c0 - sol.dual, dual=c0 - sol.primal
    )
    return stated, {"form": "free", "rows": reduced.num_constraints}


# ---------------------------------------------------------------------------
# The relaxation value
# ---------------------------------------------------------------------------

def theta(hg: Hypergraph, w=None, tol: float = 1e-8) -> ThetaResult:
    """Maximum of w'f over the relaxation body, with optimizer and witness.

    Negative weight entries cost nothing: the body is of antiblocking type,
    so the optimum automatically matches the one for the positive part.
    """
    wv = _float_weights(hg, w)
    if hg.r == 1:
        blocked = {e[0] for e in hg.edges}
        f = np.array(
            [1.0 if (x not in blocked and wv[x] > 0) else 0.0 for x in range(hg.n)]
        )
        value = float(sum(wv[x] for x in range(hg.n) if f[x] > 0))
        cert = _box_certificate(f, range(hg.n))
        return ThetaResult(value, f, cert, {"mode": "exact-base"})
    # The solve's gap is relative to 1 + |value|, so it runs on w / max(w)
    # and the value scales back: the optimizer does not depend on the scale.
    top = max((v for v in wv if v > 0), default=1.0)
    problem, root = assemble_theta_sdp(hg, [v / top for v in wv])
    sol, form = _solved_free(problem, tol, "theta")
    cert = _extract(root, sol.blocks)
    f = cert.vector
    return ThetaResult(
        top * float(sol.primal),
        f,
        cert,
        {
            "mode": "sdp",
            "iterations": sol.iterations,
            "gap": top * sol.gap,
            "residuals": sol.residuals,
            "dual": top * sol.dual,
            **form,
        },
    )


# ---------------------------------------------------------------------------
# The gauge: theta_membership and theta_dual
# ---------------------------------------------------------------------------

def _gauge(
    hg: Hypergraph, v: list, vmap: tuple, tol: float, what: str, decide: bool = False
) -> tuple[float, _Node, SdpSolution, dict]:
    """Least lam with v in lam * body: the root node with the rows F_jj = v_j
    and its corner lam free, maximizing -lam.  Returns lam*, the root node,
    the solution (a witness with corner lam* and diagonal v) and its form;
    v > 0 keeps the program strictly feasible.

    With decide, a free-form solve stops at the first iterate whose witness
    X(y), with its corner set to 1, has eigvalsh >= 0 in every block.  X(y)
    meets every fix and tie exactly, so that matrix is a feasible point with
    lam = 1 and proves lam* <= 1; nothing else needs checking.  The solution
    is then that witness, with status "accepted", and the lam returned is 1,
    not lam*."""
    builder = _Builder()
    root = _membership_node(builder, hg, vmap)
    for j in range(hg.n):
        builder.add([(root.blk, j + 1, j + 1, 1.0)], v[j])
    problem = builder.problem({root.blk: np.diag([-1.0] + [0.0] * hg.n)})

    def cornered(blocks):
        top = blocks[root.blk].copy()
        top[0, 0] = 1.0
        return blocks[: root.blk] + (top,) + blocks[root.blk + 1 :]

    proves = (lambda blocks: _psd(cornered(blocks))) if decide else None
    sol, form = _solved_free(problem, tol, what, proves)
    if sol.status == "accepted":
        sol = replace(sol, blocks=cornered(sol.blocks), primal=-1.0)
    return -float(sol.primal), root, sol, form


def _psd(blocks) -> bool:
    """Every block has eigvalsh >= 0, by one eigvalsh call per block size."""
    sizes = {len(b) for b in blocks}
    return all(
        np.linalg.eigvalsh(np.stack([b for b in blocks if len(b) == d])).min() >= 0.0
        for d in sizes
    )


def theta_membership(
    hg: Hypergraph, f, tol: float = MEMBERSHIP_TOL
) -> tuple[bool, ThetaCertificate | None]:
    """Test f in the relaxation body, with a witness tree when it holds.

    Implemented as the gauge lam* = min{lam : f in lam * body}, which needs
    a decision, not an optimum.  The solve stops at the first iterate whose
    free-form witness X(y), tied exactly and with diagonal f, passes an
    eigvalsh test >= 0 in every block once its corner is set to 1: that
    matrix is the witness, and it proves lam* <= 1.  Otherwise (the row
    form, points outside the body, points on or just beyond its boundary)
    the solve runs to tol: f belongs iff the largest scaling of f in the
    body, t* = 1/lam*, is at least 1 - tol, and the witness has corner 1
    and diagonal min(t*, 1)*f.  Points within tol of the boundary may flip
    either way.  The instance is first restricted to the support of f, as
    _gauge requires.
    """
    fv = _float_weights(hg, f)
    if any(v < -1e-12 or v > 1.0 + tol for v in fv):
        return False, None
    sub, smap, fsub = _restrict(hg, fv)
    if sub.n == 0:
        # Empty support: the audit reads a proper root map as zero elsewhere.
        return True, ThetaCertificate(1.0, np.zeros((0, 0)), sub.r, smap)

    if sub.r == 1:
        if sub.edges:  # a blocked vertex carries positive f
            return False, None
        return True, _box_certificate(fsub, smap)

    lam, root, sol, _ = _gauge(
        sub, fsub, smap, min(tol * 1e-2, 1e-8), "theta_membership", decide=True
    )
    if 1.0 / lam < 1.0 - tol:
        return False, None
    # Times min(t*, 1) the corner is at most 1 (an accepted witness has
    # lam = 1 and is taken as it is); raising it to 1 keeps it PSD.
    cert = _extract(root, sol.blocks, min(1.0 / lam, 1.0))
    return True, replace(cert, scale=1.0)


def theta_dual(hg: Hypergraph, w, tol: float = 1e-8) -> DualResult:
    """Gauge of the complement body: the least lam with w in lam * body(H-bar).

    The gauge program on the complement, whose tree has corner lam and
    diagonal w.  Defined for uniformity at least 2 and nonnegative weights;
    w = 0 gives 0 immediately.
    """
    if hg.r < 2:
        raise UniformityError("the gauge program needs uniformity at least 2")
    wv = _float_weights(hg, w)
    if any(v < 0 for v in wv):
        raise HypergraphError("theta_dual requires nonnegative weights")
    sub, smap, wsub = _restrict(hg, wv)
    if sub.n == 0:
        empty = ThetaCertificate(0.0, np.zeros((0, 0)), sub.r, smap)
        return DualResult(0.0, empty, {"mode": "zero"})

    # The solve's gap is relative to 1 + lam*; for w / max(w), lam* is in [1, n]
    top = max(wsub)
    lam, root, sol, form = _gauge(
        complement(sub), [v / top for v in wsub], smap, tol, "theta_dual"
    )
    return DualResult(
        top * lam,
        _extract(root, sol.blocks, top),
        {
            "mode": "sdp",
            "iterations": sol.iterations,
            "residuals": sol.residuals,
            **form,
        },
    )


# ---------------------------------------------------------------------------
# Certificate validation and serialization
# ---------------------------------------------------------------------------

def check_certificate(
    hg: Hypergraph, cert: ThetaCertificate, tol: float = 1e-6, root_scale=1.0
) -> list[str]:
    """Structural audit of a witness tree; returns a list of violations.

    Checks, per node: entries and scale are finite, the matrix is symmetric
    to tol and the bordered matrix is PSD to -tol; child scalings
    match the parent diagonal; child diagonals match the parent row on the
    link; graph nodes vanish on edges; base nodes sit in the scaled box.

    The root vertex_map names the vertices the witness covers; a proper
    subset means the witnessed vector is zero elsewhere and the tree is
    audited against the induced instance.
    """
    problems: list[str] = []
    if tuple(cert.vertex_map) != tuple(range(hg.n)):
        try:
            hg, smap = induced(hg, [operator.index(v) for v in cert.vertex_map])
        except (HypergraphError, TypeError):
            smap = None
        if smap != tuple(cert.vertex_map):
            return [f"root vertex map {cert.vertex_map} is not a vertex subset"]

    def visit(node_hg: Hypergraph, cert: ThetaCertificate, label: str):
        mat = np.asarray(cert.matrix, dtype=float)
        if mat.shape != (node_hg.n, node_hg.n):
            problems.append(f"{label}: matrix shape {mat.shape} != n {node_hg.n}")
            return
        diag = np.diag(mat)
        bordered = np.zeros((node_hg.n + 1, node_hg.n + 1))
        bordered[0, 0] = cert.scale
        bordered[0, 1:] = diag
        bordered[1:, 0] = diag
        bordered[1:, 1:] = mat
        if not np.isfinite(bordered).all():
            problems.append(f"{label}: non-finite entry or scale")
            return
        if np.abs(mat - mat.T).max(initial=0.0) > tol:
            problems.append(f"{label}: matrix not symmetric within {tol}")
        if node_hg.n and np.linalg.eigvalsh(bordered).min() < -tol:
            problems.append(f"{label}: bordered matrix not PSD within {tol}")
        if cert.uniformity != node_hg.r:
            problems.append(f"{label}: uniformity {cert.uniformity} != {node_hg.r}")
        if node_hg.r == 1:
            blocked = {e[0] for e in node_hg.edges}
            for x in range(node_hg.n):
                hi = min(cert.scale, 0.0) if x in blocked else cert.scale
                if diag[x] < -tol or diag[x] > hi + tol:
                    problems.append(f"{label}: base box violated at {x}")
            return
        if node_hg.r == 2:
            for u, v in node_hg.edges:
                if abs(mat[u, v]) > tol:
                    problems.append(f"{label}: edge entry ({u},{v}) nonzero")
            return
        for x in range(node_hg.n):
            sub, submap = link(node_hg, x)
            if sub.n == 0:
                continue
            child = cert.children.get(x)
            if child is None:
                problems.append(f"{label}: missing child at vertex {x}")
                continue
            if tuple(child.vertex_map) != tuple(submap):
                problems.append(f"{label}: child {x} has wrong vertex map")
                continue
            if abs(child.scale - mat[x, x]) > tol:
                problems.append(f"{label}: child {x} scaling mismatch")
            cmat = np.asarray(child.matrix, dtype=float)
            # A wrongly shaped child is reported by its own visit.
            if cmat.shape == (sub.n, sub.n):
                for j, v in enumerate(submap):
                    if abs(cmat[j, j] - mat[x, v]) > tol:
                        problems.append(f"{label}: child {x} diagonal mismatch at {j}")
                        break
            visit(sub, child, f"{label}.{x}")

    if abs(cert.scale - float(root_scale)) > tol:
        problems.append(f"root scaling {cert.scale} != {root_scale}")
    visit(hg, cert, "root")
    return problems


def certificate_to_json(cert: ThetaCertificate) -> str:
    def conv(c: ThetaCertificate) -> dict:
        return {
            "scale": c.scale,
            "uniformity": c.uniformity,
            "vertex_map": list(c.vertex_map),
            "matrix": [[float(v) for v in row] for row in np.asarray(c.matrix)],
            "children": {str(k): conv(v) for k, v in sorted(c.children.items())},
        }

    return json.dumps(conv(cert))


def certificate_from_json(text: str) -> ThetaCertificate:
    def conv(d: dict) -> ThetaCertificate:
        return ThetaCertificate(
            scale=float(d["scale"]),
            matrix=np.array(d["matrix"], dtype=float)
            if d["matrix"]
            else np.zeros((0, 0)),
            uniformity=int(d["uniformity"]),
            vertex_map=tuple(d["vertex_map"]),
            children={int(k): conv(v) for k, v in d["children"].items()},
        )

    return conv(json.loads(text))
