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

Each program reaches numlin.solve_sdp in one of two forms.  _Builder.fix
sets one entry per row and _Builder.tie one entry equal to another further
up the recursion, so the ties form a forest with at most one fix per tree
(TestForms::test_assembled_ties_form_a_forest).  The row form is the
program as assembled, one row per fix or tie; the free form takes it as
given and eliminates them.  Pointer jumping finds the trees, the classes of
tied entries.  The classes that hold a fixed entry are one fixed matrix E0,
and each other class k, an entry no row names being a class alone, is one
free scalar y_k with matrix E_k.  The witness blocks are
X(y) = E0 + sum_k y_k E_k, which meet every fix and tie exactly and are psd
up to the solve's dual residual, and the solve runs on the conic dual with
one row per free class.  A class couples only with classes of its own root
subtree and of the root block, so the solver factors the root subtrees'
classes group by group and only the rest, its border (numlin.border_rows),
as one dense block.  The free form is taken when that border has fewer
rows than the row form.  Unreduced (below), theta's free form on H(4, 2)
has 184 classes in place of 417 rows, all on the border; Mantel 6 has 480
classes against 331 rows, of which 120 are on the border, and 15 groups
of 24.  A graph's program is one block, so every class is on the border:
the 5-cycle takes the free form (10 classes against 11 rows) but the
8-cycle keeps the row form (28 against 17).  A program with no free class
(a single point) keeps the row form too.

The free form is then reduced by the instance's own symmetry.
hypercore.automorphisms finds generators of automorphisms that keep the
program's fixed diagonal data: theta's weights w / max(w), the gauge's
diagonal v.  Each acts on the recursion tree, whose node is the path of
vertices that leads to it, block to block and entry to entry
(_tree_moves), and maps the program to itself: its fixes, ties and
objective.  So the group average of an optimal witness is an optimal
witness (Gatermann & Parrilo, J. Pure Appl. Algebra 192, 2004), on which
each orbit of free classes takes one value and each block is a
permutation of the first block of its orbit.  _orbit_form solves one
variable per class orbit and one block per block orbit, and the lift
fills every block, so the certificate is the full witness tree.  With no
generator the program is the free form as built.  Theta on Mantel 6 then
solves 5 rows on 2 blocks, on H(4, 2) 5 rows on 2 blocks.  The
diagnostics of theta and theta_dual name the form, the rows solved, the
generators merged over ("automorphisms", 0 in the row form) and the
blocks solved.

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
    automorphisms,
    check_weights,
    complement,
    induced,
    link,
)
from .numlin import SdpProblem, SdpSolution, border_rows, solve_sdp
from .numlin.sdp import _eig_minima, _least_labels

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
    """Accumulates PSD blocks and equality rows as (row, block, i, j, coef)."""

    def __init__(self):
        self.dims: list[int] = []
        self.terms: list[tuple] = []
        self.rhs: list[float] = []

    def block(self, dim: int) -> int:
        self.dims.append(dim)
        return len(self.dims) - 1

    def fix(self, terms: list[tuple[int, int, int, float]], value: float) -> None:
        """The row sum(terms) = value; a term (block, i, j, coef) as in SdpProblem."""
        row = len(self.rhs)
        for b, i, j, c in terms:
            self.terms.append((row, b, i, j, c))
        self.rhs.append(value)

    def tie(self, entry: tuple[int, int, int], terms: list[tuple[int, int, int, float]]) -> None:
        """The row X[entry] = sum(terms), the entry (block, i, j) first: the
        one the tie determines (a border entry, a child's corner or diagonal)."""
        row = len(self.rhs)
        self.terms.append((row, *entry, 1.0))
        for b, i, j, c in terms:
            self.terms.append((row, b, i, j, -c))
        self.rhs.append(0.0)

    def problem(self, objective: dict[int, np.ndarray]) -> SdpProblem:
        obj = [objective.get(b, np.zeros((d, d))) for b, d in enumerate(self.dims)]
        terms = np.array(self.terms, dtype=float).reshape(-1, 5)
        rhs = np.array(self.rhs, dtype=float)
        return SdpProblem._of_terms(self.dims, obj, terms[:, :4], terms[:, 4], rhs)


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
        builder.tie((blk, 0, i + 1), [(blk, i + 1, i + 1, 1.0)])
    children: dict[int, _Node] = {}
    if hg.r == 2:
        # Each edge once; the 1-uniform links would emit it from both ends.
        for u, v in hg.edges:
            builder.fix([(blk, u + 1, v + 1, 1.0)], 0.0)
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
    if sub.r == 1:
        for v in smap:
            builder.fix(entry(x, v), 0.0)
        return None
    child = _membership_node(builder, sub, smap)
    builder.tie((child.blk, 0, 0), entry(x, x))
    for j, v in enumerate(smap):
        builder.tie((child.blk, j + 1, j + 1), entry(x, v))
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
    builder.fix([(root.blk, 0, 0, 1.0)], 1.0)
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

    problem is a _membership_node program, taken as given: each row fixes
    one entry (c X[e] = rhs, _Builder.fix) or ties two (X[e] = X[e'], the
    dependent entry e first, _Builder.tie), no entry is tied twice and no
    tree fixed twice (TestForms::test_assembled_ties_form_a_forest).
    Pointing each e at its e' gives a forest whose pointers lead up the
    recursion tree, and pointer jumping (parent = parent[parent])
    takes each entry to the root of its tree, whose value every entry of the
    tree shares.  The trees that hold a fixed entry make up E0, and each
    other tree k, an entry no row names being a tree alone, is one free
    variable with matrix E_k.  So the feasible blocks are
    X(y) = E0 + sum_k y_k E_k, and maximizing <C, X(y)> over X(y) psd is the
    dual side of the program with one row <E_k, Z> = -<C, E_k> per tree and
    objective -E0 (Lofberg, Optim. Methods Softw. 24, 2009; the elimination
    is the doubleton rule of Andersen & Andersen, Math. Prog. 71, 1995).
    Returns (that program, <C, E0>, lift) with lift(y) the blocks X(y), or
    None when no tree is free or when the trees that the solve would factor
    as one dense block, border_rows of that program, are not fewer than
    problem's rows.
    """
    m, coef = problem.num_constraints, problem.coef
    count = np.bincount(problem.index[:, 0], minlength=m)
    first, tie = np.cumsum(count) - count, count == 2
    t, f = first[tie], first[~tie]
    dims = np.array(problem.block_dims, dtype=np.intp)
    start, width = np.cumsum(dims * dims) - dims * dims, int((dims * dims).sum())
    _, blk, i, j = problem.index.T
    entry = start[blk] + i * dims[blk] + j
    parent = np.arange(width)
    parent[entry[t]] = entry[t + 1]
    for _ in range(width.bit_length()):
        if (parent[parent] == parent).all():
            break
        parent = parent[parent]
    fixes = np.bincount(parent[entry[f]], minlength=width)
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


def _tree_moves(root: _Node, gens) -> list[np.ndarray]:
    """Each automorphism g in gens of root.hyper as the permutation it makes
    of the program's block entries, entry (i, j) of block b being
    start[b] + i * d_b + j in the blocks raveled and concatenated.  A node
    is the path of root vertices that leads to it, and its rows past the
    corner are root vertices in increasing order, so g maps the node of path
    P to the node of path g(P), corner to corner and vertex v to g(v)."""
    if not gens:
        return []
    nodes = []  # (block, parent block, label it hangs from, labels), parents first

    def walk(node, up, via, labels):  # label 0 is the corner, v + 1 root vertex v
        nodes.append((node.blk, up, via, labels))
        for x, c in node.children.items():
            walk(c, node.blk, labels[x + 1], [0] + [labels[v + 1] for v in c.vmap])

    walk(root, -1, 0, list(range(root.hyper.n + 1)))
    labels = [lab for *_, lab in sorted(nodes, key=operator.itemgetter(0))]
    size = np.array([len(lab) for lab in labels])
    start, first = np.cumsum(size * size) - size * size, np.cumsum(size) - size
    flat = np.concatenate(labels)
    local = np.zeros((len(labels), root.hyper.n + 1), dtype=np.intp)  # label -> row
    local[np.repeat(np.arange(len(labels)), size), flat] = np.arange(len(flat)) - np.repeat(first, size)
    eb = np.repeat(np.arange(len(labels)), size * size)
    ei, ej = np.divmod(np.arange(len(eb)) - start[eb], size[eb])
    li, lj = flat[first[eb] + ei], flat[first[eb] + ej]
    child = {(up, via): b for b, up, via, _ in nodes}
    moves = []
    for g in gens:
        moved, image = np.concatenate(([0], np.asarray(g) + 1)), {-1: -1}
        for b, up, via, _ in nodes:
            image[b] = child[image[up], moved[via]]
        ib = np.array([image[b] for b in range(len(labels))])[eb]
        moves.append(start[ib] + local[ib, moved[li]] * size[ib] + local[ib, moved[lj]])
    return moves


def _orbit_form(free, moves):
    """_free_form's (program, <C, E0>, lift) merged over the orbits of moves,
    permutations of the block entries that map the assembled program to
    itself (_tree_moves): each orbit of free classes becomes one variable,
    numbered by its least class, and one block per orbit of blocks, the
    least, keeps its rows and objective.  So X(y) is invariant, which an
    optimum may be taken to be (average over the group), and its other
    blocks are permutations of their orbit's first block, psd with it.
    The lift maps a merged y to the blocks X(y) of every class.  With no
    move, free is returned as it is."""
    if not moves:
        return free
    reduced, c0, lift = free
    k, blk, i, j = reduced.index.T
    dims = np.array(reduced.block_dims, dtype=np.intp)
    start = np.cumsum(dims * dims) - dims * dims
    nk, nb = reduced.num_constraints, len(dims)
    upper, lower = start[blk] + i * dims[blk] + j, start[blk] + j * dims[blk] + i
    cls = np.full(int((dims * dims).sum()), -1)
    cls[upper] = cls[lower] = k
    head = upper[np.flatnonzero(np.diff(k, prepend=-1))]  # an entry of each class
    eb = np.repeat(np.arange(nb), dims * dims)
    lead = _least_labels(nk, [(np.arange(nk), cls[m[head]]) for m in moves])
    orbit = (np.cumsum(lead == np.arange(nk)) - 1)[lead]
    rep = _least_labels(nb, [(np.arange(nb), eb[m[start]]) for m in moves]) == np.arange(nb)
    keep = rep[blk]
    order = np.lexsort((upper[keep], orbit[k[keep]]))  # each row's terms in entry order
    index = np.stack([orbit[k], (np.cumsum(rep) - 1)[blk], i, j], axis=1)[keep][order]
    objective = [c for c, r in zip(reduced.objective, rep) if r]
    rhs = np.bincount(orbit, reduced.rhs, int(orbit.max()) + 1)
    merged = SdpProblem._of_terms(dims[rep], objective, index, reduced.coef[keep][order], rhs)
    return merged, c0, lambda y: lift(np.asarray(y)[orbit])


def _solved_free(
    problem: SdpProblem, tol: float, what: str, accept, root: _Node, weights
) -> tuple[SdpSolution, dict]:
    """_solved on _free_form(problem) whenever there is one, else on problem,
    and the diagnostics "form" ("free" or "rows"), "rows" (the rows solved),
    "automorphisms" (the generators merged over) and "blocks" (the blocks
    solved).  The free form is merged (_orbit_form) over the automorphisms
    of root.hyper, root the root node of problem, that keep weights, the
    program's fixed data on its diagonal.  A free-form solution is
    stated for problem: blocks X(y), primal <C, X(y)> = <C, E0> minus the
    reduced dual value, dual <C, E0> minus the reduced primal value, and no
    y.  In the free form, accept(X(y)) is asked at every iterate that misses
    tol, and the first it passes ends the solve "accepted"; the row form,
    whose blocks meet their rows only to the residual, ignores accept and
    runs to tol."""
    free = _free_form(problem)
    if free is None:
        return _solved(problem, tol, what), _form("rows", problem, 0)
    gens = automorphisms(root.hyper, weights)
    reduced, c0, lift = _orbit_form(free, _tree_moves(root, gens))
    sol = _solved(reduced, tol, what, None if accept is None else (lambda y: accept(lift(y))))
    stated = replace(
        sol, blocks=lift(sol.y), y=(), primal=c0 - sol.dual, dual=c0 - sol.primal
    )
    return stated, _form("free", reduced, len(gens))


def _form(form: str, solved: SdpProblem, gens: int) -> dict:
    """The diagnostics of _solved_free."""
    return {"form": form, "rows": solved.num_constraints, "automorphisms": gens, "blocks": len(solved.block_dims)}


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
    scaled = [v / top for v in wv]
    problem, root = assemble_theta_sdp(hg, scaled)
    sol, form = _solved_free(problem, tol, "theta", None, root, scaled)
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
        builder.fix([(root.blk, j + 1, j + 1, 1.0)], v[j])
    problem = builder.problem({root.blk: np.diag([-1.0] + [0.0] * hg.n)})

    def cornered(blocks):
        top = blocks[root.blk].copy()
        top[0, 0] = 1.0
        return blocks[: root.blk] + (top,) + blocks[root.blk + 1 :]

    proves = (lambda blocks: all(e >= 0 for e in _eig_minima(cornered(blocks)))) if decide else None
    sol, form = _solved_free(problem, tol, what, proves, root, v)
    if sol.status == "accepted":
        sol = replace(sol, blocks=cornered(sol.blocks), primal=-1.0)
    return -float(sol.primal), root, sol, form


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
    either way.  The program merged over the instance's automorphisms counts
    each block orbit once in the solver's barrier, so an interior point that
    the unreduced program accepts early may run to tol instead, with a
    witness psd only up to the dual residual.  The instance is first
    restricted to the support of f, as _gauge requires.
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
