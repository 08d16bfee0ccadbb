"""Symmetry reduction for the relaxation programs.

Permutation groups act on vertices; invariance of the weight vector lets the
SDP restrict to invariant matrices.  For a vertex-transitive action the
whole program collapses to one normalized invariant PSD matrix with a single
link-membership constraint at a base vertex.  When the symmetrized orbital
matrices A_k + A_k' commute, as they do for the pair action of S_n and the
cyclic, dihedral and Hamming groups, an invariant matrix is a combination
of the projectors onto their common eigenspaces, and PSD-ness is one
nonnegative scalar per eigenspace (Gatermann & Parrilo 2004; Schrijver
2005).  The eigenspaces are found numerically and checked; when the check
fails the program keeps the full-size block with its variables tied along
pair orbits.

The triangle-encoding family (vertices = edges of a complete graph, edges =
triangles) is solved in closed form: its pair orbits form the two-class
Johnson scheme, whose eigenvalues turn the reduced program into an exact
two-variable rational LP with optimum n^2/4.

All functions are pure; concurrent calls are safe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .hypercore import Hypergraph, HypergraphError, check_weights, link
from .numlin import SdpProblem, solve_lp
from .thetabody import _attach_link, _Builder, _solved

__all__ = [
    "PermGroup",
    "OrbitStructure",
    "group_elements",
    "vertex_orbits",
    "pair_orbits",
    "verify_automorphisms",
    "is_transitive",
    "theta_transitive",
    "invariant_membership_reduction",
    "mantel_hypergraph",
    "symmetric_group_pair_action",
    "mantel_pair_orbit_matrices",
    "mantel_theta",
    "cyclic_group",
    "dihedral_group",
]

PAIR_CLOSURE_CAP = 10**7
ELEMENT_CAP = 10**5


@dataclass(frozen=True)
class PermGroup:
    """A permutation group on 0..degree-1 given by generators."""

    degree: int
    generators: tuple

    def __init__(self, degree: int, generators):
        gens = []
        for g in generators:
            t = tuple(g)
            if sorted(t) != list(range(degree)):
                raise HypergraphError(f"generator {t} is not a bijection on [0,{degree})")
            gens.append(t)
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "generators", tuple(gens))


@dataclass(frozen=True)
class OrbitStructure:
    vertex_orbits: tuple
    pair_orbits: tuple  # tuples of ordered pairs

    def orbit_of(self, x: int, y: int) -> int:
        return self._index[(x, y)]

    def __post_init__(self):
        index = {}
        for k, orbit in enumerate(self.pair_orbits):
            for p in orbit:
                index[p] = k
        object.__setattr__(self, "_index", index)


def group_elements(group: PermGroup, cap: int = ELEMENT_CAP) -> list[tuple]:
    """All group elements by breadth-first closure over the generators."""
    n = group.degree
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for el in frontier:
            for g in group.generators:
                comp = tuple(g[el[i]] for i in range(n))
                if comp not in seen:
                    if len(seen) >= cap:
                        raise HypergraphError(f"group exceeds element cap {cap}")
                    seen.add(comp)
                    nxt.append(comp)
        frontier = nxt
    return sorted(seen)


def _orbits(points, image, generators) -> list[list]:
    """Orbits of points under the generators, each sorted, in the order of
    their first point; image(g, p) is the image of p under g."""
    seen = set()
    orbits = []
    for start in points:
        if start in seen:
            continue
        seen.add(start)
        orbit, queue = [start], [start]
        while queue:
            p = queue.pop()
            for g in generators:
                q = image(g, p)
                if q not in seen:
                    seen.add(q)
                    orbit.append(q)
                    queue.append(q)
        orbits.append(sorted(orbit))
    return orbits


def vertex_orbits(group: PermGroup) -> list[list[int]]:
    return _orbits(range(group.degree), lambda g, x: g[x], group.generators)


def pair_orbits(group: PermGroup) -> OrbitStructure:
    """Orbits of ordered vertex pairs under the diagonal action."""
    n = group.degree
    if n * n > PAIR_CLOSURE_CAP:
        raise HypergraphError(f"pair closure would exceed cap {PAIR_CLOSURE_CAP}")
    pairs = itertools.product(range(n), repeat=2)
    orbits = _orbits(pairs, lambda g, p: (g[p[0]], g[p[1]]), group.generators)
    orbits = tuple(tuple(o) for o in sorted(orbits))
    return OrbitStructure(
        vertex_orbits=tuple(tuple(o) for o in vertex_orbits(group)),
        pair_orbits=orbits,
    )


def verify_automorphisms(hg: Hypergraph, group: PermGroup) -> bool:
    """True iff every generator maps every edge to an edge."""
    if group.degree != hg.n:
        return False
    edges = np.sort(np.array(hg.edges, dtype=np.intp).reshape(-1, hg.r), axis=1)
    for g in np.array(group.generators, dtype=np.intp).reshape(-1, hg.n):
        rows = np.concatenate([edges, np.sort(g[edges], axis=1)])
        # Rank the rows column by column: equal rows get equal keys, and no
        # key exceeds len(rows) * n.
        key = np.zeros(len(rows), dtype=np.intp)
        for col in rows.T:
            _, key = np.unique(key * hg.n + col, return_inverse=True)
        if not np.isin(key[len(edges) :], key[: len(edges)]).all():
            return False
    return True


def is_transitive(group: PermGroup) -> bool:
    return len(vertex_orbits(group)) <= 1


# ---------------------------------------------------------------------------
# Vertex-transitive reduction
# ---------------------------------------------------------------------------

_EIGEN_SEED = 0
_EIGEN_TOL = 1e-9


def _orbital_matrices(orbits: OrbitStructure) -> list[np.ndarray]:
    """The 0/1 indicator matrix of each pair orbit, in the order of
    orbits.pair_orbits."""
    n = sum(len(o) for o in orbits.vertex_orbits)
    labels = np.empty((n, n), dtype=np.intp)
    for k, orbit in enumerate(orbits.pair_orbits):
        labels[tuple(np.array(orbit).T)] = k
    return [(labels == k).astype(float) for k in range(len(orbits.pair_orbits))]


def _common_eigenspaces(orbits: OrbitStructure) -> list[np.ndarray] | None:
    """Projectors E_j onto the common eigenspaces of S_k = A_k + A_k', or None.

    The spaces are the eigenspaces of one fixed-seed random combination of
    the distinct S_k.  They are returned only when there are as many spaces
    as distinct S_k and every S_k is scalar on every space, to _EIGEN_TOL
    relative to its norm; then the E_j span the same space as the S_k, the
    invariant symmetric matrices.  Otherwise (the S_k do not commute, or the
    draw merged two spaces) the result is None.
    """
    sym = []
    for k, (a, orbit) in enumerate(zip(_orbital_matrices(orbits), orbits.pair_orbits)):
        x, y = orbit[0]
        if orbits.orbit_of(y, x) >= k:  # the transposed orbit gives the same S_k
            sym.append(a + a.T)
    coef = np.random.default_rng(_EIGEN_SEED).standard_normal(len(sym))
    w, q = np.linalg.eigh(sum(c * m for c, m in zip(coef, sym)))
    cut = np.flatnonzero(np.diff(w) > _EIGEN_TOL * np.abs(w).max(initial=0.0))
    spaces = np.split(q, cut + 1, axis=1)
    if len(spaces) != len(sym):
        return None
    for m in sym:
        limit = _EIGEN_TOL * np.abs(m).sum(axis=1).max()
        for qj in spaces:
            mq = m @ qj
            if np.abs(mq - np.vdot(qj, mq) / qj.shape[1] * qj).max() > limit:
                return None
    return [qj @ qj.T for qj in spaces]


def _transitive_program(hg: Hypergraph, group: PermGroup) -> SdpProblem:
    """The program theta_transitive solves: over the common eigenspaces when
    _common_eigenspaces finds them, else the full block tied along pair orbits."""
    orbits = pair_orbits(group)
    builder = _Builder()
    projectors = _common_eigenspaces(orbits)
    if projectors is None:
        blk = builder.block(hg.n)

        def entry(i, j):
            return [(blk, i, j, 1.0)]

        builder.add(entry(0, 0), 1.0)
        for orbit in orbits.pair_orbits:
            ax, ay = orbit[0]
            for x, y in orbit[1:]:
                if x > y:
                    continue  # symmetric entry already tied
                builder.add(entry(x, y) + [(blk, ax, ay, -1.0)], 0.0)
        objective = {blk: np.full((hg.n, hg.n), 1.0 / hg.n)}
    else:
        blocks = [builder.block(1) for _ in projectors]

        def entry(i, j):
            return [(b, 0, 0, float(e[i, j])) for b, e in zip(blocks, projectors)]

        builder.add(entry(0, 0), 1.0)
        objective = {b: np.array([[e.sum() / hg.n]]) for b, e in zip(blocks, projectors)}
    _attach_link(builder, entry, 0, *link(hg, 0))
    return builder.problem(objective)


def theta_transitive(hg: Hypergraph, group: PermGroup, tol: float = 1e-8) -> float:
    """Unit-weight relaxation value via the transitive reduction.

    An invariant optimum exists, so the program keeps only invariant
    symmetric X, with X[0,0] = 1, objective <J/n, X> and the link-membership
    block at vertex 0 only; invariance makes that one row suffice, and for a
    transitive group any base vertex would do.  When the symmetrized orbital
    matrices S_k = A_k + A_k' commute (checked numerically by
    _common_eigenspaces), X = sum_j lam_j E_j over their common eigenspaces,
    so X >= 0 is lam_j >= 0: one 1x1 block per eigenspace.  This holds for
    the pair action of S_n, the cyclic, dihedral and Hamming groups.
    Otherwise (for example S_3 acting regularly on itself) the program keeps
    the full n x n block with one tie row per pair outside its orbit's
    representative.
    """
    if hg.r < 2:
        raise HypergraphError("transitive reduction needs uniformity at least 2")
    if not verify_automorphisms(hg, group):
        raise HypergraphError("group does not preserve the edge set")
    if not is_transitive(group):
        raise HypergraphError("group is not vertex transitive")
    sol = _solved(_transitive_program(hg, group), tol, "theta_transitive")
    return float(sol.primal)


def invariant_membership_reduction(hg: Hypergraph, group: PermGroup, f, tol: float = 1e-6) -> bool:
    """Membership test for invariant vectors under a vertex-transitive group.

    Such a vector is constant, f = c * ones, and belongs to the body iff
    c >= 0 and c * n is at most the unit-weight relaxation value.
    """
    fv = [float(v) for v in check_weights(hg, f)]
    orbits = vertex_orbits(group)
    for orbit in orbits:
        vals = {fv[x] for x in orbit}
        if max(vals) - min(vals) > 1e-12:
            raise HypergraphError("vector is not invariant under the group")
    if not is_transitive(group):
        raise HypergraphError("reduction implemented for vertex-transitive groups")
    c = fv[0] if fv else 0.0
    if c < -1e-12:
        return False
    if c == 0.0 or hg.n == 0:
        return True
    value = theta_transitive(hg, group)
    return c * hg.n <= value + tol


# ---------------------------------------------------------------------------
# The triangle-encoding family
# ---------------------------------------------------------------------------

def _pair_list(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def mantel_hypergraph(n: int) -> Hypergraph:
    """3-uniform hypergraph whose vertices are the edges of the complete
    graph on n points and whose edges are its triangles; independent sets
    are exactly triangle-free subgraphs."""
    if n < 3:
        raise HypergraphError("triangle hypergraph needs n >= 3")
    pairs = _pair_list(n)
    idx = {p: i for i, p in enumerate(pairs)}
    tris = [
        tuple(sorted((idx[(a, b)], idx[(a, c)], idx[(b, c)])))
        for a, b, c in itertools.combinations(range(n), 3)
    ]
    return Hypergraph(3, len(pairs), tuple(tris))


def symmetric_group_pair_action(n: int) -> PermGroup:
    """The symmetric group on n points acting on the edges of the complete
    graph, generated by a transposition and an n-cycle."""
    pairs = _pair_list(n)
    idx = {p: i for i, p in enumerate(pairs)}

    def act(sigma):
        return tuple(
            idx[tuple(sorted((sigma[a], sigma[b])))] for a, b in pairs
        )

    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    cyc = [(i + 1) % n for i in range(n)]
    return PermGroup(len(pairs), (act(swap), act(cyc)))


def cyclic_group(n: int) -> PermGroup:
    return PermGroup(n, (tuple((i + 1) % n for i in range(n)),))


def dihedral_group(n: int) -> PermGroup:
    rot = tuple((i + 1) % n for i in range(n))
    refl = tuple((-i) % n for i in range(n))
    return PermGroup(n, (rot, refl))


def mantel_pair_orbit_matrices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indicator matrices of the three pair orbits (by intersection size
    2, 1, 0) of complete-graph edges; the two-class Johnson scheme."""
    pairs = _pair_list(n)
    orbits = pair_orbits(symmetric_group_pair_action(n))
    by_common = {
        len(set(pairs[x]) & set(pairs[y])): a
        for ((x, y), *_), a in zip(orbits.pair_orbits, _orbital_matrices(orbits))
    }
    return tuple(by_common.get(c, np.zeros((len(pairs),) * 2)) for c in (2, 1, 0))


def mantel_theta(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact relaxation value of the triangle family: n^2/4.

    The invariant program reduces to two variables: the common entry on
    intersecting pairs (a) and on disjoint pairs (b).  PSD-ness is three
    linear inequalities through the Johnson-scheme eigenvalues

        intersecting class: -2, n-4, 2n-4
        disjoint class:      1, -(n-3), (n-2)(n-3)/2

    and the single link constraint caps a at the link value over twice the
    link size; the link of a base vertex is a perfect matching on 2(n-2)
    points, whose relaxation value n-2 makes that cap exactly 1/2.

    Returns (value, a, b) as exact rationals.
    """
    if n < 4:
        raise HypergraphError("closed-form pipeline needs n >= 4")
    nv = comb(n, 2)
    r1 = nv * 2 * (n - 2)  # ordered pairs sharing one endpoint
    r2 = nv * comb(n - 2, 2)  # ordered disjoint pairs
    link_cap = Fraction(n - 2, 2 * (n - 2))  # = 1/2

    # Variables (a, b, s1, s2, s3); maximize the mean row sum.
    c = [Fraction(r1, nv), Fraction(r2, nv), 0, 0, 0]
    rows = [
        [2, -1, 1, 0, 0],  # 1 - 2a + b >= 0
        [-(n - 4), (n - 3), 0, 1, 0],  # 1 + (n-4)a - (n-3)b >= 0
        [-(2 * n - 4), Fraction(-(n - 2) * (n - 3), 2), 0, 0, 1],  # third class
    ]
    rhs = [1, 1, 1]
    bounds = [(0, link_cap), (None, None), (0, None), (0, None), (0, None)]
    res = solve_lp(c, rows, rhs, bounds, sense="max", exact=True)
    if res.status != "optimal":
        raise HypergraphError(f"two-variable program unexpectedly {res.status}")
    value = Fraction(1) + res.value
    return value, res.x[0], res.x[1]
