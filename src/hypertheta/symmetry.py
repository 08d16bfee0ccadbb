"""Symmetry reduction for the relaxation programs.

Permutation groups act on vertices; invariance of the weight vector lets the
SDP restrict to invariant matrices.  Orbits come from one integer label
array: each vertex, and each ordered pair (x, y) as point x * n + y, carries
the smallest point of its orbit, found by min-label propagation over the
generators' images.  For a vertex-transitive action the whole program
collapses to one normalized invariant PSD matrix with a single
link-membership constraint at a base vertex.  When the symmetrized orbital
matrices A_k + A_k' commute, as they do for the pair action of S_n and the
cyclic, dihedral and Hamming groups, an invariant matrix is a combination of
the projectors onto their common eigenspaces, and PSD-ness is one
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
    "cube_group",
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


@dataclass(frozen=True, eq=False)
class OrbitStructure:
    """Orbits of a group of degree n on ordered vertex pairs, as the read-only
    labels[x, y] = smallest x' * n + y' over the orbit of (x, y).  Orbits are
    listed by smallest pair; vertex orbits, read off (x, x), by smallest vertex."""

    labels: np.ndarray

    @property
    def vertex_orbits(self) -> tuple:
        diagonal = np.diagonal(self.labels) // (len(self.labels) + 1)
        return tuple(tuple(o.tolist()) for o in _orbit_lists(diagonal))

    @property
    def pair_orbits(self) -> tuple:  # tuples of ordered pairs
        n = len(self.labels)
        orbits = _orbit_lists(self.labels.ravel())
        return tuple(tuple(zip((o // n).tolist(), (o % n).tolist())) for o in orbits)

    def orbit_of(self, x: int, y: int) -> int:
        """The index of the orbit of (x, y) in pair_orbits."""
        return len(np.unique(self.labels[self.labels < self.labels[x, y]]))


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


def _orbit_labels(group: PermGroup, pairs: bool) -> np.ndarray:
    """Label each vertex, or each ordered pair (x, y) as point x * n + y, by
    the smallest point of its orbit: min-label propagation along the edges
    p -> g(p) with pointer jumping, until a sweep changes no label."""
    n = group.degree
    gens = np.array(group.generators, dtype=np.intp).reshape(len(group.generators), n)
    label = np.arange(n * n if pairs else n)
    while True:
        before = label
        for g in gens:
            image = (g[:, None] * n + g).ravel() if pairs else g
            label = np.minimum(label, label[image])
            label[image] = np.minimum(label[image], label)
        while not np.array_equal(jumped := label[label], label):
            label = jumped
        if np.array_equal(label, before):
            return label


def _orbit_lists(label: np.ndarray) -> list[np.ndarray]:
    """The points of each orbit of a labelling, ascending, in label order."""
    order = np.argsort(label, kind="stable")
    bounds = np.flatnonzero(np.diff(label[order], prepend=-1, append=-1))
    return [order[a:b] for a, b in zip(bounds, bounds[1:])]


def vertex_orbits(group: PermGroup) -> list[list[int]]:
    return [o.tolist() for o in _orbit_lists(_orbit_labels(group, pairs=False))]


def pair_orbits(group: PermGroup) -> OrbitStructure:
    """Orbits of ordered vertex pairs under the diagonal action."""
    n = group.degree
    if n * n > PAIR_CLOSURE_CAP:
        raise HypergraphError(f"pair closure would exceed cap {PAIR_CLOSURE_CAP}")
    labels = _orbit_labels(group, pairs=True).reshape(n, n)
    labels.flags.writeable = False
    return OrbitStructure(labels)


def verify_automorphisms(hg: Hypergraph, group: PermGroup) -> bool:
    """True iff every generator maps every edge to an edge."""
    if group.degree != hg.n:
        return False
    edges = np.sort(np.array(hg.edges, dtype=np.intp).reshape(-1, hg.r), axis=1)
    for g in np.array(group.generators, dtype=np.intp).reshape(len(group.generators), hg.n):
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
    return not _orbit_labels(group, pairs=False).any()


# ---------------------------------------------------------------------------
# Vertex-transitive reduction
# ---------------------------------------------------------------------------

_EIGEN_SEED = 0
_EIGEN_TOL = 1e-9


def _common_eigenspaces(orbits: OrbitStructure) -> list[np.ndarray] | None:
    """Projectors E_j onto the common eigenspaces of S_k = A_k + A_k', or None.

    The spaces are the eigenspaces of one fixed-seed random combination of
    the distinct S_k.  They are returned only when there are as many spaces
    as distinct S_k and every S_k is scalar on every space, to _EIGEN_TOL
    relative to its norm; then the E_j span the same space as the S_k, the
    invariant symmetric matrices.  Otherwise (the S_k do not commute, or the
    draw merged two spaces) the result is None.
    """
    # S_k is 2 on a self-paired orbit k, 1 on k and its transpose otherwise.
    labels = orbits.labels
    keys, cls = np.unique(np.minimum(labels, labels.T), return_inverse=True)
    cls = cls.reshape(labels.shape)
    twice = np.where(labels == labels.T, 2.0, 1.0)
    coef = np.random.default_rng(_EIGEN_SEED).standard_normal(len(keys))
    w, q = np.linalg.eigh(coef[cls] * twice)
    cut = np.flatnonzero(np.diff(w) > _EIGEN_TOL * np.abs(w).max(initial=0.0))
    spaces = np.split(q, cut + 1, axis=1)
    if len(spaces) != len(keys):
        return None
    for k in range(len(keys)):
        m = (cls == k) * twice
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
    if np.diagonal(orbits.labels).any():  # some (x, x) lies outside the orbit of (0, 0)
        raise HypergraphError("group is not vertex transitive")
    builder = _Builder()
    projectors = _common_eigenspaces(orbits)
    if projectors is None:
        blk = builder.block(hg.n)

        def entry(i, j):
            return [(blk, i, j, 1.0)]

        builder.add(entry(0, 0), 1.0)
        for (ax, ay), *rest in orbits.pair_orbits:
            for x, y in rest:
                if x <= y:  # the symmetric entry (y, x) is tied with it
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
    the full n x n block, each pair tied to its orbit's smallest pair.
    """
    if hg.r < 2:
        raise HypergraphError("transitive reduction needs uniformity at least 2")
    if not verify_automorphisms(hg, group):
        raise HypergraphError("group does not preserve the edge set")
    if hg.n == 0:
        return 0.0  # no vertex to carry X[0,0] = 1
    sol = _solved(_transitive_program(hg, group), tol, "theta_transitive")
    return float(sol.primal)


def invariant_membership_reduction(hg: Hypergraph, group: PermGroup, f, tol: float = 1e-6) -> bool:
    """Membership test for invariant vectors under a vertex-transitive group.

    Such a vector is constant, f = c * ones, and belongs to the body iff
    c >= 0 and c * n is at most the unit-weight relaxation value.
    """
    fv = np.array(check_weights(hg, f), dtype=float)
    labels = _orbit_labels(group, pairs=False)
    if any(np.ptp(fv[orbit]) > 1e-12 for orbit in _orbit_lists(labels)):
        raise HypergraphError("vector is not invariant under the group")
    if labels.any():
        raise HypergraphError("reduction implemented for vertex-transitive groups")
    c = float(fv[0]) if len(fv) else 0.0
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


def cube_group(n: int) -> PermGroup:
    """Automorphisms of the n-cube on integer-coded words: the n bit flips,
    a transposition and an n-cycle of the coordinates."""
    size = 1 << n

    def move_bits(p):
        return tuple(sum(((x >> i) & 1) << p[i] for i in range(n)) for x in range(size))

    flips = [tuple(x ^ (1 << i) for x in range(size)) for i in range(n)]
    swap = [1, 0] + list(range(2, n)) if n >= 2 else list(range(n))
    cycle = [(i + 1) % n for i in range(n)]
    return PermGroup(size, flips + [move_bits(swap), move_bits(cycle)])


def mantel_pair_orbit_matrices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indicator matrices of the three pair orbits (by intersection size
    2, 1, 0) of complete-graph edges; the two-class Johnson scheme."""
    pairs = _pair_list(n)
    labels = pair_orbits(symmetric_group_pair_action(n)).labels
    common = {  # points shared by the two edges of the orbit's smallest pair
        len(set(pairs[p // len(pairs)]) & set(pairs[p % len(pairs)])): p
        for p in np.unique(labels).tolist()
    }
    return tuple((labels == common.get(c, -1)).astype(float) for c in (2, 1, 0))


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
