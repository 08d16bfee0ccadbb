"""Symmetry reduction for the relaxation programs.

Permutation groups act on vertices; invariance of the weight vector lets the
SDP restrict to invariant matrices.  Orbits come from one integer label
array over ordered pairs: each pair (x, y), as point x * n + y, carries the
smallest point of its orbit, found by the Schur split's min-label routine
(numlin.sdp._least_labels) over the edges from each pair to its images.
Its diagonal gives the vertex orbits: (x, x) carries (n + 1) times the
smallest vertex of x's orbit.  For a vertex-transitive action the whole
program collapses to one normalized invariant PSD matrix with a single
link-membership constraint at base vertex 0.  When the symmetrized orbital
matrices A_k + A_k' commute, as they do for the pair action of S_n and the
cyclic, dihedral and Hamming groups, an invariant matrix is a combination
of the projectors onto their common eigenspaces, and PSD-ness is one
nonnegative scalar per eigenspace (Gatermann & Parrilo 2004; Schrijver
2005).  They commute exactly when one random combination of the distinct
ones has as many eigenspaces as there are of them; else thetabody.theta
solves the instance, merged over the automorphisms it finds itself.  The program reads each
projector only in its row at vertex 0 and through its entry sum, both from
an orthonormal basis; automorphisms are checked by one sort per generator.

The triangle-encoding family (vertices = edges of a complete graph, edges =
triangles) is solved in closed form: its pair orbits form the two-class
Johnson scheme, whose eigenvalues turn the reduced program into an exact
two-variable rational LP with optimum n^2/4.

All functions are pure; concurrent calls are safe.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .hypercore import Hypergraph, HypergraphError, _preserves, link
from .numlin import SdpProblem, solve_lp
from .numlin.sdp import _least_labels
from .thetabody import _attach_link, _Builder, _solved, theta

__all__ = [
    "PermGroup",
    "pair_orbits",
    "verify_automorphisms",
    "theta_transitive",
    "mantel_hypergraph",
    "symmetric_group_pair_action",
    "mantel_pair_orbit_matrices",
    "mantel_theta",
    "cyclic_group",
    "dihedral_group",
    "cube_group",
]

PAIR_CLOSURE_CAP = 10**7


@dataclass(frozen=True)
class PermGroup:
    """A permutation group on 0..degree-1 given by generators."""

    degree: int
    generators: tuple

    def __init__(self, degree: int, generators):
        degree = operator.index(degree)
        if degree < 0:
            raise HypergraphError(f"group degree {degree} is negative")
        gens = []
        for g in generators:
            t = tuple(g)
            if sorted(t) != list(range(degree)):
                raise HypergraphError(f"generator {t} is not a bijection on [0,{degree})")
            gens.append(t)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", tuple(gens))


def pair_orbits(group: PermGroup) -> np.ndarray:
    """Orbits of ordered vertex pairs under the diagonal action, as the
    read-only (n, n) array labels[x, y] = the smallest x' * n + y' over the
    orbit of (x, y)."""
    n = group.degree
    if n * n > PAIR_CLOSURE_CAP:
        raise HypergraphError(f"pair closure would exceed cap {PAIR_CLOSURE_CAP}")
    gens = np.array(group.generators, dtype=np.intp).reshape(len(group.generators), n)
    edges = [(np.arange(n * n), (g[:, None] * n + g).ravel()) for g in gens]  # pair -> image pair
    labels = _least_labels(n * n, edges).reshape(n, n)
    labels.flags.writeable = False
    return labels


def verify_automorphisms(hg: Hypergraph, group: PermGroup) -> bool:
    """True iff every generator maps every edge to an edge
    (hypercore._preserves, which automorphisms() verifies with too)."""
    return group.degree == hg.n and _preserves(hg, group.generators)


# ---------------------------------------------------------------------------
# Vertex-transitive reduction
# ---------------------------------------------------------------------------

_EIGEN_SEED = 0
_EIGEN_TOL = 1e-9


def _common_eigenspaces(labels: np.ndarray) -> list[np.ndarray] | None:
    """Orthonormal bases Q_j (n × d_j) of the common eigenspaces of S_k = A_k + A_k', or None.

    The spaces are the eigenspaces of one fixed-seed random combination of
    the distinct S_k (eigenvalues within _EIGEN_TOL relative share a space),
    returned when there are as many spaces as S_k.  The count decides:
    span{S_k}, the invariant symmetric matrices, is the symmetric part of
    the orbital algebra, a sum of M_{m_c}(F_c) with F_c = R, C or H.  An
    element in general position has sum_c m_c distinct eigenvalues against
    sum_c dim Herm_{m_c}(F_c) classes, equal iff every m_c = 1, that is iff
    every S_k is scalar on every space.  When they are not, or when the draw
    merges two eigenvalues, there are fewer spaces than classes: None.
    """
    # S_k is 2 on a self-paired orbit k, 1 on k and its transpose otherwise.
    keys, cls = np.unique(np.minimum(labels, labels.T), return_inverse=True)
    twice = np.where(labels == labels.T, 2.0, 1.0)
    draw = random.Random(_EIGEN_SEED)  # numpy.random would be imported on the first call
    coef = np.array([draw.gauss(0.0, 1.0) for _ in keys])
    w, q = np.linalg.eigh(coef[cls.reshape(labels.shape)] * twice)
    cut = np.flatnonzero(np.diff(w) > _EIGEN_TOL * np.abs(w).max(initial=0.0))
    return np.split(q, cut + 1, axis=1) if len(cut) + 1 == len(keys) else None


def _transitive_program(hg: Hypergraph, group: PermGroup) -> SdpProblem | None:
    """The eigenspace program theta_transitive solves, or None when
    _common_eigenspaces finds no common eigenspaces.  It reads the projector
    E_j = Q_j Q_j' only as its row 0, Q_j[0] Q_j', and its sum, |Q_j' 1|^2."""
    labels = pair_orbits(group)
    if np.diagonal(labels).any():  # some (x, x) lies outside the orbit of (0, 0)
        raise HypergraphError("group is not vertex transitive")
    spaces = _common_eigenspaces(labels)
    if spaces is None:
        return None
    builder = _Builder()
    blocks = [builder.block(1) for _ in spaces]
    row0 = [q[0] @ q.T for q in spaces]  # E_j[0, :]

    def entry(i, j):  # i is always 0
        return [(b, 0, 0, float(e[j])) for b, e in zip(blocks, row0)]

    builder.fix(entry(0, 0), 1.0)
    _attach_link(builder, entry, 0, *link(hg, 0))
    objective = {b: np.array([[q.sum(axis=0) @ q.sum(axis=0) / hg.n]]) for b, q in zip(blocks, spaces)}
    return builder.problem(objective)


def theta_transitive(hg: Hypergraph, group: PermGroup) -> float:
    """Unit-weight relaxation value via the transitive reduction.

    An invariant optimum exists, so the program keeps only invariant
    symmetric X, with X[0,0] = 1, objective <J/n, X> and the link-membership
    block at vertex 0 only; invariance makes that one row suffice, and for a
    transitive group any base vertex would do.  When the symmetrized orbital
    matrices S_k = A_k + A_k' commute (_common_eigenspaces counts the
    eigenspaces of a random combination), X = sum_j lam_j E_j over their
    common eigenspaces, so X >= 0 is lam_j >= 0: one 1x1 block per
    eigenspace.  This holds for the pair action of S_n, the cyclic, dihedral
    and Hamming groups.  Otherwise (for example S_3 acting regularly on
    itself) the value is theta's: the recursion merged over the
    automorphisms that theta's own search finds, not over group.
    """
    if hg.r < 2:
        raise HypergraphError("transitive reduction needs uniformity at least 2")
    if group.degree != hg.n:
        raise HypergraphError(f"group of degree {group.degree} on {hg.n} vertices")
    if not verify_automorphisms(hg, group):
        raise HypergraphError("group does not preserve the edge set")
    if hg.n == 0:
        return 0.0  # no vertex to carry X[0,0] = 1
    problem = _transitive_program(hg, group)
    if problem is None:
        return theta(hg).value
    return float(_solved(problem, 1e-8, "theta_transitive").primal)


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


def _symmetric_generators(n: int) -> list[list[int]]:
    """A transposition (the identity when n < 2) and an n-cycle: generators of S_n."""
    if n < 0:
        raise HypergraphError(f"symmetric group on {n} points")
    return [[1, 0, *range(2, n)] if n >= 2 else list(range(n)), [(i + 1) % n for i in range(n)]]


def symmetric_group_pair_action(n: int) -> PermGroup:
    """The symmetric group on n points acting on the edges of the complete
    graph, generated by a transposition and an n-cycle."""
    pairs = _pair_list(n)
    idx = {p: i for i, p in enumerate(pairs)}

    def act(sigma):
        return tuple(
            idx[tuple(sorted((sigma[a], sigma[b])))] for a, b in pairs
        )

    return PermGroup(len(pairs), [act(g) for g in _symmetric_generators(n)])


def cyclic_group(n: int) -> PermGroup:
    return PermGroup(n, (tuple((i + 1) % n for i in range(n)),))


def dihedral_group(n: int) -> PermGroup:
    rot = tuple((i + 1) % n for i in range(n))
    refl = tuple((-i) % n for i in range(n))
    return PermGroup(n, (rot, refl))


def cube_group(n: int) -> PermGroup:
    """Automorphisms of the n-cube on integer-coded words: the n bit flips,
    a transposition and an n-cycle of the coordinates."""
    gens = _symmetric_generators(n)
    size = 1 << n

    def move_bits(p):
        return tuple(sum(((x >> i) & 1) << p[i] for i in range(n)) for x in range(size))

    flips = [tuple(x ^ (1 << i) for x in range(size)) for i in range(n)]
    return PermGroup(size, flips + [move_bits(g) for g in gens])


def mantel_pair_orbit_matrices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indicator matrices of the three pair orbits (by intersection size
    2, 1, 0) of complete-graph edges; the two-class Johnson scheme."""
    pairs = _pair_list(n)
    labels = pair_orbits(symmetric_group_pair_action(n))
    common = {  # points shared by the two edges of the orbit's smallest pair
        len(set(pairs[p // len(pairs)]) & set(pairs[p % len(pairs)])): p
        for p in sorted(set(labels.ravel().tolist()))
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
