"""Uniform hypergraph foundations.

Immutable r-uniform hypergraphs on 0-based vertex indices, links and
complements, brute-force weighted independence, maximal cliques, the
fractional cover number, the automorphisms that keep a weight vector, and
the plain-text file formats.

Everything here is a pure function of immutable inputs, so concurrent use
from several threads is safe.  Brute-force routines are guarded by explicit
vertex-count caps and raise instead of silently grinding.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf
from typing import Iterable, Sequence

import numpy as np

DEFAULT_ALPHA_CAP = 24
DEFAULT_ENUM_CAP = 20

__all__ = [
    "Hypergraph",
    "HypergraphError",
    "UniformityError",
    "InstanceTooLargeError",
    "NoColoringError",
    "FormatError",
    "link",
    "complement",
    "induced",
    "is_independent",
    "alpha",
    "maximal_independent_sets",
    "enumerate_cliques",
    "in_clique_polytope",
    "chi_star",
    "automorphisms",
    "complete_hypergraph",
    "empty_hypergraph",
    "cycle_graph",
    "random_hypergraph",
    "check_weights",
    "parse_records",
    "parse_hypergraph",
    "read_hypergraph",
    "format_hypergraph",
    "write_hypergraph",
    "parse_weights",
    "read_weights",
]


class HypergraphError(ValueError):
    """Base class for domain errors raised by this package."""


class UniformityError(HypergraphError):
    """Operation undefined at this uniformity (e.g. links when r = 1)."""


class InstanceTooLargeError(HypergraphError):
    """A brute-force routine refused an instance above its cap."""


class NoColoringError(HypergraphError):
    """Cover number requested for a 1-uniform hypergraph with an edge."""


class FormatError(HypergraphError):
    """Malformed hypergraph or weight file; carries the offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph on vertices 0..n-1.

    Edges are stored as sorted, deduplicated r-tuples of distinct indices;
    construction validates and normalizes any iterable of iterables.
    """

    r: int
    n: int
    edges: tuple = ()

    def __post_init__(self):
        if self.r < 1:
            raise HypergraphError("uniformity r must be at least 1")
        if self.n < 0:
            raise HypergraphError("vertex count must be nonnegative")
        seen = set()
        for e in self.edges:
            t = tuple(sorted(e))
            if len(t) != self.r or len(set(t)) != self.r:
                raise HypergraphError(
                    f"edge {t} must have exactly {self.r} distinct vertices"
                )
            if t[0] < 0 or t[-1] >= self.n:
                raise HypergraphError(f"edge {t} out of range for n={self.n}")
            seen.add(t)
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_set(self) -> set:
        return set(self.edges)

    def edge_masks(self) -> list[int]:
        return [_mask(e) for e in self.edges]


def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _bits(mask: int) -> list[int]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def check_weights(hg: Hypergraph, w: Sequence | None) -> list:
    """Return the weight vector as a list, defaulting to unit weights.

    Entries keep their type (ints and Fractions stay exact); nan and
    infinite entries are refused.
    """
    if w is None:
        return [1] * hg.n
    w = list(w)
    if len(w) != hg.n:
        raise HypergraphError(f"weight vector has length {len(w)}, expected {hg.n}")
    for i, v in enumerate(w):
        if not -inf < v < inf:
            raise HypergraphError(f"weight {i} is not finite: {v}")
    return w


def check_subset(hg: Hypergraph, subset: Sequence[int]) -> tuple[int, ...]:
    """Validate a vertex subset: strictly increasing indices in range."""
    s = tuple(subset)
    for i, v in enumerate(s):
        if not 0 <= v < hg.n:
            raise HypergraphError(f"vertex {v} out of range")
        if i > 0 and s[i - 1] >= v:
            raise HypergraphError("subset must be strictly increasing")
    return s


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------

def link(hg: Hypergraph, x: int) -> tuple[Hypergraph, tuple[int, ...]]:
    """Link of vertex x: the (r-1)-uniform hypergraph of edge completions.

    Vertices of the link are the vertices sharing an edge with x, relabeled
    to 0..k-1.  Returns the link and the tuple mapping new labels back to
    the original indices.
    """
    if hg.r < 2:
        raise UniformityError("links require uniformity at least 2")
    if not 0 <= x < hg.n:
        raise HypergraphError(f"vertex {x} out of range")
    around = sorted({y for e in hg.edges if x in e for y in e if y != x})
    index = {y: i for i, y in enumerate(around)}
    edges = {tuple(index[y] for y in e if y != x) for e in hg.edges if x in e}
    return Hypergraph(hg.r - 1, len(around), tuple(edges)), tuple(around)


def complement(hg: Hypergraph) -> Hypergraph:
    """Complement within the complete r-uniform hypergraph on the same vertices."""
    if comb(hg.n, hg.r) > 2_000_000:
        raise InstanceTooLargeError(
            f"complement would have up to C({hg.n},{hg.r}) edges"
        )
    present = hg.edge_set()
    edges = [e for e in itertools.combinations(range(hg.n), hg.r) if e not in present]
    return Hypergraph(hg.r, hg.n, tuple(edges))


def induced(hg: Hypergraph, subset: Sequence[int]) -> tuple[Hypergraph, tuple[int, ...]]:
    """Induced subhypergraph on a vertex subset, relabeled to 0..k-1."""
    s = check_subset(hg, sorted(set(subset)))
    index = {v: i for i, v in enumerate(s)}
    inside = set(s)
    edges = [tuple(index[v] for v in e) for e in hg.edges if all(v in inside for v in e)]
    return Hypergraph(hg.r, len(s), tuple(edges)), s


def is_independent(hg: Hypergraph, subset: Sequence[int]) -> bool:
    """True iff no edge is entirely contained in the subset."""
    s = set(check_subset(hg, subset))
    return not any(all(v in s for v in e) for e in hg.edges)


# ---------------------------------------------------------------------------
# Brute-force independence number
# ---------------------------------------------------------------------------

def alpha(hg: Hypergraph, w: Sequence | None = None, cap: int = DEFAULT_ALPHA_CAP):
    """Exact weighted independence number with a maximizing subset.

    Branch and bound over edges: each edge not yet hit by an exclusion
    forces the exclusion of one of its vertices.  The pruning bound
    subtracts, from the weight still standing, the minimum edge weight over
    a greedy packing of pairwise-disjoint unhit edges.  Vertices of negative
    weight are dropped up front (independence is downward closed, so they
    never help).
    """
    if hg.n > cap:
        raise InstanceTooLargeError(f"{hg.n} vertices exceeds brute-force cap {cap}")
    vals = check_weights(hg, w)
    keep = [x for x in range(hg.n) if vals[x] >= 0]
    keep_mask = _mask(keep)
    all_edges = [m for m in hg.edge_masks() if m & keep_mask == m]
    zero = vals[0] * 0 if hg.n else 0  # preserves Fraction/int/float type

    # Vertices sharing no kept edge are free; the rest split into connected
    # components that can be optimized independently.
    parent = list(range(hg.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for m in all_edges:
        vs = _bits(m)
        for v in vs[1:]:
            parent[find(vs[0])] = find(v)
    comps: dict[int, list[int]] = {}
    for m in all_edges:
        comps.setdefault(find(_bits(m)[0]), []).append(m)
    covered = functools.reduce(int.__or__, all_edges, 0)
    free = [x for x in keep if not (covered >> x) & 1]
    value = sum((vals[x] for x in free), zero)
    chosen = list(free)

    for edges in comps.values():
        evert = [_bits(m) for m in edges]
        eminw = [min(vals[v] for v in vs) for vs in evert]
        verts = sorted({v for vs in evert for v in vs})
        total = sum((vals[x] for x in verts), zero)
        best_val = None
        best_excluded = 0

        def search(excluded: int, ub):
            nonlocal best_val, best_excluded
            branch = None
            packing = 0
            cut = zero
            for i, e in enumerate(edges):
                if e & excluded == 0:
                    if branch is None:
                        branch = i
                    if e & packing == 0:
                        packing |= e
                        cut += eminw[i]
            if best_val is not None and ub - cut <= best_val:
                return
            if branch is None:  # a leaf passes the prune only by beating best_val
                best_val, best_excluded = ub, excluded
                return
            for v in evert[branch]:
                search(excluded | (1 << v), ub - vals[v])

        search(0, total)
        value += best_val
        chosen.extend(x for x in verts if not (best_excluded >> x) & 1)

    return value, tuple(sorted(chosen))


# ---------------------------------------------------------------------------
# Independent sets and cliques
# ---------------------------------------------------------------------------

def _maximal_sets(n: int, can_add, cap: int) -> list[tuple[int, ...]]:
    """All inclusion-maximal members of a family of vertex sets closed under
    taking subsets, sorted; can_add(s_mask, v) says whether v may join the
    member with bitmask s_mask.  Each member is grown once, in increasing
    vertex order, and kept when no outside vertex can join it."""
    if n > cap:
        raise InstanceTooLargeError(f"{n} vertices exceeds enumeration cap {cap}")
    out = []

    def grow(s_mask: int, start: int):
        if all((s_mask >> v) & 1 or not can_add(s_mask, v) for v in range(n)):
            out.append(tuple(_bits(s_mask)))
        for v in range(start, n):
            if can_add(s_mask, v):
                grow(s_mask | (1 << v), v + 1)

    grow(0, 0)
    return sorted(out)


def maximal_independent_sets(hg: Hypergraph, cap: int = DEFAULT_ENUM_CAP) -> list[tuple[int, ...]]:
    """All inclusion-maximal independent sets, by exhaustive search."""
    by_vertex: list[list[int]] = [[] for _ in range(hg.n)]
    for m in hg.edge_masks():
        for v in _bits(m):
            by_vertex[v].append(m)

    def can_add(s_mask: int, v: int) -> bool:
        s2 = s_mask | (1 << v)
        return all(m & s2 != m for m in by_vertex[v])

    return _maximal_sets(hg.n, can_add, cap)


def enumerate_cliques(hg: Hypergraph) -> list[tuple[int, ...]]:
    """All inclusion-maximal cliques.

    A clique is a set all of whose r-subsets are edges; any set with fewer
    than r vertices qualifies vacuously, so maximal cliques of sparse
    hypergraphs are typically (r-1)-sets.
    """
    present = set(hg.edge_masks())

    # The (r-1)-subsets of a set as masks; n + 1 entries hold about one
    # path of the depth-first search.
    @functools.lru_cache(maxsize=hg.n + 1)
    def faces(s_mask: int) -> list[int]:
        return [_mask(sub) for sub in itertools.combinations(_bits(s_mask), hg.r - 1)]

    def can_add(s_mask: int, v: int) -> bool:
        return all((face | (1 << v)) in present for face in faces(s_mask))

    return _maximal_sets(hg.n, can_add, DEFAULT_ENUM_CAP)


def in_clique_polytope(hg: Hypergraph, f: Sequence) -> bool:
    """Membership in the clique-inequality relaxation, to within 1e-9.

    Requires 0 <= f <= 1 entrywise and f(C) <= r-1 on every maximal clique;
    maximality suffices because f is nonnegative.
    """
    tol = 1e-9
    vals = check_weights(hg, f)
    if any(v < -tol or v > 1 + tol for v in vals):
        return False
    bound = hg.r - 1
    for c in enumerate_cliques(hg):
        if sum(vals[v] for v in c) > bound + tol:
            return False
    return True


# ---------------------------------------------------------------------------
# Fractional cover number
# ---------------------------------------------------------------------------

def chi_star(hg: Hypergraph, w: Sequence | None = None, cap: int = DEFAULT_ENUM_CAP):
    """Minimum total weight of independent sets reproducing w exactly.

    Solved as a covering LP over maximal independent sets, then trimmed to an
    exact decomposition (subsets of independent sets stay independent).
    Exact rational arithmetic is used whenever no weight is a float.

    Returns (value, parts) where parts is a list of (coefficient, vertex
    tuple) with sum(coef * indicator) == w.
    """
    vals = check_weights(hg, w)
    if hg.r == 1 and hg.m > 0:
        raise NoColoringError("1-uniform hypergraph with an edge admits no cover")
    if any(v < 0 for v in vals):
        raise HypergraphError("chi_star requires nonnegative weights")
    exact = not any(isinstance(v, float) for v in vals)
    if exact:
        vals = [Fraction(v) for v in vals]
    else:
        vals = [float(v) for v in vals]
    zero = Fraction(0) if exact else 0.0
    if all(v == 0 for v in vals):
        return zero, []

    sets = maximal_independent_sets(hg, cap)
    support = [x for x in range(hg.n) if vals[x] > 0]
    from .numlin import solve_lp

    nsets = len(sets)
    nrows = len(support)
    ncols = nsets + nrows
    a = [[zero] * ncols for _ in range(nrows)]
    for j, ind in enumerate(sets):
        inside = set(ind)
        for i, x in enumerate(support):
            if x in inside:
                a[i][j] = zero + 1
    for i in range(nrows):
        a[i][nsets + i] = zero - 1  # surplus: coverage - s = w
    c = [zero + 1] * nsets + [zero] * nrows
    res = solve_lp(
        c,
        a,
        [vals[x] for x in support],
        bounds=[(0, None)] * ncols,
        sense="min",
        exact=exact,
    )
    if res.status != "optimal":
        raise HypergraphError(f"cover LP unexpectedly {res.status}")

    tiny = zero if exact else 1e-12
    parts = [
        [res.x[j], list(sets[j])] for j in range(nsets) if res.x[j] > tiny
    ]
    # Trim overcoverage vertex by vertex so the parts reproduce w exactly.
    coverage = [zero] * hg.n
    for lam, ind in parts:
        for x in ind:
            coverage[x] += lam
    for x in range(hg.n):
        excess = coverage[x] - vals[x]
        i = 0
        while excess > tiny and i < len(parts):
            lam, ind = parts[i]
            if x in ind:
                delta = min(lam, excess)
                if delta == lam:
                    parts[i][1] = [v for v in ind if v != x]
                else:
                    parts[i][0] = lam - delta
                    parts.append([delta, [v for v in ind if v != x]])
                excess -= delta
            i += 1
    out = [
        (lam, tuple(ind)) for lam, ind in parts if lam > tiny and ind
    ]
    return res.value, out


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------

# Refinements one automorphisms() call may make; the generators found by
# then are kept, and generate a subgroup of the automorphism group.
_MAX_NODES = 2000


def _preserves(hg: Hypergraph, perms, w: Sequence | None = None) -> bool:
    """True iff every permutation in perms (each a sequence of hg.n vertex
    images) maps every edge to an edge and, when w is given, keeps it:
    w[p[x]] == w[x] for every x.  The edges are distinct sorted tuples in
    sorted order and a permutation is a bijection, so its edges hold iff its
    row-sorted images, put in order by one lexsort, equal them."""
    edges = np.array(hg.edges, dtype=np.intp).reshape(-1, hg.r)
    for p in perms:
        if w is not None and any(w[y] != w[x] for x, y in enumerate(p)):
            return False
        images = np.sort(np.asarray(p, dtype=np.intp)[edges], axis=1)
        if not np.array_equal(images[np.lexsort(images.T[::-1])], edges):
            return False
    return True


def automorphisms(hg: Hypergraph, w: Sequence | None = None) -> list[tuple[int, ...]]:
    """Generators of automorphisms of hg that keep the weights w (default
    unit weights): vertex permutations that map edges to edges and each
    vertex to one of equal weight.  An empty list means that only the
    identity was found.

    Colour refinement starts from the classes of equal weight.  A round
    gives each vertex its colour and the sorted list of its edges' sorted
    colour tuples, and numbers these signatures in sorted order; rounds
    repeat until no class splits.  A discrete colouring has no automorphism
    to find, and the search ends there.  Otherwise individualization-
    refinement (McKay & Piperno, J. Symbolic Comput. 60, 2014) follows a
    first path, individualizing the first vertex of the first smallest
    nonsingleton class and refining, until the colouring is discrete.  From
    the deepest level up, it then tries each other vertex of that level's
    class that lies outside the orbits of the generators found so far and
    of the vertices already tried in vain: a depth-first search below it,
    pruned wherever the sorted signatures differ from the first path's,
    maps the first leaf to each leaf it reaches, and keeps the first map
    that _preserves accepts.  Level by level, the generators found then
    generate the automorphisms that fix the path's prefix, so at the top
    the whole group, unless _MAX_NODES refinements end the search first.
    """
    vals = check_weights(hg, w)
    n = hg.n
    rank = {v: k for k, v in enumerate(sorted(set(vals)))}
    if len(rank) == n:
        return []
    edges = np.array(hg.edges, dtype=np.intp).reshape(-1, hg.r)
    # An edge's sorted colours in base 2n, the bound on the colours below;
    # where that overflows it still is a function of them, only coarser.
    powers = (2 * n) ** np.arange(hg.r - 1, -1, -1, dtype=np.int64)
    by = np.argsort(edges.ravel(), kind="stable")  # the incidences by vertex
    iv, ie = edges.ravel()[by], by // hg.r
    deg = np.bincount(iv, minlength=n)
    slot = iv * (deg.max(initial=0) + 1) + 1 + np.arange(len(iv)) - np.repeat(np.cumsum(deg) - deg, deg)
    budget = _MAX_NODES

    def refine(colour, count):
        """The equitable refinement of colour, which has count classes:
        its colours numbered 0 to count - 1, count, and the sorted
        signatures as bytes."""
        nonlocal budget
        budget -= 1
        while True:
            sig = np.full((n, deg.max(initial=0) + 1), -1, dtype=np.int64)
            sig[:, 0] = colour
            sig.reshape(-1)[slot] = (np.sort(colour[edges], axis=1) @ powers)[ie]
            sig[:, 1:].sort(axis=1)
            order = np.lexsort(sig.T[::-1])
            rows = sig[order]
            number = np.cumsum((rows[1:] != rows[:-1]).any(axis=1))
            colour = np.empty(n, dtype=np.int64)
            colour[order[0]], colour[order[1:]] = 0, number
            if number[-1] + 1 == count:
                return colour, count, rows.tobytes()
            count = int(number[-1]) + 1

    def individualized(colour, v):
        out = 2 * colour + 1
        out[v] -= 1
        return out

    def target(colour):
        """The first smallest nonsingleton class, its vertices in order."""
        size = np.bincount(colour)
        return np.flatnonzero(colour == np.where(size > 1, size, n + 1).argmin()).tolist()

    colour, count, order = refine(np.array([rank[v] for v in vals], dtype=np.int64), len(rank))
    levels, orders = [], [order]  # the first path: per level, its colouring and class
    while count < n:
        levels.append((colour, count + 1, target(colour)))
        colour, count, order = refine(individualized(colour, levels[-1][2][0]), count + 1)
        orders.append(order)
    first = colour

    def leaf(colour, count, depth):
        """A generator that maps the first leaf to a leaf below the
        individualized colour at depth, or None."""
        colour, count, order = refine(colour, count)
        if order != orders[depth] or budget < 0:
            return None
        if depth == len(levels):
            at = np.empty(n, dtype=np.intp)
            at[colour] = np.arange(n)
            g = tuple(at[first].tolist())
            return g if _preserves(hg, [g], vals) else None
        for v in target(colour):
            g = leaf(individualized(colour, v), count + 1, depth + 1)
            if g is not None:
                return g
        return None

    gens: list[tuple[int, ...]] = []
    orbit = list(range(n))  # union-find over the orbits of the generators found

    def find(v):
        while orbit[v] != v:
            orbit[v] = v = orbit[orbit[v]]
        return v

    for level in range(len(levels) - 1, -1, -1):
        colour, count, cell = levels[level]
        tried = cell[:1]
        for v in cell[1:]:
            if budget < 0:
                return gens
            if find(v) in {find(u) for u in tried}:
                continue
            g = leaf(individualized(colour, v), count, level + 1)
            if g is None:
                tried.append(v)
                continue
            gens.append(g)
            for x, y in enumerate(g):
                orbit[find(x)] = find(y)
    return gens


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def complete_hypergraph(r: int, n: int) -> Hypergraph:
    return Hypergraph(r, n, tuple(itertools.combinations(range(n), r)))


def empty_hypergraph(r: int, n: int) -> Hypergraph:
    return Hypergraph(r, n, ())


def cycle_graph(n: int) -> Hypergraph:
    if n < 3:
        raise HypergraphError("cycles need at least 3 vertices")
    return Hypergraph(2, n, tuple(tuple(sorted((i, (i + 1) % n))) for i in range(n)))


def random_hypergraph(n: int, r: int, p: float, rng: random.Random) -> Hypergraph:
    """Each r-subset becomes an edge independently with probability p."""
    edges = [e for e in itertools.combinations(range(n), r) if rng.random() < p]
    return Hypergraph(r, n, tuple(edges))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------
#
# Hypergraph text format (.hg):
#   first data line:  r n m
#   then m lines, each r strictly increasing 0-based indices below n
#   '#' starts a comment line; blank lines are ignored
# Weighted hypergraph (.whg): each edge line ends in a weight.
# Weight file: one decimal or p/q rational per line, n lines, no header.

def parse_records(text: str, weighted: bool, header: tuple | None = None) -> tuple:
    """Header (r, n, m), edges and numbers of a .hg, .whg or weight file.

    header stands in for a header line (weight files have none); weighted
    lines end in one number.  An unweighted file may not repeat an edge; the
    weighted reader leaves repeats to its caller, which adds up their
    weights.  Errors name the line where there is one.
    """
    edges, numbers, seen = [], [], set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if header is None:
            header = _integers(fields, lineno)
            if len(header) != 3:
                raise FormatError("header must be 'r n m'", lineno)
            continue
        r, n, _ = header
        if len(fields) != r + weighted:
            raise FormatError(f"expected {r + weighted} tokens, found {len(fields)}", lineno)
        e = _integers(fields[:r], lineno)
        if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
            raise FormatError("edge vertices must be strictly increasing", lineno)
        if any(not 0 <= v < n for v in e):
            raise FormatError(f"edge {e} out of range for n={n}", lineno)
        if not weighted and e in seen:
            raise FormatError(f"edge {e} repeats an earlier line", lineno)
        seen.add(e)
        edges.append(e)
        if weighted:
            numbers.append(_parse_number(fields[r], lineno))
    if header is None:
        raise FormatError("empty file", 1)
    if len(edges) != header[2]:
        raise FormatError(f"expected {header[2]} data lines, found {len(edges)}")
    return header, edges, numbers


def _integers(tokens: list, lineno: int) -> tuple:
    try:
        return tuple(int(t) for t in tokens)
    except ValueError:
        raise FormatError(f"expected integers, got {' '.join(tokens)!r}", lineno) from None


def _parse_number(token: str, lineno: int):
    """The token as an exact Fraction; nan and inf do not parse."""
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"cannot parse number {token!r}", lineno) from None


def parse_hypergraph(text: str) -> Hypergraph:
    (r, n, _), edges, _ = parse_records(text, weighted=False)
    try:
        return Hypergraph(r, n, tuple(edges))
    except HypergraphError as exc:
        raise FormatError(str(exc)) from None


def read_hypergraph(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())


def format_hypergraph(hg: Hypergraph) -> str:
    lines = [f"{hg.r} {hg.n} {hg.m}"]
    lines.extend(" ".join(str(v) for v in e) for e in hg.edges)
    return "\n".join(lines) + "\n"


def write_hypergraph(hg: Hypergraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_hypergraph(hg))


def parse_weights(text: str, n: int) -> list:
    return parse_records(text, weighted=True, header=(0, n, n))[2]


def read_weights(path, n: int) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_weights(fh.read(), n)
