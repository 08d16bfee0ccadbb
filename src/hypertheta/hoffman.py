"""Edge-weighted hypergraphs and the spectral product bound.

A weighted hypergraph is a probability measure on the r-subsets of a vertex
set.  The measure induces measures on smaller subsets (pick an edge, then a
uniform sub-subset), conditional link measures, and a row-stochastic
normalized adjacency operator T with

    T(x, y) = pair_measure({x, y}) / (2 * vertex_measure(x)),

self-adjoint in the vertex-measure inner product.  The bound multiplies the
spectral gaps of the operator and of the worst links at each depth:

    bound(X) = 1 - 1 / prod_{i=0}^{r-2} (1 - lambda_i(X)),

an upper bound on the induced-weight independence density.  The
relaxation value of the underlying hypergraph at the induced vertex weights
never exceeds this bound and is never below the exact density, so it sits
between the two.

Measures are kept as exact rationals whenever possible.  Eigenvalues are
read from sqrt(T * T^T), entrywise: as d_x T(x, y) = d_y T(y, x) for the
vertex measure d, its (x, y) entry is sqrt(d_x / d_y) T(x, y), so it is the
conjugate D^(1/2) T D^(-1/2), exactly symmetric, with no division by d.

Everything is pure; the per-subset link eigenvalue loop reduces with a
deterministic minimum and concurrent calls are safe.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf, prod

import numpy as np

from .hypercore import (
    FormatError,
    Hypergraph,
    HypergraphError,
    parse_records,
    random_hypergraph,
)
from .numlin import eig_sym

__all__ = [
    "WeightedHypergraph",
    "AdjacencyOperator",
    "weighted_hypergraph",
    "uniform_weighted",
    "induced_measure",
    "link_measure",
    "adjacency_operator",
    "lambda_levels",
    "hoff",
    "random_weighted_hypergraph",
    "parse_weighted_hypergraph",
    "read_weighted_hypergraph",
    "format_weighted_hypergraph",
]


@dataclass(frozen=True)
class WeightedHypergraph:
    """A probability measure on r-subsets, with isolated vertices dropped.

    hyper is the underlying hypergraph (support of the measure) on the
    retained vertices; vertex_map records the original labels.
    """

    hyper: Hypergraph
    mu: tuple
    vertex_map: tuple

    @property
    def r(self) -> int:
        return self.hyper.r

    @property
    def n(self) -> int:
        return self.hyper.n

    def vertex_measure(self) -> list:
        meas = induced_measure(self, 1)
        return [meas.get((x,), 0) for x in range(self.n)]


@dataclass(frozen=True)
class AdjacencyOperator:
    """Row-stochastic operator of a weighted hypergraph with its vertex
    measure; self-adjoint under the measure-weighted inner product."""

    matrix: np.ndarray
    vertex_measure: np.ndarray

    def __post_init__(self):
        t = self.matrix
        d = self.vertex_measure
        n = t.shape[0]
        if n:
            rows = float(np.abs(t @ np.ones(n) - 1.0).max())
            if rows > 1e-12:
                raise HypergraphError(f"row sums deviate from 1 by {rows:.2e}")
            sym = float(np.abs(d[:, None] * t - (d[:, None] * t).T).max())
            if sym > 1e-12:
                raise HypergraphError("operator is not measure self-adjoint")
            if abs(float(np.trace(t))) > 1e-12:
                raise HypergraphError("operator has nonzero trace")


def weighted_hypergraph(n: int, r: int, edges, weights) -> WeightedHypergraph:
    """Normalize edge weights to a probability measure and drop isolated
    vertices (they carry no induced weight and cannot affect independence).
    Each edge must consist of r distinct vertices below n, and each must
    have one weight."""
    edges = [tuple(sorted(e)) for e in edges]
    weights = list(weights)
    if len(weights) != len(edges):
        raise HypergraphError(f"{len(edges)} edges but {len(weights)} weights")
    Hypergraph(r, n, edges)  # raises on an edge that breaks that rule
    for i, w in enumerate(weights):
        if not -inf < w < inf:
            raise HypergraphError(f"edge weight {i} is not finite: {w}")
    pairs = [(e, w) for e, w in zip(edges, weights) if w != 0]
    if any(w < 0 for _, w in pairs):
        raise HypergraphError("edge weights must be nonnegative")
    if not pairs:
        raise HypergraphError("measure must have nonempty support")
    exact = not any(isinstance(w, float) for _, w in pairs)
    conv = Fraction if exact else float
    total = sum(conv(w) for _, w in pairs)
    if not total < inf:
        raise HypergraphError(f"edge weights sum to {total}, past the float range")
    merged: dict[tuple, object] = {}
    for e, w in pairs:
        merged[e] = merged.get(e, conv(0)) + conv(w) / total
    support = sorted({v for e in merged for v in e})
    index = {v: i for i, v in enumerate(support)}
    relabeled = {tuple(index[v] for v in e): w for e, w in merged.items()}
    hyper = Hypergraph(r, len(support), tuple(relabeled))
    mu = tuple(relabeled[e] for e in hyper.edges)
    return WeightedHypergraph(hyper, mu, tuple(support))


def uniform_weighted(hg: Hypergraph) -> WeightedHypergraph:
    if hg.m == 0:
        raise HypergraphError("uniform measure needs at least one edge")
    return weighted_hypergraph(hg.n, hg.r, hg.edges, [Fraction(1)] * hg.m)


# ---------------------------------------------------------------------------
# Induced and link measures
# ---------------------------------------------------------------------------

def induced_measure(wh: WeightedHypergraph, i: int) -> dict:
    """Probability measure on i-subsets: choose an edge by the measure, then
    a uniform i-subset of it."""
    if not 1 <= i <= wh.r - 1:
        raise HypergraphError(f"induced measure needs 1 <= i <= r-1, got {i}")
    out: dict[tuple, object] = {}
    scale = comb(wh.r, i)
    for e, w in zip(wh.hyper.edges, wh.mu):
        share = w / scale
        for sigma in itertools.combinations(e, i):
            out[sigma] = out.get(sigma, 0) + share
    return out


def link_measure(wh: WeightedHypergraph, sigma) -> WeightedHypergraph:
    """Conditional measure on edge completions of sigma, an (r-i)-uniform
    weighted hypergraph.  sigma must carry positive induced measure and must
    be a proper subset (i < r)."""
    s = tuple(sorted(sigma))
    if not 1 <= len(s) <= wh.r - 1:
        raise HypergraphError("link subset size must be between 1 and r-1")
    rows = [
        (tuple(v for v in e if v not in s), w)
        for e, w in zip(wh.hyper.edges, wh.mu)
        if set(s) <= set(e)
    ]
    if not rows:
        raise HypergraphError(f"subset {s} has zero induced measure")
    return weighted_hypergraph(
        wh.n, wh.r - len(s), [e for e, _ in rows], [w for _, w in rows]
    )


# ---------------------------------------------------------------------------
# The operator and the bound
# ---------------------------------------------------------------------------

def adjacency_operator(wh: WeightedHypergraph) -> AdjacencyOperator:
    if wh.r < 2:
        raise HypergraphError("adjacency operator needs uniformity at least 2")
    vm = wh.vertex_measure()
    if wh.r == 2:
        pair = {e: w for e, w in zip(wh.hyper.edges, wh.mu)}
    else:
        pair = induced_measure(wh, 2)
    t = np.zeros((wh.n, wh.n))
    for (x, y), w in pair.items():
        t[x, y] = float(w / (2 * vm[x]))
        t[y, x] = float(w / (2 * vm[y]))
    return AdjacencyOperator(t, np.array([float(v) for v in vm]))


def _smallest_eigenvalue(op: AdjacencyOperator) -> float:
    vals, _ = eig_sym(np.sqrt(op.matrix * op.matrix.T))
    return float(vals[0])


def lambda_levels(wh: WeightedHypergraph) -> tuple:
    """Smallest operator eigenvalue of the hypergraph and of its worst
    i-link for i = 1..r-2, exhaustively over supported subsets."""
    if wh.r < 2:
        raise HypergraphError("levels need uniformity at least 2")
    levels = [_smallest_eigenvalue(adjacency_operator(wh))]
    for i in range(1, wh.r - 1):
        levels.append(min(
            _smallest_eigenvalue(adjacency_operator(link_measure(wh, sigma)))
            for sigma in induced_measure(wh, i)
        ))
    return tuple(levels)


def hoff(wh: WeightedHypergraph) -> float:
    """The spectral product bound on the independence density."""
    return 1.0 - 1.0 / prod(1.0 - lam for lam in lambda_levels(wh))


def random_weighted_hypergraph(
    n: int, r: int, p: float, rng: random.Random
) -> WeightedHypergraph:
    """Uniform measure on a random edge set with edge probability p;
    resamples until the edge set is nonempty."""
    if comb(n, r) == 0 or not p > 0:
        raise HypergraphError(f"no edge can be drawn with n={n}, r={r}, p={p}")
    while True:
        hg = random_hypergraph(n, r, p, rng)
        if hg.m:
            return uniform_weighted(hg)


# ---------------------------------------------------------------------------
# File format (.whg): .hg edge lines, each ending in a weight
# ---------------------------------------------------------------------------

def parse_weighted_hypergraph(text: str) -> WeightedHypergraph:
    (r, n, _), edges, weights = parse_records(text, weighted=True)
    try:
        return weighted_hypergraph(n, r, edges, weights)
    except HypergraphError as exc:
        raise FormatError(str(exc)) from None


def read_weighted_hypergraph(path) -> WeightedHypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_weighted_hypergraph(fh.read())


def format_weighted_hypergraph(wh: WeightedHypergraph) -> str:
    lines = [f"{wh.r} {wh.n} {wh.hyper.m}"]
    for e, w in zip(wh.hyper.edges, wh.mu):
        token = str(w) if isinstance(w, Fraction) else repr(float(w))
        lines.append(" ".join(str(v) for v in e) + f" {token}")
    return "\n".join(lines) + "\n"
