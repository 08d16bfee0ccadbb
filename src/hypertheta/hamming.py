"""Triangle-avoiding sets in the binary cube.

H(n, s) is the 3-uniform hypergraph on the 2^n binary words whose edges are
the triples at pairwise Hamming distance s; such triangles exist iff s is
even and 0 < s <= floor(2n/3).  Its relaxation value has a closed form in
two orthogonal-polynomial minima,

    value(H(n,s))   = 2^n (M_K - theta0 / C(n,s)) / (M_K - 1)
    theta0          = C(n,s) M_Q / (M_Q - 1)

where M_K minimizes the degree-k Krawtchouk values at s and M_Q minimizes
the degree-k Hahn values at s/2.  Both polynomial families are normalized
to 1 at 0 and evaluated in exact arithmetic, one column over all degrees
per point: the Krawtchouk column by its integer three-term recurrence, the
Hahn column as integer numerators over one common denominator.  The
binomials involved overflow doubles around n = 150, well inside the scan
range, so floats appear only in the final logarithm.

The Hahn index range is clipped to k <= min(s, n-s): the evaluation formula
divides by C(n-s, i) and the underlying scheme has only min(s, n-s) + 1
eigenspaces.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .hypercore import Hypergraph, HypergraphError, InstanceTooLargeError
from .numlin import solve_lp

__all__ = [
    "HammingInstanceError",
    "triangles_exist",
    "build_hamming_hypergraph",
    "krawtchouk_values",
    "hahn_values",
    "m_k",
    "m_q",
    "theta_hamming_link",
    "theta_hamming",
    "theta_hamming_lp",
    "theta_hamming_link_lp",
    "closest_even",
    "side_for",
    "DecayRow",
    "decay_scan",
    "log_fraction",
]

HAMMING_BUILD_CAP = 14


class HammingInstanceError(HypergraphError):
    """No triangles at these parameters, so the closed forms do not apply."""


def triangles_exist(n: int, s: int) -> bool:
    return s > 0 and s % 2 == 0 and s <= (2 * n) // 3


def build_hamming_hypergraph(n: int, s: int) -> Hypergraph:
    """All s-triangles of the n-cube as 3-edges on vertices 0..2^n-1.

    Words are encoded as integers; distance is the popcount of the xor.
    Emits a warning and an edgeless hypergraph when no triangle can exist.
    """
    if n < 1:
        raise HypergraphError("dimension must be positive")
    if n > HAMMING_BUILD_CAP:
        raise InstanceTooLargeError(f"2^{n} vertices exceeds cap 2^{HAMMING_BUILD_CAP}")
    size = 1 << n
    if not triangles_exist(n, s):
        warnings.warn(
            f"no {s}-triangles in the {n}-cube (need s even, 0 < s <= {2*n//3})",
            stacklevel=2,
        )
        return Hypergraph(3, size, ())
    shifts = [m for m in range(size) if bin(m).count("1") == s]
    edges = []
    for x in range(size):
        around = sorted(x ^ m for m in shifts)
        for y, z in itertools.combinations(around, 2):
            if y > x and z > x and bin(y ^ z).count("1") == s:
                edges.append((x, y, z))
    return Hypergraph(3, size, tuple(edges))


# ---------------------------------------------------------------------------
# Orthogonal polynomial values (exact)
# ---------------------------------------------------------------------------

def krawtchouk_values(n: int, t: int) -> list[Fraction]:
    """Krawtchouk values K_k(t) / C(n, k) at t for every degree k = 0..n.

    The unnormalized values satisfy the integer three-term recurrence
    (k+1) K_{k+1} = (n-2t) K_k - (n-k+1) K_{k-1} with K_0 = 1, K_1 = n - 2t,
    and each division in it is exact.
    """
    if not (0 <= t <= n):
        raise HypergraphError(f"krawtchouk out of range: n={n} t={t}")
    prev, cur = 0, 1  # K_{k-1}, K_k
    binom = 1  # C(n, k)
    values = [Fraction(1)]
    for k in range(n):
        prev, cur = cur, ((n - 2 * t) * cur - (n - k + 1) * prev) // (k + 1)
        binom = binom * (n - k) // (k + 1)
        values.append(Fraction(cur, binom))
    return values


def hahn_values(n: int, s: int, t: int) -> list[Fraction]:
    """Hahn values at t for the weight-s slice, for every degree
    k = 0..min(s, n-s), each normalized to 1 at t = 0.

    The degree-k value is the alternating sum over i of
    C(k,i) C(n+1-k,i) C(t,i) / D_i with D_i = C(s,i) C(n-s,i).  The D_i do
    not depend on k, so every value is an integer numerator over the one
    denominator L = lcm(D_0..D_imax), imax = min(t, s, n-s).
    """
    if not (0 <= s <= n):
        raise HypergraphError(f"hahn slice out of range: n={n} s={s}")
    if not (0 <= t <= s):
        raise HypergraphError(f"hahn argument out of range: t={t}")
    kmax = min(s, n - s)
    imax = min(t, kmax)
    dens = [comb(s, i) * comb(n - s, i) for i in range(imax + 1)]
    lcm = math.lcm(*dens)
    weights = [
        (-1) ** i * comb(t, i) * (lcm // d) for i, d in enumerate(dens)
    ]
    values = []
    for k in range(kmax + 1):
        total = 0
        p = 1  # C(k, i) C(n+1-k, i)
        for i in range(min(k, imax) + 1):
            total += weights[i] * p
            p = p * (k - i) * (n + 1 - k - i) // ((i + 1) * (i + 1))
        values.append(Fraction(total, lcm))
    return values


def _first_min(values: list[Fraction]) -> tuple[Fraction, int]:
    k = min(range(len(values)), key=values.__getitem__)
    return values[k], k


def m_k(n: int, s: int) -> tuple[Fraction, int]:
    """Minimum Krawtchouk value at s over all degrees, with the smallest
    attaining degree."""
    if not (0 <= s <= n):
        raise HypergraphError(f"m_k out of range: n={n} s={s}")
    return _first_min(krawtchouk_values(n, s))


def m_q(n: int, s: int) -> tuple[Fraction, int]:
    """Minimum Hahn value at s/2 over the valid degrees, with the smallest
    attaining degree."""
    if s % 2 != 0 or not (0 <= s <= n):
        raise HypergraphError(f"m_q needs even s in range: n={n} s={s}")
    return _first_min(hahn_values(n, s, s // 2))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def _require_instance(n: int, s: int) -> None:
    if not triangles_exist(n, s):
        raise HammingInstanceError(
            f"no {s}-triangles in the {n}-cube (need s even, 0 < s <= {2*n//3})"
        )


def _link_value(n: int, s: int, mq: Fraction) -> Fraction:
    if mq >= 0:
        raise HammingInstanceError("link graph degenerate: no negative Hahn value")
    return comb(n, s) * mq / (mq - 1)


def _closed_forms(n: int, s: int):
    """Both minima with their argmins, then the link and cube values built
    from them: ((M_K, k), (M_Q, k), link value, cube value)."""
    _require_instance(n, s)
    mk = m_k(n, s)
    mq = m_q(n, s)
    link_value = _link_value(n, s, mq[0])
    value = (1 << n) * (mk[0] - Fraction(link_value, comb(n, s))) / (mk[0] - 1)
    return mk, mq, link_value, value


def theta_hamming_link(n: int, s: int) -> Fraction:
    """Relaxation value of the base-vertex link: the distance-s graph on the
    weight-s words."""
    _require_instance(n, s)
    return _link_value(n, s, m_q(n, s)[0])


def theta_hamming(n: int, s: int) -> Fraction:
    """Closed-form relaxation value of H(n, s), an exact rational."""
    return _closed_forms(n, s)[3]


def theta_hamming_link_lp(n: int, s: int) -> Fraction:
    """Link value via the rational LP over Hahn coefficients: maximize the
    constant coefficient subject to the values summing to 1 and the
    distance-s combination vanishing."""
    _require_instance(n, s)
    kmax = min(s, n - s)
    q = hahn_values(n, s, s // 2)
    c = [Fraction(comb(n, s))] + [Fraction(0)] * kmax
    rows = [[Fraction(1)] * (kmax + 1), q]
    rhs = [Fraction(1), Fraction(0)]
    res = solve_lp(c, rows, rhs, [(0, None)] * (kmax + 1), sense="max", exact=True)
    if res.status != "optimal":
        raise HammingInstanceError(f"link LP {res.status}")
    return res.value


def theta_hamming_lp(n: int, s: int) -> tuple[Fraction, list[Fraction], Fraction]:
    """Cube value via the rational LP over Krawtchouk coefficients.

    Maximizes 2^n a_0 over convex coefficient vectors whose distance-s
    combination stays below the link value divided by the slice size; the
    inequality is handled with one surplus column.  Returns the optimum, the
    coefficients a_0..a_n at the optimum, and their distance-s combination
    (used to confirm that the omitted nonnegativity constraint is slack).
    """
    _require_instance(n, s)
    kvals = krawtchouk_values(n, s)
    bound = Fraction(theta_hamming_link(n, s), comb(n, s))
    nv = n + 2  # a_0..a_n plus slack
    c = [Fraction(1 << n)] + [Fraction(0)] * (nv - 1)
    rows = [
        [Fraction(1)] * (n + 1) + [Fraction(0)],
        kvals + [Fraction(1)],
    ]
    rhs = [Fraction(1), bound]
    res = solve_lp(c, rows, rhs, [(0, None)] * nv, sense="max", exact=True)
    if res.status != "optimal":
        raise HammingInstanceError(f"cube LP {res.status}")
    combo = sum(res.x[k] * kvals[k] for k in range(n + 1))
    return res.value, [res.x[k] for k in range(n + 1)], combo


# ---------------------------------------------------------------------------
# Density decay scan
# ---------------------------------------------------------------------------

def closest_even(x: Fraction) -> int:
    """Even integer nearest to x; ties round toward the smaller even value."""
    lo = 2 * (x // 2)
    hi = lo + 2
    return int(lo) if x - lo <= hi - x else int(hi)


def side_for(n: int, c) -> int:
    """Triangle side for the scan: the even integer closest to n/c."""
    if c <= 1:
        raise HypergraphError("scan ratio must exceed 1")
    return closest_even(Fraction(n) / Fraction(str(c)))


def log_fraction(q: Fraction) -> float:
    """Natural log of a positive rational; exact integer logs keep precision
    for numerators far beyond float range."""
    if q <= 0:
        raise ValueError("log of a nonpositive rational")
    return math.log(q.numerator) - math.log(q.denominator)


@dataclass(frozen=True)
class DecayRow:
    n: int
    c: int
    s: int
    log_density: float


def decay_scan(n_values, c_values) -> list[DecayRow]:
    """Log-density ln(value / 2^n) along s = side_for(n, c), one row per
    (c, n) in that order.  Rows are pure and independent; results are sorted
    deterministically."""
    rows = []
    for c in sorted(c_values):
        for n in sorted(n_values):
            s = side_for(n, c)
            if not triangles_exist(n, s):
                continue
            density = theta_hamming(n, s) / (1 << n)
            rows.append(DecayRow(n, c, s, log_fraction(density)))
    return rows
