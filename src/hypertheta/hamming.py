"""Triangle-avoiding sets in the binary cube.

H(n, s) is the 3-uniform hypergraph on the 2^n binary words whose edges are
the triples at pairwise Hamming distance s; such triangles exist iff s is
even and 0 < s <= floor(2n/3).  Its relaxation value has a closed form in
two orthogonal-polynomial minima,

    value(H(n,s))   = 2^n (M_K - theta0 / C(n,s)) / (M_K - 1)
    theta0          = C(n,s) M_Q / (M_Q - 1)

where M_K minimizes the degree-k Krawtchouk values at s and M_Q minimizes
the degree-k Hahn values at s/2.  Both families are normalized to 1 at 0 and
evaluated in integers, one column over all degrees per point, by three-term
recurrences in the degree (for Hahn: Koekoek, Lesky & Swarttouw,
Hypergeometric Orthogonal Polynomials and Their q-Analogues, Springer 2010,
section 9.5); minima compare integers.  The binomials stop being exact in
doubles above 2^53, from n = 57 on, and overflow them near n = 1030, so
only the final logarithm uses floats.

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

def _krawtchouk_column(n: int, t: int, kmax: int) -> tuple[list[int], list[int]]:
    """Unnormalized K_k(t) and C(n, k) for k = 0..kmax, by the exact integer
    recurrence (k+1) K_{k+1} = (n-2t) K_k - (n-k+1) K_{k-1}, K_0 = 1."""
    if not (0 <= t <= n):
        raise HypergraphError(f"krawtchouk out of range: n={n} t={t}")
    nums, binoms = [0, 1], [1]  # nums starts at K_{-1} = 0
    for k in range(kmax):
        nums.append(((n - 2 * t) * nums[-1] - (n - k + 1) * nums[-2]) // (k + 1))
        binoms.append(binoms[-1] * (n - k) // (k + 1))
    return nums[1:], binoms


def krawtchouk_values(n: int, t: int) -> list[Fraction]:
    """Krawtchouk values K_k(t) / C(n, k) at t for every degree k = 0..n,
    K_k(t) = sum_i (-1)^i C(t,i) C(n-t,k-i), from the integer recurrence."""
    nums, binoms = _krawtchouk_column(n, t, n)
    return [Fraction(a, b) for a, b in zip(nums, binoms)]


def _hahn_column(n: int, s: int, t: int) -> tuple[list[int], int]:
    """L Q_k(t) for k = 0..min(s, n-s), and L = lcm(D_0..D_imax).

    Q_k = 3F2(-k, k-n-1, -t; -s, s-n; 1) is Hahn with alpha = s-n-1,
    beta = -s-1, N = s: -t Q_k = A_k Q_{k+1} - (A_k + C_k) Q_k + C_k Q_{k-1}
    with Q_{-1} = 0, A_k = a / g and C_k = c / g; for 0 <= k < kmax <= n/2
    neither a nor g is 0, and L Q_k(t) is an integer, so divisions are exact."""
    if not (0 <= s <= n):
        raise HypergraphError(f"hahn slice out of range: n={n} s={s}")
    if not (0 <= t <= s):
        raise HypergraphError(f"hahn argument out of range: t={t}")
    kmax = min(s, n - s)
    lcm = math.lcm(*(comb(s, i) * comb(n - s, i) for i in range(min(t, kmax) + 1)))
    nums = [0, lcm]  # starts at L Q_{-1} = 0
    for k in range(kmax):
        g = (2 * k - n - 2) * (2 * k - n - 1) * (2 * k - n)
        a = (k - n - 1) * (k + s - n) * (s - k) * (2 * k - n - 2)
        c = k * (k + s - n - 1) * (k - s - 1) * (2 * k - n)
        nums.append(((a + c - t * g) * nums[-1] - c * nums[-2]) // a)
    return nums[1:], lcm


def hahn_values(n: int, s: int, t: int) -> list[Fraction]:
    """Hahn values at t for the weight-s slice, each normalized to 1 at t = 0:
    for k = 0..min(s, n-s), the sum over i of (-1)^i C(k,i) C(n+1-k,i) C(t,i)
    / D_i, D_i = C(s,i) C(n-s,i), evaluated by `_hahn_column`'s recurrence."""
    nums, lcm = _hahn_column(n, s, t)
    return [Fraction(a, lcm) for a in nums]


def m_k(n: int, s: int) -> tuple[Fraction, int]:
    """Minimum Krawtchouk value at s over all degrees, with the smallest
    attaining degree.

    K_{n-k}(s) = (-1)^s K_k(s) and C(n, n-k) = C(n, k), so for even s the
    column is symmetric and its first minimum lies in k <= n/2: only that
    half is evaluated."""
    if not (0 <= s <= n):
        raise HypergraphError(f"m_k out of range: n={n} s={s}")
    kmax = n // 2 if s % 2 == 0 else n
    nums, binoms = _krawtchouk_column(n, s, kmax)
    best = 0
    for k in range(1, kmax + 1):  # a/b < c/d iff ad < cb, as b, d > 0
        if nums[k] * binoms[best] < nums[best] * binoms[k]:
            best = k
    return Fraction(nums[best], binoms[best]), best


def m_q(n: int, s: int) -> tuple[Fraction, int]:
    """Minimum Hahn value at s/2 over the valid degrees, with the smallest
    attaining degree."""
    if s % 2 != 0 or not (0 <= s <= n):
        raise HypergraphError(f"m_q needs even s in range: n={n} s={s}")
    nums, lcm = _hahn_column(n, s, s // 2)
    best = min(range(len(nums)), key=nums.__getitem__)  # L > 0
    return Fraction(nums[best], lcm), best


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
    mk, mq = m_k(n, s), m_q(n, s)
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
