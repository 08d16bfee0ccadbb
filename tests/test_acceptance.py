"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import random
import time
from fractions import Fraction
from math import comb

import pytest

from hypertheta.cli import main
from hypertheta.hamming import (
    build_hamming_hypergraph,
    decay_scan,
    hahn_values,
    krawtchouk_values,
    m_k,
    theta_hamming,
    theta_hamming_lp,
)
from hypertheta.hoffman import hoff, random_weighted_hypergraph, uniform_weighted
from hypertheta.hypercore import (
    alpha,
    chi_star,
    complement,
    complete_hypergraph,
    random_hypergraph,
)
from hypertheta.symmetry import (
    mantel_hypergraph,
    mantel_theta,
    symmetric_group_pair_action,
    theta_transitive,
)
from hypertheta.thetabody import theta, theta_dual, theta_membership

SEED = 42


def report(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_mantel_exact():
    start = time.perf_counter()
    for n in range(4, 13):
        value, a, b = mantel_theta(n)
        assert value == Fraction(n * n, 4), f"n={n} value {value}"
        assert a == Fraction(1, 2)
        assert b == Fraction(n - 2, 2 * (n - 3))
    elapsed = time.perf_counter() - start
    report(1, elapsed < 1.0, f"n=4..12 exact n^2/4 with stated optimizer in {elapsed:.3f}s")


def test_criterion_2_mantel_pipeline_agreement():
    hg = mantel_hypergraph(4)
    generic = theta(hg).value
    reduced = theta_transitive(hg, symmetric_group_pair_action(4))
    ok = abs(generic - 4.0) <= 1e-5 and abs(reduced - generic) <= 1e-5
    report(2, ok, f"generic={generic:.8f} reduced={reduced:.8f} target 4")


def test_criterion_3_hamming_triple_agreement():
    details = []
    ok = True
    for (n, s) in ((3, 2), (4, 2)):
        closed = float(theta_hamming(n, s))
        lp_value = float(theta_hamming_lp(n, s)[0])
        sdp = theta(build_hamming_hypergraph(n, s)).value
        spread = max(closed, lp_value, sdp) - min(closed, lp_value, sdp)
        ok = ok and spread <= 1e-5
        details.append(f"({n},{s}): closed={closed} lp={lp_value} sdp={sdp:.8f}")
    exact32 = theta_hamming(3, 2) == 4
    brute32 = alpha(build_hamming_hypergraph(3, 2))[0] == 4
    ok = ok and exact32 and brute32
    report(3, ok, "; ".join(details) + f"; (3,2) exact 4 with alpha 4")


def test_criterion_4_krawtchouk_identity():
    ok = True
    for n in (8, 12, 16, 20):
        value = krawtchouk_values(n, n // 2)[2]
        ok = ok and value == Fraction(-1, n - 1)
        low, _ = m_k(n, n // 2)
        ok = ok and low <= value
    report(4, ok, "degree-2 value at half distance is -1/(n-1), minimum at most that")


def test_criterion_5_sandwich_suite():
    rng = random.Random(SEED)
    violations = 0
    for _ in range(200):
        n = rng.randint(4, 8)
        hg = random_hypergraph(n, 3, rng.choice((0.3, 0.5)), rng)
        w = [rng.random() for _ in range(n)]
        a = alpha(hg, w)[0]
        t = theta(hg, w).value
        cover = float(chi_star(complement(hg), w)[0])
        if not (a <= t + 1e-6 and t <= 2 * cover + 1e-6):
            violations += 1
    report(5, violations == 0, f"200 instances, {violations} sandwich violations")


def test_criterion_6_hoffman_suite():
    rng = random.Random(SEED)
    violations = 0
    for _ in range(100):
        n = rng.randint(4, 8)
        wh = random_weighted_hypergraph(n, 3, rng.choice((0.3, 0.5)), rng)
        mu1 = [float(v) for v in wh.vertex_measure()]
        a = alpha(wh.hyper, mu1)[0]
        t = theta(wh.hyper, mu1).value
        h = hoff(wh)
        if not (a <= t + 1e-6 and t <= h + 1e-6):
            violations += 1
    single = uniform_weighted(complete_hypergraph(3, 3))
    t_single = theta(single.hyper, [float(v) for v in single.vertex_measure()], tol=1e-11).value
    h_single = hoff(single)
    tight = abs(t_single - 2.0 / 3.0) <= 1e-9 and abs(h_single - 2.0 / 3.0) <= 1e-9
    report(
        6,
        violations == 0 and tight,
        f"100 instances, {violations} violations; single edge theta={t_single!r} hoff={h_single!r}",
    )


def test_criterion_7_antiblocker_counterexample():
    hg = complete_hypergraph(3, 3)
    f = [1.0, 1.0, 0.0]
    g = [1.0, 1.0, 1.0]
    m1, _ = theta_membership(hg, f)
    m2, _ = theta_membership(complement(hg), g)
    probe = sum(a * b for a, b in zip(f, g))
    ok = m1 and m2 and probe == 2.0 and probe > 1.0
    report(7, ok, f"memberships {m1},{m2}; inner product {probe} exceeds 1")


def test_criterion_8_duality_product():
    rng = random.Random(SEED)
    violations = 0
    for _ in range(100):
        n = rng.randint(4, 7)
        hg = random_hypergraph(n, 3, rng.choice((0.3, 0.5)), rng)
        l = [rng.random() for _ in range(n)]
        w = [rng.random() for _ in range(n)]
        lhs = theta(hg, l).value * theta_dual(complement(hg), w).value
        rhs = sum(x * y for x, y in zip(l, w))
        if lhs < rhs - 1e-6:
            violations += 1
    report(8, violations == 0, f"100 instances, {violations} product violations")


def test_criterion_9_negative_weight_invariance():
    rng = random.Random(SEED)
    worst = 0.0
    for _ in range(50):
        n = rng.randint(4, 7)
        hg = random_hypergraph(n, 3, rng.choice((0.3, 0.5)), rng)
        w = [rng.uniform(-1, 1) for _ in range(n)]
        wp = [max(v, 0.0) for v in w]
        worst = max(worst, abs(theta(hg, w).value - theta(hg, wp).value))
    report(9, worst <= 1e-6, f"50 instances, worst deviation {worst:.2e}")


def test_criterion_10_decay_scan(tmp_path):
    out = tmp_path / "scan.csv"
    start = time.perf_counter()
    code = main(["scan-decay", "--c", "2,3,4", "--n", "20:60", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    rows = decay_scan(range(20, 61), [2, 3, 4])
    at60 = {r.c: r.log_density for r in rows if r.n == 60}
    ordering = at60[4] < at60[3] < at60[2]
    # The documented shape: strict decrease while s stays constant, a small
    # bump up at each step of s, and each constant-s run starting below the
    # previous one.  Consecutive rows either share s or sit at a step, so a
    # rise inside a run is exactly a rise away from a step.
    bumps, shape = {}, {}
    for c in (3, 4):
        series = [r for r in rows if r.c == c]
        pairs = list(zip(series, series[1:]))
        steps = {b.n for a, b in pairs if b.s != a.s}
        bumps[c] = [b.n for a, b in pairs if b.log_density >= a.log_density]
        starts = [series[0].log_density] + [
            b.log_density for a, b in pairs if b.n in steps
        ]
        shape[c] = set(bumps[c]) <= steps and all(
            b < a for a, b in zip(starts, starts[1:])
        )
    ok = elapsed < 60.0 and ordering and shape[3] and shape[4]
    report(
        10,
        ok,
        f"{elapsed:.1f}s; curve order c=4 lowest: {ordering}; "
        f"decay within s and across runs c=3: {shape[3]}, c=4: {shape[4]}; "
        f"bumps at n c=3: {bumps[3]}, c=4: {bumps[4]}",
    )


def test_criterion_11_orthogonality():
    ok = True
    for n in range(1, 13):
        columns = [krawtchouk_values(n, t) for t in range(n + 1)]
        for k in range(n + 1):
            for l in range(k + 1, n + 1):
                if sum(comb(n, t) * col[k] * col[l] for t, col in enumerate(columns)) != 0:
                    ok = False
    for n in range(2, 9):
        for s in range(1, n):
            kmax = min(s, n - s)
            columns = [hahn_values(n, s, t) for t in range(kmax + 1)]
            for k in range(kmax + 1):
                for l in range(k + 1, kmax + 1):
                    if sum(
                        comb(s, t) * comb(n - s, t) * col[k] * col[l]
                        for t, col in enumerate(columns)
                    ) != 0:
                        ok = False
    report(11, ok, "exact orthogonality, zero residual in rational arithmetic")
