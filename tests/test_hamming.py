import itertools
import math
from fractions import Fraction
from math import comb

import pytest

from hypertheta.hamming import (
    HammingInstanceError,
    build_hamming_hypergraph,
    closest_even,
    decay_scan,
    hahn_values,
    krawtchouk_values,
    log_fraction,
    m_k,
    m_q,
    side_for,
    theta_hamming,
    theta_hamming_link,
    theta_hamming_link_lp,
    theta_hamming_lp,
    triangles_exist,
)
from hypertheta.hypercore import HypergraphError, InstanceTooLargeError, alpha
from hypertheta.thetabody import theta


# Literal-sum definitions, one value at a time: the reference the exact
# columns are checked against.
def reference_krawtchouk(n, k, t):
    total = sum(
        (-1) ** i * comb(t, i) * comb(n - t, k - i) for i in range(k + 1)
    )
    return Fraction(total, comb(n, k))


def reference_hahn(n, s, k, t):
    total = Fraction(0)
    for i in range(k + 1):
        term = Fraction(comb(k, i) * comb(n + 1 - k, i) * comb(t, i))
        term /= comb(s, i) * comb(n - s, i)
        total += -term if i % 2 else term
    return total


def reference_minimum(values):
    best, best_k = None, None
    for k, v in enumerate(values):
        if best is None or v < best:
            best, best_k = v, k
    return best, best_k


class TestBuilder:
    def test_small_cube(self):
        hg = build_hamming_hypergraph(3, 2)
        assert hg.n == 8 and hg.m == 8
        # oracle: enumerate all triples directly
        want = {
            trip
            for trip in itertools.combinations(range(8), 3)
            if all(
                bin(a ^ b).count("1") == 2
                for a, b in itertools.combinations(trip, 2)
            )
        }
        assert set(hg.edges) == want
        assert (0b001, 0b010, 0b100) in want
        assert (0b011, 0b101, 0b110) in want

    def test_no_triangles_when_too_small(self):
        with pytest.warns(UserWarning):
            hg = build_hamming_hypergraph(2, 2)
        assert hg.m == 0

    def test_odd_side_has_no_triangles(self):
        with pytest.warns(UserWarning):
            hg = build_hamming_hypergraph(4, 3)
        assert hg.m == 0

    def test_cap(self):
        with pytest.raises(InstanceTooLargeError):
            build_hamming_hypergraph(15, 2)


class TestKrawtchouk:
    def test_normalized_at_zero(self):
        for n in range(1, 9):
            assert krawtchouk_values(n, 0) == [1] * (n + 1)

    def test_small_value(self):
        assert krawtchouk_values(4, 2)[2] == Fraction(-1, 3)

    def test_half_distance_identity(self):
        for n in (8, 12, 16, 20):
            assert krawtchouk_values(n, n // 2)[2] == Fraction(-1, n - 1)

    def test_range_errors(self):
        # one value per degree 0..n; a point outside 0..n is refused
        assert len(krawtchouk_values(4, 0)) == 5
        with pytest.raises(HypergraphError):
            krawtchouk_values(4, 5)

    def test_orthogonality(self):
        for n in range(1, 13):
            columns = [krawtchouk_values(n, t) for t in range(n + 1)]
            for k in range(n + 1):
                for l in range(k + 1, n + 1):
                    total = sum(comb(n, t) * col[k] * col[l] for t, col in enumerate(columns))
                    assert total == 0


class TestHahn:
    def test_degree_zero_and_normalization(self):
        for n in range(2, 9):
            for s in range(1, n):
                assert hahn_values(n, s, 0) == [1] * (min(s, n - s) + 1)
                assert hahn_values(n, s, s)[0] == 1

    def test_degree_one_formula(self):
        for n in range(2, 9):
            for s in range(1, n):
                if min(s, n - s) < 1:
                    continue
                for t in range(s + 1):
                    want = 1 - Fraction(n * t, s * (n - s))
                    assert hahn_values(n, s, t)[1] == want
        assert hahn_values(3, 2, 1)[1] == Fraction(-1, 2)

    def test_clipped_range(self):
        # degrees stop at min(s, n-s) = 2, at every point of the slice
        assert {len(hahn_values(6, 4, t)) for t in range(5)} == {3}

    def test_orthogonality_with_multiplicities(self):
        for n in range(2, 9):
            for s in range(1, n):
                kmax = min(s, n - s)
                columns = [hahn_values(n, s, t) for t in range(kmax + 1)]
                for k in range(kmax + 1):
                    for l in range(k + 1, kmax + 1):
                        total = sum(
                            comb(s, t) * comb(n - s, t) * col[k] * col[l]
                            for t, col in enumerate(columns)
                        )
                        assert total == 0


class TestColumns:
    def test_krawtchouk_column_matches_literal_sum(self):
        for n in range(31):
            for t in range(n + 1):
                want = [reference_krawtchouk(n, k, t) for k in range(n + 1)]
                assert krawtchouk_values(n, t) == want, (n, t)

    def test_hahn_column_matches_literal_sum(self):
        for n in range(1, 31):
            for s in range(n + 1):
                kmax = min(s, n - s)
                for t in range(s + 1):
                    want = [reference_hahn(n, s, k, t) for k in range(kmax + 1)]
                    assert hahn_values(n, s, t) == want, (n, s, t)

    def test_column_range_errors(self):
        with pytest.raises(HypergraphError):
            krawtchouk_values(4, 5)
        with pytest.raises(HypergraphError):
            krawtchouk_values(4, -1)
        with pytest.raises(HypergraphError):
            hahn_values(6, 4, 5)
        with pytest.raises(HypergraphError):
            hahn_values(6, 7, 0)

    # scan points (100, 34), (149, 50), (150, 74) and one slice past the
    # middle, s = 76 > n/2, whose Hahn degrees stop at n - s = 74
    @pytest.mark.parametrize("n, s", [(100, 34), (149, 50), (150, 74), (150, 76)])
    def test_large_columns_match_literal_sum(self, n, s):
        for t in (s // 2, s):
            want = [reference_krawtchouk(n, k, t) for k in range(n + 1)]
            assert krawtchouk_values(n, t) == want, t
            want = [reference_hahn(n, s, k, t) for k in range(min(s, n - s) + 1)]
            assert hahn_values(n, s, t) == want, t

    def test_minima_match_reference_on_the_scan_grid(self):
        for c in (2, 3, 4):
            for n in list(range(20, 150, 10)) + [150]:
                s = side_for(n, c)
                want_k = reference_minimum(
                    [reference_krawtchouk(n, k, s) for k in range(n + 1)]
                )
                want_q = reference_minimum(
                    [reference_hahn(n, s, k, s // 2) for k in range(min(s, n - s) + 1)]
                )
                assert m_k(n, s) == want_k, (n, s)
                assert m_q(n, s) == want_q, (n, s)


class TestMinima:
    def test_small_cube(self):
        assert m_k(3, 2) == (Fraction(-1, 3), 1)

    def test_mid_side(self):
        assert m_k(8, 4) == (Fraction(-1, 7), 2)

    def test_zero_side(self):
        assert m_k(5, 0) == (Fraction(1), 0)
        assert m_q(5, 0) == (Fraction(1), 0)

    def test_hahn_minimum(self):
        assert m_q(3, 2) == (Fraction(-1, 2), 1)
        best, arg = m_q(6, 4)
        assert best == min(hahn_values(6, 4, 2))

    def test_half_distance_argmin_two(self):
        # observed for multiples of 4; checked, not assumed
        for n in (8, 12, 16, 20):
            best, arg = m_k(n, n // 2)
            assert best <= Fraction(-1, n - 1)
            assert arg == 2


class TestClosedForms:
    def test_link_small(self):
        assert theta_hamming_link(3, 2) == 1
        assert theta_hamming_link(4, 2) == 2

    def test_link_below_slice_size(self):
        for (n, s) in ((3, 2), (4, 2), (6, 2), (6, 4), (8, 4), (9, 6)):
            assert theta_hamming_link(n, s) < comb(n, s)

    def test_value_small(self):
        assert theta_hamming(3, 2) == 4
        assert theta_hamming(4, 2) == 8

    def test_invalid_instances_error(self):
        for (n, s) in ((2, 2), (4, 3), (4, 0), (4, 4)):
            with pytest.raises(HammingInstanceError):
                theta_hamming(n, s)

    def test_lp_agreement_exact(self):
        for (n, s) in ((3, 2), (4, 2), (6, 2), (6, 4), (8, 4), (10, 4)):
            lp_value, coeffs, combo = theta_hamming_lp(n, s)
            assert lp_value == theta_hamming(n, s)
            assert theta_hamming_link_lp(n, s) == theta_hamming_link(n, s)
            # the omitted nonnegativity constraint stays slack at the optimum
            assert combo > 0

    def test_generic_sdp_agreement(self):
        for (n, s) in ((3, 2), (4, 2)):
            hg = build_hamming_hypergraph(n, s)
            got = theta(hg).value
            assert abs(got - float(theta_hamming(n, s))) < 1e-5

    def test_link_matches_graph_relaxation(self):
        from hypertheta.hypercore import Hypergraph

        for (n, s) in ((3, 2), (4, 2), (5, 2)):
            words = [frozenset(c) for c in itertools.combinations(range(n), s)]
            edges = [
                (i, j)
                for i, j in itertools.combinations(range(len(words)), 2)
                if len(words[i] ^ words[j]) == s
            ]
            graph = Hypergraph(2, len(words), tuple(edges))
            assert abs(theta(graph).value - float(theta_hamming_link(n, s))) < 1e-6

    def test_bounds_alpha(self):
        for n in (3, 4, 5):
            for s in (2, 4):
                if not triangles_exist(n, s):
                    continue
                hg = build_hamming_hypergraph(n, s)
                assert theta_hamming(n, s) >= alpha(hg, cap=32)[0]


class TestScan:
    def test_rounding_rule(self):
        assert side_for(20, 3) == 6
        assert side_for(30, 3.0) == 10  # a float ratio still divides n
        assert side_for(10, Fraction(5, 2)) == 4
        assert closest_even(Fraction(7)) == 6  # tie rounds down
        assert closest_even(Fraction(22, 3)) == 8
        assert closest_even(Fraction(13)) == 12

    def test_log_fraction_large(self):
        q = Fraction(3**400, 2**500)
        assert abs(log_fraction(q) - (400 * math.log(3) - 500 * math.log(2))) < 1e-9

    def test_rows_ordered_and_valid(self):
        rows = decay_scan(range(20, 31), [2, 3])
        keys = [(r.c, r.n) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            assert triangles_exist(r.n, r.s)
            assert r.s == side_for(r.n, r.c)

    def test_skips_points_without_triangles(self):
        # at n = 1 and 2 the side for c = 2 is 0: no triangle, so no row
        rows = decay_scan([1, 2, 3, 4], [2])
        assert [(r.n, r.s) for r in rows] == [(3, 2), (4, 2)]
        assert rows == decay_scan([3, 4], [2])

    def test_curve_ordering(self):
        rows = decay_scan([40, 60], [2, 3, 4])
        for n in (40, 60):
            at_n = {r.c: r.log_density for r in rows if r.n == n}
            assert at_n[4] < at_n[3] < at_n[2]

    def test_even_ratio_decays_slowly(self):
        # half-dimension sides: density comparable to 1/(n-1), not exponential
        rows = decay_scan([40, 80], [2])
        d40, d80 = rows[0].log_density, rows[1].log_density
        assert d80 < d40
        assert d80 > 2.5 * d40  # far from doubling the exponent


# Each case is an error with the start of its message.
@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(
            lambda: build_hamming_hypergraph(0, 2), HypergraphError("dimension must be"), id="n-zero"
        ),
        pytest.param(lambda: m_k(3, 4), HypergraphError("m_k out of range"), id="m-k-range"),
        pytest.param(lambda: m_q(2, 4), HypergraphError("m_q needs even s in range"), id="m-q-range"),
        pytest.param(lambda: side_for(10, 1), HypergraphError("scan ratio must exceed 1"), id="ratio-1"),
        pytest.param(
            lambda: log_fraction(Fraction(0)), ValueError("log of a nonpositive"), id="log-zero"
        ),
    ],
)
def test_input_checks(call, expected):
    with pytest.raises(type(expected), match=str(expected)):
        call()
