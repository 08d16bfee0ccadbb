import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hypertheta import hypercore
from hypertheta.hamming import build_hamming_hypergraph
from hypertheta.hypercore import (
    FormatError,
    Hypergraph,
    HypergraphError,
    InstanceTooLargeError,
    NoColoringError,
    UniformityError,
    alpha,
    automorphisms,
    check_weights,
    chi_star,
    complement,
    complete_hypergraph,
    cycle_graph,
    empty_hypergraph,
    enumerate_cliques,
    format_hypergraph,
    in_clique_polytope,
    induced,
    is_independent,
    link,
    maximal_independent_sets,
    parse_hypergraph,
    parse_weights,
    random_hypergraph,
)
from hypertheta.hoffman import parse_weighted_hypergraph
from hypertheta.symmetry import mantel_hypergraph


def brute_alpha(hg, w=None):
    """Oracle: full subset enumeration."""
    w = w or [1] * hg.n
    best = 0
    for k in range(hg.n + 1):
        for s in itertools.combinations(range(hg.n), k):
            if is_independent(hg, s):
                best = max(best, sum(w[v] for v in s))
    return best


def brute_cover_lp(sets, w):
    """Oracle for the fractional cover: enumerate basic solutions of the
    equality-form LP (columns = sets + surplus) in exact arithmetic."""
    n = len(w)
    cols = []
    costs = []
    for s in sets:
        cols.append([Fraction(1) if v in s else Fraction(0) for v in range(n)])
        costs.append(Fraction(1))
    for i in range(n):
        surplus = [Fraction(0)] * n
        surplus[i] = Fraction(-1)
        cols.append(surplus)
        costs.append(Fraction(0))
    best = None
    target = [Fraction(x) for x in w]
    for basis in itertools.combinations(range(len(cols)), n):
        mat = [[cols[j][i] for j in basis] for i in range(n)]
        sol = _solve_exact(mat, target)
        if sol is None or any(v < 0 for v in sol):
            continue
        val = sum(costs[j] * v for j, v in zip(basis, sol))
        if best is None or val < best:
            best = val
    return best


def _solve_exact(mat, rhs):
    n = len(mat)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


class TestConstruction:
    def test_normalizes_edges(self):
        hg = Hypergraph(2, 3, ((2, 0), (0, 2), (1, 0)))
        assert hg.edges == ((0, 1), (0, 2))

    def test_rejects_bad_edges(self):
        with pytest.raises(HypergraphError):
            Hypergraph(2, 3, ((0, 0),))
        with pytest.raises(HypergraphError):
            Hypergraph(2, 3, ((0, 3),))
        with pytest.raises(HypergraphError):
            Hypergraph(0, 3, ())


class TestWeights:
    def test_entries_keep_their_type(self):
        w = [Fraction(1, 3), 10**400, 0.5]
        got = check_weights(empty_hypergraph(2, 3), w)
        assert got == w and [type(v) for v in got] == [Fraction, int, float]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entry_names_its_index(self, bad):
        with pytest.raises(HypergraphError, match="weight 2 is not finite"):
            check_weights(empty_hypergraph(2, 3), [1, 0.5, bad])


class TestLink:
    def test_single_edge(self):
        hg = complete_hypergraph(3, 3)
        sub, vmap = link(hg, 0)
        assert (sub.r, sub.n, sub.edges) == (2, 2, ((0, 1),))
        assert vmap == (1, 2)

    def test_mantel_link_is_matching(self):
        hg = mantel_hypergraph(4)
        x = 3  # the vertex standing for the complete-graph edge {1,2}
        sub, vmap = link(hg, x)
        assert sub.n == 4 and sub.m == 2
        degrees = [sum(v in e for e in sub.edges) for v in range(sub.n)]
        assert degrees == [1, 1, 1, 1]

    def test_isolated_vertex(self):
        hg = Hypergraph(3, 4, ((0, 1, 2),))
        sub, vmap = link(hg, 3)
        assert sub.n == 0 and sub.m == 0 and vmap == ()

    def test_r1_rejected(self):
        with pytest.raises(UniformityError):
            link(Hypergraph(1, 2, ((0,),)), 0)

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(30):
            hg = random_hypergraph(rng.randint(3, 8), 3, 0.4, rng)
            x = rng.randrange(hg.n)
            sub, vmap = link(hg, x)
            back = {tuple(sorted(vmap[v] for v in e)) for e in sub.edges}
            want = {tuple(sorted(set(e) - {x})) for e in hg.edges if x in e}
            assert back == want


class TestComplement:
    def test_complete_to_empty(self):
        assert complement(complete_hypergraph(3, 3)).m == 0

    def test_empty_graph_to_complete(self):
        assert complement(empty_hypergraph(2, 4)) == complete_hypergraph(2, 4)

    def test_involution(self):
        rng = random.Random(7)
        for _ in range(25):
            hg = random_hypergraph(rng.randint(2, 8), rng.randint(2, 3), 0.5, rng)
            assert complement(complement(hg)) == hg


class TestIndependence:
    def test_small_subset(self):
        hg = complete_hypergraph(3, 3)
        assert is_independent(hg, (0, 1))
        assert not is_independent(hg, (0, 1, 2))

    def test_bipartite_subgraph_in_triangle_family(self):
        hg = mantel_hypergraph(4)
        # complete-graph edges crossing the bipartition {0,1} | {2,3}
        crossing = (1, 2, 3, 4)
        for e in hg.edges:  # oracle: scan all triangles directly
            assert not all(v in crossing for v in e)
        assert is_independent(hg, crossing)

    def test_rejects_bad_subset(self):
        with pytest.raises(HypergraphError):
            is_independent(complete_hypergraph(2, 3), (1, 0))


class TestAlpha:
    def test_complete_uniform(self):
        for r in (2, 3, 4):
            hg = complete_hypergraph(r, r)
            value, witness = alpha(hg)
            assert value == r - 1
            assert is_independent(hg, witness)

    def test_mantel4(self):
        hg = mantel_hypergraph(4)
        value, witness = alpha(hg)
        assert value == brute_alpha(hg) == 4
        assert is_independent(hg, witness)

    def test_cap(self):
        with pytest.raises(InstanceTooLargeError):
            alpha(empty_hypergraph(2, 30))

    def test_weighted_matches_enumeration(self):
        rng = random.Random(23)
        for _ in range(25):
            hg = random_hypergraph(rng.randint(3, 7), 3, 0.4, rng)
            w = [rng.uniform(-1, 2) for _ in range(hg.n)]
            got, witness = alpha(hg, w)
            want = max(
                sum(w[v] for v in s)
                for k in range(hg.n + 1)
                for s in itertools.combinations(range(hg.n), k)
                if is_independent(hg, s)
            )
            assert abs(got - want) < 1e-12
            assert is_independent(hg, witness)

    def test_lower_bound_r_minus_one(self):
        rng = random.Random(5)
        for _ in range(20):
            hg = random_hypergraph(rng.randint(2, 8), 3, 0.6, rng)
            if hg.n >= hg.r - 1:
                assert alpha(hg)[0] >= hg.r - 1


class TestCliques:
    def test_complete(self):
        assert enumerate_cliques(complete_hypergraph(3, 4)) == [(0, 1, 2, 3)]

    def test_empty_3uniform(self):
        got = enumerate_cliques(empty_hypergraph(3, 4))
        assert got == sorted(itertools.combinations(range(4), 2))

    def test_cycle(self):
        assert enumerate_cliques(cycle_graph(5)) == sorted(cycle_graph(5).edges)

    def test_duality_with_complement(self):
        rng = random.Random(13)
        for _ in range(25):
            hg = random_hypergraph(rng.randint(3, 8), 3, 0.4, rng)
            assert set(enumerate_cliques(hg)) == set(
                maximal_independent_sets(complement(hg))
            )


    def test_match_brute_force(self):
        # oracle: every subset, filtered to the maximal independent sets or
        # maximal cliques (no strict superset has the same property)
        def maximal(n, good):
            sets = [
                frozenset(s)
                for k in range(n + 1)
                for s in itertools.combinations(range(n), k)
                if good(set(s))
            ]
            return sorted(tuple(sorted(s)) for s in sets if not any(s < t for t in sets))

        rng = random.Random(31)
        for _ in range(60):
            n, r = rng.randint(1, 8), rng.randint(1, 3)
            hg = random_hypergraph(n, r, rng.random(), rng)
            edges = [set(e) for e in hg.edges]
            independent = maximal(n, lambda s: not any(e <= s for e in edges))
            cliques = maximal(
                n, lambda s: all(set(e) in edges for e in itertools.combinations(s, r))
            )
            assert maximal_independent_sets(hg) == independent
            assert enumerate_cliques(hg) == cliques


class TestCliquePolytope:
    def test_independent_indicator(self):
        rng = random.Random(3)
        for _ in range(15):
            hg = random_hypergraph(rng.randint(3, 7), 3, 0.4, rng)
            _, witness = alpha(hg)
            f = [1 if v in witness else 0 for v in range(hg.n)]
            assert in_clique_polytope(hg, f)

    def test_clique_indicator_fails(self):
        hg = complete_hypergraph(3, 3)
        assert not in_clique_polytope(hg, [1, 1, 1])

    def test_constant_boundary(self):
        for r in (2, 3, 4):
            hg = complete_hypergraph(r, r)
            f = [Fraction(r - 1, r)] * r
            assert in_clique_polytope(hg, f)


class TestChiStar:
    def test_empty_hypergraph(self):
        value, parts = chi_star(empty_hypergraph(3, 3))
        assert value == 1
        assert parts == [(Fraction(1), (0, 1, 2))]

    def test_cycle5(self):
        value, parts = chi_star(cycle_graph(5))
        sets = maximal_independent_sets(cycle_graph(5))
        assert value == brute_cover_lp(sets, [1] * 5) == Fraction(5, 2)

    def test_triangle(self):
        value, _ = chi_star(complete_hypergraph(2, 3))
        assert value == 3

    def test_one_uniform_with_edge(self):
        with pytest.raises(NoColoringError):
            chi_star(Hypergraph(1, 2, ((0,),)))

    def test_exact_reconstruction(self):
        rng = random.Random(17)
        for _ in range(15):
            hg = random_hypergraph(rng.randint(3, 7), 3, 0.4, rng)
            w = [Fraction(rng.randint(0, 5), rng.randint(1, 4)) for _ in range(hg.n)]
            value, parts = chi_star(hg, w)
            recon = [Fraction(0)] * hg.n
            for lam, vs in parts:
                assert lam > 0
                assert is_independent(hg, vs)
                for v in vs:
                    recon[v] += lam
            assert recon == w
            assert sum((lam for lam, _ in parts), Fraction(0)) == value

    def test_matches_basis_enumeration(self):
        rng = random.Random(29)
        for _ in range(6):
            hg = random_hypergraph(5, 3, 0.5, rng)
            w = [Fraction(rng.randint(0, 3)) for _ in range(5)]
            value, _ = chi_star(hg, w)
            want = brute_cover_lp(maximal_independent_sets(hg), w)
            assert value == want

    def test_rejects_negative(self):
        with pytest.raises(HypergraphError):
            chi_star(cycle_graph(5), [1, 1, -1, 1, 1])

    def test_zero_weights_enumerate_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated the independent sets")

        monkeypatch.setattr(hypercore, "maximal_independent_sets", refuse)
        for w, kind in (([0, Fraction(0), 0], Fraction), ([0.0, 0, 0.0], float)):
            value, parts = chi_star(complete_hypergraph(2, 3), w)
            assert value == 0 and type(value) is kind
            assert parts == []

    def test_singleton_support_is_tight(self):
        # one positive vertex: a single independent set priced at its weight
        rng = random.Random(41)
        for _ in range(10):
            hg = random_hypergraph(rng.randint(3, 7), 3, 0.5, rng)
            x = rng.randrange(hg.n)
            c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            w = [Fraction(0)] * hg.n
            w[x] = c
            value, parts = chi_star(hg, w)
            assert value == c
            assert all(x in vs for _, vs in parts)


def group_order(n, gens):
    """The order of the group the permutations gens of 0..n-1 generate, by
    closure: breadth-first over products, each element keyed by its images
    at 4 bits per point (n <= 16)."""
    assert n <= 16
    shifts = 4 * np.arange(n, dtype=np.uint64)

    def key(perms):
        return (perms.astype(np.uint64) << shifts).sum(axis=1)

    gens = np.array(gens, dtype=np.intp).reshape(-1, n)
    frontier = np.arange(n)[None]
    seen = key(frontier)  # sorted
    while len(frontier):
        products = gens[:, frontier].reshape(-1, n)
        keys, first = np.unique(key(products), return_index=True)
        fresh = seen[np.searchsorted(seen, keys).clip(max=len(seen) - 1)] != keys
        frontier, seen = products[first[fresh]], np.sort(np.concatenate([seen, keys[fresh]]))
    return len(seen)


def brute_group_order(hg, w):
    """The number of vertex permutations that keep the edges and w."""
    edges = hg.edge_set()
    return sum(
        all(w[p[x]] == w[x] for x in range(hg.n))
        and all(tuple(sorted(p[v] for v in e)) in edges for e in hg.edges)
        for p in itertools.permutations(range(hg.n))
    )


def random_uniform(rng, n, r, density):
    """The benchmark's seeded instances: round(density * C(n, r)) edges."""
    pool = list(itertools.combinations(range(n), r))
    return Hypergraph(r, n, tuple(sorted(rng.sample(pool, max(1, round(density * len(pool)))))))


class TestAutomorphisms:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_mantel_groups_are_symmetric_groups(self, n):
        hg = mantel_hypergraph(n)
        gens = automorphisms(hg)
        assert hypercore._preserves(hg, gens, [1] * hg.n)
        assert group_order(hg.n, gens) == math.factorial(n)

    def test_hamming_4_2_group(self):
        # Two components of 8 words (even and odd weight), each with 384
        # automorphisms, and the swap: 2 * 384^2.
        hg = build_hamming_hypergraph(4, 2)
        assert group_order(hg.n, automorphisms(hg)) == 294_912

    def test_full_group_on_small_weighted_instances(self):
        # Weights from {1, 2} leave some symmetry; the generators found
        # generate every permutation that keeps the edges and the weights.
        rng = random.Random(43)
        orders = []
        for _ in range(30):
            n, r = rng.randint(3, 6), rng.randint(2, 3)
            hg = random_hypergraph(n, r, rng.choice([0.2, 0.5]), rng)
            w = [rng.choice([1, 2]) for _ in range(n)]
            gens = automorphisms(hg, w)
            assert hypercore._preserves(hg, gens, w)
            orders.append(group_order(n, gens))
            assert orders[-1] == brute_group_order(hg, w)
        assert min(orders) == 1 and max(orders) > 2

    def test_batch_instances_at_their_random_weights_have_none(self):
        # The benchmark's batch instances at seed 7, drawn in its order.
        rng = random.Random(7)
        for n, count in {4: 2, 5: 2, 6: 2, 7: 1, 8: 1}.items():
            for _ in range(count):
                hg = random_uniform(rng, n, 3, 0.4)
                w, u = [rng.random() for _ in range(n)], [rng.random() for _ in range(n)]
                assert automorphisms(hg, w) == [] and automorphisms(complement(hg), u) == []

    def test_discrete_refinement_ends_the_search(self, monkeypatch):
        # With every leaf accepted, only a colouring that refinement leaves
        # discrete gives no generator: distinct weights, or an instance
        # whose vertices the refinement tells apart.
        monkeypatch.setattr(hypercore, "_preserves", lambda *args: True)
        assert automorphisms(cycle_graph(4), [1, 2, 3, 4]) == []
        edges = ((0, 1, 2), (0, 2, 3), (0, 2, 5), (0, 3, 4), (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 4, 5), (3, 4, 5))
        assert automorphisms(Hypergraph(3, 6, edges)) == []
        assert automorphisms(cycle_graph(4), [1, 2, 1, 2]) != []

    def test_planted_non_automorphisms_are_rejected(self):
        hg = cycle_graph(6)
        w = [1, 2, 1, 2, 1, 2]
        rotate = (1, 2, 3, 4, 5, 0)  # keeps the edges, not the weights
        assert hypercore._preserves(hg, [rotate]) and not hypercore._preserves(hg, [rotate], w)
        swap = (1, 0, 2, 3, 4, 5)  # keeps the weights of unit weights, not the edges
        assert not hypercore._preserves(hg, [swap], [1] * 6)
        assert hypercore._preserves(hg, [(2, 3, 4, 5, 0, 1)], w)
        assert hypercore._preserves(hg, automorphisms(hg, w), w)
        assert group_order(6, automorphisms(hg, w)) == 6  # rotations by two and reflections

    def test_node_cap_keeps_the_generators_found(self, monkeypatch):
        # Mantel 6's search finds its 5 generators within 20 refinements.
        hg = mantel_hypergraph(6)
        orders = []
        for cap in (1, 8, 12):
            monkeypatch.setattr(hypercore, "_MAX_NODES", cap)
            gens = automorphisms(hg)
            assert hypercore._preserves(hg, gens, [1] * hg.n)
            orders.append(group_order(hg.n, gens))
        assert orders[0] == 1 and orders == sorted(orders) and 1 < orders[-1] < 720


class TestInduced:
    def test_edges_restricted(self):
        hg = Hypergraph(3, 5, ((0, 1, 2), (1, 2, 3), (2, 3, 4)))
        sub, vmap = induced(hg, (1, 2, 3))
        assert vmap == (1, 2, 3)
        assert sub.edges == ((0, 1, 2),)


class TestFiles:
    def test_round_trip(self):
        rng = random.Random(1)
        hg = random_hypergraph(7, 3, 0.5, rng)
        assert parse_hypergraph(format_hypergraph(hg)) == hg

    def test_comments_and_blanks(self):
        text = "# triangle\n\n2 3 3\n0 1\n# middle\n0 2\n1 2\n"
        assert parse_hypergraph(text) == complete_hypergraph(2, 3)

    def test_error_reports_line(self):
        with pytest.raises(FormatError) as err:
            parse_hypergraph("2 3 1\n1 0\n")
        assert err.value.line == 2

    def test_header_count_mismatch(self):
        with pytest.raises(FormatError):
            parse_hypergraph("2 3 2\n0 1\n")

    def test_weights(self):
        vals = parse_weights("1\n1/2\n0.25\n", 3)
        assert vals == [1, Fraction(1, 2), Fraction(1, 4)]
        with pytest.raises(FormatError):
            parse_weights("1\nx\n", 2)
        with pytest.raises(FormatError):
            parse_weights("1\n2\n", 3)


READERS = {
    "hg": parse_hypergraph,
    "whg": parse_weighted_hypergraph,
    "weights": lambda text: parse_weights(text, 3),
}

# (format, text, line the error names or None); one case per error branch.
FORMAT_ERRORS = [
    pytest.param("hg", "2 3\n", 1, id="hg-header-is-not-r-n-m"),
    pytest.param("hg", "2 x 1\n", 1, id="hg-header-entry-not-an-integer"),
    pytest.param("hg", "# no data\n\n", 1, id="hg-no-header-at-all"),
    pytest.param("hg", "2 3 1\n0 1 2\n", 2, id="hg-token-count"),
    pytest.param("hg", "2 3 1\n0 a\n", 2, id="hg-index-not-an-integer"),
    pytest.param("hg", "2 3 1\n1 0\n", 2, id="hg-indices-not-increasing"),
    pytest.param("hg", "3 3 1\n0 1 5\n", 2, id="hg-index-not-below-n"),
    pytest.param("hg", "2 3 1\n-1 1\n", 2, id="hg-negative-index"),
    pytest.param("hg", "2 3 2\n0 1\n", None, id="hg-edge-count-differs-from-m"),
    pytest.param("hg", "2 3 2\n0 1\n0 1\n", 3, id="hg-repeated-edge"),
    pytest.param("hg", "0 3 0\n", None, id="hg-uniformity-below-1"),
    pytest.param("whg", "# weights\n3 4\n", 2, id="whg-header-is-not-r-n-m"),
    pytest.param("whg", "3 4 y\n", 1, id="whg-header-entry-not-an-integer"),
    pytest.param("whg", "\n# no data\n", 1, id="whg-no-header-at-all"),
    pytest.param("whg", "3 4 1\n0 1 2\n", 2, id="whg-weight-missing"),
    pytest.param("whg", "3 4 1\n0 1 b 1\n", 2, id="whg-index-not-an-integer"),
    pytest.param("whg", "3 3 1\n2 1 0 1\n", 2, id="whg-indices-not-increasing"),
    pytest.param("whg", "3 3 1\n0 1 5 1\n", 2, id="whg-index-not-below-n"),
    pytest.param("whg", "3 3 1\n# c\n0 1 2 w\n", 3, id="whg-weight-not-a-number"),
    pytest.param("whg", "3 4 2\n0 1 2 1\n", None, id="whg-edge-count-differs-from-m"),
    pytest.param("whg", "3 3 1\n0 1 2 -1\n", None, id="whg-negative-weight"),
    pytest.param("whg", "3 3 1\n0 1 2 0\n", None, id="whg-no-edge-carries-weight"),
    pytest.param("whg", "3 3 1\n0 1 2 inf\n", 2, id="whg-weight-not-finite"),
    pytest.param("weights", "1\n\n# c\nx\n", 4, id="weights-not-a-number"),
    pytest.param("weights", "1\n1/2 1\n1\n", 2, id="weights-two-tokens-on-a-line"),
    pytest.param("weights", "1\n2\n", None, id="weights-fewer-than-n-lines"),
    pytest.param("weights", "nan\n1\n1\n", 1, id="weights-nan"),
    pytest.param("weights", "1\n# c\ninf\n1\n", 3, id="weights-inf"),
]


@pytest.mark.parametrize("fmt,text,line", FORMAT_ERRORS)
def test_format_errors(fmt, text, line):
    with pytest.raises(FormatError) as err:
        READERS[fmt](text)
    assert err.value.line == line


# Each case is an error, with the start of its message, or the value returned.
@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(lambda: Hypergraph(2, -1), HypergraphError("vertex count"), id="negative-n"),
        pytest.param(
            lambda: check_weights(cycle_graph(3), [1, 1]),
            HypergraphError("weight vector has length 2, expected 3"),
            id="weights-wrong-length",
        ),
        pytest.param(
            lambda: link(cycle_graph(3), 3), HypergraphError("vertex 3 out of range"), id="link-vertex"
        ),
        # C(2001, 2) = 2,001,000 edges, refused before any is listed
        pytest.param(
            lambda: complement(empty_hypergraph(2, 2001)),
            InstanceTooLargeError("complement would have"),
            id="complement-cap",
        ),
        pytest.param(
            lambda: maximal_independent_sets(empty_hypergraph(2, 5), cap=4),
            InstanceTooLargeError("5 vertices exceeds enumeration cap 4"),
            id="maximal-sets-cap",
        ),
        pytest.param(lambda: cycle_graph(2), HypergraphError("cycles need"), id="cycle-2"),
        pytest.param(
            lambda: in_clique_polytope(cycle_graph(3), [1.5, 0, 0]), False, id="clique-polytope-box"
        ),
        # the triangle is one clique, and 0.6 + 0.6 > r - 1 = 1
        pytest.param(
            lambda: in_clique_polytope(cycle_graph(3), [0.6, 0.6, 0]), False, id="clique-inequality"
        ),
    ],
)
def test_input_checks(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=str(expected)):
            call()
    else:
        assert call() == expected
