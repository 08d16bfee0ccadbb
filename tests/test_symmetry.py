import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hypertheta import hamming
from hypertheta.hypercore import (
    Hypergraph,
    HypergraphError,
    alpha,
    complete_hypergraph,
    cycle_graph,
)
from hypertheta.symmetry import (
    PermGroup,
    _common_eigenspaces,
    _transitive_program,
    cube_group,
    cyclic_group,
    dihedral_group,
    mantel_hypergraph,
    mantel_pair_orbit_matrices,
    mantel_theta,
    pair_orbits,
    symmetric_group_pair_action,
    theta_transitive,
    verify_automorphisms,
)
from hypertheta.thetabody import theta, theta_membership

S3 = PermGroup(3, ((1, 0, 2), (1, 2, 0)))


def group_closure(group):
    """Reference list of all group elements, by breadth-first closure over
    the generators."""
    ident = tuple(range(group.degree))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for el in frontier:
            for g in group.generators:
                comp = tuple(g[x] for x in el)
                if comp not in seen:
                    seen.add(comp)
                    nxt.append(comp)
        frontier = nxt
    return sorted(seen)


class TestGroups:
    def test_rejects_non_bijection(self):
        with pytest.raises(HypergraphError):
            PermGroup(3, ((0, 0, 1),))

    def test_rejects_negative_degree(self):
        with pytest.raises(HypergraphError, match="degree -1"):
            PermGroup(-1, ())

    def test_rejects_non_integer_degree(self):
        with pytest.raises(TypeError):
            PermGroup(2.5, ())

    def test_builders_reject_negative_sizes(self):
        for build in (symmetric_group_pair_action, cube_group):
            with pytest.raises(HypergraphError, match="symmetric group on -1 points"):
                build(-1)

    def test_builder_generators_are_pinned(self):
        # the bit flips, then the transposition (0 1) and the cycle i -> i + 1,
        # in this order, acting on pairs or on cube words
        groups = [symmetric_group_pair_action(n) for n in range(8)]
        groups += [cube_group(n) for n in range(7)]
        text = repr([(g.degree, g.generators) for g in groups])
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "5f3442cc99e099c706b1153dc530261037898bdba075d0dc9e8764f6c36f88a2"

    def test_element_closure(self):
        assert len(group_closure(S3)) == 6
        assert len(group_closure(dihedral_group(5))) == 10
        assert len(group_closure(symmetric_group_pair_action(4))) == 24

    def test_cube_group_is_the_whole_automorphism_group(self):
        # the hyperoctahedral group has 2^n n! elements
        for n in range(5):
            assert len(group_closure(cube_group(n))) == 2**n * math.factorial(n)

    def test_pair_action_of_small_symmetric_groups(self):
        for n in (0, 1, 2):
            group = symmetric_group_pair_action(n)
            assert group.degree == math.comb(n, 2)
            assert pair_orbits(group).shape == (group.degree, group.degree)


class TestAutomorphisms:
    def test_triangle_family(self):
        for n in (4, 5, 6):
            assert verify_automorphisms(
                mantel_hypergraph(n), symmetric_group_pair_action(n)
            )

    def test_cycle_rotation(self):
        assert verify_automorphisms(cycle_graph(5), cyclic_group(5))

    def test_cycle_transposition_fails(self):
        swap01 = PermGroup(5, ((1, 0, 2, 3, 4),))
        # the swapped pair breaks edge {1,2} -> {0,2}, a non-edge
        assert not verify_automorphisms(cycle_graph(5), swap01)


    def test_matches_loop_reference(self):
        def loop_reference(hg, group):
            present = hg.edge_set()
            return group.degree == hg.n and all(
                tuple(sorted(g[v] for v in e)) in present
                for g in group.generators
                for e in hg.edges
            )

        def swap(n):
            return (1, 0) + tuple(range(2, n))

        hamming42 = hamming.build_hamming_hypergraph(4, 2)
        s5 = symmetric_group_pair_action(5)
        cases = [
            (mantel_hypergraph(5), s5, True),
            (hamming42, cube_group(4), True),
            # a transposition of two vertices is no automorphism of H(4,2)
            (hamming42, PermGroup(16, (swap(16),)), False),
            (mantel_hypergraph(5), PermGroup(10, s5.generators + (swap(10),)), False),
            (Hypergraph(3, 4, ()), cyclic_group(4), True),
            (cycle_graph(5), PermGroup(5, ()), True),
            (cycle_graph(5), cyclic_group(6), False),
        ]
        # each group constructor on its own hypergraph
        cases += [
            (cycle_graph(n), build(n), True)
            for n in range(3, 9)
            for build in (cyclic_group, dihedral_group)
        ]
        cases += [(mantel_hypergraph(n), symmetric_group_pair_action(n), True) for n in range(3, 7)]
        cases += [(hamming.build_hamming_hypergraph(n, 2), cube_group(n), True) for n in range(3, 6)]
        for hg, group, want in cases:
            assert loop_reference(hg, group) is want
            assert verify_automorphisms(hg, group) is want

        # Seeded random hypergraphs, r = 1 to 4 on n = 0 to 9 vertices, each
        # closed under its first random permutation, which is thus an
        # automorphism; the others mostly are not.
        rng = random.Random(39)
        outcomes = set()
        for _ in range(300):
            r, n = rng.randint(1, 4), rng.randint(0, 9)
            perms = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))]
            edges = set()
            for _ in range(rng.randint(0, 10) if n >= r else 0):
                e = tuple(sorted(rng.sample(range(n), r)))
                while e not in edges:  # the edge's orbit under perms[0]
                    edges.add(e)
                    e = tuple(sorted(perms[0][v] for v in e))
            hg = Hypergraph(r, n, tuple(edges))
            groups = [perms, perms[:1], [], [tuple(range(n))], perms[1:]]
            for gens in groups:
                group = PermGroup(n, gens)
                want = loop_reference(hg, group)
                assert verify_automorphisms(hg, group) is want
                outcomes.add((len(gens) > 0, want))
        assert outcomes == {(False, True), (True, True), (True, False)}


def orbit_sizes(labels):
    return sorted(np.unique(labels, return_counts=True)[1].tolist())


class TestPairOrbits:
    def test_complete_graph_action(self):
        assert orbit_sizes(pair_orbits(symmetric_group_pair_action(4))) == [6, 6, 24]

    def test_trivial_group(self):
        labels = pair_orbits(PermGroup(3, ()))
        assert labels.shape == (3, 3)
        assert labels.ravel().tolist() == list(range(9))

    def test_cycle_rotation_orbits(self):
        assert orbit_sizes(pair_orbits(cyclic_group(5))) == [5] * 5

    def test_orbits_partition_pairs(self):
        # every label is the smallest point x * n + y of its own orbit
        for group in (cyclic_group(5), symmetric_group_pair_action(4), PermGroup(4, ())):
            labels = pair_orbits(group).ravel()
            assert (labels <= np.arange(len(labels))).all()
            assert (labels[labels] == labels).all()
            # and the diagonal labels each vertex by the smallest of its orbit
            vertex = pair_orbits(group).diagonal() // (group.degree + 1)
            assert (vertex <= np.arange(group.degree)).all()
            assert (vertex[vertex] == vertex).all()

    def test_orbit_lookup(self):
        labels = pair_orbits(cyclic_group(5))
        assert labels[0, 1] == labels[1, 2] == 1
        assert labels[0, 1] != labels[0, 2]


def bfs_orbits(points, image, generators):
    """Reference orbits by breadth-first search over the generators' images,
    each sorted, in the order of their smallest point; image(g, p) is the
    image of p under g."""
    seen, orbits = set(), []
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


def _random_group(seed):
    """Degree 0 to 12 and up to three generators, drawn from the seed."""
    rng = random.Random(seed)
    n = rng.randint(0, 12)
    gens = []
    for _ in range(rng.randint(0, 3)):
        # a random permutation of a random subset, so that some groups
        # are intransitive
        moved = rng.sample(range(n), rng.randint(0, n))
        g = list(range(n))
        for x, y in zip(moved, rng.sample(moved, len(moved))):
            g[x] = y
        gens.append(g)
    return PermGroup(n, gens)


# The random groups of 60 seeds, then the package's own groups.
GROUPS = [
    *(pytest.param(_random_group, seed, id=str(seed)) for seed in range(60)),
    *(
        pytest.param(make, n, id=f"{make.__name__}-{n}")
        for make in (cyclic_group, dihedral_group)
        for n in range(1, 10)
    ),
    *(pytest.param(symmetric_group_pair_action, n, id=f"pairs-S{n}") for n in range(2, 7)),
    *(pytest.param(cube_group, n, id=f"cube_group-{n}") for n in range(1, 6)),
]


class TestOrbitLabels:
    @pytest.mark.parametrize("make, arg", GROUPS)
    def test_match_breadth_first_reference(self, make, arg):
        group = make(arg)
        n = group.degree
        want_vertices = bfs_orbits(range(n), lambda g, x: g[x], group.generators)
        pairs = itertools.product(range(n), repeat=2)
        want_pairs = bfs_orbits(pairs, lambda g, p: (g[p[0]], g[p[1]]), group.generators)
        labels = pair_orbits(group)
        assert labels.shape == (n, n)
        for orbit in want_pairs:
            x0, y0 = orbit[0]
            assert all(labels[x, y] == x0 * n + y0 for x, y in orbit)
        smallest = {v: orbit[0] for orbit in want_vertices for v in orbit}
        assert (labels.diagonal() // (n + 1)).tolist() == [smallest[v] for v in range(n)]

    def test_orbit_mean_is_the_group_average(self):
        rng = np.random.default_rng(5)
        groups = [
            symmetric_group_pair_action(4),
            cube_group(3),
            dihedral_group(5),
            # intransitive: orbits {0, 1}, {2, 3, 4} and {5}
            PermGroup(6, ((1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 2, 5))),
        ]
        for group in groups:
            f = rng.random(group.degree)
            elements = group_closure(group)
            want = np.zeros(group.degree)
            for sigma in elements:
                want[list(sigma)] += f
            want /= len(elements)
            orbit = pair_orbits(group).diagonal()
            avg = np.bincount(orbit, f)[orbit] / np.bincount(orbit)[orbit]
            assert np.allclose(avg, want, rtol=0, atol=1e-12)

    def test_labels_are_read_only(self):
        with pytest.raises(ValueError):
            pair_orbits(cyclic_group(4))[0, 0] = 3

    def test_degree_zero(self):
        hg = Hypergraph(2, 0, ())
        for group in (PermGroup(0, ()), PermGroup(0, ((),))):
            assert pair_orbits(group).shape == (0, 0)
            assert verify_automorphisms(hg, group)
            assert theta_transitive(hg, group) == theta(hg).value == 0.0


class TestTransitiveReduction:
    def test_mantel4(self):
        value = theta_transitive(mantel_hypergraph(4), symmetric_group_pair_action(4))
        assert abs(value - 4.0) < 1e-5

    def test_single_edge(self):
        value = theta_transitive(complete_hypergraph(3, 3), S3)
        assert abs(value - 2.0) < 1e-6

    def test_pentagon(self):
        value = theta_transitive(cycle_graph(5), dihedral_group(5))
        assert abs(value - math.sqrt(5.0)) < 1e-6

    def test_agreement_with_generic(self):
        cases = [
            (mantel_hypergraph(4), symmetric_group_pair_action(4)),
            (mantel_hypergraph(5), symmetric_group_pair_action(5)),
            (complete_hypergraph(3, 3), S3),
            (cycle_graph(7), dihedral_group(7)),
        ]
        for hg, group in cases:
            assert abs(theta_transitive(hg, group) - theta(hg).value) < 1e-5

    def test_rejects_intransitive(self):
        with pytest.raises(HypergraphError):
            theta_transitive(cycle_graph(5), PermGroup(5, ()))

    def test_rejects_group_of_other_degree(self):
        for degree in (4, 6):
            with pytest.raises(HypergraphError, match=f"group of degree {degree} on 5 vertices"):
                theta_transitive(cycle_graph(5), cyclic_group(degree))

    def test_rejects_non_automorphism(self):
        with pytest.raises(HypergraphError):
            theta_transitive(cycle_graph(5), PermGroup(5, ((1, 0, 2, 3, 4),)))

    def test_all_rows_lie_in_link_bodies(self):
        # the reduction constrains one row; invariance must cover the rest
        from hypertheta.hypercore import link
        from hypertheta.numlin import solve_sdp
        import hypertheta.thetabody as tb

        hg = mantel_hypergraph(4)
        group = symmetric_group_pair_action(4)
        labels = pair_orbits(group)
        builder = tb._Builder()
        blk = builder.block(hg.n)
        builder.fix([(blk, 0, 0, 1.0)], 1.0)
        for x in range(hg.n):
            for y in range(x, hg.n):
                ax, ay = divmod(int(labels[x, y]), hg.n)
                if (ax, ay) != (x, y):
                    builder.tie((blk, x, y), [(blk, ax, ay, 1.0)])
        sub, smap = link(hg, 0)
        child = tb._membership_node(builder, sub, smap)
        builder.tie((child.blk, 0, 0), [(blk, 0, 0, 1.0)])
        for j, v in enumerate(smap):
            builder.tie((child.blk, j + 1, j + 1), [(blk, 0, v, 1.0)])
        problem = builder.problem({blk: np.full((hg.n, hg.n), 1.0 / hg.n)})
        sol = solve_sdp(problem)
        assert sol.status == "optimal"
        a = np.array(sol.blocks[blk])
        for x in range(hg.n):
            sub, smap = link(hg, x)
            row = [max(float(a[x, v]), 0.0) for v in smap]
            member, _ = theta_membership(sub, row, tol=1e-5)
            assert member

    def test_group_averaging_stays_inside(self):
        hg = mantel_hypergraph(4)
        group = symmetric_group_pair_action(4)
        f = theta(hg).optimizer
        elements = group_closure(group)
        avg = np.zeros(hg.n)
        for sigma in elements:
            for x in range(hg.n):
                avg[sigma[x]] += f[x]
        avg /= len(elements)
        member, _ = theta_membership(hg, np.clip(avg, 0.0, 1.0) * (1 - 1e-9))
        assert member


class TestMantelPipeline:
    def test_exact_values(self):
        for n in range(4, 13):
            value, a, b = mantel_theta(n)
            assert value == Fraction(n * n, 4)
            assert a == Fraction(1, 2)
            assert b == Fraction(n - 2, 2 * (n - 3))

    def test_rejects_small_n(self):
        with pytest.raises(HypergraphError):
            mantel_theta(3)

    def test_floor_matches_alpha(self):
        for n in (4, 5, 6):
            assert math.floor(mantel_theta(n)[0]) == alpha(mantel_hypergraph(n))[0]

    def test_scheme_eigenvalues(self):
        for n in range(4, 9):
            _, a1, a2 = mantel_pair_orbit_matrices(n)
            got1 = {int(round(v)) for v in np.linalg.eigvalsh(a1)}
            got2 = {int(round(v)) for v in np.linalg.eigvalsh(a2)}
            assert got1 == {-2, n - 4, 2 * n - 4}
            assert got2 == {1, -(n - 3), (n - 2) * (n - 3) // 2}
            # exactness of the rounding: residuals are numerically tiny
            for mat, want in ((a1, got1), (a2, got2)):
                vals = np.linalg.eigvalsh(mat)
                assert max(abs(v - round(v)) for v in vals) < 1e-9

    def test_link_value_matches_matching_theta(self):
        # the closed pipeline caps the off-diagonal at link-value / (2(n-2));
        # the link is a perfect matching whose relaxation value is its size
        from hypertheta.hypercore import link

        for n in (4, 5, 6):
            hg = mantel_hypergraph(n)
            sub, _ = link(hg, 0)
            assert abs(theta(sub).value - (n - 2)) < 1e-6


def s3_regular():
    """S_3 acting on its 6 elements by left multiplication, and the Cayley
    graph for {t, c, c^-1} and the 3-uniform hypergraph with edges
    {g, g t, g c}, both built by right multiplication."""
    elements = sorted(itertools.permutations(range(3)))
    index = {g: i for i, g in enumerate(elements)}

    def mul(a, b):
        return tuple(a[b[i]] for i in range(3))

    t, c = (1, 0, 2), (1, 2, 0)
    group = PermGroup(6, [tuple(index[mul(h, g)] for g in elements) for h in (t, c)])
    cayley = {
        tuple(sorted((index[g], index[mul(g, h)]))) for g in elements for h in (t, c, mul(c, c))
    }
    triples = {tuple(sorted(index[x] for x in (g, mul(g, t), mul(g, c)))) for g in elements}
    return group, Hypergraph(2, 6, tuple(sorted(cayley))), Hypergraph(3, 6, tuple(sorted(triples)))


def s5_ordered_pairs():
    """S_5 acting on the 20 ordered pairs of distinct points, and the
    3-uniform hypergraph of directed triangles {(a, b), (b, c), (c, a)}."""
    pairs = list(itertools.permutations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}
    group = PermGroup(
        len(pairs),
        [tuple(index[(g[a], g[b])] for a, b in pairs) for g in ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0))],
    )
    edges = {
        tuple(sorted((index[(a, b)], index[(b, c)], index[(c, a)])))
        for a, b, c in itertools.permutations(range(5), 3)
    }
    return group, Hypergraph(3, len(pairs), tuple(sorted(edges)))


class TestEigenspaceReduction:
    def test_projectors_span_the_invariant_matrices(self):
        groups = [
            symmetric_group_pair_action(5),
            cyclic_group(9),
            dihedral_group(8),
            S3,
            cube_group(4),
        ]
        for group in groups:
            labels = pair_orbits(group)
            # a class joins the orbit of (x, y) with the orbit of (y, x)
            classes = np.minimum(labels, labels.T)
            spaces = _common_eigenspaces(labels)
            assert spaces is not None
            projectors = [q @ q.T for q in spaces]
            assert len(projectors) == len(np.unique(classes))
            assert np.allclose(sum(projectors), np.eye(group.degree), atol=1e-12)
            for e in projectors:
                assert np.allclose(e @ e, e, atol=1e-12)
                for c in np.unique(classes):
                    values = e[classes == c]
                    assert values.max() - values.min() < 1e-12

    def test_reduced_program_on_mantel_7_and_8(self):
        for n, rows in ((7, 27), (8, 32)):
            problem = _transitive_program(mantel_hypergraph(n), symmetric_group_pair_action(n))
            # three eigenspaces of the Johnson scheme, then the link child
            assert problem.block_dims[:3] == (1, 1, 1)
            assert problem.block_dims[3:] == (2 * (n - 2) + 1,)
            assert len(problem.rhs) == rows

    def test_fallback_on_regular_s3(self):
        group, cayley, triples = s3_regular()
        s5, directed = s5_ordered_pairs()
        assert _common_eigenspaces(pair_orbits(group)) is None
        for hg, grp, want in ((cayley, group, 2.0), (triples, group, 4.0), (directed, s5, 40 / 3)):
            assert _transitive_program(hg, grp) is None
            value = theta_transitive(hg, grp)
            assert abs(value - theta(hg).value) < 1e-6
            assert abs(value - want) < 1e-6

    def test_hamming_closed_forms(self):
        for n, s in ((3, 2), (4, 2), (5, 2), (6, 2), (6, 4), (7, 2), (7, 4)):
            value = theta_transitive(hamming.build_hamming_hypergraph(n, s), cube_group(n))
            assert abs(value - float(hamming.theta_hamming(n, s))) < 1e-6, (n, s)

    def test_mantel_closed_forms(self):
        for n in range(4, 10):
            value = theta_transitive(mantel_hypergraph(n), symmetric_group_pair_action(n))
            assert abs(value - float(mantel_theta(n)[0])) < 1e-6, n

    def test_mantel_orbit_matrices_by_intersection(self):
        for n in (4, 5, 6):
            pairs = list(itertools.combinations(range(n), 2))
            want = np.array([[len(set(p) & set(q)) for q in pairs] for p in pairs])
            for common, mat in zip((2, 1, 0), mantel_pair_orbit_matrices(n)):
                assert np.array_equal(mat, (want == common).astype(float))


# Each case is an error with the start of its message.
@pytest.mark.parametrize(
    "call, expected",
    [
        # 3163^2 pairs exceed the cap, refused before the labels are built
        pytest.param(
            lambda: pair_orbits(PermGroup(3163, ())),
            HypergraphError("pair closure would exceed cap"),
            id="pair-closure-cap",
        ),
        pytest.param(
            lambda: theta_transitive(Hypergraph(1, 2, ()), cyclic_group(2)),
            HypergraphError("transitive reduction needs uniformity"),
            id="transitive-r1",
        ),
        pytest.param(
            lambda: mantel_hypergraph(2), HypergraphError("triangle hypergraph needs"), id="mantel-2"
        ),
    ],
)
def test_input_checks(call, expected):
    with pytest.raises(type(expected), match=str(expected)):
        call()
