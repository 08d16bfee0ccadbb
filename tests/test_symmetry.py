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
    group_elements,
    invariant_membership_reduction,
    is_transitive,
    mantel_hypergraph,
    mantel_pair_orbit_matrices,
    mantel_theta,
    pair_orbits,
    symmetric_group_pair_action,
    theta_transitive,
    verify_automorphisms,
    vertex_orbits,
)
from hypertheta.thetabody import theta, theta_membership

S3 = PermGroup(3, ((1, 0, 2), (1, 2, 0)))


class TestGroups:
    def test_rejects_non_bijection(self):
        with pytest.raises(HypergraphError):
            PermGroup(3, ((0, 0, 1),))

    def test_element_closure(self):
        assert len(group_elements(S3)) == 6
        assert len(group_elements(dihedral_group(5))) == 10
        assert len(group_elements(symmetric_group_pair_action(4))) == 24

    def test_cube_group_is_the_whole_automorphism_group(self):
        # the hyperoctahedral group has 2^n n! elements
        for n in range(5):
            assert len(group_elements(cube_group(n))) == 2**n * math.factorial(n)

    def test_vertex_orbits(self):
        assert vertex_orbits(cyclic_group(5)) == [[0, 1, 2, 3, 4]]
        assert vertex_orbits(PermGroup(3, ())) == [[0], [1], [2]]


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
        for hg, group, want in cases:
            assert loop_reference(hg, group) is want
            assert verify_automorphisms(hg, group) is want


class TestPairOrbits:
    def test_complete_graph_action(self):
        orbits = pair_orbits(symmetric_group_pair_action(4))
        assert sorted(len(o) for o in orbits.pair_orbits) == [6, 6, 24]

    def test_trivial_group(self):
        orbits = pair_orbits(PermGroup(3, ()))
        assert len(orbits.pair_orbits) == 9
        assert all(len(o) == 1 for o in orbits.pair_orbits)

    def test_cycle_rotation_orbits(self):
        orbits = pair_orbits(cyclic_group(5))
        assert len(orbits.pair_orbits) == 5

    def test_orbits_partition_pairs(self):
        for group in (cyclic_group(5), symmetric_group_pair_action(4), PermGroup(4, ())):
            orbits = pair_orbits(group)
            seen = [p for orbit in orbits.pair_orbits for p in orbit]
            n = group.degree
            assert sorted(seen) == [(x, y) for x in range(n) for y in range(n)]
            assert sum(len(o) for o in orbits.pair_orbits) == n * n
            flat = [v for orbit in orbits.vertex_orbits for v in orbit]
            assert sorted(flat) == list(range(n))

    def test_orbit_lookup(self):
        orbits = pair_orbits(cyclic_group(5))
        assert orbits.orbit_of(0, 1) == orbits.orbit_of(1, 2)
        assert orbits.orbit_of(0, 1) != orbits.orbit_of(0, 2)


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


class TestOrbitLabels:
    @pytest.mark.parametrize("seed", range(60))
    def test_match_breadth_first_reference(self, seed):
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
        group = PermGroup(n, gens)
        want_vertices = bfs_orbits(range(n), lambda g, x: g[x], group.generators)
        pairs = itertools.product(range(n), repeat=2)
        want_pairs = bfs_orbits(pairs, lambda g, p: (g[p[0]], g[p[1]]), group.generators)
        assert vertex_orbits(group) == want_vertices
        assert is_transitive(group) is (len(want_vertices) <= 1)
        orbits = pair_orbits(group)
        assert orbits.vertex_orbits == tuple(map(tuple, want_vertices))
        assert orbits.pair_orbits == tuple(map(tuple, want_pairs))
        for k, orbit in enumerate(want_pairs):
            assert {orbits.orbit_of(x, y) for x, y in orbit} == {k}

    def test_labels_are_read_only(self):
        with pytest.raises(ValueError):
            pair_orbits(cyclic_group(4)).labels[0, 0] = 3

    def test_degree_zero(self):
        hg = Hypergraph(2, 0, ())
        for group in (PermGroup(0, ()), PermGroup(0, ((),))):
            assert vertex_orbits(group) == []
            assert pair_orbits(group).pair_orbits == ()
            assert is_transitive(group)
            assert verify_automorphisms(hg, group)
            assert theta_transitive(hg, group) == theta(hg).value == 0.0
            assert invariant_membership_reduction(hg, group, [])


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
        orbits = pair_orbits(group)
        builder = tb._Builder()
        blk = builder.block(hg.n)
        builder.add([(blk, 0, 0, 1.0)], 1.0)
        for orbit in orbits.pair_orbits:
            ax, ay = orbit[0]
            for x, y in orbit[1:]:
                if x <= y:
                    builder.add([(blk, x, y, 1.0), (blk, ax, ay, -1.0)], 0.0)
        sub, smap = link(hg, 0)
        child = tb._membership_node(builder, sub, smap)
        builder.add([(child.blk, 0, 0, 1.0), (blk, 0, 0, -1.0)], 0.0)
        for j, v in enumerate(smap):
            builder.add([(child.blk, j + 1, j + 1, 1.0), (blk, 0, v, -1.0)], 0.0)
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
        elements = group_elements(group)
        avg = np.zeros(hg.n)
        for sigma in elements:
            for x in range(hg.n):
                avg[sigma[x]] += f[x]
        avg /= len(elements)
        member, _ = theta_membership(hg, np.clip(avg, 0.0, 1.0) * (1 - 1e-9))
        assert member


class TestInvariantMembership:
    def test_boundary_constant(self):
        hg = cycle_graph(5)
        group = dihedral_group(5)
        c = math.sqrt(5.0) / 5.0
        assert invariant_membership_reduction(hg, group, [c] * 5)

    def test_all_ones_fails_with_edges(self):
        assert not invariant_membership_reduction(
            cycle_graph(5), dihedral_group(5), [1.0] * 5
        )

    def test_zero(self):
        assert invariant_membership_reduction(cycle_graph(5), dihedral_group(5), [0.0] * 5)

    def test_rejects_noninvariant(self):
        with pytest.raises(HypergraphError):
            invariant_membership_reduction(
                cycle_graph(5), dihedral_group(5), [1, 0, 0, 0, 0]
            )


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
            orbits = pair_orbits(group)
            classes = {
                frozenset((k, orbits.orbit_of(y, x)))
                for k, ((x, y), *_) in enumerate(orbits.pair_orbits)
            }
            projectors = _common_eigenspaces(orbits)
            assert projectors is not None
            assert len(projectors) == len(classes)
            assert np.allclose(sum(projectors), np.eye(group.degree), atol=1e-12)
            for e in projectors:
                assert np.allclose(e @ e, e, atol=1e-12)
                for orbit in orbits.pair_orbits:
                    values = [e[x, y] for x, y in orbit] + [e[y, x] for x, y in orbit]
                    assert max(values) - min(values) < 1e-12

    def test_reduced_program_on_mantel_7_and_8(self):
        for n, rows in ((7, 27), (8, 32)):
            problem = _transitive_program(mantel_hypergraph(n), symmetric_group_pair_action(n))
            # three eigenspaces of the Johnson scheme, then the link child
            assert problem.block_dims[:3] == (1, 1, 1)
            assert problem.block_dims[3:] == (2 * (n - 2) + 1,)
            assert len(problem.rhs) == rows

    def test_fallback_on_regular_s3(self):
        group, cayley, triples = s3_regular()
        assert _common_eigenspaces(pair_orbits(group)) is None
        for hg, want in ((cayley, 2.0), (triples, 4.0)):
            assert _transitive_program(hg, group).block_dims[0] == 6
            value = theta_transitive(hg, group)
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
