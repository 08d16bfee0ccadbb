import math
from fractions import Fraction

import numpy as np
import pytest

from hypertheta.hypercore import (
    HypergraphError,
    alpha,
    complete_hypergraph,
    cycle_graph,
)
from hypertheta.symmetry import (
    PermGroup,
    cyclic_group,
    dihedral_group,
    group_elements,
    invariant_membership_reduction,
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


class TestPairOrbits:
    def test_complete_graph_action(self):
        orbits = pair_orbits(symmetric_group_pair_action(4))
        assert sorted(orbits.sizes) == [6, 6, 24]

    def test_trivial_group(self):
        orbits = pair_orbits(PermGroup(3, ()))
        assert len(orbits.pair_orbits) == 9
        assert all(s == 1 for s in orbits.sizes)

    def test_cycle_rotation_orbits(self):
        orbits = pair_orbits(cyclic_group(5))
        assert len(orbits.pair_orbits) == 5

    def test_orbits_partition_pairs(self):
        for group in (cyclic_group(5), symmetric_group_pair_action(4), PermGroup(4, ())):
            orbits = pair_orbits(group)
            seen = [p for orbit in orbits.pair_orbits for p in orbit]
            n = group.degree
            assert sorted(seen) == [(x, y) for x in range(n) for y in range(n)]
            assert sum(orbits.sizes) == n * n
            flat = [v for orbit in orbits.vertex_orbits for v in orbit]
            assert sorted(flat) == list(range(n))

    def test_orbit_lookup(self):
        orbits = pair_orbits(cyclic_group(5))
        assert orbits.orbit_of(0, 1) == orbits.orbit_of(1, 2)
        assert orbits.orbit_of(0, 1) != orbits.orbit_of(0, 2)


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
