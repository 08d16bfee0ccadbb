import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hypertheta import thetabody
from hypertheta.numlin import SdpProblem, SdpSolution

from hypertheta.hypercore import (
    Hypergraph,
    HypergraphError,
    UniformityError,
    alpha,
    chi_star,
    complement,
    complete_hypergraph,
    cycle_graph,
    empty_hypergraph,
    is_independent,
    random_hypergraph,
)
from hypertheta.symmetry import mantel_hypergraph
from hypertheta.hamming import build_hamming_hypergraph, theta_hamming
from hypertheta.thetabody import (
    ThetaCertificate,
    ThetaSolverError,
    assemble_theta_sdp,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    theta,
    theta_dual,
    theta_membership,
)

SQRT5 = math.sqrt(5.0)


class TestAssembly:
    def test_pentagon(self):
        problem, root = assemble_theta_sdp(cycle_graph(5))
        assert problem.block_dims[root.blk] == 6

    def test_r1_routed_elsewhere(self):
        with pytest.raises(UniformityError):
            assemble_theta_sdp(Hypergraph(1, 2, ()))


class TestTheta:
    def test_single_edge(self):
        res = theta(complete_hypergraph(3, 3))
        assert abs(res.value - 2.0) < 1e-6
        assert check_certificate(complete_hypergraph(3, 3), res.certificate) == []

    def test_pentagon(self):
        assert abs(theta(cycle_graph(5)).value - SQRT5) < 1e-6

    def test_empty_three_uniform(self):
        assert abs(theta(empty_hypergraph(3, 4)).value - 4.0) < 1e-6

    def test_mantel4(self):
        assert abs(theta(mantel_hypergraph(4)).value - 4.0) < 1e-5

    def test_hamming32_matches_closed_form_and_alpha(self):
        hg = build_hamming_hypergraph(3, 2)
        res = theta(hg)
        assert abs(res.value - float(theta_hamming(3, 2))) < 1e-5
        assert abs(res.value - 4.0) < 1e-5
        assert alpha(hg)[0] == 4

    def test_negative_weights_match_positive_part(self):
        rng = random.Random(101)
        for _ in range(10):
            hg = random_hypergraph(rng.randint(4, 7), 3, 0.4, rng)
            w = [rng.uniform(-1, 1) for _ in range(hg.n)]
            wp = [max(v, 0.0) for v in w]
            assert abs(theta(hg, w).value - theta(hg, wp).value) < 1e-6

    def test_value_is_homogeneous_at_small_weights(self):
        rng = random.Random(29)
        cases = [(cycle_graph(5), [1.0] * 5)]
        hg = random_hypergraph(7, 3, 0.4, rng)
        cases.append((hg, [rng.uniform(0.1, 1.0) for _ in range(hg.n)]))
        for hg, w in cases:
            res = theta(hg, w)
            small = theta(hg, [1e-6 * v for v in w])
            assert abs(small.value - 1e-6 * res.value) <= 1e-7 * 1e-6 * res.value
            assert abs(small.diagnostics["dual"] - small.value) <= 1e-6 * small.value
            assert check_certificate(hg, small.certificate) == []

    def test_base_case_exact(self):
        hg = Hypergraph(1, 3, ((1,),))
        res = theta(hg, [2.0, 5.0, -1.0])
        assert res.value == 2.0
        assert list(res.optimizer) == [1.0, 0.0, 0.0]

    def test_base_case_witness_passes_audit(self):
        hg = Hypergraph(1, 3, ((0,),))
        res = theta(hg, [1, 1, 1])
        assert check_certificate(hg, res.certificate) == []
        assert list(res.certificate.vector) == list(res.optimizer)

    def test_solver_failure_raises_with_solution(self, monkeypatch):
        failed = SdpSolution(status="numerical-failure", iterations=7)
        monkeypatch.setattr(thetabody, "solve_sdp", lambda problem, tol: failed)
        with pytest.raises(ThetaSolverError) as err:
            theta(cycle_graph(5))
        assert err.value.solution is failed
        assert "(residuals {})" in str(err.value)

    def test_residuals_are_read_only(self):
        res = theta(cycle_graph(5))
        residuals = res.diagnostics["residuals"]
        sol = thetabody.solve_sdp(assemble_theta_sdp(cycle_graph(5), [1.0] * 5)[0], tol=1e-8)
        for mapping in (residuals, sol.residuals):
            with pytest.raises(TypeError):
                mapping["rel_gap"] = 5.0
        assert residuals["rel_gap"] <= 1e-8 and sol.residuals["rel_gap"] <= 1e-8

    @pytest.mark.parametrize(
        "make", [lambda: mantel_hypergraph(6), lambda: build_hamming_hypergraph(4, 2)],
        ids=["mantel6", "hamming4-2"],
    )
    def test_corrector_keeps_iterations_low(self, make):
        # The centering direction alone took 23 and 24 iterations here.
        res = theta(make())
        assert res.diagnostics["iterations"] <= 16

    def test_optimizer_in_unit_box(self):
        res = theta(mantel_hypergraph(4))
        assert np.all(res.optimizer >= -1e-7)
        assert np.all(res.optimizer <= 1 + 1e-7)
        assert abs(res.value - float(np.sum(res.optimizer))) < 1e-6


def _seeded(n, r, seed):
    rng = random.Random(seed)
    hg = random_hypergraph(n, r, 0.4, rng)
    return hg, [rng.uniform(0.1, 1.0) for _ in range(n)]


# The 4-uniform instance whose gauge at tol 1e-10 failed in the row form
# after 93 iterations: rel_gap reached 3.8e-12, the primal residual stuck at
# 4.2e-9 (one BLAS thread).
GAUGE_EDGES = (
    (0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 5), (0, 1, 4, 5), (0, 1, 4, 6),
    (0, 2, 3, 4), (0, 2, 3, 6), (0, 2, 4, 5), (0, 3, 4, 6), (1, 2, 4, 5),
    (1, 3, 4, 5), (2, 3, 4, 5), (2, 3, 5, 6),
)
GAUGE_W = [
    0.7297817851275551, 0.23863048034949097, 0.5693242962913632,
    0.5461494964415429, 0.06358707368633432, 0.9150913302925826,
    0.168534665624283,
]


class TestForms:
    """The free form (ties eliminated) against the row form it replaces."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: (cycle_graph(5), None),
            lambda: (build_hamming_hypergraph(4, 2), None),
            lambda: _seeded(8, 3, 1),
            lambda: _seeded(8, 3, 2),
            lambda: _seeded(6, 4, 1),
            lambda: _seeded(6, 4, 3),
        ],
        ids=["c5", "hamming4-2", "random3-1", "random3-2", "random4-1", "random4-3"],
    )
    def test_free_witness_meets_every_row(self, make):
        hg, w = make()
        problem, _ = assemble_theta_sdp(hg, w)
        # At tol 1e-8 the row form's C5 value lies 3.4e-7 above sqrt(5).
        sol, form = thetabody._solved_free(problem, 1e-10, "theta")
        assert form["form"] == "free" and 0 < form["rows"] < problem.num_constraints
        row, blk, i, j = problem.index.T
        x = np.array([sol.blocks[b][p, q] for b, p, q in zip(blk, i, j)])
        lhs = np.bincount(row, problem.coef * x, problem.num_constraints)
        scale = 1.0 + max(np.abs(b).max() for b in sol.blocks)
        assert np.abs(lhs - problem.rhs).max() <= 1e-12 * scale
        # X(y) is the dual slack of the reduced program: psd up to its dual
        # residual (-2.8e-8 on C5), where the row form's X is psd and meets
        # the rows up to the primal residual.
        assert min(np.linalg.eigvalsh(b).min() for b in sol.blocks) >= -1e-6
        assert abs(sol.primal - thetabody.solve_sdp(problem, tol=1e-10).primal) <= 1e-7
        assert sol.primal <= sol.dual + 1e-7
        res = theta(hg, w)
        assert (res.diagnostics["form"], res.diagnostics["rows"]) == ("free", form["rows"])
        assert check_certificate(hg, res.certificate) == []

    @pytest.mark.parametrize(
        "n, rows, classes", [(5, 171, 175), (6, 331, 480)], ids=["mantel5", "mantel6"]
    )
    def test_mantel_takes_the_free_form_with_more_rows(self, n, rows, classes):
        # more classes than rows, yet free: the solver factors them along
        # the block tree
        hg = mantel_hypergraph(n)
        problem, _ = assemble_theta_sdp(hg)
        assert problem.num_constraints == rows
        res = theta(hg)
        assert (res.diagnostics["form"], res.diagnostics["rows"]) == ("free", classes)
        assert abs(res.value - thetabody.solve_sdp(problem).primal) <= 1e-7
        assert check_certificate(hg, res.certificate) == []

    @pytest.mark.parametrize(
        "hg, rows, border",
        [
            (cycle_graph(8), 17, 28),
            # a fan: the root's link is a matching, every other link one edge
            (Hypergraph(3, 25, tuple((0, 2 * i + 1, 2 * i + 2) for i in range(12))), 231, 325),
        ],
        ids=["c8", "fan12"],
    )
    def test_a_larger_border_keeps_the_row_form(self, hg, rows, border, monkeypatch):
        # The free form would factor more classes as one dense block than
        # the row form has rows: all 28 classes of the 8-cycle's one block,
        # and 325 of the fan's 589 classes.
        problem, _ = assemble_theta_sdp(hg)
        assert problem.num_constraints == rows
        monkeypatch.setattr(thetabody, "border_rows", lambda *args: 0)
        free = thetabody._free_form(problem)[0]
        monkeypatch.undo()
        row, blk = free.index[:, 0], free.index[:, 1]
        assert thetabody.border_rows(row, blk, free.num_constraints, len(free.block_dims)) == border
        assert thetabody._free_form(problem) is None
        res = theta(hg)
        assert (res.diagnostics["form"], res.diagnostics["rows"]) == ("rows", rows)
        assert check_certificate(hg, res.certificate) == []

    def test_assembled_programs_run_no_presolve_qr(self, monkeypatch):
        # Free-form rows share no entry, so the presolve decides each by its
        # norm and never stacks the rows for the QR.
        from hypertheta.numlin import sdp

        calls = []
        presolve = sdp._presolve
        monkeypatch.setattr(sdp, "_presolve", lambda *args: calls.append(1) or presolve(*args))
        for hg in (mantel_hypergraph(5), mantel_hypergraph(6), build_hamming_hypergraph(4, 2)):
            assert theta(hg).diagnostics["form"] == "free"
        hg = mantel_hypergraph(5)
        assert theta_membership(hg, [0.5] * hg.n)[0]
        assert calls == []

    def test_assembled_ties_form_a_forest(self, monkeypatch):
        # Every row of an assembled program fixes an entry or ties it to one
        # further up the recursion, so the rows are independent: with no
        # border limit, the free form keeps one row per upper-triangle entry
        # that no row determines.
        class Captured(Exception):
            pass

        programs = []

        def capture(problem):
            programs.append(problem)
            raise Captured

        free_form = thetabody._free_form
        monkeypatch.setattr(thetabody, "_free_form", capture)
        fan = Hypergraph(3, 25, tuple((0, 2 * i + 1, 2 * i + 2) for i in range(12)))
        unweighted = [cycle_graph(5), cycle_graph(8), fan, mantel_hypergraph(5)]
        unweighted.append(build_hamming_hypergraph(4, 2))
        cases = [(hg, [1.0] * hg.n) for hg in unweighted] + [_seeded(8, 3, 1), _seeded(6, 4, 1)]
        for hg, w in cases:
            for run in (theta, theta_dual, lambda hg, w: theta_membership(hg, [0.5] * hg.n)):
                with pytest.raises(Captured):
                    run(hg, w)
        assert len(programs) == 3 * len(cases)
        # The gauge programs are built on theta's root node: the same blocks.
        for (hg, _), (_, dual, member) in zip(cases, zip(*[iter(programs)] * 3)):
            assert dual.block_dims == assemble_theta_sdp(complement(hg))[0].block_dims
            assert member.block_dims == assemble_theta_sdp(hg)[0].block_dims
        for problem in programs:
            # every tie sets two entries equal: coefficients c and -c
            terms = [[] for _ in range(problem.num_constraints)]
            for row, coef in zip(problem.index[:, 0], problem.coef):
                terms[row].append(coef)
            assert all(len(c) == 1 or (len(c) == 2 and c[0] == -c[1]) for c in terms)
        monkeypatch.setattr(thetabody, "border_rows", lambda *args: 0)
        for problem in programs:
            entries = sum(d * (d + 1) // 2 for d in problem.block_dims)
            reduced = free_form(problem)[0]
            assert reduced.num_constraints == entries - problem.num_constraints

    def test_other_row_shapes_keep_the_row_form(self):
        one = np.array([[1.0]])
        for rows in (
            [([(0, 0, 0, 1.0), (0, 1, 1, 1.0)], 1.0)],  # a tie with a right-hand side
            [([(0, 0, 0, 1.0), (0, 1, 1, 1.0), (0, 0, 1, 1.0)], 0.0)],  # three terms
            # fixed twice; unnoticed, that leaves 1 free class against 3 rows
            [
                ([(0, 0, 0, 1.0)], 1.0),
                ([(0, 0, 0, 2.0)], 2.0),
                ([(0, 1, 1, 1.0), (0, 0, 1, -1.0)], 0.0),
            ],
            # two ties that close a cycle; unnoticed, that leaves 2 free
            # classes against 3 rows
            [
                ([(0, 0, 0, 1.0), (0, 1, 1, -1.0)], 0.0),
                ([(0, 1, 1, 1.0), (0, 0, 0, -1.0)], 0.0),
                ([(0, 1, 1, 1.0)], 1.0),
            ],
            # (0, 0) is the dependent entry of two ties; keeping one of them
            # leaves 1 free class against 3 rows
            [
                ([(0, 0, 0, 1.0), (0, 1, 1, -1.0)], 0.0),
                ([(0, 0, 0, 1.0), (0, 0, 1, -1.0)], 0.0),
                ([(0, 1, 1, 1.0)], 1.0),
            ],
            # a tie whose coefficients do not cancel, X00 = 2 X11; read as
            # X00 = X11 it would give X00 = 1 where the program has X00 = 2
            [([(0, 0, 0, 1.0), (0, 1, 1, -2.0)], 0.0), ([(0, 1, 1, 1.0)], 1.0)],
        ):
            problem = SdpProblem([2], [np.eye(2)], rows)
            assert thetabody._free_form(problem) is None
        # no free class: the row form, and the solve settles the point
        problem = SdpProblem([1], [one], [([(0, 0, 0, 1.0)], 1.0)])
        assert thetabody._free_form(problem) is None

    def test_hamming_5_2_at_tol_1e_11(self):
        # the row form ended numerical-failure after 300 iterations here
        res = theta(build_hamming_hypergraph(5, 2), tol=1e-11)
        assert res.diagnostics["form"] == "free"
        assert abs(res.value - 12.0) <= 1e-10

    def test_gauge_at_tol_1e_10(self):
        hg = Hypergraph(4, 7, GAUGE_EDGES)
        res = theta_dual(hg, GAUGE_W, tol=1e-10)
        assert res.diagnostics["form"] == "free"
        assert res.diagnostics["rows"] > 0
        assert abs(res.value - 0.92011563608) <= 1e-9
        assert check_certificate(complement(hg), res.certificate, root_scale=res.value) == []


class TestMembership:
    def test_independent_indicator(self):
        rng = random.Random(55)
        for _ in range(10):
            hg = random_hypergraph(rng.randint(4, 7), 3, 0.4, rng)
            _, witness = alpha(hg)
            f = [1.0 if v in witness else 0.0 for v in range(hg.n)]
            member, cert = theta_membership(hg, f)
            assert member
            assert check_certificate(hg, cert, tol=1e-5) == []

    def test_full_clique_indicator_rejected(self):
        hg = complete_hypergraph(3, 3)
        member, _ = theta_membership(hg, [1.0, 1.0, 1.0])
        assert not member

    def test_zero_vector(self):
        member, cert = theta_membership(complete_hypergraph(3, 3), [0, 0, 0])
        assert member and cert is not None

    def test_zero_vector_witness_passes_audit(self):
        for hg in (complete_hypergraph(3, 4), mantel_hypergraph(4)):
            member, cert = theta_membership(hg, [0] * hg.n)
            assert member and cert.vertex_map == ()
            assert check_certificate(hg, cert) == []

    def test_base_case_witness_passes_audit(self):
        hg = Hypergraph(1, 3, ((0,),))
        member, cert = theta_membership(hg, [0, 0.5, 1])
        assert member
        assert check_certificate(hg, cert) == []
        assert list(cert.vector) == [0.5, 1.0]

    def test_negative_entry_rejected(self):
        member, _ = theta_membership(cycle_graph(5), [0.1, -0.2, 0, 0, 0])
        assert not member

    def test_early_rejections_need_no_solve(self, monkeypatch):
        def no_solve(problem, tol):
            raise AssertionError("rejected before any solve")

        monkeypatch.setattr(thetabody, "solve_sdp", no_solve)
        # an entry above 1 + tol, then positive f on a blocked vertex
        assert theta_membership(cycle_graph(5), [1.2, 0, 0, 0, 0]) == (False, None)
        hg = Hypergraph(1, 3, ((0,),))
        assert theta_membership(hg, [0.5, 0.5, 0]) == (False, None)

    def test_interior_and_exterior_probes(self):
        hg = cycle_graph(5)
        inner = [SQRT5 / 5 * 0.98] * 5
        outer = [SQRT5 / 5 * 1.02] * 5
        assert theta_membership(hg, inner)[0]
        assert not theta_membership(hg, outer)[0]
        # the witness is for inner itself, not for t* times inner
        _, cert = theta_membership(hg, inner)
        diag = np.zeros(hg.n)
        diag[list(cert.vertex_map)] = cert.vector
        assert np.abs(diag - np.array(inner)).max() < 1e-7
        assert check_certificate(hg, cert) == []

    def test_integer_points_are_independent_sets(self):
        rng = random.Random(77)
        for _ in range(10):
            hg = random_hypergraph(rng.randint(4, 6), 3, 0.5, rng)
            f = [float(rng.random() < 0.5) for _ in range(hg.n)]
            member, _ = theta_membership(hg, f)
            support = [v for v in range(hg.n) if f[v] > 0]
            assert member == is_independent(hg, support)

    def test_antiblocking_downward_closure(self):
        rng = random.Random(88)
        for _ in range(8):
            hg = random_hypergraph(rng.randint(4, 6), 3, 0.4, rng)
            _, witness = alpha(hg)
            f = [1.0 if v in witness else 0.0 for v in range(hg.n)]
            g = [v * rng.random() for v in f]
            assert theta_membership(hg, g)[0]


def _membership_points():
    """160 seeded points: 40 random hypergraphs (4 to 8 vertices, 2- to
    4-uniform), each with one random vector scaled by 1/n, 0.5, 0.9 and 1."""
    points = []
    for seed in range(40):
        rng = random.Random(seed)
        n, r = rng.randint(4, 8), rng.randint(2, 4)
        hg = random_hypergraph(n, r, 0.4, rng)
        base = [rng.random() for _ in range(n)]
        points += [(hg, [s * v for v in base]) for s in (1.0 / n, 0.5, 0.9, 1.0)]
    return points


class TestEarlyAccept:
    """theta_membership stops at the first iterate whose free-form witness
    proves lam* <= 1; everything else runs the gauge to tol."""

    @staticmethod
    def record_solves(monkeypatch):
        """The status and iterations of every solve thetabody makes from here on."""
        solved = []
        solve_sdp = thetabody.solve_sdp

        def spy(problem, tol, **hook):
            sol = solve_sdp(problem, tol, **hook)
            solved.append((sol.status, sol.iterations))
            return sol

        monkeypatch.setattr(thetabody, "solve_sdp", spy)
        return solved

    @staticmethod
    def run_to_tol(monkeypatch):
        """theta_membership with every gauge run to tol: the reference verdicts."""
        gauge = thetabody._gauge
        monkeypatch.setattr(thetabody, "_gauge", lambda *args, decide=False: gauge(*args))

    def test_verdicts_match_the_gauge_run_to_tol(self, monkeypatch):
        points = _membership_points()
        solved = self.record_solves(monkeypatch)
        early = [theta_membership(hg, f) for hg, f in points]
        accepted = [status for status, _ in solved].count("accepted")
        for (hg, _), (member, cert) in zip(points, early):
            if member:
                assert check_certificate(hg, cert, tol=1e-9) == []
        self.run_to_tol(monkeypatch)
        del solved[:]
        assert [m for m, _ in early] == [theta_membership(hg, f)[0] for hg, f in points]
        assert "accepted" not in {status for status, _ in solved}
        # both verdicts occur, and most members are decided early
        assert sum(m for m, _ in early) == 115
        assert accepted > 100

    @pytest.mark.parametrize("n, edge", [(4, 2 / 3), (5, 5 / 8)])
    def test_constant_points_beside_the_boundary(self, n, edge):
        # Mantel n on its C(n, 2) vertices has theta = n^2 / 4, so the gauge of
        # the constant vector c is lam* = C(n, 2) c / theta, 1 at c = edge.
        hg = mantel_hypergraph(n)
        member, cert = theta_membership(hg, [edge * (1 - 1e-6)] * hg.n)
        assert member and check_certificate(hg, cert, tol=1e-9) == []
        assert theta_membership(hg, [edge * (1 + 1e-6)] * hg.n) == (False, None)

    def test_witness_is_the_point_itself(self, monkeypatch):
        solved = self.record_solves(monkeypatch)
        hg = mantel_hypergraph(5)
        member, cert = theta_membership(hg, [0.5] * hg.n)
        assert solved[0][0] == "accepted" and member
        assert cert.scale == 1.0 and list(cert.vector) == [0.5] * hg.n
        assert check_certificate(hg, cert, tol=1e-9) == []

    def test_early_accept_takes_fewer_iterations(self, monkeypatch):
        solved = self.record_solves(monkeypatch)
        hg = mantel_hypergraph(5)
        theta_membership(hg, [0.5] * hg.n)
        thetabody._gauge(hg, [0.5] * hg.n, tuple(range(hg.n)), 1e-9, "gauge")
        (early, iterations), (to_tol, full) = solved
        assert (early, to_tol) == ("accepted", "optimal")
        assert iterations < full

    def test_row_form_runs_to_tol(self, monkeypatch):
        # the 12-cycle's gauge keeps the row form, whose blocks meet their
        # rows only to the residual
        solved = self.record_solves(monkeypatch)
        assert theta_membership(cycle_graph(12), [0.3] * 12)[0]
        assert solved[0][0] == "optimal"


class TestDual:
    def test_single_vertex_weight(self):
        res = theta_dual(complete_hypergraph(3, 3), [1, 0, 0])
        assert abs(res.value - 1.0) < 1e-6

    def test_pentagon_self_polar(self):
        res = theta_dual(cycle_graph(5), [1] * 5)
        assert abs(res.value - SQRT5) < 1e-6
        for c in (1e-6, 1e6):  # the gauge is homogeneous at any weight scale
            assert abs(theta_dual(cycle_graph(5), [c] * 5).value / c - SQRT5) < 1e-6
        # TH(G) antiblocks TH(G-bar) (Groetschel, Lovasz and Schrijver), so on
        # graphs the gauge of the complement body is the support value theta
        rng = random.Random(40)
        for n in range(4, 9):
            g = random_hypergraph(n, 2, rng.choice((0.3, 0.5)), rng)
            w = [rng.uniform(0.1, 1.0) for _ in range(n)]
            assert abs(theta_dual(g, w).value - theta(g, w).value) < 1e-6

    def test_zero_weight(self):
        res = theta_dual(cycle_graph(5), [0] * 5)
        assert res.value == 0.0

    def test_monotone_in_weights(self):
        rng = random.Random(61)
        for _ in range(8):
            hg = random_hypergraph(rng.randint(4, 6), 3, 0.4, rng)
            w = [rng.random() for _ in range(hg.n)]
            wsmall = [v * rng.random() for v in w]
            assert (
                theta_dual(hg, wsmall).value
                <= theta_dual(hg, w).value + 1e-6
            )

    def test_rejects_negative_weights(self):
        with pytest.raises(HypergraphError):
            theta_dual(cycle_graph(5), [1, 1, -1, 1, 1])

    def test_rejects_r1(self):
        with pytest.raises(UniformityError):
            theta_dual(Hypergraph(1, 2, ()), [1, 1])

    def test_diag_matches_weights(self):
        hg = mantel_hypergraph(4)
        w = [0.5, 1.0, 0.25, 0.0, 1.5, 0.75]
        res = theta_dual(hg, w)
        diag = np.zeros(hg.n)  # w is zero off the certificate's support
        diag[list(res.certificate.vertex_map)] = res.certificate.vector
        assert np.abs(diag - np.array(w)).max() < 1e-6

    def test_sandwich(self):
        rng = random.Random(21)
        for _ in range(10):
            hg = random_hypergraph(rng.randint(4, 7), 3, 0.4, rng)
            w = [rng.random() for _ in range(hg.n)]
            v = theta_dual(hg, w).value
            lo = alpha(hg, w)[0] / (hg.r - 1)
            hi = float(chi_star(complement(hg), w)[0])
            assert lo - 1e-6 <= v <= hi + 1e-6


    def test_witness_passes_audit_on_complement(self):
        rng = random.Random(8)
        cases = [(cycle_graph(5), [1.0] * 5), (cycle_graph(5), [1.0, 0, 0.5, 1, 0.3])]
        cases.append((cycle_graph(5), [0.0] * 5))  # the empty-support witness
        for _ in range(5):
            hg = random_hypergraph(7, 3, 0.4, rng)
            w = [rng.uniform(0.2, 1.0) if rng.random() < 0.8 else 0.0 for _ in range(7)]
            cases.append((hg, w))
        for hg, w in cases:
            res = theta_dual(hg, w)
            assert check_certificate(complement(hg), res.certificate, root_scale=res.value) == []

    def test_gauge_of_complement_body(self):
        # lam = min{t : w in t * body(complement)}: w / lam sits on its boundary
        rng = random.Random(34)
        cases = [(cycle_graph(5), [1.0] * 5)]
        cases.append((cycle_graph(7), [rng.uniform(0.2, 1.0) for _ in range(7)]))
        for _ in range(3):
            hg = random_hypergraph(rng.randint(5, 7), 3, 0.4, rng)
            cases.append((hg, [rng.uniform(0.2, 1.0) for _ in range(hg.n)]))
        for hg, w in cases:
            lam = theta_dual(hg, w).value
            cbar = complement(hg)
            assert theta_membership(cbar, [v / (lam * (1 + 1e-4)) for v in w])[0]
            assert not theta_membership(cbar, [v / (lam * (1 - 1e-4)) for v in w])[0]

    @pytest.mark.parametrize(
        "hg, gauge",
        [
            (mantel_hypergraph(4), 1.5),
            (mantel_hypergraph(5), 1.6),
            (mantel_hypergraph(6), 5.0 / 3.0),
            (complete_hypergraph(3, 3), 1.5),
            (cycle_graph(5), SQRT5),
        ],
        ids=["mantel4", "mantel5", "mantel6", "k3_3", "c5"],
    )
    def test_gauge_of_vertex_transitive_instances_at_tight_tolerance(self, hg, gauge):
        # On a vertex-transitive H the all-ones vector leaves the body at
        # theta(H) / n along its own direction, so its gauge is n / theta(H).
        for tol in (1e-8, 1e-9, 1e-10, 1e-11):
            res = theta_dual(complement(hg), [1] * hg.n, tol=tol)
            assert abs(res.value - gauge) <= 100 * tol
            assert res.diagnostics["iterations"] <= 25
        assert theta_membership(hg, [(1 - 1e-5) / gauge] * hg.n)[0]
        assert not theta_membership(hg, [(1 + 1e-5) / gauge] * hg.n)[0]


class TestNonFiniteWeights:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: theta_membership(cycle_graph(5), [math.nan] * 5),
            lambda: theta_dual(cycle_graph(5), [math.nan, 1, 1, 1, 1]),
            lambda: theta(Hypergraph(1, 3, ()), [math.nan, 1, 1]),
            lambda: alpha(cycle_graph(5), [math.nan, 1, 1, 1, 1]),
        ],
        ids=["theta_membership", "theta_dual", "theta", "alpha"],
    )
    def test_refused_naming_the_index(self, call):
        with pytest.raises(HypergraphError, match="weight 0 is not finite"):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda w: theta(cycle_graph(5), w),
            lambda w: theta_dual(cycle_graph(5), w),
            lambda w: theta_membership(cycle_graph(5), w),
        ],
        ids=["theta", "theta_dual", "theta_membership"],
    )
    def test_beyond_the_double_range_refused(self, call):
        # exact entries past the double range, as the readers give 1e400
        for big in (Fraction(10**400), 10**400, -(10**400)):
            w = [1, 1, big, 1, 1]
            with pytest.raises(HypergraphError, match="weight 2 lies beyond the double range"):
                call(w)


class TestProbe:
    def test_single_edge_counterexample(self):
        r = 3
        hg = complete_hypergraph(r, r)
        f = [1.0] * (r - 1) + [0.0]
        g = [1.0] * r
        assert theta_membership(hg, f)[0]
        assert theta_membership(complement(hg), g)[0]
        assert sum(a * b for a, b in zip(f, g)) == r - 1 > 1

    def test_five_vertex_polar_gap(self):
        # the smallest instance where the polar body is not the half-scaled
        # complement body: probe support functions along the constant vector
        hg = Hypergraph(3, 5, ((0, 1, 4), (0, 2, 3), (1, 2, 3)))
        hbar = complement(hg)
        polar = theta_dual(hbar, [1] * 5).value
        half = theta(hbar, [1] * 5).value / 2.0
        assert polar - half > 1e-3  # observed gap is about 0.069


class TestProperties:
    def test_sandwich(self):
        rng = random.Random(2)
        for _ in range(15):
            hg = random_hypergraph(rng.randint(4, 8), 3, rng.choice((0.3, 0.5)), rng)
            w = [rng.random() for _ in range(hg.n)]
            a = alpha(hg, w)[0]
            t = theta(hg, w).value
            x = float(chi_star(complement(hg), w)[0])
            assert a <= t + 1e-6
            assert t <= (hg.r - 1) * x + 1e-6

    def test_scaling(self):
        rng = random.Random(14)
        for _ in range(5):
            hg = random_hypergraph(rng.randint(4, 6), 3, 0.4, rng)
            w = [rng.random() for _ in range(hg.n)]
            c = 0.3 + rng.random()
            v1 = theta(hg, w, tol=1e-9).value
            v2 = theta(hg, [c * x for x in w], tol=1e-9).value
            assert abs(v2 - c * v1) <= 1e-8 * (1 + abs(v2))

    def test_duality_product(self):
        rng = random.Random(33)
        for _ in range(10):
            hg = random_hypergraph(rng.randint(4, 7), 3, 0.4, rng)
            l = [rng.random() for _ in range(hg.n)]
            w = [rng.random() for _ in range(hg.n)]
            lhs = theta(hg, l).value * theta_dual(complement(hg), w).value
            rhs = sum(a * b for a, b in zip(l, w))
            assert lhs >= rhs - 1e-6


class TestCertificates:
    def test_json_round_trip(self):
        res = theta(mantel_hypergraph(4))
        text = certificate_to_json(res.certificate)
        back = certificate_from_json(text)
        assert check_certificate(mantel_hypergraph(4), back) == []
        assert np.abs(back.matrix - res.certificate.matrix).max() == 0

    def test_detects_broken_scaling(self):
        import dataclasses

        res = theta(complete_hypergraph(3, 3))
        broken = dataclasses.replace(res.certificate, scale=3.0)
        assert check_certificate(complete_hypergraph(3, 3), broken) != []
        child = res.certificate.children[0]
        bad_child = dataclasses.replace(child, scale=child.scale + 1.0)
        broken2 = dataclasses.replace(
            res.certificate, children={**res.certificate.children, 0: bad_child}
        )
        assert check_certificate(complete_hypergraph(3, 3), broken2) != []

    # One mutation of a passing witness per violation that check_certificate
    # reports; each mutation breaks exactly one rule.

    def test_detects_matrix_not_psd(self):
        cert = theta(cycle_graph(5)).certificate
        mat = cert.matrix.copy()
        mat[0, 2] = mat[2, 0] = 1.0  # (0, 2) is not an edge of C5
        problems = check_certificate(cycle_graph(5), dataclasses.replace(cert, matrix=mat))
        assert problems == ["root: bordered matrix not PSD within 1e-06"]

    def test_detects_wrong_uniformity(self):
        cert = dataclasses.replace(theta(cycle_graph(5)).certificate, uniformity=3)
        assert check_certificate(cycle_graph(5), cert) == ["root: uniformity 3 != 2"]

    def test_detects_base_box_violation(self):
        # a witness for [0.5, 1, 1] on the edgeless 1-uniform hypergraph,
        # audited where vertex 0 is an edge and so must be 0
        _, cert = theta_membership(Hypergraph(1, 3, ()), [0.5, 1, 1])
        problems = check_certificate(Hypergraph(1, 3, ((0,),)), cert)
        assert problems == ["root: base box violated at 0"]

    def test_detects_nonzero_graph_edge_entry(self):
        # F = ff' + diag(f - f^2) with f = 0.3 is PSD but nonzero on every edge
        f = np.full(5, 0.3)
        mat = np.outer(f, f)
        np.fill_diagonal(mat, f)
        cert = ThetaCertificate(1.0, mat, 2, tuple(range(5)))
        problems = check_certificate(cycle_graph(5), cert)
        assert problems == [
            f"root: edge entry ({u},{v}) nonzero" for u, v in cycle_graph(5).edges
        ]

    def test_detects_missing_child(self):
        cert = theta(complete_hypergraph(3, 3)).certificate
        children = {x: c for x, c in cert.children.items() if x != 0}
        broken = dataclasses.replace(cert, children=children)
        problems = check_certificate(complete_hypergraph(3, 3), broken)
        assert problems == ["root: missing child at vertex 0"]

    def test_detects_child_with_wrong_vertex_map(self):
        cert = theta(complete_hypergraph(3, 3)).certificate
        child = dataclasses.replace(cert.children[0], vertex_map=(2, 1))
        broken = dataclasses.replace(cert, children={**cert.children, 0: child})
        problems = check_certificate(complete_hypergraph(3, 3), broken)
        assert problems == ["root: child 0 has wrong vertex map"]

    def test_detects_child_diagonal_mismatch(self):
        # halving one diagonal entry keeps the child's bordered matrix PSD
        cert = theta(complete_hypergraph(3, 3)).certificate
        mat = cert.children[0].matrix.copy()
        mat[0, 0] /= 2
        child = dataclasses.replace(cert.children[0], matrix=mat)
        broken = dataclasses.replace(cert, children={**cert.children, 0: child})
        problems = check_certificate(complete_hypergraph(3, 3), broken)
        assert problems == ["root: child 0 diagonal mismatch at 0"]

    def test_out_of_range_root_map_is_a_violation(self):
        text = (
            '{"scale": 1.0, "uniformity": 2, "vertex_map": [7],'
            ' "matrix": [[0.5]], "children": {}}'
        )
        problems = check_certificate(cycle_graph(5), certificate_from_json(text))
        assert problems == ["root vertex map (7,) is not a vertex subset"]

    def test_short_child_matrix_is_a_violation(self):
        import json

        hg = complete_hypergraph(3, 3)
        data = json.loads(certificate_to_json(theta(hg).certificate))
        child = data["children"]["0"]
        child["matrix"] = [[child["matrix"][0][0]]]
        problems = check_certificate(hg, certificate_from_json(json.dumps(data)))
        assert problems and all("diagonal mismatch" not in p for p in problems)
        assert any("root.0: matrix shape (1, 1)" in p for p in problems)

    def test_asymmetric_matrix_is_a_violation(self):
        # eigvalsh reads the lower triangle (all ones, so PSD) while the edge
        # test reads the upper one (zero on edges); the diagonal sums to 5
        mat = np.ones((5, 5))
        for u, v in cycle_graph(5).edges:
            mat[u, v] = 0.0
        cert = ThetaCertificate(1.0, mat, 2, tuple(range(5)))
        problems = check_certificate(cycle_graph(5), cert)
        assert problems == ["root: matrix not symmetric within 1e-06"]

    def test_non_finite_scale_or_entry_is_a_violation(self):
        cert = theta(complete_hypergraph(3, 3)).certificate
        mat = cert.matrix.copy()
        mat[1, 2] = mat[2, 1] = math.inf
        child = dataclasses.replace(cert.children[0], scale=math.nan)
        for broken, label in [
            (dataclasses.replace(cert, scale=math.nan), "root"),
            (dataclasses.replace(cert, matrix=mat), "root"),
            (dataclasses.replace(cert, children={**cert.children, 0: child}), "root.0"),
        ]:
            problems = check_certificate(complete_hypergraph(3, 3), broken)
            assert f"{label}: non-finite entry or scale" in problems

    def test_non_integer_root_map_is_a_violation(self):
        for vmap in ('["a"]', "[1.5]", '[1, "a"]'):
            text = (
                f'{{"scale": 1.0, "uniformity": 2, "vertex_map": {vmap},'
                ' "matrix": [[0.5]], "children": {}}'
            )
            cert = certificate_from_json(text)
            problems = check_certificate(cycle_graph(5), cert)
            want = f"root vertex map {cert.vertex_map} is not a vertex subset"
            assert problems == [want]
