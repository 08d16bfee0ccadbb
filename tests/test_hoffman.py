import importlib.util
import itertools
import math
import os
import random
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import hypertheta
from hypertheta.hoffman import (
    adjacency_operator,
    format_weighted_hypergraph,
    hoff,
    induced_measure,
    lambda_levels,
    link_measure,
    parse_weighted_hypergraph,
    random_weighted_hypergraph,
    uniform_weighted,
    weighted_hypergraph,
)
from hypertheta.hypercore import (
    HypergraphError,
    alpha,
    complete_hypergraph,
    cycle_graph,
)
from hypertheta.symmetry import mantel_hypergraph
from hypertheta.thetabody import theta


def single_edge():
    return uniform_weighted(complete_hypergraph(3, 3))


def _load_sweep_table():
    """tools/sweep_table.py loaded by file path, leaving tools/ unwritten."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "sweep_table.py")
        spec = importlib.util.spec_from_file_location("sweep_table", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


SWEEP = _load_sweep_table()


class TestMeasures:
    def test_single_edge_vertex_measure(self):
        assert single_edge().vertex_measure() == [Fraction(1, 3)] * 3

    def test_regular_graph_uniform(self):
        wh = uniform_weighted(cycle_graph(5))
        assert wh.vertex_measure() == [Fraction(1, 5)] * 5

    def test_two_edges_weighted(self):
        wh = weighted_hypergraph(
            6, 3, [(0, 1, 2), (3, 4, 5)], [Fraction(3, 4), Fraction(1, 4)]
        )
        assert wh.vertex_measure() == [Fraction(1, 4)] * 3 + [Fraction(1, 12)] * 3

    def test_induced_sums_to_one(self):
        rng = random.Random(5)
        for _ in range(10):
            wh = random_weighted_hypergraph(rng.randint(4, 7), 3, 0.4, rng)
            for i in (1, 2):
                total = sum(induced_measure(wh, i).values())
                assert total == 1

    def test_range_errors(self):
        with pytest.raises(HypergraphError):
            induced_measure(single_edge(), 0)
        with pytest.raises(HypergraphError):
            induced_measure(single_edge(), 3)

    def test_isolated_vertices_dropped(self):
        wh = weighted_hypergraph(5, 3, [(0, 2, 4)], [1])
        assert wh.n == 3 and wh.vertex_map == (0, 2, 4)

    def test_normalization(self):
        wh = weighted_hypergraph(3, 3, [(0, 1, 2)], [7])
        assert wh.mu == (Fraction(1),)

    def test_edges_checked_against_n(self):
        for n, edges, weights in (
            (3, [(0, 1, 5)], [1]),
            (3, [(0, 1, 2), (1, 2, 3)], [1, 0]),
            (4, [(0, 1, 2), (1, 2, 3)], [1]),  # one weight short: no edge dropped
        ):
            with pytest.raises(HypergraphError):
                weighted_hypergraph(n, 3, edges, weights)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_edge_weight_refused(self, bad):
        edges = [(0, 1, 2), (1, 2, 3)]
        with pytest.raises(HypergraphError, match="edge weight 1 is not finite"):
            weighted_hypergraph(4, 3, edges, [1.0, bad])

    def test_float_weight_sum_past_double_range_refused(self):
        with pytest.raises(HypergraphError, match="past the float range"):
            weighted_hypergraph(3, 2, [(0, 1), (1, 2)], [1e308, 1e308])

    @pytest.mark.parametrize("n, r, p", [(3, 4, 0.5), (5, 3, 0.0), (5, 3, math.nan)])
    def test_random_draw_with_no_drawable_edge_refused(self, n, r, p):
        with pytest.raises(HypergraphError, match="no edge can be drawn"):
            random_weighted_hypergraph(n, r, p, random.Random(0))


class TestLinks:
    def test_single_edge_vertex_link(self):
        wh = single_edge()
        lk = link_measure(wh, (0,))
        assert lk.r == 2 and lk.mu == (Fraction(1),)
        assert lk.vertex_map == (1, 2)

    def test_triangle_family_pair_link(self):
        wh = uniform_weighted(mantel_hypergraph(4))
        lk = link_measure(wh, (0,))
        assert lk.r == 2 and lk.hyper.m == 2
        assert lk.mu == (Fraction(1, 2), Fraction(1, 2))

    def test_full_edge_rejected(self):
        with pytest.raises(HypergraphError):
            link_measure(single_edge(), (0, 1, 2))

    def test_zero_measure_subset_rejected(self):
        wh = weighted_hypergraph(4, 3, [(0, 1, 2)], [1])
        with pytest.raises(HypergraphError):
            link_measure(wh, (0, 3))


class TestOperator:
    def test_regular_graph_is_scaled_adjacency(self):
        wh = uniform_weighted(cycle_graph(5))
        op = adjacency_operator(wh)
        want = np.zeros((5, 5))
        for i in range(5):
            want[i, (i + 1) % 5] = want[(i + 1) % 5, i] = 0.5
        assert np.abs(op.matrix - want).max() < 1e-12

    def test_single_edge_operator(self):
        op = adjacency_operator(single_edge())
        want = (np.ones((3, 3)) - np.eye(3)) / 2
        assert np.abs(op.matrix - want).max() < 1e-12

    def test_complete_graph(self):
        for n in (4, 6):
            op = adjacency_operator(uniform_weighted(complete_hypergraph(2, n)))
            want = (np.ones((n, n)) - np.eye(n)) / (n - 1)
            assert np.abs(op.matrix - want).max() < 1e-12

    def test_spectral_range_and_top_eigenvector(self):
        rng = random.Random(8)
        for _ in range(12):
            wh = random_weighted_hypergraph(rng.randint(4, 8), 3, 0.4, rng)
            op = adjacency_operator(wh)
            d = np.sqrt(op.vertex_measure)
            sym = d[:, None] * op.matrix / d[None, :]
            vals = np.linalg.eigvalsh(sym)
            assert vals.min() >= -1 - 1e-9
            assert abs(vals.max() - 1.0) < 1e-9
            one = np.ones(wh.n)
            assert np.abs(op.matrix @ one - one).max() < 1e-12
            assert vals.min() < 0  # zero trace forces a negative eigenvalue


class TestLevelsAndBound:
    def test_pentagon_level(self):
        levels = lambda_levels(uniform_weighted(cycle_graph(5)))
        assert len(levels) == 1
        assert abs(levels[0] - math.cos(4 * math.pi / 5)) < 1e-9

    def test_single_edge_levels(self):
        levels = lambda_levels(single_edge())
        assert abs(levels[0] + 0.5) < 1e-12
        assert abs(levels[1] + 1.0) < 1e-12

    def test_complete_graph_level(self):
        for n in (4, 7):
            levels = lambda_levels(uniform_weighted(complete_hypergraph(2, n)))
            assert abs(levels[0] + 1.0 / (n - 1)) < 1e-12

    @pytest.mark.parametrize("extra", (1, 3))
    @pytest.mark.parametrize("r", range(2, 6))
    def test_complete_hypergraph_levels(self, r, extra):
        # every i-link is the complete (r-i)-uniform hypergraph on n-i vertices
        n = r + extra
        wh = uniform_weighted(complete_hypergraph(r, n))
        want = [-1.0 / (n - 1 - i) for i in range(r - 1)]
        assert lambda_levels(wh) == pytest.approx(want, abs=1e-12)
        assert abs(hoff(wh) - (r - 1) / n) < 1e-12

    def test_vertex_measure_below_double_range(self):
        # vertex 3 has measure 1e-400/3, which is 0.0 as a double
        wh = parse_weighted_hypergraph("3 4 2\n0 1 2 1e400\n1 2 3 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            levels = lambda_levels(wh)
            bound = hoff(wh)
        assert levels == pytest.approx([-0.5, -1.0], abs=1e-12)
        assert abs(bound - 2.0 / 3.0) < 1e-12

    def test_bound_values(self):
        assert abs(hoff(single_edge()) - 2.0 / 3.0) < 1e-12
        assert abs(hoff(uniform_weighted(cycle_graph(5))) - math.sqrt(5.0) / 5.0) < 1e-12
        for n in (4, 6):
            assert abs(hoff(uniform_weighted(complete_hypergraph(2, n))) - 1.0 / n) < 1e-12

    def test_sandwich(self):
        rng = random.Random(12)
        for _ in range(20):
            wh = random_weighted_hypergraph(rng.randint(4, 8), 3, rng.choice((0.3, 0.5)), rng)
            mu1 = [float(v) for v in wh.vertex_measure()]
            a = alpha(wh.hyper, mu1)[0]
            t = theta(wh.hyper, mu1).value
            h = hoff(wh)
            assert a <= t + 1e-6
            assert t <= h + 1e-6

    def test_alpha_is_weighted_alpha(self):
        rng = random.Random(19)
        for _ in range(10):
            wh = random_weighted_hypergraph(rng.randint(4, 7), 3, 0.4, rng)
            mu1 = wh.vertex_measure()
            direct, _ = alpha(wh.hyper, mu1)
            assert direct == max(
                (sum(mu1[v] for v in s), s)
                for s in _independent_sets(wh.hyper)
            )[0]

    # The tolerance sweep of tools/sweep_table.py, the table every change to
    # the solver's arithmetic reports: on these transitive instances theta
    # equals hoff, and each cell must reach it through a solve that ends
    # "optimal".  The tool runs the sweep once per module; each test below
    # gates a slice of its cells.

    def test_transitive_tightness(self, sweep_rows):
        _assert_cells_meet_hoff(
            sweep_rows, lambda r: r["case"] in ("edge3", "mantel4") and r["tol"] == 1e-11
        )

    @pytest.mark.parametrize("tol", SWEEP.TOLS)
    @pytest.mark.parametrize("name", SWEEP.CASES)
    def test_transitive_tightness_at_every_tolerance(self, sweep_rows, name, tol):
        _assert_cells_meet_hoff(sweep_rows, lambda r: r["case"] == name and r["tol"] == tol)

    def test_tolerance_sweep_passes_with_one_and_two_blas_threads(self, sweep_rows):
        # OpenBLAS reads its thread count when it loads, so the tool runs
        # each count in a fresh interpreter.
        for threads in (1, 2):
            _assert_cells_meet_hoff(sweep_rows, lambda r: r["threads"] == threads)

    def test_tolerance_sweep_passes_at_small_and_large_substitution_blocks(self, sweep_rows):
        # The block size sets the summation order of the normal solves; the
        # refinement step that solve_sdp takes after a ridged Cholesky keeps
        # the 1e-11 endgames at both ends.
        for block in (16, 128):
            _assert_cells_meet_hoff(sweep_rows, lambda r: r["block"] == block)

    def test_tolerance_sweep_meets_hoff_in_every_cell(self, sweep_rows):
        # 3 cases x 4 tols x blocks 16, 48, 128 x 1 and 2 threads.
        cells = sorted((r["case"], r["tol"], r["block"], r["threads"]) for r in sweep_rows)
        assert len(cells) == 72
        assert cells == sorted(itertools.product(SWEEP.CASES, SWEEP.TOLS, SWEEP.BLOCKS, SWEEP.THREADS))
        _assert_cells_meet_hoff(sweep_rows, lambda r: True)


@pytest.fixture(scope="module")
def sweep_rows():
    return SWEEP.run(os.path.dirname(os.path.dirname(hypertheta.__file__)))


def _assert_cells_meet_hoff(rows, keep):
    """The cells of rows that keep selects exist, end "optimal" and lie
    within 1e-6 of hoff; a failure shows the tool's table."""
    picked = [r for r in rows if keep(r)]
    table = SWEEP.format_table(rows)
    assert picked, table
    assert all(r["status"] == "optimal" for r in picked), table
    assert all(r["err"] < 1e-6 for r in picked), table


def _independent_sets(hg):
    from hypertheta.hypercore import is_independent

    for k in range(hg.n + 1):
        for s in itertools.combinations(range(hg.n), k):
            if is_independent(hg, s):
                yield s


class TestFiles:
    def test_round_trip(self):
        wh = weighted_hypergraph(
            4, 3, [(0, 1, 2), (1, 2, 3)], [Fraction(2, 3), Fraction(1, 3)]
        )
        back = parse_weighted_hypergraph(format_weighted_hypergraph(wh))
        assert back.hyper == wh.hyper and back.mu == wh.mu

    def test_bad_line_reported(self):
        from hypertheta.hypercore import FormatError

        with pytest.raises(FormatError) as err:
            parse_weighted_hypergraph("3 4 1\n0 1 2\n")
        assert err.value.line == 2
