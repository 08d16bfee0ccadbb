import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hypertheta.hypercore import Hypergraph, complete_hypergraph, cycle_graph
from hypertheta.numlin import (
    SdpProblem,
    as_symmetric,
    eig_sym,
    solve_lp,
    solve_sdp,
)
from hypertheta.numlin import lp
from hypertheta.numlin.sdp import (
    _SUBST_BLOCK,
    _chol_solve,
    _max_step,
    _nt_scaling,
    _prepare,
    _presolve,
    _schur,
    _stack,
    _stacked,
)
from hypertheta.symmetry import (
    _transitive_program,
    mantel_hypergraph,
    symmetric_group_pair_action,
)
from hypertheta.thetabody import assemble_theta_sdp


class TestEig:
    def test_diagonal(self):
        vals, _ = eig_sym(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(vals, [1, 2, 3])

    def test_all_ones(self):
        vals, _ = eig_sym(np.ones((3, 3)))
        assert np.allclose(vals, [0, 0, 3], atol=1e-12)

    def test_cycle_adjacency(self):
        a = np.zeros((5, 5))
        for i in range(5):
            a[i, (i + 1) % 5] = a[(i + 1) % 5, i] = 0.5
        vals, _ = eig_sym(a)
        # circulant spectrum: cos(2*pi*j/5)
        assert abs(vals[0] - math.cos(4 * math.pi / 5)) < 1e-12

    def test_orthonormal_and_reconstructs(self):
        rng = np.random.default_rng(4)
        for n in (2, 5, 9):
            m = rng.normal(size=(n, n))
            m = (m + m.T) / 2
            vals, vecs = eig_sym(m)
            assert np.abs(vecs.T @ vecs - np.eye(n)).max() <= 1e-9
            err = np.linalg.norm(vecs @ np.diag(vals) @ vecs.T - m)
            assert err <= 1e-9 * (1 + np.linalg.norm(m))
            assert np.all(np.diff(vals) >= -1e-12)

    def test_rejects_asymmetric_and_nonfinite(self):
        with pytest.raises(ValueError):
            as_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            eig_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestLp:
    def test_box_maximum(self):
        res = solve_lp([1], bounds=[(0, 1)])
        assert res.status == "optimal" and abs(res.value - 1) < 1e-12

    def test_two_variable_reduction_n4(self):
        # the two-variable program from the triangle-family pipeline at n=4
        n = 4
        c = [Fraction(4), Fraction(1), 0, 0, 0]
        rows = [
            [2, -1, 1, 0, 0],
            [-(n - 4), (n - 3), 0, 1, 0],
            [-(2 * n - 4), Fraction(-(n - 2) * (n - 3), 2), 0, 0, 1],
        ]
        rhs = [1, 1, 1]
        bounds = [(0, Fraction(1, 2)), (None, None)] + [(0, None)] * 3
        res = solve_lp(c, rows, rhs, bounds, sense="max", exact=True)
        assert res.status == "optimal"
        assert Fraction(1) + res.value == 4
        assert res.x[0] == Fraction(1, 2) and res.x[1] == 1

    def test_cover_triangle(self):
        # fractional cover of the 3-clique: only singletons, value 3
        cols = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        res = solve_lp(
            [1, 1, 1], cols, [1, 1, 1], [(0, None)] * 3, sense="min", exact=True
        )
        assert res.value == 3

    def test_infeasible(self):
        res = solve_lp([1], [[1], [1]], [0, 1], [(0, None)])
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = solve_lp([1], bounds=[(0, None)])
        assert res.status == "unbounded"

    def test_degenerate_terminates(self):
        # classic cycling-prone instance; Bland's rule must terminate
        c = [Fraction(-3, 4), 150, Fraction(-1, 50), 6]
        rows = [
            [Fraction(1, 4), -60, Fraction(-1, 25), 9, 1, 0, 0],
            [Fraction(1, 2), -90, Fraction(-1, 50), 3, 0, 1, 0],
            [0, 0, 1, 0, 0, 0, 1],
        ]
        res = solve_lp(
            c + [0, 0, 0],
            rows,
            [0, 0, 1],
            [(0, None)] * 7,
            sense="min",
            exact=True,
        )
        assert res.status == "optimal"
        assert res.value == Fraction(-1, 20)

    def test_float_optimum_is_feasible(self):
        rng = random.Random(9)
        for _ in range(20):
            nv = rng.randint(2, 5)
            c = [rng.uniform(-2, 2) for _ in range(nv)]
            x0 = [rng.uniform(0, 2) for _ in range(nv)]
            a = [[rng.uniform(-1, 1) for _ in range(nv)] for _ in range(2)]
            b = [sum(a[i][j] * x0[j] for j in range(nv)) for i in range(2)]
            res = solve_lp(c, a, b, [(0, 5)] * nv, sense="max")
            if res.status != "optimal":
                continue
            lhs = [sum(a[i][j] * res.x[j] for j in range(nv)) for i in range(2)]
            assert max(abs(l - r) for l, r in zip(lhs, b)) < 1e-8

    def test_exact_mode_is_exact(self):
        rng = random.Random(31)
        for _ in range(20):
            nv = rng.randint(2, 5)
            c = [Fraction(rng.randint(-3, 3)) for _ in range(nv)]
            a = [[Fraction(rng.randint(-2, 2)) for _ in range(nv)]]
            x0 = [Fraction(rng.randint(0, 2)) for _ in range(nv)]
            b = [sum(a[0][j] * x0[j] for j in range(nv))]
            res = solve_lp(c, a, b, [(0, 4)] * nv, sense="max", exact=True)
            assert res.status == "optimal"
            assert sum(a[0][j] * res.x[j] for j in range(nv)) == b[0]
            assert all(0 <= v <= 4 for v in res.x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_lp([1, 2], [[1]], [0])


def _dense_pivot(tab, basis, cost, row, col):
    """Reference pivot that rebuilds every row in full."""
    piv = tab[row][col]
    tab[row] = [v / piv for v in tab[row]]
    prow = tab[row]
    for i, other in enumerate(tab):
        if i != row and other[col] != 0:
            f = other[col]
            tab[i] = [a - f * b for a, b in zip(other, prow)]
    if cost[col] != 0:
        f = cost[col]
        for j in range(len(cost)):
            cost[j] -= f * prow[j]
    basis[row] = col


def _covering_lp(rng, exact):
    """A 0/1 covering LP of the shape chi_star builds: one column per set,
    one surplus column per vertex, coverage - surplus = w, minimize the
    total set weight."""
    nrows, nsets = rng.randint(3, 9), rng.randint(3, 12)
    a = [[rng.randint(0, 1) for _ in range(nsets)] for _ in range(nrows)]
    for i, row in enumerate(a):
        row[rng.randrange(nsets)] = 1  # every vertex lies in some set
        row.extend(-1 if k == i else 0 for k in range(nrows))
    if exact:
        w = [Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(nrows)]
    else:
        w = [rng.uniform(0.05, 2.0) for _ in range(nrows)]
    return [1] * nsets + [0] * nrows, a, w, [(0, None)] * (nsets + nrows), "min"


def _mantel_lp(n):
    """The two-variable program of symmetry.mantel_theta at n."""
    nv = math.comb(n, 2)
    c = [Fraction(nv * 2 * (n - 2), nv), Fraction(nv * math.comb(n - 2, 2), nv), 0, 0, 0]
    rows = [
        [2, -1, 1, 0, 0],
        [-(n - 4), (n - 3), 0, 1, 0],
        [-(2 * n - 4), Fraction(-(n - 2) * (n - 3), 2), 0, 0, 1],
    ]
    bounds = [(0, Fraction(1, 2)), (None, None), (0, None), (0, None), (0, None)]
    return c, rows, [1, 1, 1], bounds, "max"


class TestSparsePivot:
    """The pivot touches only the pivot row's nonzero columns; every result
    must equal the one of the dense reference pivot."""

    def _both(self, monkeypatch, c, a, b, bounds, sense, exact):
        got = solve_lp(c, a, b, bounds, sense=sense, exact=exact)
        with monkeypatch.context() as m:
            m.setattr(lp, "_pivot", _dense_pivot)
            want = solve_lp(c, a, b, bounds, sense=sense, exact=exact)
        return got, want

    def _assert_same(self, got, want):
        assert got.status == want.status
        assert got.value == want.value
        assert got.x == want.x

    @pytest.mark.parametrize("exact", [True, False])
    def test_covering_lps(self, monkeypatch, exact):
        rng = random.Random(17)
        for _ in range(25):
            got, want = self._both(monkeypatch, *_covering_lp(rng, exact), exact)
            assert got.status == "optimal"
            self._assert_same(got, want)

    @pytest.mark.parametrize("exact", [True, False])
    def test_redundant_row_drives_artificial_out_on_negative_pivot(
        self, monkeypatch, exact
    ):
        # row 3 = row 1 - row 2; phase 1 ends with an artificial basic at 0
        c, a, b = [0, -2, 3], [[2, 1, 2], [0, -1, 0], [2, 2, 2]], [3, 0, 3]
        pivots = []
        sparse = lp._pivot

        def spy(tab, basis, cost, row, col):
            pivots.append(tab[row][col])
            sparse(tab, basis, cost, row, col)

        monkeypatch.setattr(lp, "_pivot", spy)
        got, want = self._both(monkeypatch, c, a, b, [(0, None)] * 3, "min", exact)
        assert any(p < 0 for p in pivots)
        assert got.status == "optimal" and got.x == [Fraction(3, 2), 0, 0]
        self._assert_same(got, want)

    @pytest.mark.parametrize("exact", [True, False])
    def test_mantel_lps(self, monkeypatch, exact):
        for n in range(4, 30):
            got, want = self._both(monkeypatch, *_mantel_lp(n), exact)
            assert got.status == "optimal"
            self._assert_same(got, want)


def _gram_schmidt_kept(a, tol=1e-10):
    """Reference greedy rank filter: row i is kept when its distance from
    the span of the rows kept before it exceeds tol * (1 + |row i|)."""
    kept, basis = [], []
    for i, row in enumerate(a):
        res = row.copy()
        for _ in range(2):  # second pass for stability
            for q in basis:
                res -= (q @ res) * q
        norm = np.linalg.norm(res)
        if norm > tol * (1.0 + np.linalg.norm(row)):
            kept.append(i)
            basis.append(res / norm)
    return kept


class TestCholSolve:
    B = _SUBST_BLOCK

    @pytest.mark.parametrize("m", [1, B - 1, B, B + 1, 3 * B + 5])
    def test_solves_the_factored_system(self, m):
        rng = np.random.default_rng(m)
        g = rng.normal(size=(m, m))
        mmat = g @ g.T / m + np.eye(m)
        chol = np.linalg.cholesky(mmat)
        vec = rng.normal(size=m)
        x = _chol_solve(chol, vec)
        resid = np.linalg.norm(mmat @ x - vec)
        assert resid <= 1e-12 * np.linalg.norm(mmat, 2) * np.linalg.norm(x)
        if m <= self.B:  # one block: the two solves by the whole factor
            plain = np.linalg.solve(chol.T, np.linalg.solve(chol, vec))
            assert x.tobytes() == plain.tobytes()


def _random_spd(rng, k, d):
    g = rng.normal(size=(k, d, d))
    return g @ g.transpose(0, 2, 1) + 0.1 * np.eye(d)


class TestStackedSteps:
    def test_step_length_comes_from_the_limiting_block(self):
        rng = np.random.default_rng(3)
        xs = _random_spd(rng, 3, 4)
        # block 1 reaches the cone boundary at a = 0.4; blocks 0 and 2
        # allow any step and a step of 2.5
        dxs = np.stack([np.eye(4), -xs[1] / 0.4, -xs[2] / 2.5])
        dxs[1] -= 0.01 * _random_spd(rng, 1, 4)[0]
        limit = []  # per block: the pencil rule on its own
        for x, dx in zip(xs, dxs):
            inv = np.linalg.inv(np.linalg.cholesky(x))
            lo = np.linalg.eigvalsh(inv @ dx @ inv.T).min()
            limit.append(np.inf if lo >= -1e-13 else -1.0 / lo)
        assert limit[0] == np.inf and limit[2] > 1.0 and limit[1] < 0.4
        a = _max_step(np.linalg.eigh(xs), dxs)
        assert a == pytest.approx(limit[1], rel=1e-10)
        # the fraction of it that the solver takes keeps every block PSD,
        # and a longer step leaves the cone in the limiting block only
        for x, dx in zip(xs, dxs):
            assert np.linalg.eigvalsh(x + 0.99 * a * dx).min() > 0
        past = [np.linalg.eigvalsh(x + 1.01 * a * dx).min() for x, dx in zip(xs, dxs)]
        assert past[1] < 0 and past[0] > 0 and past[2] > 0
        assert _max_step(np.linalg.eigh(xs[[0]]), dxs[[0]]) == np.inf

    def test_scaling_point_per_block(self):
        rng = np.random.default_rng(5)
        ss, xs = _random_spd(rng, 3, 4), _random_spd(rng, 3, 4)
        w, sinv = _nt_scaling(np.linalg.eigh(ss), np.linalg.eigh(xs))
        for wb, sb, xb, vb in zip(w, ss, xs, sinv):
            assert np.array_equal(wb, wb.T)
            assert np.abs(wb @ sb @ wb - xb).max() <= 1e-10 * np.abs(xb).max()
            assert np.abs(vb @ sb - np.eye(4)).max() <= 1e-10
        # an indefinite block of either iterate is a breakdown
        for k in range(3):
            bad = ss.copy()
            bad[k] -= 2.0 * np.linalg.eigvalsh(ss[k]).min() * np.eye(4)
            assert _nt_scaling(np.linalg.eigh(bad), np.linalg.eigh(xs)) is None
            assert _nt_scaling(np.linalg.eigh(ss), np.linalg.eigh(bad)) is None


class _Captured(Exception):
    pass


def _problem_solved_by(monkeypatch, call):
    """The SdpProblem that call hands to the solver first."""
    from hypertheta import thetabody

    def capture(problem, tol):
        raise _Captured(problem)

    monkeypatch.setattr(thetabody, "solve_sdp", capture)
    with pytest.raises(_Captured) as caught:
        call()
    return caught.value.args[0]


class TestSchur:
    """_schur against sum_b <A_ib, W_b A_jb W_b> from the dense constraint view."""

    @staticmethod
    def check(problem, kept=None, seed=0):
        if kept is None:
            kept, _ = _presolve(*_stack(problem))
        rng = np.random.default_rng(seed)
        ws = [_random_spd(rng, 1, d)[0] for d in problem.block_dims]
        view = problem.constraints
        rows = [view[r][0] for r in kept]
        want = np.zeros((len(kept), len(kept)))
        for a, ra in enumerate(rows):
            for b, rb in enumerate(rows):
                both = [k for k in ra if k in rb]
                want[a, b] = sum(np.vdot(ra[k], ws[k] @ rb[k] @ ws[k]) for k in both)
        lay = _prepare(problem, kept)
        got = _schur(lay, _stacked(lay, ws))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_theta_program(self):
        self.check(assemble_theta_sdp(mantel_hypergraph(5))[0])

    def test_scaled_membership_program(self, monkeypatch):
        from hypertheta.thetabody import theta_membership

        hg = mantel_hypergraph(5)
        problem = _problem_solved_by(
            monkeypatch, lambda: theta_membership(hg, [0.5] * hg.n)
        )
        assert problem.block_dims[-1] == 1  # the scale block t
        self.check(problem)

    def test_eigenspace_program(self):
        group = symmetric_group_pair_action(7)
        problem = _transitive_program(mantel_hypergraph(7), group)
        # one 1x1 block per eigenspace; X[0, 0] = 1 is a row on all three
        assert problem.block_dims == (1, 1, 1, 11)
        assert set(problem.index[problem.index[:, 0] == 0, 1]) == {0, 1, 2}
        self.check(problem)

    def test_repeated_off_diagonal_and_dropped_rows(self):
        rows = [
            ([(0, 0, 0, 1.0), (0, 0, 0, 0.5), (0, 1, 2, 2.0)], 1.0),
            ([(0, 2, 1, -1.5), (1, 0, 1, 1.0), (1, 1, 1, 3.0)], 0.0),
            ([(0, 0, 0, 3.0), (0, 2, 1, 4.0)], 2.0),  # twice row 0
            ([(2, 0, 0, 1.0), (1, 0, 0, 1.0)], 1.0),
            ([(1, 0, 1, 2.0), (1, 1, 0, -2.0)], 0.0),  # terms cancel
            ([(0, 1, 1, 1.0), (2, 0, 0, -1.0), (0, 1, 1, 1.0), (0, 0, 2, 0.5)], 0),
        ]
        problem = SdpProblem([3, 2, 1], [np.eye(3), np.eye(2), np.eye(1)], rows)
        kept, _ = _presolve(*_stack(problem))
        assert list(kept) == [0, 1, 3, 5]
        for seed in range(3):
            self.check(problem, kept, seed)


class TestSdp:
    def test_scalar_block(self):
        p = SdpProblem([1], [np.array([[1.0]])], [([(0, 0, 0, 1.0)], 0.5)])
        s = solve_sdp(p)
        assert s.status == "optimal"
        assert abs(s.primal - 0.5) < 1e-8

    def test_reports_no_ridge_when_cholesky_succeeds(self):
        p = SdpProblem([1], [np.array([[1.0]])], [([(0, 0, 0, 1.0)], 0.5)])
        assert solve_sdp(p).residuals["max_ridge"] == 0.0

    def test_pentagon_value(self):
        problem, _ = assemble_theta_sdp(cycle_graph(5))
        s = solve_sdp(problem)
        want = math.sqrt(5.0)
        # cross-check: invariant reduction with circulant eigenvalues gives
        # 1 - 1/cos(4*pi/5) in closed form
        closed = 1.0 - 1.0 / math.cos(4 * math.pi / 5)
        assert abs(want - closed) < 1e-12
        assert abs(s.primal - want) < 1e-6

    def test_triangle_value(self):
        problem, _ = assemble_theta_sdp(complete_hypergraph(2, 3))
        s = solve_sdp(problem)
        assert abs(s.primal - 1.0) < 1e-7

    def test_weak_duality(self):
        problem, _ = assemble_theta_sdp(cycle_graph(7))
        s = solve_sdp(problem)
        assert s.primal <= s.dual + 1e-6

    def test_deterministic(self):
        problem, _ = assemble_theta_sdp(cycle_graph(5))
        s1 = solve_sdp(problem)
        s2 = solve_sdp(problem)
        assert s1.primal == s2.primal and s1.dual == s2.dual
        assert all((a == b).all() for a, b in zip(s1.blocks, s2.blocks))

    def test_presolve_drops_duplicates(self):
        eye = np.array([[1.0]])
        p = SdpProblem(
            [1],
            [eye],
            [([(0, 0, 0, 1.0)], 0.5), ([(0, 0, 0, 2.0)], 1.0)],  # second row dependent
        )
        s = solve_sdp(p)
        assert s.status == "optimal" and abs(s.primal - 0.5) < 1e-8

    def test_presolve_flags_inconsistent(self):
        eye = np.array([[1.0]])
        p = SdpProblem([1], [eye], [([(0, 0, 0, 1.0)], 0.5), ([(0, 0, 0, 2.0)], 2.0)])
        assert solve_sdp(p).status == "infeasible"

    def test_presolve_keeps_rows_in_order_and_checks_dropped_rhs(self):
        e11, e22, one = (0, 0, 0, 1.0), (0, 1, 1, 1.0), (1, 0, 0, 1.0)
        objective = [np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[1.0]])]
        base = [([e11], 1.0), ([e22], 1.0), ([one], 0.5)]

        def solve(extra):
            return solve_sdp(SdpProblem([2, 1], objective, base + extra))

        want = solve([])
        assert want.status == "optimal" and abs(want.primal - 2.5) < 1e-8
        # sum of the first and last rows, which sit on different blocks
        summed = [e11, one]
        for extra in ([(summed, 1.5)], [([], 0.0)]):
            s = solve(extra)
            assert s.status == "optimal" and s.y[3] == 0.0
            assert abs(s.primal - want.primal) < 1e-8
        assert solve([(summed, 2.0)]).status == "infeasible"
        assert solve([([], 1.0)]).status == "infeasible"
        # more rows than the block has coordinates
        rows = [([(0, 0, 0, float(k))], 0.5 * k) for k in (1, 2, 3)]
        s = solve_sdp(SdpProblem([1], [np.array([[1.0]])], rows))
        assert s.status == "optimal" and abs(s.primal - 0.5) < 1e-8

    def test_presolve_matches_gram_schmidt_reference(self):
        rng = np.random.default_rng(7)
        graphs = (cycle_graph(5), complete_hypergraph(3, 3), complete_hypergraph(3, 4))
        cases = [_stack(assemble_theta_sdp(hg)[0])[:2] for hg in graphs]
        for m, width in ((6, 10), (12, 5)):
            a = rng.normal(size=(m, width))
            a[2] = 0.0
            a[3] = a[0] - 2.0 * a[1]
            a[m - 1] = a[4] + a[1]
            cases.append((a, a @ rng.normal(size=width)))
        # a duplicate row followed by a row in a direction not yet seen
        a = np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]])
        cases.append((a, np.array([1.0, 1, 2])))
        for a, rhs in cases:
            kept, bad = _presolve(a, rhs)
            assert bad is None
            assert list(kept) == _gram_schmidt_kept(a)

    def test_psd_blocks_at_optimum(self):
        problem, _ = assemble_theta_sdp(complete_hypergraph(3, 3))
        s = solve_sdp(problem)
        for block in s.blocks:
            assert np.linalg.eigvalsh(block).min() >= -1e-9

    def test_block_order_does_not_change_the_solution(self):
        # interleaved sizes, so the size stacks hold blocks out of order
        dims = [3, 1, 3, 2, 1, 3]
        rng = np.random.default_rng(11)
        objective = [(c + c.T) / 2 for c in (rng.normal(size=(d, d)) for d in dims)]
        rows = [([(b, i, i, 1.0) for i in range(d)], 1.0) for b, d in enumerate(dims) if d > 1]
        rows += [
            ([(1, 0, 0, 1.0), (4, 0, 0, 1.0)], 1.0),
            ([(1, 0, 0, 1.0), (0, 2, 2, -1.0)], 0.0),
            ([(0, 0, 1, 1.0), (2, 0, 2, -1.0)], 0.0),
            ([(3, 0, 1, 1.0), (5, 1, 2, -1.0)], 0.0),
        ]
        perm = [5, 3, 1, 0, 4, 2]  # new block k is old block perm[k]
        new = {old: k for k, old in enumerate(perm)}
        permuted = SdpProblem(
            [dims[b] for b in perm],
            [objective[b] for b in perm],
            [([(new[b], i, j, c) for b, i, j, c in terms], v) for terms, v in rows],
        )
        s1 = solve_sdp(SdpProblem(dims, objective, rows))
        s2 = solve_sdp(permuted)
        assert s1.status == s2.status == "optimal"
        # The Schur complement sums the coupled rows' block terms in block
        # order, so the two solves differ by roundoff that the endgame
        # amplifies: about 1e-10 in the value and 1e-8 in the blocks here.
        assert abs(s1.primal - s2.primal) <= 1e-9
        assert [b.shape[0] for b in s1.blocks] == dims
        for k, b in enumerate(perm):
            assert np.abs(s2.blocks[k] - s1.blocks[b]).max() <= 1e-6

    def test_tight_tolerance_on_a_weighted_instance(self):
        # S^1/2 X S^1/2 formed directly lost its definiteness to roundoff in
        # this endgame, which stopped the solve as a breakdown.
        hg = Hypergraph(3, 5, ((0, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)))
        problem, _ = assemble_theta_sdp(hg, [0.51, 0.59, 0.18, 0.51, 0.63])
        s = solve_sdp(problem, tol=1e-11)
        assert s.status == "optimal"
        assert abs(s.primal - solve_sdp(problem).primal) < 1e-7

    def test_validates_input(self):
        with pytest.raises(ValueError):
            SdpProblem([1], [np.eye(2)], [])
        with pytest.raises(ValueError):
            SdpProblem([2], [np.eye(2)], [([(0, 0, 0, 1.0), (0, 1, 1, 1.0)], float("inf"))])
        p = SdpProblem([1], [np.array([[1.0]])], [([(0, 0, 0, 1.0)], 0.5)])
        for tol in (0.0, -1e-8, np.inf, np.nan):
            with pytest.raises(ValueError):
                solve_sdp(p, tol=tol)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize(
        "dims, objective, rows, early",
        [
            # unbounded: the iterates overflow to a non-finite gap or residual
            pytest.param([2], [np.eye(2)], [([(0, 0, 1, 1.0)], 0.0)], True, id="unbounded-x01"),
            pytest.param([2], [np.eye(2)], [([(0, 0, 0, 1.0)], 0.0)], True, id="unbounded-x00"),
            pytest.param(
                [1, 1], [np.eye(1)] * 2, [([(0, 0, 0, 1.0)], 1.0)], True, id="unbounded-1x1"
            ),
            # unbounded: LAPACK gives up on a finite but overflowing step
            pytest.param(
                [1, 3], [np.eye(1), np.eye(3)], [([(0, 0, 0, 1.0)], 1.0)], True, id="unbounded-3x3"
            ),
            pytest.param(
                [2, 2],
                [np.diag([-2.0, 2.0]), np.array([[1.0, -0.5], [-0.5, -1.0]])],
                [([(0, 1, 1, 1.0)], 0.0)],
                True,
                id="nt-breakdown",
            ),
            # X1 = -1/2, with X01 = 0 given as two terms: eight ridges fail
            pytest.param(
                [2, 1],
                [np.zeros((2, 2)), np.eye(1)],
                [([(1, 0, 0, 2.0)], -1.0), ([(0, 1, 0, 2.0), (0, 0, 1, -1.0)], 0.0)],
                True,
                id="cholesky-failure",
            ),
            # X00 = X11 = 1 and X01 = 2 has no PSD point: the steps stall
            pytest.param(
                [2],
                [np.eye(2)],
                [([(0, 0, 0, 1.0)], 1.0), ([(0, 1, 1, 1.0)], 1.0), ([(0, 0, 1, 1.0)], 2.0)],
                True,
                id="stall",
            ),
            # X = -1 runs every iteration
            pytest.param([1], [np.eye(1)], [([(0, 0, 0, 1.0)], -1.0)], False, id="x-negative"),
        ],
    )
    def test_failure_exits_return_numerical_failure(self, dims, objective, rows, early):
        s = solve_sdp(SdpProblem(dims, objective, rows))
        assert s.status == "numerical-failure"
        assert (s.iterations < 300) is early

    @pytest.mark.parametrize(
        "dims, objective, rows",
        [
            pytest.param([2], [np.eye(2)], [([(1, 0, 0, 1.0)], 1.0)], id="unknown-block"),
            pytest.param([2], [np.eye(2)], [([(-1, 0, 0, 1.0)], 1.0)], id="negative-block"),
            pytest.param([2], [np.eye(2)], [([(0, 2, 0, 1.0)], 1.0)], id="i-at-d"),
            pytest.param([2], [np.eye(2)], [([(0, 0, 3, 1.0)], 1.0)], id="j-past-d"),
            pytest.param([2], [np.eye(2)], [([(0, -1, 0, 1.0)], 1.0)], id="negative-i"),
            pytest.param([2], [np.eye(2)], [([(0, 0.5, 0, 1.0)], 1.0)], id="non-integer-i"),
            pytest.param([2], [np.eye(2)], [([(0, 0, 1, np.nan)], 1.0)], id="nan-coef"),
            pytest.param([2], [np.eye(2)], [([(0, 0, 1, np.inf)], 1.0)], id="inf-coef"),
            pytest.param([2], [np.eye(2)], [([(0, 0, 0, 1.0)], np.nan)], id="nan-rhs"),
            pytest.param([2, 1], [np.eye(2)], [([(0, 0, 0, 1.0)], 1.0)], id="objective-count"),
            pytest.param([2], [np.eye(3)], [([(0, 0, 0, 1.0)], 1.0)], id="objective-shape"),
        ],
    )
    def test_rejects_bad_terms(self, dims, objective, rows):
        with pytest.raises(ValueError):
            SdpProblem(dims, objective, rows)

    def test_constraints_view_is_dense_and_symmetric(self):
        rows = [
            ([(0, 0, 0, 2.0), (0, 1, 0, 3.0), (0, 0, 1, 1.0), (0, 1, 1, 0.5)], 1.5),
            ([(1, 2, 2, 1.0), (1, 2, 2, -4.0), (1, 2, 0, 6.0)], -1.0),
        ]
        p = SdpProblem([2, 3], [np.zeros((2, 2)), np.zeros((3, 3))], rows)
        (first, rhs0), (second, rhs1) = p.constraints
        assert (rhs0, rhs1) == (1.5, -1.0)
        assert set(first) == {0} and set(second) == {1}  # untouched blocks left out
        # coef on the diagonal, coef/2 on each side, repeated terms summed
        assert np.array_equal(first[0], [[2.0, 2.0], [2.0, 0.5]])
        want = np.zeros((3, 3))
        want[2, 2], want[0, 2], want[2, 0] = -3.0, 3.0, 3.0
        assert np.array_equal(second[1], want)
        assert p.num_constraints == 2
