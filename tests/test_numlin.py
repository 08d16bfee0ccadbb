import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hypertheta.hamming import build_hamming_hypergraph
from hypertheta.hypercore import (
    Hypergraph,
    chi_star,
    complement,
    complete_hypergraph,
    cycle_graph,
    random_hypergraph,
)
from hypertheta.numlin import (
    SdpProblem,
    as_symmetric,
    eig_sym,
    solve_lp,
    solve_sdp,
)
from hypertheta.numlin import lp, sdp
from hypertheta.numlin.sdp import (
    _SUBST_BLOCK,
    _border_solve,
    _chol_solve,
    _factor,
    _factor_solve,
    _kept_rows,
    _max_step,
    _max_steps,
    _nt_scaling,
    _prepare,
    _presolve,
    _schur,
    _schur_times,
    _second_order,
    _stacked,
    _sym,
)
from hypertheta.symmetry import (
    _transitive_program,
    dihedral_group,
    mantel_hypergraph,
    symmetric_group_pair_action,
)
from hypertheta.thetabody import _free_form, assemble_theta_sdp


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

    def test_default_bounds_are_nonnegative(self):
        # bounds left out mean x >= 0 in both modes, for every outcome
        cases = [
            ([1, 1, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1], "min"),  # optimal
            ([1, -2], [[1, 1]], [3], "max"),  # optimal at a vertex
            ([1, 0], [[1, -1]], [0], "max"),  # unbounded
            ([1, 1], [[1, 1]], [-1], "max"),  # infeasible
            ([-1, 2], None, None, "min"),  # unbounded with no rows
        ]
        for exact in (False, True):
            for c, a, b, sense in cases:
                got = solve_lp(c, a, b, sense=sense, exact=exact)
                assert got == solve_lp(c, a, b, [(0, None)] * len(c), sense=sense, exact=exact)

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


def _general_lp(rng, kind):
    """A small exact LP of the given kind: "bounds" (mixed and free bounds,
    feasible by construction), "redundant" (one row the sum of two others),
    "degenerate" (0/1 data with ties in the cost and zeros on the right),
    "infeasible" (two rows that contradict) or "unbounded" (a free ray)."""
    nv, m = rng.randint(2, 6), rng.randint(1, 4)
    a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nv)] for _ in range(m)]
    c = [Fraction(rng.randint(-4, 4)) for _ in range(nv)]
    bounds = [(0, rng.randint(1, 4)) for _ in range(nv)]
    if kind == "bounds":
        shapes = [(0, None), (None, None), (-2, 3), (None, 1), (-1, None), (Fraction(1, 3), 2)]
        bounds = [rng.choice(shapes) for _ in range(nv)]
    elif kind == "degenerate":
        a = [[Fraction(rng.randint(0, 1)) for _ in range(nv)] for _ in range(m)]
        c = [Fraction(rng.choice([1, 1, 2])) for _ in range(nv)]
    x0 = []  # a point within the bounds
    for lo, hi in bounds:
        v = Fraction(0 if kind == "degenerate" else rng.randint(-1, 2))
        v = v if lo is None else max(v, lo)
        x0.append(v if hi is None else min(v, hi))
    b = [sum(row[j] * x0[j] for j in range(nv)) for row in a]
    if kind == "redundant" and m >= 2:
        a.append([u + v for u, v in zip(a[0], a[1])])
        b.append(b[0] + b[1])
    elif kind == "infeasible":
        a.append(list(a[0]))
        b.append(b[0] + 1)
    elif kind == "unbounded":
        a = [row + [Fraction(0)] for row in a]
        c.append(Fraction(1))
        bounds.append((None, None))
    sense = rng.choice(["max", "min"])
    return c, a, b, bounds, sense


def _all_fraction(monkeypatch, c, a, b, bounds, sense):
    """The exact result with the float basis always rejected."""
    with monkeypatch.context() as m:
        m.setattr(lp, "_certify", lambda *args: None)
        return solve_lp(c, a, b, bounds, sense=sense, exact=True)


def _assert_feasible(res, a, b, bounds):
    for row, rhs in zip(a, b):
        assert sum(Fraction(v) * x for v, x in zip(row, res.x)) == rhs
    for x, (lo, hi) in zip(res.x, bounds):
        assert (lo is None or x >= lo) and (hi is None or x <= hi)


class TestCertifiedBasis:
    """Exact LPs take the float run's final basis when it passes the exact
    optimality check; the result must equal the all-Fraction path's."""

    def _compare(self, monkeypatch, c, a, b, bounds, sense):
        got = solve_lp(c, a, b, bounds, sense=sense, exact=True)
        want = _all_fraction(monkeypatch, c, a, b, bounds, sense)
        assert got.status == want.status
        assert got.value == want.value
        if got.status == "optimal":
            assert all(isinstance(v, Fraction) for v in got.x)
            _assert_feasible(got, a, b, bounds)
        return got

    def test_random_lps_match_the_all_fraction_path(self, monkeypatch):
        rng = random.Random(23)
        statuses = []
        for _ in range(100):
            statuses.append(self._compare(monkeypatch, *_covering_lp(rng, True)).status)
        kinds = ["bounds"] * 80 + ["redundant", "degenerate"] * 40 + ["infeasible", "unbounded"] * 20
        for kind in kinds:
            statuses.append(self._compare(monkeypatch, *_general_lp(rng, kind)).status)
        for n in range(4, 30):
            statuses.append(self._compare(monkeypatch, *_mantel_lp(n)).status)
        assert len(statuses) >= 300
        assert {"optimal", "infeasible", "unbounded"} <= set(statuses)

    @pytest.mark.parametrize("corruption", ["swap", "repeat", "reverse"])
    def test_rejected_basis_falls_back_to_exact_pivots(self, monkeypatch, corruption):
        verdicts = []
        check = lp._certify

        def corrupt(rows, rhs, cmin, basis):
            # in place: the caller builds its point from this basis
            if corruption == "swap":  # a nonbasic column replaces a basic one
                basis[0] = next(j for j in range(len(cmin)) if j not in basis)
            elif corruption == "repeat":  # a singular basis matrix
                basis[0] = basis[-1]
            else:  # feasible, but optimal for the opposite objective
                image = [[float(v) for v in row] for row in rows], [float(v) for v in rhs]
                status, other, _ = lp._two_phase(*image, [-float(v) for v in cmin], False)
                assert status == "optimal" and len(other) == len(rows)
                basis[:] = other
            xb = check(rows, rhs, cmin, basis)
            verdicts.append(xb is None)
            return xb

        rng = random.Random(5)
        if corruption == "reverse":  # the Mantel LPs are bounded both ways
            cases = [_mantel_lp(n) for n in range(4, 30)]
        else:
            cases = [_covering_lp(rng, True) for _ in range(20)]
            cases += [_mantel_lp(n) for n in range(4, 12)]
        for c, a, b, bounds, sense in cases:
            want = _all_fraction(monkeypatch, c, a, b, bounds, sense)
            with monkeypatch.context() as m:
                m.setattr(lp, "_certify", corrupt)
                got = solve_lp(c, a, b, bounds, sense=sense, exact=True)
            if verdicts[-1]:
                assert (got.status, got.value, got.x) == (want.status, want.value, want.x)
            else:  # a swapped-in column can give another optimal basis of a tied LP
                assert (got.status, got.value) == (want.status, want.value)
                _assert_feasible(got, a, b, bounds)
        assert len(verdicts) == len(cases)
        assert sum(verdicts) >= len(cases) - (2 if corruption == "swap" else 0)

    def test_coefficient_beyond_the_double_range(self, monkeypatch):
        big = 2**1100
        c, a, b, bounds = [1, 1], [[big, 1]], [big], [(0, None)] * 2
        got = solve_lp(c, a, b, bounds, sense="max", exact=True)
        want = _all_fraction(monkeypatch, c, a, b, bounds, "max")
        assert (got.status, got.value, got.x) == ("optimal", big, [0, big])
        assert (got.status, got.value, got.x) == (want.status, want.value, want.x)

    def test_rhs_below_the_double_range(self, monkeypatch):
        tiny = Fraction(1, 2**1100)  # its float image is 0.0
        c, a, b, bounds = [1, 2], [[1, 1]], [tiny], [(0, None)] * 2
        got = solve_lp(c, a, b, bounds, sense="max", exact=True)
        want = _all_fraction(monkeypatch, c, a, b, bounds, "max")
        assert (got.status, got.value, got.x) == ("optimal", 2 * tiny, [0, tiny])
        assert (got.status, got.value, got.x) == (want.status, want.value, want.x)

    def test_chi_star_runs_no_fraction_pivot(self, monkeypatch):
        # the simplex runs in floats; Fractions only certify its basis
        modes = []
        two_phase = lp._two_phase

        def spy(rows, rhs, cmin, exact):
            modes.append(exact)
            return two_phase(rows, rhs, cmin, exact)

        monkeypatch.setattr(lp, "_two_phase", spy)
        hbar = complement(random_hypergraph(11, 3, 0.4, random.Random(7)))
        value, parts = chi_star(hbar)
        assert modes and not any(modes)
        assert sum(lam for lam, _ in parts) == value


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


def _whiten(eig):
    """z with z^T x z = I per block of one stack; eig is np.linalg.eigh(x)."""
    vals, vecs = eig
    return vecs / np.sqrt(np.maximum(vals, 1e-300))[:, None, :]


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
        a = _max_step(_whiten(np.linalg.eigh(xs)), dxs).min()
        assert a == pytest.approx(limit[1], rel=1e-10)
        # the fraction of it that the solver takes keeps every block PSD,
        # and a longer step leaves the cone in the limiting block only
        for x, dx in zip(xs, dxs):
            assert np.linalg.eigvalsh(x + 0.99 * a * dx).min() > 0
        past = [np.linalg.eigvalsh(x + 1.01 * a * dx).min() for x, dx in zip(xs, dxs)]
        assert past[1] < 0 and past[0] > 0 and past[2] > 0
        assert _max_step(_whiten(np.linalg.eigh(xs[[0]])), dxs[[0]]).min() == np.inf

    @pytest.mark.parametrize("seed, sizes", [(1, (2, 5)), (2, (1, 3, 4)), (4, (3, 4, 6))])
    def test_joint_step_lengths_equal_the_per_stack_rule(self, seed, sizes):
        rng = np.random.default_rng(seed)
        ss, xs, dss, dxs = [], [], [], []
        for g, d in enumerate(sizes):
            k = g + 1
            ss.append(_random_spd(rng, k, d))
            xs.append(_random_spd(rng, k, d))
            dss.append(_sym(rng.normal(size=(k, d, d))))
            dxs.append(_sym(rng.normal(size=(k, d, d))))
        dss[0][0] = np.eye(sizes[0])  # a block that allows any step
        dxs[-1][-1] = _random_spd(rng, 1, sizes[-1])[0]

        def per_stack(mats, dirs):
            return min(_max_step(_whiten(np.linalg.eigh(m)), d).min() for m, d in zip(mats, dirs))

        def joint(dxs, dss):
            zs = [_whiten(np.linalg.eigh(np.concatenate([s, x]))) for s, x in zip(ss, xs)]
            return _max_steps(zs, dxs, dss)

        ap, ad = joint(dxs, dss)
        assert ap == per_stack(xs, dxs) and ad == per_stack(ss, dss)
        assert np.isfinite(ap) and np.isfinite(ad)
        # every block allowing any step on one side gives inf there alone
        up = [np.broadcast_to(np.eye(d), s.shape) for d, s in zip(sizes, ss)]
        assert joint(dxs, up) == (per_stack(xs, dxs), np.inf)
        assert joint(up, dss) == (np.inf, per_stack(ss, dss))

    def test_scaling_point_per_block(self):
        rng = np.random.default_rng(5)
        ss, xs = _random_spd(rng, 3, 4), _random_spd(rng, 3, 4)
        w, sinv, g, ginv, lam, z = _nt_scaling(ss, xs)
        assert lam.shape == (3, 4) and z.shape == (6, 4, 4)
        for wb, sb, xb, vb, gb, hb, lb, zs, zx in zip(w, ss, xs, sinv, g, ginv, lam, z[:3], z[3:]):
            assert np.array_equal(wb, wb.T)
            assert np.abs(wb @ sb @ wb - xb).max() <= 1e-10 * np.abs(xb).max()
            assert np.abs(vb @ sb - np.eye(4)).max() <= 1e-10
            # the factor of the corrector's scaled space
            assert np.abs(gb @ gb.T - wb).max() <= 1e-10 * np.abs(wb).max()
            assert np.abs(gb.T @ sb @ gb - np.diag(lb)).max() <= 1e-10 * lb.max()
            assert np.abs(hb @ xb @ hb.T - np.diag(lb)).max() <= 1e-10 * lb.max()
            assert np.abs(gb @ hb - np.eye(4)).max() <= 1e-10
            # the whitening of the step lengths, S's then X's
            assert np.abs(zs.T @ sb @ zs - np.eye(4)).max() <= 1e-10
            assert np.abs(zx.T @ xb @ zx - np.eye(4)).max() <= 1e-10
        # the whitening holds where the floor on lam binds: S = D S0 D with
        # D = diag(1, 1, 1, 1e-9) puts each block's smallest lam near 1e-9
        # of its largest, below the floor of 1e-7
        scaled = ss * np.array([1.0, 1.0, 1.0, 1e-9])[:, None] * np.array([1.0, 1.0, 1.0, 1e-9])
        *_, lam, z = _nt_scaling(scaled, xs)
        assert np.all(lam[:, -1] == 1e-7 * lam[:, 0])
        for sb, xb, zs, zx in zip(scaled, xs, z[:3], z[3:]):
            assert np.abs(zs.T @ sb @ zs - np.eye(4)).max() <= 1e-10
            assert np.abs(zx.T @ xb @ zx - np.eye(4)).max() <= 1e-10
        # an indefinite block of either iterate is a breakdown
        for k in range(3):
            bad = ss.copy()
            bad[k] -= 2.0 * np.linalg.eigvalsh(ss[k]).min() * np.eye(4)
            with pytest.raises(np.linalg.LinAlgError):
                _nt_scaling(bad, xs)
            with pytest.raises(np.linalg.LinAlgError):
                _nt_scaling(ss, bad)

    def test_second_order_term_solves_the_lyapunov_equation(self):
        rng = np.random.default_rng(9)
        ss, xs = _random_spd(rng, 3, 4), _random_spd(rng, 3, 4)
        dx, ds = rng.normal(size=(2, 3, 4, 4))
        dx, ds = dx + dx.transpose(0, 2, 1), ds + ds.transpose(0, 2, 1)
        scaling = _nt_scaling(ss, xs)
        _, _, g, ginv, lam, _ = scaling
        term = _second_order(scaling, dx, ds)
        for tb, gb, hb, lb, xb, sb in zip(term, g, ginv, lam, dx, ds):
            z = hb @ tb @ hb.T  # back in the scaled space: G^-1 term G^-T
            p = hb @ xb @ sb @ gb
            lyap = np.diag(lb) @ z + z @ np.diag(lb)
            assert np.abs(lyap - p - p.T).max() <= 1e-10 * np.abs(p).max()
            assert np.abs(z - z.T).max() <= 1e-10 * np.abs(z).max()
            assert np.abs(tb - tb.T).max() <= 1e-10 * np.abs(tb).max()


class _Captured(Exception):
    pass


def _problem_solved_by(monkeypatch, call):
    """The SdpProblem that call hands to the solver first."""
    from hypertheta import thetabody

    def capture(problem, tol, **hook):
        raise _Captured(problem)

    monkeypatch.setattr(thetabody, "solve_sdp", capture)
    with pytest.raises(_Captured) as caught:
        call()
    return caught.value.args[0]


def _assembled(lay, parts):
    """The m x m matrix M that the split parts of _schur hold: each group's
    private block and its coupling to its separator, both ways, and the
    border block.  The padding lands in a spare last row and column."""
    priv, coup, border = parts
    m = lay.m
    out = np.zeros((m + 1, m + 1))
    out[np.ix_(lay.border, lay.border)] = border
    to_row = np.append(lay.border, m)  # a separator's border place -> its row
    for rows, seps, block, tie in zip(lay.priv, lay.sep, priv, coup):
        out[np.ix_(rows, rows)] = block
        out[np.ix_(rows, to_row[seps])] = tie
        out[np.ix_(to_row[seps], rows)] = tie.T
    return out[:m, :m]


class TestSchur:
    """_schur against sum_b <A_ib, W_b A_jb W_b> from the dense constraint view,
    read through its split parts as the dense M they hold."""

    @staticmethod
    def check(problem, kept=None, seed=0):
        if kept is None:
            kept, _ = _kept_rows(problem)
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
        parts = _schur(lay, _stacked(lay, ws))
        got = _assembled(lay, parts)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_theta_program(self):
        self.check(assemble_theta_sdp(mantel_hypergraph(5))[0])

    def test_scaled_membership_program(self, monkeypatch):
        from hypertheta.thetabody import theta_membership

        hg = mantel_hypergraph(5)
        problem = _problem_solved_by(
            monkeypatch, lambda: theta_membership(hg, [0.5] * hg.n)
        )
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
        kept, _ = _kept_rows(problem)
        assert list(kept) == [0, 1, 3, 5]
        for seed in range(3):
            self.check(problem, kept, seed)

    @staticmethod
    def formulas(problem):
        """Per stack of the program's layout, the Schur formula it takes."""
        lay = _prepare(problem, _kept_rows(problem)[0])
        return ["F3" if dense is None else "F1" for dense in lay.dense]

    @pytest.mark.parametrize("build", [lambda: mantel_hypergraph(6), lambda: build_hamming_hypergraph(4, 2)],
                             ids=["mantel6", "hamming4-2"])
    def test_merged_program_takes_f1(self, monkeypatch, build):
        from hypertheta.thetabody import theta

        hg = build()
        problem = _problem_solved_by(monkeypatch, lambda: theta(hg))
        # 5 dense rows on 2 blocks of one stack
        assert problem.num_constraints == 5 and len(problem.block_dims) == 2
        assert self.formulas(problem) == ["F1"]
        for seed in range(3):
            self.check(problem, seed=seed)

    def test_border_program_mixes_f1_and_f3_stacks(self):
        # Rows 1-4 name the 20 x 20 block, the root; row 0, on the 2 x 2
        # block alone, has fewer rows than its separator and stays on the
        # border, so every row is.  The dense rows make the 20 x 20 stack F1,
        # which adds into rows 1-4 only; the 2 x 2 block, too small to lift
        # into it, is a stack of its own with a few terms, on F3.
        rng = np.random.default_rng(5)
        iu, ju = np.triu_indices(20)
        rows = [([(0, 0, 0, 1.0), (0, 1, 1, 2.0)], 1.0)]
        for r in range(4):
            terms = [(1, i, j, c) for i, j, c in zip(iu, ju, rng.normal(size=len(iu)))]
            rows.append((terms + [(0, r % 2, 1, 1.0 + r)], float(r)))
        problem = SdpProblem([2, 20], [np.eye(2), np.eye(20)], rows)
        assert self.formulas(problem) == ["F3", "F1"]
        lay = _prepare(problem, np.arange(5))
        assert len(lay.priv) == 0 and list(lay.border) == [0, 1, 2, 3, 4]
        assert list(lay.dense[1][0]) == [1, 2, 3, 4]
        for seed in range(3):
            self.check(problem, seed=seed)

    def test_formula_follows_the_program_shape(self):
        # F3 where the program has a group, where F1's multiply-adds are
        # many per pair of terms, and where the stack has few pairs.
        unreduced = _free_form(assemble_theta_sdp(mantel_hypergraph(5))[0])[0]
        assert len(_prepare(unreduced, _kept_rows(unreduced)[0]).priv) > 0
        assert self.formulas(unreduced) == ["F3", "F3"]
        eigenspaces = _transitive_program(mantel_hypergraph(7), symmetric_group_pair_action(7))
        assert self.formulas(eigenspaces) == ["F3"]
        no_psd = SdpProblem(
            [2], [np.eye(2)], [([(0, 0, 0, 1.0)], 1.0), ([(0, 1, 1, 1.0)], 1.0), ([(0, 0, 1, 1.0)], 2.0)]
        )
        assert self.formulas(no_psd) == ["F3"]


def _dense_schur(problem, kept, ws):
    """M[r, s] = <A_r, W A_s W> summed over the blocks as vec(A_r)^T (W kron W)
    vec(A_s), from the dense constraint view: no F3 pairs, no split."""
    view = problem.constraints
    m = np.zeros((len(kept), len(kept)))
    for b, (d, w) in enumerate(zip(problem.block_dims, ws)):
        a = np.stack([view[r][0].get(b, np.zeros((d, d))).ravel() for r in kept])
        m += a @ np.kron(w, w) @ a.T
    return m


def _dense_rows(problem):
    """The constraint rows as one matrix, from the dense constraint view, and
    their right-hand sides.  A row is its blocks' matrices raveled and
    concatenated, so dot products of rows are the Frobenius inner products."""
    view = problem.constraints
    blocks = list(enumerate(problem.block_dims))
    a = [np.concatenate([m.get(b, np.zeros((d, d))).ravel() for b, d in blocks]) for m, _ in view]
    return np.array(a), np.array([rhs for _, rhs in view])


class TestTreeFactor:
    """_factor and _factor_solve against np.linalg.solve on the dense M, and
    _schur_times, the product a ridged solve refines with, computed from the
    rows, against the dense M @ v."""

    @staticmethod
    def check(problem, groups, seed=0):
        kept, _ = _kept_rows(problem)
        rng = np.random.default_rng(seed)
        ws = [_random_spd(rng, 1, d)[0] + np.eye(d) for d in problem.block_dims]
        lay = _prepare(problem, kept)
        assert lay.priv.shape[0] == groups
        stacks = _stacked(lay, ws)
        parts = _schur(lay, stacks)
        m = len(kept)
        assert sum(p.size for p in parts) <= m * m  # m * m only with no group
        dense = _dense_schur(problem, kept, ws)
        v = rng.normal(size=m)
        scale = np.abs(dense) @ np.abs(v)
        assert np.abs(_schur_times(lay, stacks, v) - dense @ v).max() <= 1e-13 * scale.max()
        for ridge in (0.0, 1e-2 * np.trace(dense) / m):
            want = np.linalg.solve(dense + ridge * np.eye(m), v)
            low, e, (chol, schur) = _factor(lay, parts, ridge)
            for border in ((chol, schur), (chol, None)):  # the border by LU, then by substitution
                got = _factor_solve(lay, (low, e, border), v)
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        return lay

    def test_border_lu_with_a_zero_pivot_takes_the_factor(self, monkeypatch):
        # A numerically singular border can give its LU an exactly zero pivot
        # where its Cholesky factor has a positive diagonal; the solve then
        # goes through the factor, as it does when no Schur complement is kept.
        rng = np.random.default_rng(4)
        schur = _random_spd(rng, 1, 6)[0]
        chol, vec = np.linalg.cholesky(schur), rng.normal(size=6)
        solve = np.linalg.solve

        def singular(a, b):
            if a is schur:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        assert np.array_equal(_border_solve((chol, schur), vec), solve(schur, vec))
        want = _chol_solve(chol, vec)
        monkeypatch.setattr(np.linalg, "solve", singular)
        assert np.array_equal(_border_solve((chol, schur), vec), want)
        assert np.array_equal(_border_solve((chol, None), vec), want)

    def test_mantel_6_free_form(self):
        problem = _free_form(assemble_theta_sdp(mantel_hypergraph(6))[0])[0]
        lay = self.check(problem, 15)
        # 15 x 24^2 + 15 x 24 x 9 + 120^2 stored entries, against 480^2
        assert (lay.m, len(lay.border), lay.priv.shape[1], lay.sep.shape[1]) == (480, 120, 24, 9)
        row, blk = problem.index[:, 0], problem.index[:, 1]
        assert sdp.border_rows(row, blk, lay.m, len(problem.block_dims)) == 120

    def test_unequal_groups_on_a_three_level_tree(self):
        hg = random_hypergraph(6, 4, 0.4, random.Random(2))
        problem = _free_form(assemble_theta_sdp(hg)[0])[0]
        lay = self.check(problem, 6)
        # 4-, 3- and 2-uniform nodes; groups and separators padded to P and Q
        assert max(problem.block_dims) == 7 and min(problem.block_dims) == 3
        assert sorted((lay.priv < lay.m).sum(axis=1)) == [8, 9, 17, 20, 22, 22]
        assert sorted((lay.sep < len(lay.border)).sum(axis=1)) == [5, 5, 6, 6, 6, 6]

    def test_scaled_membership_program(self, monkeypatch):
        from hypertheta.thetabody import theta_membership

        monkeypatch.setattr("hypertheta.thetabody.automorphisms", lambda *args: [])  # the unreduced program
        hg = mantel_hypergraph(5)
        problem = _problem_solved_by(monkeypatch, lambda: theta_membership(hg, [0.5] * hg.n))
        self.check(problem, 10)

    def test_skewed_groups_pad_to_under_half_of_m_squared(self):
        # Links of very unequal size: groups of 7 to 48 private rows, all
        # padded to 48 rows and 12 separator rows.  The padding doubles the
        # parts (35,721 entries against 17,028 unpadded) but they stay
        # under half of the 277^2 = 76,729 of the dense M.
        hg = random_hypergraph(13, 3, 0.06, random.Random(3))
        lay = self.check(_free_form(assemble_theta_sdp(hg)[0])[0], 9)
        assert sorted((lay.priv < lay.m).sum(axis=1)) == [7, 7, 7, 7, 11, 24, 29, 38, 48]
        (ng, p), q, nb = lay.priv.shape, lay.sep.shape[1], len(lay.border)
        assert (lay.m, nb, q) == (277, 99, 12)
        assert 2 * (ng * p * (p + q) + nb * nb) < lay.m * lay.m

    def test_eigenspace_program_has_no_group(self):
        # Only row 0 (X[0, 0] = 1 on the three 1 x 1 blocks) misses the root
        # block, and 11 separator rows keep it on the border: M is one block.
        problem = _transitive_program(mantel_hypergraph(7), symmetric_group_pair_action(7))
        lay = self.check(problem, 0)
        assert list(lay.border) == list(range(lay.m))

    def test_disconnected_blocks_give_an_empty_separator(self):
        rows = [
            ([(0, 0, 0, 1.0)], 1.0),
            ([(0, 0, 1, 1.0), (0, 1, 1, 1.0)], 1.0),
            ([(1, 0, 0, 1.0)], 1.0),
            ([(1, 1, 2, 1.0)], 0.0),
            ([(1, 2, 2, 1.0), (1, 0, 2, 0.5)], 1.0),
        ]
        problem = SdpProblem([2, 3], [np.eye(2), np.eye(3)], rows)
        lay = self.check(problem, 1)
        assert list(lay.border) == [2, 3, 4] and lay.sep.shape == (1, 0)


def _union_find_least(n, edges):
    """Reference for _least_labels: the least node of each node's component,
    by union-find with the smaller root kept."""
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in edges:
        for x, y in zip(a.tolist(), b.tolist()):
            rx, ry = root(x), root(y)
            parent[max(rx, ry)] = min(rx, ry)
    return [root(x) for x in range(n)]


def _split_reference(row, blk, m, nblk):
    """Reference for _split by breadth-first search over the block graph, two
    blocks adjacent when a row off the root block touches both."""
    pairs = sorted(set(zip(row.tolist(), blk.tolist())))
    touch = [sum(b == k for _, b in pairs) for k in range(nblk)]
    root = touch.index(max(touch))
    border = {r for r, b in pairs if b == root}
    neighbours = {k: set() for k in range(nblk)}
    blocks_of = {r: {b for q, b in pairs if q == r} for r in range(m)}
    for r in set(range(m)) - border:
        for b in blocks_of[r]:
            neighbours[b] |= blocks_of[r]
    comp = {}
    for start in range(nblk):
        if start in comp:
            continue
        comp[start], queue = start, [start]
        while queue:
            for c in neighbours[queue.pop()]:
                if c not in comp:
                    comp[c] = start
                    queue.append(c)
    members = {}  # component (its least block) -> (private rows, separator rows)
    for r in range(m):
        if r not in border:
            members.setdefault(comp[min(blocks_of[r])], (set(), set()))[0].add(r)
    for r in border:
        for b in blocks_of[r] - {root}:
            members.setdefault(comp[b], (set(), set()))[1].add(r)
    groups = sorted(c for c, (own, seps) in members.items() if len(own) > len(seps))
    for c, (own, _) in members.items():
        if c not in groups:
            border |= own
    if not groups:
        return [-1] * m, list(range(m)), np.zeros((0, 0), dtype=np.intp)
    order = sorted(border)
    group, place = [-1] * m, [order.index(r) if r in border else 0 for r in range(m)]
    for g, c in enumerate(groups):
        for k, r in enumerate(sorted(members[c][0])):
            group[r], place[r] = g, k
    seps = [sorted(order.index(r) for r in members[c][1]) for c in groups]
    sep = np.full((len(groups), max(map(len, seps))), len(order))
    for g, s in enumerate(seps):
        sep[g, : len(s)] = s
    return group, place, sep


class TestSplit:
    """_least_labels against union-find, and _split against a reference by
    breadth-first search, on seeded random inputs."""

    def test_least_labels_match_union_find(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(0, 25))
            edges = []
            for _ in range(rng.integers(0, 4)):
                # repeated edges and self-loops come with the draws; some arrays are empty
                k = int(rng.integers(0, 2 * n + 1)) if n else 0
                edges.append((rng.integers(0, max(n, 1), k), rng.integers(0, max(n, 1), k)))
            got = sdp._least_labels(n, edges)
            assert got.tolist() == _union_find_least(n, edges)
        assert sdp._least_labels(0, []).shape == (0,)
        empty = np.zeros(0, dtype=np.intp)
        assert sdp._least_labels(4, [(empty, empty)]).tolist() == [0, 1, 2, 3]
        loops = np.array([0, 2, 2])
        assert sdp._least_labels(3, [(loops, loops)]).tolist() == [0, 1, 2]

    def test_split_matches_breadth_first_reference(self):
        rng = random.Random(5)
        seen = set()
        for _ in range(300):
            m, nblk = rng.randint(1, 24), rng.randint(1, 10)
            row, blk = [], []
            for r in range(m):
                # every row on at least one block, the root candidate 0 often,
                # and a term repeated now and then
                touched = rng.sample(range(nblk), rng.randint(1, min(3, nblk)))
                if rng.random() < 0.3:
                    touched.append(0)
                if rng.random() < 0.2:
                    touched.append(touched[0])
                row += [r] * len(touched)
                blk += touched
            order = list(range(len(row)))
            rng.shuffle(order)
            row, blk = np.array(row)[order], np.array(blk)[order]
            group, place, sep = sdp._split(row, blk, m, nblk)
            want_group, want_place, want_sep = _split_reference(row, blk, m, nblk)
            assert group.tolist() == want_group
            assert place.tolist() == want_place
            assert sep.shape == want_sep.shape and (sep == want_sep).all()
            distinct = set(zip(row.tolist(), blk.tolist()))
            root = max(range(nblk), key=lambda k: (sum(b == k for _, b in distinct), -k))
            joined = (group < 0).sum() > sum(b == root for _, b in distinct)
            seen.add((sep.shape[0] > 0, bool(joined)))
        # groups with and without components that joined the border, and no group
        assert seen >= {(True, True), (True, False), (False, True)}


def _diagonal_program(dims):
    """max <I, X> with X_b[0, 0] = 1 on every block: one kept row per block."""
    rows = [([(b, 0, 0, 1.0)], 1.0) for b in range(len(dims))]
    return SdpProblem(dims, [np.eye(d) for d in dims], rows)


def _stacks(problem):
    lay = _prepare(problem, np.arange(problem.num_constraints))
    return lay, list(zip(lay.counts, lay.sizes))


class TestStacks:
    """_prepare's merge rule: the k blocks at size d join the next size D
    while k * (D^3 - d^3) <= _MERGE_WORK, zero-padded into their slots."""

    def test_small_sizes_chain_into_one_stack(self):
        # 1 -> 3, then 3 blocks 3 -> 4, then 5 blocks 4 -> 5: one stack of 6
        lay, stacks = _stacks(_diagonal_program([1, 3, 3, 4, 4, 5]))
        assert stacks == [(6, 5)]
        assert lay.where == tuple((0, slot) for slot in range(6))
        stacked = _stacked(lay, [np.ones((d, d)) for d in (1, 3, 3, 4, 4, 5)])[0]
        assert stacked.sum(axis=(1, 2)).tolist() == [1, 9, 9, 16, 16, 25]
        assert np.array_equal(stacked[1], np.pad(np.ones((3, 3)), (0, 2)))  # zero on the pad

    def test_costly_lift_keeps_two_stacks(self):
        # 32 * (33^3 - 11^3) is far above the rule's bound
        lay, stacks = _stacks(_diagonal_program([11] * 32 + [33]))
        assert stacks == [(32, 11), (1, 33)]
        assert lay.bounds == (0, 32 * 11 * 11, 32 * 11 * 11 + 33 * 33)

    def test_chain_stops_and_restarts(self):
        # 2 -> 3 lifts 4 blocks; 6 blocks at 3 -> 20 fails, and 20 -> 21
        # starts again from 20 with one block
        _, stacks = _stacks(_diagonal_program([2] * 4 + [3] * 2 + [20, 21]))
        assert stacks == [(6, 3), (2, 21)]

    def test_mantel_6_free_form_is_unchanged(self):
        problem = _free_form(assemble_theta_sdp(mantel_hypergraph(6))[0])[0]
        _, stacks = _stacks(problem)
        assert stacks == [(15, 9), (1, 16)]

    @staticmethod
    def record_solves(monkeypatch):
        """The (problem, solution) of every solve thetabody makes from here on."""
        from hypertheta import thetabody

        solved = []

        def spy(problem, tol, **hook):
            solved.append((problem, solve_sdp(problem, tol, **hook)))
            return solved[-1][1]

        monkeypatch.setattr(thetabody, "solve_sdp", spy)
        return solved

    def test_merged_theta_returns_the_problem_shapes(self, monkeypatch):
        from hypertheta.thetabody import theta

        monkeypatch.setattr("hypertheta.thetabody.automorphisms", lambda *args: [])  # the unreduced program
        solved = self.record_solves(monkeypatch)
        res = theta(mantel_hypergraph(4), tol=1e-11)
        assert abs(res.value - 4.0) < 1e-9
        (problem, sol), = solved
        assert _stacks(problem)[1] == [(7, 7)]  # six 5 x 5 links lifted to 7
        assert [b.shape for b in sol.blocks] == [(d, d) for d in problem.block_dims]
        assert sol.residuals["min_eig"] > 0

    def test_gauge_program_stacks_as_theta(self, monkeypatch):
        from hypertheta import thetabody
        from hypertheta.thetabody import check_certificate, theta_membership

        monkeypatch.setattr("hypertheta.thetabody.automorphisms", lambda *args: [])  # the unreduced program
        solved = self.record_solves(monkeypatch)
        hg = mantel_hypergraph(4)
        member, cert = theta_membership(hg, [0.5] * hg.n)
        (problem, sol), = solved
        assert _stacks(problem)[1] == [(7, 7)]  # the blocks of theta's program
        assert member and check_certificate(hg, cert) == []
        # Membership stops at its first witness, so the value comes from the
        # gauge run to tol.  The free form's value is the gauge, on a
        # transitive instance lam* = n * 0.5 / theta = 3 / 4 (t* = 4 / 3).
        lam, *_ = thetabody._gauge(hg, [0.5] * hg.n, tuple(range(hg.n)), 1e-9, "gauge")
        (_, sol), = solved[1:]
        assert abs(sol.primal - 3.0 / 4.0) < 1e-8
        assert abs(lam - 3.0 / 4.0) < 1e-8


# Objectives that SdpProblem rejects, each checked per block size: one per
# failed check, and one failing in the second of two sizes only.
_BAD_OBJECTIVES = [
    pytest.param([2], [np.array([[1.0, 0.5], [0.0, 1.0]])], [([(0, 0, 0, 1.0)], 1.0)], id="asymmetric-objective"),
    pytest.param([2], [np.array([[np.nan, 0.0], [0.0, 1.0]])], [([(0, 0, 0, 1.0)], 1.0)], id="nan-objective"),
    pytest.param([2], [np.zeros((2, 3))], [([(0, 0, 0, 1.0)], 1.0)], id="non-square-objective"),
    pytest.param(
        [2, 3, 3], [np.eye(2), np.eye(3), np.zeros((3, 2))], [([(0, 0, 0, 1.0)], 1.0)], id="second-size-shape"
    ),
    pytest.param(
        [2, 3, 3],
        [np.eye(2), np.eye(3), np.triu(np.ones((3, 3)))],
        [([(0, 0, 0, 1.0)], 1.0)],
        id="second-size-asymmetric",
    ),
]


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

    def test_badly_scaled_two_by_two(self):
        # maximize 2 X01 subject to X00 = 1e8, X11 = 1; optimum 2e4.  This is
        # diag(1e4, 1) Y diag(1e4, 1) of the well scaled X00 = X11 = 1.
        p = SdpProblem(
            [2],
            [np.array([[0.0, 1.0], [1.0, 0.0]])],
            [([(0, 0, 0, 1.0)], 1e8), ([(0, 1, 1, 1.0)], 1.0)],
        )
        s = solve_sdp(p)
        assert s.status == "optimal"
        assert abs(s.primal - 2e4) < 1e-6 * 2e4

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
        cases = [_dense_rows(assemble_theta_sdp(hg)[0]) for hg in graphs]
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

    def test_kept_rows_match_the_dense_presolve(self):
        # rows that share no entry are decided by their norms, the rest by QR
        rows = [
            ([(0, 0, 0, 1.0), (0, 0, 1, 2.0)], 1.0),
            ([(0, 1, 1, 1.0)], 0.0),  # alone
            ([(0, 0, 1, 1.0), (0, 0, 0, 0.5)], 0.5),  # twice row 0
            ([(1, 0, 0, 1.0), (1, 0, 0, -1.0)], 0.0),  # alone, terms cancel
            ([(2, 0, 1, 1e-12)], 0.0),  # alone, below the threshold
            ([], 0.0),
        ]
        graphs = (cycle_graph(5), complete_hypergraph(3, 3), mantel_hypergraph(5))
        problems = [assemble_theta_sdp(hg)[0] for hg in graphs]
        problems += [_free_form(p)[0] for p in problems[:2]]
        problems.append(_transitive_program(mantel_hypergraph(7), symmetric_group_pair_action(7)))
        # the link rows of vertices 1 and 5 are equal under the reflection
        dihedral = _transitive_program(cycle_graph(6), dihedral_group(6))
        problems.append(dihedral)
        problems.append(SdpProblem([2, 1, 2], [np.eye(2), np.eye(1), np.eye(2)], rows))
        for problem in problems:
            kept, bad = _kept_rows(problem)
            assert bad is None
            assert list(kept) == list(_presolve(*_dense_rows(problem))[0])
        assert dihedral.num_constraints == 3 and len(_kept_rows(dihedral)[0]) == 2
        assert list(_kept_rows(problems[-1])[0]) == [0, 1]
        for extra in (
            [([], 1.0)],
            [([(2, 1, 1, 1.0), (2, 1, 1, -1.0)], 1.0)],  # alone
            [([(2, 0, 1, 1e-12)], 1.0)],  # shares its entry with row 4
        ):
            bad_rows = SdpProblem([2, 1, 2], [np.eye(2), np.eye(1), np.eye(2)], rows + extra)
            assert _kept_rows(bad_rows) == (None, "infeasible")

    def test_rows_that_share_no_entry_form_no_dense_matrix(self, monkeypatch):
        problem = _free_form(assemble_theta_sdp(complete_hypergraph(3, 4))[0])[0]

        def refuse(*args):
            raise AssertionError("stacked a dense matrix")

        monkeypatch.setattr(sdp, "_presolve", refuse)
        assert solve_sdp(problem).status == "optimal"

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

    def test_problem_and_solution_arrays_are_read_only(self):
        p = SdpProblem([2], [np.eye(2)], [([(0, 0, 0, 1.0), (0, 1, 1, 1.0)], 1.0)])
        s = solve_sdp(p)
        for arr in (p.rhs, p.index, p.coef, *p.objective, *s.blocks):
            with pytest.raises(ValueError):
                arr.flat[-1] = 5
        assert solve_sdp(p).status == "optimal"

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize(
        "dims, objective, rows, stop",
        [
            # unbounded: the iterates overflow to a non-finite gap or residual
            pytest.param(
                [2], [np.eye(2)], [([(0, 0, 1, 1.0)], 0.0)], "diverged", id="unbounded-x01"
            ),
            pytest.param(
                [2], [np.eye(2)], [([(0, 0, 0, 1.0)], 0.0)], "diverged", id="unbounded-x00"
            ),
            pytest.param(
                [1, 1], [np.eye(1)] * 2, [([(0, 0, 0, 1.0)], 1.0)], "diverged", id="unbounded-1x1"
            ),
            # unbounded: LAPACK gives up on a finite but overflowing step
            pytest.param(
                [1, 3],
                [np.eye(1), np.eye(3)],
                [([(0, 0, 0, 1.0)], 1.0)],
                "breakdown",
                id="unbounded-3x3",
            ),
            # block 1 is free and its objective indefinite: the dual step
            # shrinks tenfold per iteration until an iterate's Cholesky
            # factor fails
            pytest.param(
                [2, 2],
                [np.diag([-2.0, 2.0]), np.array([[1.0, -0.5], [-0.5, -1.0]])],
                [([(0, 1, 1, 1.0)], 0.0)],
                "breakdown",
                id="breakdown-free-block",
            ),
            # X1 = -1/2, with X01 = 0 given as two terms: the iterates overflow
            pytest.param(
                [2, 1],
                [np.zeros((2, 2)), np.eye(1)],
                [([(1, 0, 0, 2.0)], -1.0), ([(0, 1, 0, 2.0), (0, 0, 1, -1.0)], 0.0)],
                "diverged",
                id="diverged-x1-negative",
            ),
            # X00 = X11 = 1 and X01 = 2 has no PSD point: S grows to 4e201
            # and turns singular, and its Cholesky factor breaks down
            pytest.param(
                [2],
                [np.eye(2)],
                [([(0, 0, 0, 1.0)], 1.0), ([(0, 1, 1, 1.0)], 1.0), ([(0, 0, 1, 1.0)], 2.0)],
                "breakdown",
                id="breakdown-no-psd-point",
            ),
            # X = -1: the iterates overflow to a non-finite gap
            pytest.param(
                [1], [np.eye(1)], [([(0, 0, 0, 1.0)], -1.0)], "diverged", id="x-negative"
            ),
        ],
    )
    def test_failure_exits_return_numerical_failure(self, dims, objective, rows, stop):
        s = solve_sdp(SdpProblem(dims, objective, rows))
        assert s.status == "numerical-failure" and s.stop == stop
        assert s.iterations < 300
        # the diverged exit is the one that stops on a non-finite value
        last = [s.primal, s.dual, s.gap, s.residuals["primal"], s.residuals["dual"]]
        assert (not np.isfinite(last).all()) is (stop == "diverged")

    def test_cholesky_breakdown_ends_the_solve(self, monkeypatch):
        # eight failed factorizations of the Schur complement raise into the
        # breakdown exit, which keeps the largest ridge tried plus the one the
        # eighth failure set.  The iterates' factors, of (k, d, d) stacks,
        # still succeed.
        tried = []
        cholesky = np.linalg.cholesky

        def failing(mat):
            if mat.ndim > 2:
                return cholesky(mat)
            tried.append(mat)
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        s = solve_sdp(assemble_theta_sdp(cycle_graph(5))[0])
        assert s.status == "numerical-failure" and s.iterations == 1
        assert len(tried) == 8
        base = np.trace(tried[0]) / len(tried[0])
        ridge = 1e-14 * max(base, 1.0)
        for mat in tried[1:]:
            assert np.array_equal(mat, tried[0] + ridge * np.eye(len(mat)))
            ridge *= 100.0
        assert s.residuals["max_ridge"] == ridge

    def test_indefinite_iterate_ends_the_solve(self, monkeypatch):
        # an S block that is no longer definite on the third iteration
        calls = []
        scaling = sdp._nt_scaling

        def flipped(s, x):
            calls.append(1)
            return scaling(-s if len(calls) == 3 else s, x)

        monkeypatch.setattr(sdp, "_nt_scaling", flipped)
        s = solve_sdp(assemble_theta_sdp(cycle_graph(5))[0])
        assert s.status == "numerical-failure" and s.iterations == 3
        assert len(calls) == 3
        assert np.isfinite(s.primal) and np.isfinite(s.residuals["rel_gap"])

    def test_iteration_limit_returns_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(sdp, "_MAX_ITER", 3)
        problem, _ = assemble_theta_sdp(cycle_graph(5))
        s = solve_sdp(problem)
        assert s.status == "numerical-failure" and s.iterations == 3
        assert s.residuals["rel_gap"] > 1e-8

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize(
        "dims, objective, rows, stop",
        [
            pytest.param([1], [np.eye(1)], [([(0, 0, 0, 1.0)], -1.0)], "diverged", id="diverged"),
            # the dual steps shrink tenfold per iteration until an iterate's
            # Cholesky factor fails
            pytest.param(
                [2, 2],
                [np.diag([-2.0, 2.0]), np.array([[1.0, -0.5], [-0.5, -1.0]])],
                [([(0, 1, 1, 1.0)], 0.0)],
                "breakdown",
                id="free-block",
            ),
            pytest.param(
                [2],
                [np.eye(2)],
                [([(0, 0, 0, 1.0)], 1.0), ([(0, 1, 1, 1.0)], 1.0), ([(0, 0, 1, 1.0)], 2.0)],
                "breakdown",
                id="breakdown",
            ),
            pytest.param(
                [1], [np.eye(1)], [([(0, 0, 0, 1.0)], 1.0), ([(0, 0, 0, 2.0)], 1.0)],
                "infeasible", id="infeasible",
            ),
            pytest.param([1], [np.eye(1)], [([(0, 0, 0, 1.0)], 1.0)], "optimal", id="optimal"),
        ],
    )
    def test_stop_names_the_rule_that_ended_the_solve(self, dims, objective, rows, stop):
        assert solve_sdp(SdpProblem(dims, objective, rows)).stop == stop

    def test_stop_names_the_iteration_limit(self, monkeypatch):
        monkeypatch.setattr(sdp, "_MAX_ITER", 3)
        s = solve_sdp(assemble_theta_sdp(cycle_graph(5))[0])
        assert (s.status, s.stop) == ("numerical-failure", "iteration-limit")

    def test_stop_names_a_stall(self, monkeypatch):
        monkeypatch.setattr(sdp, "_max_steps", lambda zs, dxs, dss: (1e-11, 1e-11))
        s = solve_sdp(assemble_theta_sdp(cycle_graph(5))[0])
        assert (s.status, s.stop, s.iterations) == ("numerical-failure", "stalled", 3)

    def test_stop_names_an_indefinite_optimum(self, monkeypatch):
        monkeypatch.setattr(sdp, "_PSD_TOL", -np.inf)  # every block fails the guard
        s = solve_sdp(assemble_theta_sdp(cycle_graph(5))[0])
        assert (s.status, s.stop) == ("numerical-failure", "indefinite")

    def test_accept_hook_ends_the_solve_short_of_optimal(self):
        problem, _ = assemble_theta_sdp(cycle_graph(5))
        seen = []

        def accept(y):
            seen.append(y)
            return len(seen) == 2

        s = solve_sdp(problem, _accept=accept)
        assert (s.status, s.stop, s.iterations) == ("accepted", "accepted", 2)
        assert [len(y) for y in seen] == [problem.num_constraints] * 2
        assert np.array_equal(seen[-1], s.y)  # the solution is the accepted iterate
        assert s.residuals["rel_gap"] > 1e-8

    def test_theta_solver_error_names_the_stop_rule(self, monkeypatch):
        from hypertheta.thetabody import ThetaSolverError, theta

        monkeypatch.setattr(sdp, "_MAX_ITER", 3)
        with pytest.raises(ThetaSolverError, match="stop rule iteration-limit"):
            theta(cycle_graph(5))

    def test_centering_fallbacks_count_the_extra_normal_solves(self, monkeypatch):
        # Before the stop, each iteration makes two normal solves (predictor
        # and corrector), plus one more on the iterations that drop the
        # second-order term.  A normal solve is one border solve, and two
        # (a refinement step) on the iterations whose Cholesky needed a ridge.
        calls = []
        border_solve = sdp._border_solve

        def counted(border, vec):
            calls.append(1)
            return border_solve(border, vec)

        monkeypatch.setattr(sdp, "_border_solve", counted)

        def solve(hg, tol):
            calls.clear()
            s = solve_sdp(assemble_theta_sdp(hg)[0], tol=tol)
            fallbacks = s.residuals["centering_fallbacks"]
            assert s.status == "optimal" and 0 <= fallbacks < s.iterations
            return s, 2 * (s.iterations - 1) + fallbacks

        seen = set()
        for hg in (cycle_graph(5), cycle_graph(7), complete_hypergraph(3, 3)):
            s, unrefined = solve(hg, 1e-8)
            assert s.residuals["max_ridge"] == 0.0
            assert len(calls) == unrefined
            seen.add(s.residuals["centering_fallbacks"] > 0)
        assert seen == {False, True}
        # the uniform-measure Mantel 4 endgame at 1e-11 needs a ridge
        s, unrefined = solve(mantel_hypergraph(4), 1e-11)
        assert s.residuals["max_ridge"] > 0.0
        assert unrefined < len(calls) <= 2 * unrefined

    def test_ridged_iterations_count_the_refined_normal_solves(self, monkeypatch):
        # Each iteration before the stop makes two or three normal solves
        # (test_centering_fallbacks_count_the_extra_normal_solves); on a
        # ridged iteration each of them is two border solves, the second
        # the refinement step.
        calls = []
        border_solve = sdp._border_solve

        def counted(border, vec):
            calls.append(1)
            return border_solve(border, vec)

        monkeypatch.setattr(sdp, "_border_solve", counted)
        seen = set()
        for hg, tol in ((cycle_graph(5), 1e-8), (mantel_hypergraph(4), 1e-11), (mantel_hypergraph(4), 1e-8)):
            calls.clear()
            s = solve_sdp(assemble_theta_sdp(hg)[0], tol=tol)
            assert s.status == "optimal"
            ridged = s.residuals["ridged_iterations"]
            assert (ridged == 0) is (s.residuals["max_ridge"] == 0.0)
            assert 0 <= ridged <= s.iterations
            unrefined = 2 * (s.iterations - 1) + s.residuals["centering_fallbacks"]
            assert unrefined + 2 * ridged <= len(calls) <= unrefined + 3 * ridged
            seen.add(ridged > 0)
        assert seen == {False, True}

    def test_a_breakdown_counts_its_ridged_iteration(self, monkeypatch):
        # Eight failed ridges end the first iteration: it needed a ridge and
        # made no normal solve.
        cholesky = np.linalg.cholesky

        def failing(mat):
            if mat.ndim > 2:
                return cholesky(mat)
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        s = solve_sdp(assemble_theta_sdp(cycle_graph(5))[0])
        assert (s.stop, s.iterations) == ("breakdown", 1)
        assert s.residuals["ridged_iterations"] == 1 and s.residuals["max_ridge"] > 0.0

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
            *_BAD_OBJECTIVES,
        ],
    )
    def test_rejects_bad_terms(self, dims, objective, rows):
        with pytest.raises(ValueError):
            SdpProblem(dims, objective, rows)

    @pytest.mark.parametrize("dims, objective, rows", _BAD_OBJECTIVES)
    def test_term_arrays_reject_bad_objectives(self, dims, objective, rows):
        # the path of the package's own programs checks the objective alike
        terms = np.array([(r, *term) for r, (ts, _) in enumerate(rows) for term in ts], dtype=float)
        rhs = np.array([value for _, value in rows])
        with pytest.raises(ValueError):
            SdpProblem._of_terms(dims, objective, terms[:, :4], terms[:, 4], rhs)
        good = [np.eye(d) for d in dims]
        assert SdpProblem._of_terms(dims, good, terms[:, :4], terms[:, 4], rhs).num_constraints == len(rows)

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


# Each case is an error, with the start of its message, or the value returned.
@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(
            lambda: as_symmetric(np.zeros((2, 3))), ValueError("expected a square matrix"), id="eig-shape"
        ),
        pytest.param(
            lambda: solve_lp([1], sense="maximize"), ValueError("sense must be"), id="lp-sense"
        ),
        pytest.param(
            lambda: solve_lp([1], [[1]], [1, 2]), ValueError("a_eq and b_eq sizes"), id="lp-rows"
        ),
        pytest.param(
            lambda: solve_lp([1], bounds=[(0, 1), (0, 1)]), ValueError("bounds length"), id="lp-bounds"
        ),
        pytest.param(lambda: solve_lp([1], bounds=[(1, 0)]).status, "infeasible", id="lp-empty-box"),
        pytest.param(
            lambda: SdpProblem([0], [np.zeros((0, 0))], []),
            ValueError("block dimensions must be positive"),
            id="sdp-zero-block",
        ),
        pytest.param(
            lambda: solve_sdp(SdpProblem([1], [np.eye(1)], [])),
            ValueError("SDP needs at least one equality constraint"),
            id="sdp-no-rows",
        ),
    ],
)
def test_input_checks(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=str(expected)):
            call()
    else:
        assert call() == expected
