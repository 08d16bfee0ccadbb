"""Property suite behind the `check` subcommand.

_PROPERTIES lists (name, property) pairs covering every module's invariants
at a scale that finishes in about a minute.  A property takes its own
random.Random(seed) and returns None when it holds, else a one-line failure
detail.  The pytest suite runs the same properties (and more) with
independent oracles; this runner exists so deployments can self-verify
without a test install.
"""

from __future__ import annotations

import math
import random
import traceback
from fractions import Fraction

import numpy as np

from . import hamming as hm
from . import hoffman as hf
from .hypercore import (
    Hypergraph,
    alpha,
    chi_star,
    complement,
    complete_hypergraph,
    enumerate_cliques,
    in_clique_polytope,
    is_independent,
    link,
    maximal_independent_sets,
    random_hypergraph,
)
from .numlin import SdpProblem, eig_sym, solve_lp, solve_sdp
from .symmetry import (
    cube_group,
    mantel_hypergraph,
    mantel_pair_orbit_matrices,
    mantel_theta,
    pair_orbits,
    symmetric_group_pair_action,
    theta_transitive,
    verify_automorphisms,
)
from .thetabody import check_certificate, theta, theta_dual, theta_membership

__all__ = ["run_all"]


def _complement_involution(rng):
    for _ in range(25):
        hg = random_hypergraph(rng.randint(3, 8), 3, 0.4, rng)
        if complement(complement(hg)) != hg:
            return "complement twice differs"


def _link_round_trip(rng):
    for _ in range(25):
        hg = random_hypergraph(rng.randint(3, 7), 3, 0.4, rng)
        x = rng.randrange(hg.n)
        sub, vmap = link(hg, x)
        back = {tuple(sorted(vmap[v] for v in e)) for e in sub.edges}
        want = {tuple(sorted(set(e) - {x})) for e in hg.edges if x in e}
        if back != want:
            return "link edges do not map back"


def _clique_complement_duality(rng):
    for _ in range(20):
        hg = random_hypergraph(rng.randint(3, 8), 3, 0.35, rng)
        if set(enumerate_cliques(hg)) != set(maximal_independent_sets(complement(hg))):
            return "cliques != complement independents"


def _alpha_lower_bound(rng):
    for _ in range(20):
        n = rng.randint(3, 8)
        hg = random_hypergraph(n, 3, 0.4, rng)
        if n >= hg.r - 1 and alpha(hg)[0] < hg.r - 1:
            return "alpha below r-1"


def _chi_star_exact_reconstruction(rng):
    for _ in range(10):
        hg = random_hypergraph(rng.randint(3, 7), 3, 0.4, rng)
        w = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(hg.n)]
        value, parts = chi_star(hg, w)
        recon = [Fraction(0)] * hg.n
        for lam, vs in parts:
            for v in vs:
                recon[v] += lam
        if recon != [Fraction(x) for x in w] or sum(lam for lam, _ in parts) != value:
            return "parts do not rebuild w"


def _clique_polytope_indicators(rng):
    for _ in range(15):
        hg = random_hypergraph(rng.randint(3, 7), 3, 0.4, rng)
        _, wit = alpha(hg)
        if not in_clique_polytope(hg, [1 if v in wit else 0 for v in range(hg.n)]):
            return "indicator membership wrong"
        for c in enumerate_cliques(hg):
            chi_c = [1 if v in c else 0 for v in range(hg.n)]
            if len(c) >= hg.r and in_clique_polytope(hg, chi_c):
                return "indicator membership wrong"


def _eig_orthonormal_reconstruction(rng):
    for _ in range(10):
        n = rng.randint(2, 10)
        m = np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)])
        m = (m + m.T) / 2
        vals, vecs = eig_sym(m)
        if (
            np.abs(vecs.T @ vecs - np.eye(n)).max() > 1e-9
            or np.abs(vecs @ np.diag(vals) @ vecs.T - m).max() > 1e-9 * (1 + np.abs(m).max())
            or not np.all(np.diff(vals) >= -1e-12)
        ):
            return "eigendecomposition drift"


def _lp_exact_feasibility(rng):
    for _ in range(10):
        nv = rng.randint(2, 5)
        c = [Fraction(rng.randint(-3, 3)) for _ in range(nv)]
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(nv)]]
        x0 = [Fraction(rng.randint(0, 3)) for _ in range(nv)]
        b = [sum(a[0][j] * x0[j] for j in range(nv))]
        res = solve_lp(c, a, b, [(0, 3)] * nv, sense="max", exact=True)
        if res.status == "optimal" and sum(a[0][j] * res.x[j] for j in range(nv)) != b[0]:
            return "rational LP violates constraints"


def _sdp_weak_duality(rng):
    for _ in range(5):
        hg = random_hypergraph(rng.randint(4, 6), 3, 0.4, rng)
        res = theta(hg)
        if res.diagnostics.get("mode") == "sdp" and res.value > res.diagnostics["dual"] + 1e-6:
            return "primal exceeded dual"


def _sdp_determinism(rng):
    p = SdpProblem(
        [2],
        [np.eye(2)],
        [([(0, 0, 0, 1.0), (0, 1, 1, 1.0)], 1.0), ([(0, 0, 0, 1.0)], 0.25)],
    )
    s1 = solve_sdp(p)
    s2 = solve_sdp(p)
    if s1.primal != s2.primal or not all((a == b).all() for a, b in zip(s1.blocks, s2.blocks)):
        return "repeat solve differs bitwise"


def _sandwich(rng):
    for _ in range(12):
        n = rng.randint(4, 8)
        hg = random_hypergraph(n, 3, rng.choice((0.3, 0.5)), rng)
        w = [rng.random() for _ in range(n)]
        a = alpha(hg, w)[0]
        t = theta(hg, w).value
        x = chi_star(complement(hg), w)[0]
        if not (a <= t + 1e-6 and t <= 2 * float(x) + 1e-6):
            return f"alpha={a} theta={t} cover={float(x)}"


def _antiblocking_and_certificates(rng):
    for _ in range(6):
        hg = random_hypergraph(rng.randint(4, 6), 3, 0.4, rng)
        _, wit = alpha(hg)
        f = [1.0 if v in wit else 0.0 for v in range(hg.n)]
        member, cert = theta_membership(hg, f)
        if not member or not theta_membership(hg, [v * rng.random() for v in f])[0]:
            return "downward closure failed"
        if cert is not None and check_certificate(hg, cert, tol=1e-5):
            return "downward closure failed"


def _integer_points(rng):
    for _ in range(8):
        hg = random_hypergraph(rng.randint(4, 6), 3, 0.5, rng)
        f = [float(rng.random() < 0.5) for _ in range(hg.n)]
        member, _ = theta_membership(hg, f)
        if member != is_independent(hg, [v for v in range(hg.n) if f[v] > 0]):
            return "0-1 member not an independent set"


def _scaling(rng):
    for _ in range(5):
        hg = random_hypergraph(rng.randint(4, 6), 3, 0.4, rng)
        w = [rng.random() for _ in range(hg.n)]
        cscale = 0.25 + rng.random()
        v1 = theta(hg, w, tol=1e-9).value
        v2 = theta(hg, [cscale * x for x in w], tol=1e-9).value
        if abs(v2 - cscale * v1) > 1e-8 * (1 + abs(v2)):
            return "value not positively homogeneous"


def _duality_product(rng):
    for _ in range(8):
        hg = random_hypergraph(rng.randint(4, 7), 3, 0.4, rng)
        l = [rng.random() for _ in range(hg.n)]
        w = [rng.random() for _ in range(hg.n)]
        lhs = theta(hg, l).value * theta_dual(complement(hg), w).value
        if lhs < sum(a * b for a, b in zip(l, w)) - 1e-6:
            return "product bound violated"


def _dual_sandwich(rng):
    for _ in range(8):
        hg = random_hypergraph(rng.randint(4, 7), 3, 0.4, rng)
        w = [rng.random() for _ in range(hg.n)]
        v = theta_dual(hg, w).value
        lo = alpha(hg, w)[0] / (hg.r - 1)
        hi = float(chi_star(complement(hg), w)[0])
        if not (lo - 1e-6 <= v <= hi + 1e-6):
            return f"gauge {v} outside [{lo}, {hi}]"


def _negative_weights(rng):
    hg = Hypergraph(3, 5, ((0, 1, 4), (0, 2, 3), (1, 2, 3)))
    v1 = theta(hg, [1, -2, 1, 1, -1]).value
    v2 = theta(hg, [1, 0, 1, 1, 0]).value
    if not abs(v1 - v2) <= 1e-6:
        return f"{v1} vs {v2}"


def _graph_duality(rng):
    # TH(G) antiblocks TH(G-bar): on graphs the gauge equals the support value
    for _ in range(4):
        n = rng.randint(4, 8)
        g = random_hypergraph(n, 2, rng.choice((0.3, 0.5)), rng)
        w = [rng.uniform(0.1, 1.0) for _ in range(n)]
        d, t = theta_dual(g, w).value, theta(g, w).value
        if abs(d - t) > 1e-6:
            return f"theta_dual={d} theta={t} on n={n}"


def _automorphisms(rng):
    if not verify_automorphisms(mantel_hypergraph(4), symmetric_group_pair_action(4)):
        return "triangle family not preserved"


def _transitive_agreement(rng):
    h4 = mantel_hypergraph(4)
    v_red = theta_transitive(h4, symmetric_group_pair_action(4))
    v_gen = theta(h4).value
    if not abs(v_red - v_gen) <= 1e-5:
        return f"{v_red} vs {v_gen}"


def _group_averaging(rng):
    h4 = mantel_hypergraph(4)
    f = theta(h4).optimizer
    # the group average of f at x is f's mean over the orbit of x
    orbit = pair_orbits(symmetric_group_pair_action(4)).diagonal()
    avg = np.bincount(orbit, f)[orbit] / np.bincount(orbit)[orbit]
    if not theta_membership(h4, np.minimum(avg, 1.0) * (1 - 1e-9))[0]:
        return "averaged optimizer left the body"


def _scheme_eigenvalues(rng):
    for n in range(4, 9):
        _, a1, a2 = mantel_pair_orbit_matrices(n)
        got1 = sorted(set(int(round(v)) for v in np.linalg.eigvalsh(a1)))
        got2 = sorted(set(int(round(v)) for v in np.linalg.eigvalsh(a2)))
        want1 = sorted({-2, n - 4, 2 * n - 4})
        want2 = sorted({1, -(n - 3), (n - 2) * (n - 3) // 2})
        if got1 != want1 or got2 != want2:
            return "orbit matrix spectra wrong"


def _mantel_floor(rng):
    for n in (4, 5, 6):
        if math.floor(mantel_theta(n)[0]) != alpha(mantel_hypergraph(n))[0]:
            return "rounded value differs from alpha"


def _transitive_closed_forms(rng):
    bad = []
    for n in range(5, 9):
        v = theta_transitive(mantel_hypergraph(n), symmetric_group_pair_action(n))
        if abs(v - n * n / 4) > 1e-6:
            bad.append(f"Mantel {n}: {v}")
    for n, s in ((5, 2), (6, 4)):
        v = theta_transitive(hm.build_hamming_hypergraph(n, s), cube_group(n))
        if abs(v - float(hm.theta_hamming(n, s))) > 1e-6:
            bad.append(f"H({n},{s}): {v}")
    if bad:
        return "; ".join(bad)


def _krawtchouk_orthogonality(rng):
    for n in range(1, 13):
        cols = [hm.krawtchouk_values(n, t) for t in range(n + 1)]
        for k in range(n + 1):
            for l in range(k + 1, n + 1):
                if sum(math.comb(n, t) * col[k] * col[l] for t, col in enumerate(cols)) != 0:
                    return "nonzero inner product"


def _hahn_orthogonality(rng):
    for n in range(2, 9):
        for s in range(1, n):
            kmax = min(s, n - s)  # larger distances have zero multiplicity
            cols = [hm.hahn_values(n, s, t) for t in range(kmax + 1)]
            for k in range(kmax + 1):
                for l in range(k + 1, kmax + 1):
                    tot = sum(
                        math.comb(s, t) * math.comb(n - s, t) * col[k] * col[l]
                        for t, col in enumerate(cols)
                    )
                    if tot != 0:
                        return "nonzero inner product"


def _lp_matches_closed_form(rng):
    for (n, s) in ((3, 2), (4, 2), (6, 2), (6, 4), (8, 4)):
        lp_val, _, combo = hm.theta_hamming_lp(n, s)
        if (
            lp_val != hm.theta_hamming(n, s)
            or combo < 0
            or hm.theta_hamming_link_lp(n, s) != hm.theta_hamming_link(n, s)
        ):
            return "LP and formula disagree"


def _value_bounds_alpha(rng):
    for n in (3, 4, 5):
        for s in (2, 4):
            if not hm.triangles_exist(n, s):
                continue
            a = alpha(hm.build_hamming_hypergraph(n, s), cap=32)[0]
            if hm.theta_hamming(n, s) < a:
                return "closed form below alpha"


def _hoffman_sandwich(rng):
    for _ in range(15):
        n = rng.randint(4, 8)
        wh = hf.random_weighted_hypergraph(n, 3, rng.choice((0.3, 0.5)), rng)
        mu1 = [float(v) for v in wh.vertex_measure()]
        a = alpha(wh.hyper, mu1)[0]
        t = theta(wh.hyper, mu1).value
        h = hf.hoff(wh)
        if not (a <= t + 1e-6 and t <= h + 1e-6):
            return f"alpha={a} theta={t} hoff={h}"


def _spectral_range(rng):
    for _ in range(10):
        wh = hf.random_weighted_hypergraph(rng.randint(4, 7), 3, 0.4, rng)
        op = hf.adjacency_operator(wh)
        vals = np.linalg.eigvalsh(np.sqrt(op.matrix * op.matrix.T))
        if (
            vals.min() < -1 - 1e-9
            or abs(vals.max() - 1.0) > 1e-9
            or np.abs(op.matrix @ np.ones(wh.n) - 1.0).max() > 1e-9
            or vals.min() >= 0  # trace zero forces a negative eigenvalue
        ):
            return "operator spectrum out of range"


def _transitive_tightness(rng):
    for hg in (complete_hypergraph(3, 3), mantel_hypergraph(4)):
        wh = hf.uniform_weighted(hg)
        mu1 = [float(v) for v in wh.vertex_measure()]
        if abs(theta(wh.hyper, mu1, tol=1e-11).value - hf.hoff(wh)) > 1e-6:
            return "bounds differ on transitive instances"


_PROPERTIES = (
    ("hypercore.complement_involution", _complement_involution),
    ("hypercore.link_round_trip", _link_round_trip),
    ("hypercore.clique_complement_duality", _clique_complement_duality),
    ("hypercore.alpha_lower_bound", _alpha_lower_bound),
    ("hypercore.chi_star_exact_reconstruction", _chi_star_exact_reconstruction),
    ("hypercore.clique_polytope_indicators", _clique_polytope_indicators),
    ("numlin.eig_orthonormal_reconstruction", _eig_orthonormal_reconstruction),
    ("numlin.lp_exact_feasibility", _lp_exact_feasibility),
    ("numlin.sdp_weak_duality", _sdp_weak_duality),
    ("numlin.sdp_determinism", _sdp_determinism),
    ("thetabody.sandwich", _sandwich),
    ("thetabody.antiblocking_and_certificates", _antiblocking_and_certificates),
    ("thetabody.integer_points", _integer_points),
    ("thetabody.scaling", _scaling),
    ("thetabody.duality_product", _duality_product),
    ("thetabody.dual_sandwich", _dual_sandwich),
    ("thetabody.negative_weights", _negative_weights),
    ("thetabody.graph_duality", _graph_duality),
    ("symmetry.automorphisms", _automorphisms),
    ("symmetry.transitive_agreement", _transitive_agreement),
    ("symmetry.group_averaging", _group_averaging),
    ("symmetry.scheme_eigenvalues", _scheme_eigenvalues),
    ("symmetry.mantel_floor", _mantel_floor),
    ("symmetry.transitive_closed_forms", _transitive_closed_forms),
    ("hamming.krawtchouk_orthogonality", _krawtchouk_orthogonality),
    ("hamming.hahn_orthogonality", _hahn_orthogonality),
    ("hamming.lp_matches_closed_form", _lp_matches_closed_form),
    ("hamming.value_bounds_alpha", _value_bounds_alpha),
    ("hoffman.sandwich", _hoffman_sandwich),
    ("hoffman.spectral_range", _spectral_range),
    ("hoffman.transitive_tightness", _transitive_tightness),
)


def run_all(seed: int = 42):
    """Run every property in order; yields (name, ok, detail).

    Each property gets its own random.Random(seed).  One that raises yields
    a failing triple under its own name, with the error as detail, and
    prints its traceback to stderr; the remaining properties still run.
    """
    for name, prop in _PROPERTIES:
        try:
            detail = prop(random.Random(seed))
        except Exception as exc:
            traceback.print_exc()
            detail = f"{type(exc).__name__}: {exc}"
        yield name, detail is None, detail or ""
