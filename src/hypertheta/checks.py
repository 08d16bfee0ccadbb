"""Property suite behind the `check` subcommand.

One function per module; each yields (name, ok, detail) triples covering the
module's invariants at a scale that finishes in about a minute.  The pytest
suite runs the same properties (and more) with independent oracles; this
runner exists so deployments can self-verify without a test install.
"""

from __future__ import annotations

import itertools
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
    cycle_graph,
    empty_hypergraph,
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
    cyclic_group,
    dihedral_group,
    group_elements,
    mantel_hypergraph,
    mantel_pair_orbit_matrices,
    mantel_theta,
    pair_orbits,
    symmetric_group_pair_action,
    theta_transitive,
    verify_automorphisms,
)
from .thetabody import antiblocker_probe, check_certificate, theta, theta_dual, theta_membership

__all__ = ["run_all"]


def _check_hypercore(rng: random.Random):
    ok = True
    for _ in range(25):
        hg = random_hypergraph(rng.randint(3, 8), 3, 0.4, rng)
        if complement(complement(hg)) != hg:
            ok = False
    yield "hypercore.complement_involution", ok, "complement twice differs"

    ok = True
    for _ in range(25):
        hg = random_hypergraph(rng.randint(3, 7), 3, 0.4, rng)
        x = rng.randrange(hg.n)
        sub, vmap = link(hg, x)
        back = {tuple(sorted(vmap[v] for v in e)) for e in sub.edges}
        want = {tuple(sorted(set(e) - {x})) for e in hg.edges if x in e}
        if back != want:
            ok = False
    yield "hypercore.link_round_trip", ok, "link edges do not map back"

    ok = True
    for _ in range(20):
        hg = random_hypergraph(rng.randint(3, 8), 3, 0.35, rng)
        cliques = set(enumerate_cliques(hg))
        indep = set(maximal_independent_sets(complement(hg)))
        if cliques != indep:
            ok = False
    yield "hypercore.clique_complement_duality", ok, "cliques != complement independents"

    ok = True
    for _ in range(20):
        n = rng.randint(3, 8)
        hg = random_hypergraph(n, 3, 0.4, rng)
        if n >= hg.r - 1 and alpha(hg)[0] < hg.r - 1:
            ok = False
    yield "hypercore.alpha_lower_bound", ok, "alpha below r-1"

    ok = True
    for _ in range(10):
        hg = random_hypergraph(rng.randint(3, 7), 3, 0.4, rng)
        w = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(hg.n)]
        value, parts = chi_star(hg, w)
        recon = [Fraction(0)] * hg.n
        for lam, vs in parts:
            for v in vs:
                recon[v] += lam
        if recon != [Fraction(x) for x in w]:
            ok = False
        if sum((lam for lam, _ in parts), Fraction(0)) != value:
            ok = False
    yield "hypercore.chi_star_exact_reconstruction", ok, "parts do not rebuild w"

    ok = True
    for _ in range(15):
        hg = random_hypergraph(rng.randint(3, 7), 3, 0.4, rng)
        _, wit = alpha(hg)
        chi = [1 if v in wit else 0 for v in range(hg.n)]
        if not in_clique_polytope(hg, chi):
            ok = False
        for c in enumerate_cliques(hg):
            if len(c) >= hg.r:
                chi_c = [1 if v in c else 0 for v in range(hg.n)]
                if in_clique_polytope(hg, chi_c):
                    ok = False
    yield "hypercore.clique_polytope_indicators", ok, "indicator membership wrong"


def _check_numlin(rng: random.Random):
    ok = True
    for _ in range(10):
        n = rng.randint(2, 10)
        m = np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)])
        m = (m + m.T) / 2
        vals, vecs = eig_sym(m)
        if np.abs(vecs.T @ vecs - np.eye(n)).max() > 1e-9:
            ok = False
        if np.abs(vecs @ np.diag(vals) @ vecs.T - m).max() > 1e-9 * (1 + np.abs(m).max()):
            ok = False
        if not np.all(np.diff(vals) >= -1e-12):
            ok = False
    yield "numlin.eig_orthonormal_reconstruction", ok, "eigendecomposition drift"

    ok = True
    for _ in range(10):
        nv = rng.randint(2, 5)
        c = [Fraction(rng.randint(-3, 3)) for _ in range(nv)]
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(nv)]]
        x0 = [Fraction(rng.randint(0, 3)) for _ in range(nv)]
        b = [sum(a[0][j] * x0[j] for j in range(nv))]
        res = solve_lp(c, a, b, [(0, 3)] * nv, sense="max", exact=True)
        if res.status == "optimal":
            lhs = sum(a[0][j] * res.x[j] for j in range(nv))
            if lhs != b[0]:
                ok = False
    yield "numlin.lp_exact_feasibility", ok, "rational LP violates constraints"

    ok = True
    for _ in range(5):
        hg = random_hypergraph(rng.randint(4, 6), 3, 0.4, rng)
        res = theta(hg)
        if res.diagnostics.get("mode") == "sdp":
            if res.value > res.diagnostics["dual"] + 1e-6:
                ok = False
    yield "numlin.sdp_weak_duality", ok, "primal exceeded dual"

    p = SdpProblem(
        [2],
        [np.eye(2)],
        [([(0, 0, 0, 1.0), (0, 1, 1, 1.0)], 1.0), ([(0, 0, 0, 1.0)], 0.25)],
    )
    s1 = solve_sdp(p)
    s2 = solve_sdp(p)
    same = s1.primal == s2.primal and all(
        (a == b).all() for a, b in zip(s1.blocks, s2.blocks)
    )
    yield "numlin.sdp_determinism", same, "repeat solve differs bitwise"


def _check_thetabody(rng: random.Random):
    ok = True
    detail = ""
    for _ in range(12):
        n = rng.randint(4, 8)
        hg = random_hypergraph(n, 3, rng.choice((0.3, 0.5)), rng)
        w = [rng.random() for _ in range(n)]
        a = alpha(hg, w)[0]
        t = theta(hg, w).value
        x = chi_star(complement(hg), w)[0]
        if not (a <= t + 1e-6 and t <= 2 * float(x) + 1e-6):
            ok = False
            detail = f"alpha={a} theta={t} cover={float(x)}"
    yield "thetabody.sandwich", ok, detail

    ok = True
    for _ in range(6):
        hg = random_hypergraph(rng.randint(4, 6), 3, 0.4, rng)
        _, wit = alpha(hg)
        f = [1.0 if v in wit else 0.0 for v in range(hg.n)]
        member, cert = theta_membership(hg, f)
        if not member:
            ok = False
            continue
        g = [v * rng.random() for v in f]
        member2, _ = theta_membership(hg, g)
        if not member2:
            ok = False
        if cert is not None and check_certificate(hg, cert, tol=1e-5):
            ok = False
    yield "thetabody.antiblocking_and_certificates", ok, "downward closure failed"

    ok = True
    for _ in range(8):
        hg = random_hypergraph(rng.randint(4, 6), 3, 0.5, rng)
        f = [float(rng.random() < 0.5) for _ in range(hg.n)]
        member, _ = theta_membership(hg, f)
        indep = is_independent(hg, [v for v in range(hg.n) if f[v] > 0])
        if member != indep:
            ok = False
    yield "thetabody.integer_points", ok, "0-1 member not an independent set"

    ok = True
    for _ in range(5):
        hg = random_hypergraph(rng.randint(4, 6), 3, 0.4, rng)
        w = [rng.random() for _ in range(hg.n)]
        cscale = 0.25 + rng.random()
        v1 = theta(hg, w, tol=1e-9).value
        v2 = theta(hg, [cscale * x for x in w], tol=1e-9).value
        if abs(v2 - cscale * v1) > 1e-8 * (1 + abs(v2)):
            ok = False
    yield "thetabody.scaling", ok, "value not positively homogeneous"

    ok = True
    for _ in range(8):
        hg = random_hypergraph(rng.randint(4, 7), 3, 0.4, rng)
        l = [rng.random() for _ in range(hg.n)]
        w = [rng.random() for _ in range(hg.n)]
        lhs = theta(hg, l).value * theta_dual(complement(hg), w).value
        rhs = sum(a * b for a, b in zip(l, w))
        if lhs < rhs - 1e-6:
            ok = False
    yield "thetabody.duality_product", ok, "product bound violated"

    ok = True
    for _ in range(8):
        hg = random_hypergraph(rng.randint(4, 7), 3, 0.4, rng)
        w = [rng.random() for _ in range(hg.n)]
        v = theta_dual(hg, w).value
        lo = alpha(hg, w)[0] / (hg.r - 1)
        hi = float(chi_star(complement(hg), w)[0])
        if not (lo - 1e-6 <= v <= hi + 1e-6):
            ok = False
    yield "thetabody.dual_sandwich", ok, "bordered value outside its bounds"

    v1 = theta(Hypergraph(3, 5, ((0, 1, 4), (0, 2, 3), (1, 2, 3))), [1, -2, 1, 1, -1]).value
    v2 = theta(Hypergraph(3, 5, ((0, 1, 4), (0, 2, 3), (1, 2, 3))), [1, 0, 1, 1, 0]).value
    yield "thetabody.negative_weights", abs(v1 - v2) <= 1e-6, f"{v1} vs {v2}"

    # TH(G) antiblocks TH(G-bar): on graphs the gauge equals the support value
    ok = True
    detail = ""
    for _ in range(4):
        n = rng.randint(4, 8)
        g = random_hypergraph(n, 2, rng.choice((0.3, 0.5)), rng)
        w = [rng.uniform(0.1, 1.0) for _ in range(n)]
        d, t = theta_dual(g, w).value, theta(g, w).value
        if abs(d - t) > 1e-6:
            ok = False
            detail = f"theta_dual={d} theta={t} on n={n}"
    yield "thetabody.graph_duality", ok, detail


def _check_symmetry(rng: random.Random):
    h4 = mantel_hypergraph(4)
    g4 = symmetric_group_pair_action(4)
    ok = verify_automorphisms(h4, g4)
    yield "symmetry.automorphisms", ok, "triangle family not preserved"

    v_red = theta_transitive(h4, g4)
    v_gen = theta(h4).value
    yield (
        "symmetry.transitive_agreement",
        abs(v_red - v_gen) <= 1e-5,
        f"{v_red} vs {v_gen}",
    )

    res = theta(h4)
    f = res.optimizer
    elements = group_elements(g4, cap=1000)
    avg = np.zeros(h4.n)
    for sigma in elements:
        for x in range(h4.n):
            avg[sigma[x]] += f[x]
    avg /= len(elements)
    member, _ = theta_membership(h4, np.minimum(avg, 1.0) * (1 - 1e-9))
    yield "symmetry.group_averaging", member, "averaged optimizer left the body"

    ok = True
    for n in range(4, 9):
        _, a1, a2 = mantel_pair_orbit_matrices(n)
        got1 = sorted(set(int(round(v)) for v in np.linalg.eigvalsh(a1)))
        got2 = sorted(set(int(round(v)) for v in np.linalg.eigvalsh(a2)))
        want1 = sorted({-2, n - 4, 2 * n - 4})
        want2 = sorted({1, -(n - 3), (n - 2) * (n - 3) // 2})
        if got1 != want1 or got2 != want2:
            ok = False
    yield "symmetry.scheme_eigenvalues", ok, "orbit matrix spectra wrong"

    ok = True
    for n in (4, 5, 6):
        if math.floor(mantel_theta(n)[0]) != alpha(mantel_hypergraph(n))[0]:
            ok = False
    yield "symmetry.mantel_floor", ok, "rounded value differs from alpha"

    bad = []
    for n in range(5, 9):
        v = theta_transitive(mantel_hypergraph(n), symmetric_group_pair_action(n))
        if abs(v - n * n / 4) > 1e-6:
            bad.append(f"Mantel {n}: {v}")
    for n, s in ((5, 2), (6, 4)):
        v = theta_transitive(hm.build_hamming_hypergraph(n, s), cube_group(n))
        if abs(v - float(hm.theta_hamming(n, s))) > 1e-6:
            bad.append(f"H({n},{s}): {v}")
    yield "symmetry.transitive_closed_forms", not bad, "; ".join(bad)


def _check_hamming(rng: random.Random):
    ok = True
    for n in range(1, 13):
        cols = [hm.krawtchouk_values(n, t) for t in range(n + 1)]
        for k in range(n + 1):
            for l in range(k + 1, n + 1):
                s = sum(math.comb(n, t) * col[k] * col[l] for t, col in enumerate(cols))
                if s != 0:
                    ok = False
    yield "hamming.krawtchouk_orthogonality", ok, "nonzero inner product"

    ok = True
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
                        ok = False
    yield "hamming.hahn_orthogonality", ok, "nonzero inner product"

    ok = True
    for (n, s) in ((3, 2), (4, 2), (6, 2), (6, 4), (8, 4)):
        lp_val, _, combo = hm.theta_hamming_lp(n, s)
        if lp_val != hm.theta_hamming(n, s):
            ok = False
        if combo < 0:
            ok = False
        if hm.theta_hamming_link_lp(n, s) != hm.theta_hamming_link(n, s):
            ok = False
    yield "hamming.lp_matches_closed_form", ok, "LP and formula disagree"

    ok = True
    for n in (3, 4, 5):
        for s in (2, 4):
            if not hm.triangles_exist(n, s):
                continue
            hg = hm.build_hamming_hypergraph(n, s)
            a = alpha(hg, cap=32)[0]
            if hm.theta_hamming(n, s) < a:
                ok = False
    yield "hamming.value_bounds_alpha", ok, "closed form below alpha"


def _check_hoffman(rng: random.Random):
    ok = True
    detail = ""
    for _ in range(15):
        n = rng.randint(4, 8)
        wh = hf.random_weighted_hypergraph(n, 3, rng.choice((0.3, 0.5)), rng)
        mu1 = [float(v) for v in wh.vertex_measure()]
        a = alpha(wh.hyper, mu1)[0]
        t = theta(wh.hyper, mu1).value
        h = hf.hoff(wh)
        if not (a <= t + 1e-6 and t <= h + 1e-6):
            ok = False
            detail = f"alpha={a} theta={t} hoff={h}"
    yield "hoffman.sandwich", ok, detail

    ok = True
    for _ in range(10):
        wh = hf.random_weighted_hypergraph(rng.randint(4, 7), 3, 0.4, rng)
        op = hf.adjacency_operator(wh)
        vals = np.linalg.eigvalsh(
            np.sqrt(op.vertex_measure)[:, None]
            * op.matrix
            / np.sqrt(op.vertex_measure)[None, :]
        )
        if vals.min() < -1 - 1e-9 or abs(vals.max() - 1.0) > 1e-9:
            ok = False
        one = np.ones(wh.n)
        if np.abs(op.matrix @ one - one).max() > 1e-9:
            ok = False
        if vals.min() >= 0:
            ok = False  # trace zero forces a negative eigenvalue
    yield "hoffman.spectral_range", ok, "operator spectrum out of range"

    x_edge = hf.uniform_weighted(complete_hypergraph(3, 3))
    x_mantel = hf.uniform_weighted(mantel_hypergraph(4))
    ok = True
    for wh in (x_edge, x_mantel):
        mu1 = [float(v) for v in wh.vertex_measure()]
        t = theta(wh.hyper, mu1, tol=1e-11).value
        if abs(t - hf.hoff(wh)) > 1e-6:
            ok = False
    yield "hoffman.transitive_tightness", ok, "bounds differ on transitive instances"


def run_all(seed: int = 42):
    """Run every module's property block; yields (name, ok, detail).

    A block that raises yields one failing triple named after its module,
    with the error as detail, and prints its traceback to stderr; the
    remaining blocks still run.
    """
    for module, fn in (
        ("hypercore", _check_hypercore),
        ("numlin", _check_numlin),
        ("thetabody", _check_thetabody),
        ("symmetry", _check_symmetry),
        ("hamming", _check_hamming),
        ("hoffman", _check_hoffman),
    ):
        rng = random.Random(seed)
        try:
            yield from fn(rng)
        except Exception as exc:
            traceback.print_exc()
            yield module, False, f"{type(exc).__name__}: {exc}"
