"""Workloads of the hypertheta benchmark: seeded instances, call lists and
reference checks.

A workload is a fixed list of top-level calls built from a seed.  Building a
workload generates the instances and computes every reference value; a pass
then only calls into the package, and the checks run after the pass, outside
the timed region.  Each check compares a result with a value obtained
through an independent path of the package (closed forms, exact LPs, brute
force, or a second relaxation that the paper's inequalities tie to it).

Calls look up package functions as module attributes at call time
(``tb.theta``, not a bound name), so the wrappers of ``tracing`` see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Any, Callable

from hypertheta import cli
from hypertheta import hamming as hm
from hypertheta import hoffman as hf
from hypertheta import hypercore as hc
from hypertheta import symmetry as sym
from hypertheta import thetabody as tb

# Slack for float comparisons against exact references, as in the package's
# acceptance criteria.
EXACT_SLACK = 1e-5
INEQ_SLACK = 1e-6


@dataclass(frozen=True)
class Call:
    """One top-level call.  ``run`` receives the results of the earlier calls
    of the same pass by name; ``check`` receives the result and all results of
    the pass and returns None when the result meets its reference, else a
    one-line reason."""

    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], str | None]


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str


@dataclass
class Workload:
    calls: list[Call]
    warmup: list[Callable[[], Any]]


def random_uniform(rng: random.Random, n: int, r: int, density: float) -> hc.Hypergraph:
    """Seeded r-uniform hypergraph on n vertices with round(density * C(n, r))
    edges.  The edge count is fixed so that seeds change the structure of an
    instance but not its size, which keeps the work per pass comparable
    across seeds."""
    pool = list(itertools.combinations(range(n), r))
    m = max(1, round(density * len(pool)))
    return hc.Hypergraph(r, n, tuple(sorted(rng.sample(pool, m))))


def run_cli(argv: list[str]) -> CliOutput:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return CliOutput(code, buf.getvalue())


def _near(value: float, ref: float, slack: float = EXACT_SLACK) -> str | None:
    if abs(value - ref) <= slack:
        return None
    return f"value {value!r} differs from reference {float(ref)!r} by more than {slack:g}"


def _ordered(what: str, *chain) -> str | None:
    """None when the values are nondecreasing up to INEQ_SLACK."""
    if all(a <= b + INEQ_SLACK for a, b in zip(chain, chain[1:])):
        return None
    return f"{what} violated: " + " <= ".join(repr(float(v)) for v in chain)


def _cli_json(out: CliOutput) -> tuple[dict | None, str | None]:
    if out.code != 0:
        return None, f"exit code {out.code}"
    try:
        return json.loads(out.stdout), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


# ---------------------------------------------------------------------------
# ladder: a few large SDPs; numlin.solve_sdp does almost all the work
# ---------------------------------------------------------------------------

def _ladder(seed: int) -> Workload:
    rng = random.Random(seed)
    r3 = random_uniform(rng, 10, 3, 0.4)
    r4 = random_uniform(rng, 6, 4, 0.4)
    d3 = random_uniform(rng, 9, 3, 0.4)
    d3bar = hc.complement(d3)
    # Acceptance criterion 5: alpha <= theta <= 2 chi*(complement) for r = 3.
    r3_lo, r3_hi = hc.alpha(r3)[0], 2 * hc.chi_star(hc.complement(r3))[0]
    r4_alpha = hc.alpha(r4)[0]
    # theta(H, 1) <= 2 chi*(Hbar) and theta(H, 1) * theta_dual(Hbar, 1) >= n.
    dual_lo = Fraction(d3.n) / (2 * hc.chi_star(d3bar)[0])
    mantel = {n: sym.mantel_hypergraph(n) for n in (5, 6, 7, 8)}
    groups = {n: sym.symmetric_group_pair_action(n) for n in (7, 8)}
    h42 = hm.build_hamming_hypergraph(4, 2)
    h42_ref = float(hm.theta_hamming(4, 2))
    member_f = [0.5] * mantel[5].n
    member_expected = 0.5 * mantel[5].n < float(sym.mantel_theta(5)[0])

    def mantel_call(n: int) -> Call:
        return Call(
            f"theta mantel({n})",
            lambda res: tb.theta(mantel[n]),
            lambda out, res: _near(out.value, n * n / 4),
        )

    def transitive_call(n: int) -> Call:
        return Call(
            f"theta_transitive mantel({n})",
            lambda res: sym.theta_transitive(mantel[n], groups[n]),
            lambda out, res: _near(out, n * n / 4),
        )

    def r4_check(out, res):
        # No cover bound is known beyond r = 3: audit the witness tree instead.
        problems = tb.check_certificate(r4, out.certificate)
        if problems:
            return f"certificate violations: {problems[:3]}"
        return _ordered("alpha <= theta <= n", r4_alpha, out.value, r4.n)

    def member_check(out, res):
        member, cert = out
        if member != member_expected or (member and cert is None):
            return f"membership {member}, expected {member_expected}"
        return None

    calls = [
        mantel_call(5),
        mantel_call(6),
        Call("theta H(4,2)", lambda res: tb.theta(h42), lambda out, res: _near(out.value, h42_ref)),
        Call(
            "theta random 3-uniform n=10",
            lambda res: tb.theta(r3),
            lambda out, res: _ordered("alpha <= theta <= 2 chi*", r3_lo, out.value, r3_hi),
        ),
        Call("theta random 4-uniform n=6", lambda res: tb.theta(r4), r4_check),
        transitive_call(7),
        transitive_call(8),
        Call(
            "theta_membership mantel(5) f=0.5",
            lambda res: tb.theta_membership(mantel[5], member_f),
            member_check,
        ),
        Call(
            "theta_dual complement(random 3-uniform n=9)",
            lambda res: tb.theta_dual(d3bar, [1] * d3.n),
            lambda out, res: _ordered("n/(2 chi*) <= theta_dual <= n", dual_lo, out.value, d3.n),
        ),
    ]
    small = sym.mantel_hypergraph(4)
    warmup = [
        lambda: tb.theta(small),
        lambda: sym.theta_transitive(small, sym.symmetric_group_pair_action(4)),
        lambda: tb.theta_membership(small, [0.5] * small.n),
        lambda: tb.theta_dual(hc.complement(hc.complete_hypergraph(3, 4)), [1] * 4),
    ]
    return Workload(calls, warmup)


# ---------------------------------------------------------------------------
# batch: many tiny SDPs in the pattern of acceptance criteria 5, 6 and 8
# ---------------------------------------------------------------------------

# Instances per vertex count; the larger ones dominate a pass, so they get
# one instance each to keep several passes within a run.
BATCH_INSTANCES = {4: 2, 5: 2, 6: 2, 7: 1, 8: 1}
TIGHT_TOLS = (1e-8, 1e-9, 1e-10, 1e-11)


def _instance_calls(tag: str, hg: hc.Hypergraph, w: list, u: list) -> list[Call]:
    hbar = hc.complement(hg)
    wh = hf.uniform_weighted(hg)
    mu = [float(v) for v in wh.vertex_measure()]
    alpha_mu = hc.alpha(wh.hyper, mu)[0]
    g = [1.0 / hg.n] * hg.n  # inside the hull of 0 and the singletons
    wu = sum(a * b for a, b in zip(w, u))

    def alpha_check(out, res):
        value, witness = out
        if not hc.is_independent(hg, witness):
            return f"witness {witness} is not independent"
        return _near(value, sum(w[x] for x in witness), 1e-12)

    def member_check(out, res):
        member, cert = out
        return None if member and cert is not None else "constant 1/n vector rejected"

    def certificate_check(out, res):
        return None if out == [] else f"certificate violations: {out[:3]}"

    def theta_mu_check(out, res):
        return _ordered("alpha <= theta <= hoff", alpha_mu, out.value, res[f"{tag} hoff"])

    return [
        Call(f"{tag} alpha", lambda res: hc.alpha(hg, w), alpha_check),
        Call(
            f"{tag} theta",
            lambda res: tb.theta(hg, w),
            lambda out, res: _ordered("alpha <= theta", res[f"{tag} alpha"][0], out.value),
        ),
        Call(
            f"{tag} chi_star",
            lambda res: hc.chi_star(hbar, w),
            lambda out, res: _ordered("theta <= 2 chi*", res[f"{tag} theta"].value, 2 * out[0]),
        ),
        Call(
            f"{tag} theta_dual",
            lambda res: tb.theta_dual(hbar, u),
            lambda out, res: _ordered("w.u <= theta(w) * theta_dual(u)", wu,
                                      res[f"{tag} theta"].value * out.value),
        ),
        Call(f"{tag} theta_membership", lambda res: tb.theta_membership(hg, g), member_check),
        Call(
            f"{tag} check_certificate",
            lambda res: tb.check_certificate(hg, res[f"{tag} theta"].certificate),
            certificate_check,
        ),
        Call(f"{tag} theta@mu", lambda res: tb.theta(wh.hyper, mu), theta_mu_check),
        Call(f"{tag} hoff", lambda res: hf.hoff(wh), lambda out, res: None),
    ]


def _batch(seed: int) -> Workload:
    rng = random.Random(seed)
    calls: list[Call] = []
    for n, count in BATCH_INSTANCES.items():
        for k in range(count):
            hg = random_uniform(rng, n, 3, 0.4)
            w = [rng.random() for _ in range(n)]
            u = [rng.random() for _ in range(n)]
            calls.extend(_instance_calls(f"n{n}.{k}", hg, w, u))

    # Tight-tolerance slice on vertex-transitive instances at the uniform
    # vertex measure, whose values are known exactly.
    tight = [
        ("mantel(4)", sym.mantel_hypergraph(4), sym.mantel_theta(4)[0] / comb(4, 2)),
        ("mantel(5)", sym.mantel_hypergraph(5), sym.mantel_theta(5)[0] / comb(5, 2)),
        ("complete(3,3)", hc.complete_hypergraph(3, 3), Fraction(2, 3)),
    ]
    for label, hg, exact in tight:
        wh = hf.uniform_weighted(hg)
        mu = [float(v) for v in wh.vertex_measure()]
        for tol in TIGHT_TOLS:
            calls.append(
                Call(
                    f"tight {label} tol={tol:g}",
                    lambda res, hg=hg, mu=mu, tol=tol: tb.theta(hg, mu, tol=tol),
                    lambda out, res, exact=exact, tol=tol: _near(out.value, float(exact), 100 * tol),
                )
            )

    warm_calls = _instance_calls(
        "warmup", random_uniform(random.Random(seed), 4, 3, 0.4), [1.0] * 4, [1.0] * 4
    )

    def warmup():
        res: dict = {}
        for call in warm_calls:
            res[call.name] = call.run(res)

    return Workload(calls, [warmup])


# ---------------------------------------------------------------------------
# exact: rational, combinatorial and front-end paths, no SDP at all
# ---------------------------------------------------------------------------

SCAN_C = (2, 3, 4)
# The scan over n = 20..150 runs as three ranges per ratio, so that no call
# takes much more than a few tenths of a second and the speed probe of
# ``run.py`` runs between them.
SCAN_RANGES = ((20, 100), (101, 130), (131, 150))
SCAN_SPOT_N = (20, 30, 40)
LP_CASES = ((60, 20), (80, 26), (100, 34), (120, 40), (150, 50))
EXACT_FILES = 3


def _exact(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)

    scan_spots = {}
    for c in SCAN_C:
        for n in SCAN_SPOT_N:
            s = hm.side_for(n, c)
            if hm.triangles_exist(n, s):
                value = hm.theta_hamming_lp(n, s)[0]
                scan_spots[(n, c)] = hm.log_fraction(value / (1 << n))

    def scan_call(c: int, lo: int, hi: int) -> Call:
        path = workdir / f"scan-c{c}-n{lo}.csv"
        expected = sum(1 for n in range(lo, hi + 1) if hm.triangles_exist(n, hm.side_for(n, c)))

        def check(out, res):
            payload, err = _cli_json(out)
            if err:
                return err
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            if payload.get("rows") != expected or len(rows) != expected:
                return f"{len(rows)} rows, expected {expected}"
            for row in rows:
                key = (int(row["n"]), int(row["c"]))
                if key in scan_spots and abs(float(row["log_density"]) - scan_spots[key]) > 1e-9:
                    return f"log density at n={key[0]} c={key[1]} differs from the LP value"
            return None

        argv = ["scan-decay", "--c", str(c), "--n", f"{lo}:{hi}", "--out", str(path)]
        return Call(f"cli scan-decay c={c} n={lo}:{hi}", lambda res: run_cli(argv), check)

    mantel_n = 40

    def mantel_check(out, res):
        payload, err = _cli_json(out)
        if err:
            return err
        n = mantel_n
        expected = (Fraction(n * n, 4), Fraction(1, 2), Fraction(n - 2, 2 * (n - 3)))
        got = tuple(Fraction(payload[k]) for k in ("value", "alpha", "beta"))
        return None if got == expected else f"mantel {got} != {expected}"

    ham_n, ham_s = 40, 10
    ham_ref = hm.theta_hamming_lp(ham_n, ham_s)[0]

    def hamming_check(out, res):
        payload, err = _cli_json(out)
        if err:
            return err
        got = Fraction(payload["theta"])
        return None if got == ham_ref else f"closed form {got} != LP value {ham_ref}"

    calls = [scan_call(c, lo, hi) for c in SCAN_C for lo, hi in SCAN_RANGES]
    calls += [
        Call("cli mantel", lambda res: run_cli(["mantel", "--n", str(mantel_n)]), mantel_check),
        Call(
            "cli hamming",
            lambda res: run_cli(["hamming", "--n", str(ham_n), "--s", str(ham_s)]),
            hamming_check,
        ),
    ]

    for i in range(EXACT_FILES):
        hbar = hc.complement(random_uniform(rng, 11, 3, 0.4))
        path = workdir / f"complement{i}.hg"
        hc.write_hypergraph(hbar, path)
        calls.extend(_file_calls(f"file{i}", hbar, path))

    for n, s in LP_CASES:
        ref = hm.theta_hamming(n, s)
        calls.append(
            Call(
                f"theta_hamming_lp({n},{s})",
                lambda res, n=n, s=s: hm.theta_hamming_lp(n, s),
                lambda out, res, ref=ref: None if out[0] == ref else f"LP {out[0]} != closed form {ref}",
            )
        )

    warmup = [
        lambda: run_cli(["mantel", "--n", "6"]),
        lambda: run_cli(["hamming", "--n", "8", "--s", "4"]),
        lambda: hm.theta_hamming_lp(8, 4),
        lambda: hc.chi_star(hc.complete_hypergraph(3, 5)),
    ]
    return Workload(calls, warmup)


def _file_calls(tag: str, hbar: hc.Hypergraph, path: Path) -> list[Call]:
    def chistar_check(out, res):
        payload, err = _cli_json(out)
        if err:
            return err
        value = Fraction(payload["value"])
        cover = [Fraction(0)] * hbar.n
        for part in payload["parts"]:
            if not hc.is_independent(hbar, part["vertices"]):
                return f"part {part['vertices']} is not independent"
            for v in part["vertices"]:
                cover[v] += Fraction(part["coef"])
        if sum(Fraction(p["coef"]) for p in payload["parts"]) != value:
            return "part coefficients do not sum to the value"
        if any(c != 1 for c in cover):
            return "parts do not cover every vertex exactly once"
        alpha_out, _ = _cli_json(res[f"{tag} cli alpha"])
        if alpha_out is not None and value * Fraction(alpha_out["value"]) < hbar.n:
            return "chi* * alpha < n"
        return None

    def alpha_check(out, res):
        payload, err = _cli_json(out)
        if err:
            return err
        witness = payload["witness"]
        if not hc.is_independent(hbar, witness) or len(witness) != payload["value"]:
            return f"witness {witness} does not realise value {payload['value']}"
        return None

    return [
        Call(f"{tag} cli alpha", lambda res: run_cli(["alpha", "--file", str(path)]), alpha_check),
        Call(f"{tag} cli chistar", lambda res: run_cli(["chistar", "--file", str(path)]), chistar_check),
    ]


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the instances, references and call list of one workload."""
    if name == "ladder":
        return _ladder(seed)
    if name == "batch":
        return _batch(seed)
    if name == "exact":
        return _exact(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
