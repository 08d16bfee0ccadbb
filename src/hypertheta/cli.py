"""Command-line front end.

Each command ends its stdout with one JSON object in a fixed key order;
floats are rendered with 12 significant digits and exact rationals as
"p/q" strings, so identical invocations on one numpy/BLAS build and BLAS
thread count produce byte-identical output.  Two commands print more:
check prints one line per property before its JSON line, and scan-decay
without --out prints its CSV in place of the JSON line.  Exit codes:
0 success, 2 bad input, 3 solver failure.  A decimal field beyond the
double range (mantel, hamming) reads null.

The argument parser is built on the first `main` call and shared by every
later call in the process; parsing leaves it unchanged and gives each call a
fresh namespace.  `main` keeps no other state between calls.  The property
suite (`checks`) is imported only when `check` runs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

import numpy as np

from .hamming import _closed_forms, decay_scan
from .hoffman import hoff, lambda_levels, read_weighted_hypergraph
from .hypercore import (
    DEFAULT_ALPHA_CAP,
    DEFAULT_ENUM_CAP,
    HypergraphError,
    alpha,
    chi_star,
    read_hypergraph,
    read_weights,
)
from .symmetry import mantel_theta
from .thetabody import MEMBERSHIP_TOL, ThetaSolverError, theta, theta_dual, theta_membership

__all__ = ["main", "render_json"]


def render_json(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, %.12g floats, p/q strings."""
    if isinstance(obj, dict):
        inner = ",".join(f"{render_json(str(k))}:{render_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(render_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, Fraction):
        return f'"{obj}"'
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return f"{float(obj):.12g}"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TypeError(f"cannot render {type(obj)!r}")


def _emit(payload: dict) -> None:
    sys.stdout.write(render_json(payload) + "\n")


def _positive(text: str) -> float:
    v = float(text)
    if not 0 < v < float("inf"):
        raise argparse.ArgumentTypeError("tolerance must be positive and finite")
    return v


def _load_weights(args, hg):
    return read_weights(args.weights, hg.n) if args.weights else None


def _cmd_alpha(args) -> int:
    hg = read_hypergraph(args.file)
    w = _load_weights(args, hg)
    value, witness = alpha(hg, w, cap=args.cap)
    _emit(
        {
            "command": "alpha",
            "value": value,
            "witness": list(witness),
        }
    )
    return 0


def _cmd_chistar(args) -> int:
    hg = read_hypergraph(args.file)
    w = _load_weights(args, hg)
    value, parts = chi_star(hg, w, cap=args.cap)
    _emit(
        {
            "command": "chistar",
            "value": value,
            "parts": [
                {"coef": coef, "vertices": list(vs)} for coef, vs in parts
            ],
        }
    )
    return 0


def _cmd_theta(args) -> int:
    hg = read_hypergraph(args.file)
    w = _load_weights(args, hg)
    res = theta(hg, w, tol=args.tol)
    _emit(
        {
            "command": "theta",
            "value": float(res.value),
            "optimizer": [float(v) for v in res.optimizer],
            "iterations": res.diagnostics.get("iterations", 0),
            "mode": res.diagnostics.get("mode"),
        }
    )
    return 0


def _cmd_theta_dual(args) -> int:
    hg = read_hypergraph(args.file)
    res = theta_dual(hg, _load_weights(args, hg), tol=args.tol)
    diagonal = [0.0] * hg.n  # w is zero off the certificate's support
    for x, v in zip(res.certificate.vertex_map, res.certificate.vector):
        diagonal[x] = float(v)
    _emit(
        {
            "command": "theta-dual",
            "value": float(res.value),
            "corner": float(res.value),
            "diagonal": diagonal,
        }
    )
    return 0


def _cmd_member(args) -> int:
    hg = read_hypergraph(args.file)
    f = read_weights(args.vec, hg.n)
    member, cert = theta_membership(hg, f, tol=args.tol)
    payload = {"command": "member", "member": member}
    if member:
        payload["certificate_scale"] = float(cert.scale)
    _emit(payload)
    return 0


def _decimal(value):
    """float(value), or None for a value beyond the double range."""
    try:
        return float(value)
    except OverflowError:
        return None


def _cmd_mantel(args) -> int:
    value, a, b = mantel_theta(args.n)
    _emit(
        {
            "command": "mantel",
            "n": args.n,
            "value": value,
            "alpha": a,
            "beta": b,
            "value_decimal": _decimal(value),
        }
    )
    return 0


def _cmd_hamming(args) -> int:
    (mk, mk_arg), (mq, mq_arg), th0, th = _closed_forms(args.n, args.s)
    _emit(
        {
            "command": "hamming",
            "n": args.n,
            "s": args.s,
            "theta": th,
            "theta_link": th0,
            "M_K": mk,
            "M_Q": mq,
            "M_K_argmin": mk_arg,
            "M_Q_argmin": mq_arg,
            "theta_decimal": _decimal(th),
            "theta_link_decimal": _decimal(th0),
        }
    )
    return 0


def _parse_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) == 1:
        return [int(parts[0])]
    if len(parts) == 2:
        lo, hi = int(parts[0]), int(parts[1])
        if lo > hi:
            raise HypergraphError(f"empty range {text!r}: start exceeds end")
        return list(range(lo, hi + 1))
    raise HypergraphError(f"cannot parse range {text!r}; use start:end")


def _cmd_scan_decay(args) -> int:
    cs = [int(t) for t in args.c.split(",") if t]
    if not cs:
        raise HypergraphError(f"no ratio in --c {args.c!r}")
    ns = _parse_range(args.n)
    rows = decay_scan(ns, cs)
    lines = ["n,c,s,log_density"]
    lines.extend(
        f"{r.n},{r.c},{r.s},{r.log_density:.12g}" for r in rows
    )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit({"command": "scan-decay", "rows": len(rows), "out": args.out})
    else:
        sys.stdout.write(text)
    return 0


def _cmd_hoffman(args) -> int:
    wh = read_weighted_hypergraph(args.file)
    levels = lambda_levels(wh)
    bound = hoff(wh)
    mu1 = [float(v) for v in wh.vertex_measure()]
    th = theta(wh.hyper, mu1, tol=args.tol)
    payload = {
        "command": "hoffman",
        "lambda_levels": [float(v) for v in levels],
        "hoff": bound,
        "theta": float(th.value),
    }
    if wh.n <= DEFAULT_ALPHA_CAP:
        payload["alpha"] = float(alpha(wh.hyper, mu1)[0])
    else:
        payload["alpha"] = None
    _emit(payload)
    return 0


def _cmd_check(args) -> int:
    from . import checks

    failures = 0
    for name, ok, detail in checks.run_all(seed=args.seed):
        line = f"ok {name}" if ok else f"FAIL {name}: {detail}"
        print(line)
        failures += 0 if ok else 1
    _emit({"command": "check", "failures": failures, "seed": args.seed})
    return 0 if failures == 0 else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypertheta",
        description="Semidefinite and spectral bounds for hypergraph independence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, weights=True):
        p.add_argument("--file", required=True, help="hypergraph file (.hg)")
        if weights:
            p.add_argument("--weights", help="vertex weight file, one value per line")

    p = sub.add_parser("alpha", help="exact weighted independence number")
    add_common(p)
    p.add_argument("--cap", type=int, default=DEFAULT_ALPHA_CAP)
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("chistar", help="fractional cover number of the vertex weights")
    add_common(p)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP)
    p.set_defaults(func=_cmd_chistar)

    p = sub.add_parser("theta", help="relaxation value by the recursive SDP")
    add_common(p)
    p.add_argument("--tol", type=_positive, default=1e-8)
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("theta-dual", help="gauge of the complement body")
    add_common(p)
    p.add_argument("--tol", type=_positive, default=1e-8)
    p.set_defaults(func=_cmd_theta_dual)

    p = sub.add_parser("member", help="test a vector for membership in the body")
    add_common(p, weights=False)
    p.add_argument("--vec", required=True, help="vector file, one value per line")
    p.add_argument("--tol", type=_positive, default=MEMBERSHIP_TOL)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("mantel", help="exact value for the triangle family")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_mantel)

    p = sub.add_parser("hamming", help="closed forms for cube triangle hypergraphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=_cmd_hamming)

    p = sub.add_parser(
        "scan-decay",
        help="log-density scan; s(n,c) is the even integer closest to n/c, "
        "ties rounding toward the smaller even value",
    )
    p.add_argument("--c", required=True, help="comma-separated ratios, e.g. 2,3,4")
    p.add_argument("--n", required=True, help="dimension range start:end")
    p.add_argument("--out", help="CSV output path (stdout if omitted)")
    p.set_defaults(func=_cmd_scan_decay)

    p = sub.add_parser("hoffman", help="spectral levels and product bound (.whg input)")
    p.add_argument("--file", required=True)
    p.add_argument("--tol", type=_positive, default=1e-8)
    p.set_defaults(func=_cmd_hoffman)

    p = sub.add_parser("check", help="run the property suite of every module")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ThetaSolverError as exc:
        sys.stderr.write(render_json({"error": str(exc)}) + "\n")
        return 3
    except (HypergraphError, OSError, ValueError) as exc:
        sys.stderr.write(render_json({"error": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
