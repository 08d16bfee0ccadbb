"""Spans around the public functions of the hypertheta layers, recorded from
outside the package.

``Tracer.install`` replaces every module attribute under ``hypertheta`` that
is bound to a traced function (the defining module and every module that
imported the name) with a wrapper that records a span; ``uninstall`` puts
the original objects back.  Spans are kept in memory as
``(name, start, end, parent, call)`` and written out when the benchmark ends.
Counts read from the arguments and results of ``numlin.solve_sdp`` are kept
per traced pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# Layer (module under hypertheta) -> public functions that get a span.
LAYERS = {
    "numlin": ("solve_sdp", "solve_lp", "eig_sym"),
    "thetabody": ("theta", "theta_dual", "theta_membership", "check_certificate",
                  "assemble_theta_sdp"),
    "hypercore": ("link", "alpha", "chi_star", "maximal_independent_sets", "read_hypergraph"),
    "symmetry": ("theta_transitive", "pair_orbits", "mantel_theta"),
    "hamming": ("decay_scan", "m_k", "m_q", "theta_hamming_lp"),
    "hoffman": ("hoff",),
    "cli": ("main",),
}

SDP = "numlin.solve_sdp"
FLOAT_BYTES = 8


def traced_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def _package_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "hypertheta" or name.startswith("hypertheta."))
    ]


def _problem_counts(problem) -> dict[str, int]:
    dims = problem.block_dims
    nnz = 0
    dense = 0
    for coeffs, _ in problem.constraints:
        for b, mat in coeffs.items():
            nnz += int((mat != 0).sum())
            dense += dims[b] * dims[b] * FLOAT_BYTES
    return {
        "rows": problem.num_constraints,
        "blocks": len(dims),
        "dim_sum": sum(dims),
        "nnz": nnz,
        "dense_bytes_computed": dense,
    }


class Tracer:
    """Records spans while installed; single-threaded callers only."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, call id]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.sites: list[tuple[object, str, object]] = []  # (module, attribute, original)
        self._stack: list[int] = []
        self._call: str | None = None

    # -- wrappers ---------------------------------------------------------

    def install(self) -> None:
        if self.sites:
            raise RuntimeError("tracer already installed")
        for layer, fns in LAYERS.items():
            home = importlib.import_module(f"hypertheta.{layer}")
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for mod in _package_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self.sites.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.sites):
            setattr(mod, attr, original)
        self.sites = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(name, fn, args, kwargs)

        return wrapper

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._call])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def _span(self, name, fn, args, kwargs):
        index = self._open(name)
        try:
            if name == SDP:
                # Counted inside the span, so the caller's self time stays clean.
                problem = args[0] if args else kwargs["problem"]
                for key, value in _problem_counts(problem).items():
                    self.counts[f"{SDP}.{key}"] += value
            result = fn(*args, **kwargs)
            if name == SDP:
                self.counts[f"{SDP}.iters"] += result.iterations
                self.counts[f"{SDP}.nonoptimal"] += result.status != "optimal"
            return result
        finally:
            self._close(index)

    # -- top-level calls --------------------------------------------------

    @contextlib.contextmanager
    def call(self, call_id: str, label: str):
        """One top-level call: the root span of the spans it causes, all of
        which carry its id."""
        self._call = call_id
        index = self._open(label)
        try:
            yield
        finally:
            self._close(index)
            self._call = None

    # -- aggregation ------------------------------------------------------

    def totals(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Total time, self time and call count per traced name over the
        spans with index in [first, last)."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None and parent >= first:
                child[parent - first] += end - start
        out: dict[str, float] = defaultdict(float)
        traced = set(traced_names())
        for i, (name, start, end, _, _) in enumerate(spans):
            if name not in traced:
                continue
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child[i]
            out[f"{name}.calls"] += 1
        return out

    def write(self, path, header: dict) -> None:
        """Write a header line and then one JSON object per span, with times
        relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, call in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "call": call,
                }) + "\n")
