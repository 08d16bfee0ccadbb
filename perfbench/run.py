"""Run one workload of the hypertheta benchmark and print its metrics.

    python3 perfbench/run.py --workload {ladder,batch,exact} --seed N --seconds S --trace {0,1}

The package is imported from the ``src`` directory beside this one; without
it the command exits with code 2 and prints no result.  The load is a closed
loop: one caller makes each top-level call after the previous one returned,
repeating the workload's fixed call list ("a pass") S / PASS_SECONDS[workload]
times; a traced run alternates untraced and traced passes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured with no wrapper installed: ``setup_s``, ``pass_s`` (one pass with
each call at its median repetition in the run, times scaled to the
machine's quiet speed by ``speed.probe``), ``ok_frac`` and
``peak_rss_mb``.  With ``--trace 1`` untraced and traced passes alternate;
the last line carries the per-layer metrics of the traced passes and the
tracing overhead, and every span is written to
``.perfbench_out/spans-<workload>-seed<N>.jsonl``.  The two lines before the
last one record the environment and a summary: failed calls by name,
``failed_frac``, call latency percentiles and sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS runs on one thread unless the caller says otherwise (must precede the
# first numpy import).  On a 2-vCPU machine a second thread gave no steady
# gain at these matrix sizes but doubled the CPU time through spinning, which
# leaves runs more exposed to other tenants of the machine.
NPROC = len(os.sched_getaffinity(0))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Seconds allowed per pass.  A run makes --seconds / this many passes (at
# least 2), fixed before it starts, so that every run of a workload makes the
# same passes.  On a quiet 2-vCPU machine a pass takes about two thirds of
# its allowance, and about all of it in a slow spell.
PASS_SECONDS = {"ladder": 9.0, "batch": 9.0, "exact": 4.0}

# Set-up is timed this many times per run: once in this process and the rest
# in fresh processes, since import cost is part of it.
SETUP_SAMPLES = 5

# An untraced pass runs the speed probe before a call when this many seconds
# have passed since the last probe, and once more at its end, so the probes
# sample the pass evenly in time.  Each set-up sample is preceded and
# followed by SETUP_PROBES probes.
PROBE_EVERY_S = 0.25
SETUP_PROBES = 3

# The speed probe that mirrors the code each workload spends its time in.
PROBE_KIND = {"ladder": "numeric", "batch": "small", "exact": "exact"}

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "numlin.solve_sdp.s": "s",
    "numlin.solve_sdp.calls": "count",
    "numlin.solve_sdp.iters": "count",
    "numlin.solve_sdp.nonoptimal": "count",
    "numlin.solve_sdp.rows": "count",
    "numlin.solve_sdp.blocks": "count",
    "numlin.solve_sdp.dim_sum": "count",
    "numlin.solve_sdp.nnz": "count",
    "numlin.solve_sdp.dense_bytes_computed": "bytes",
    "numlin.solve_lp.s": "s",
    "numlin.solve_lp.calls": "count",
    "numlin.eig_sym.s": "s",
    "numlin.eig_sym.calls": "count",
    "thetabody.theta.self_s": "s",
    "thetabody.theta_dual.self_s": "s",
    "thetabody.theta_membership.self_s": "s",
    "thetabody.check_certificate.self_s": "s",
    "thetabody.assemble_theta_sdp.s": "s",
    "hypercore.link.s": "s",
    "hypercore.link.calls": "count",
    "hypercore.alpha.s": "s",
    "hypercore.chi_star.self_s": "s",
    "hypercore.maximal_independent_sets.s": "s",
    "hypercore.read_hypergraph.s": "s",
    "symmetry.theta_transitive.self_s": "s",
    "symmetry.pair_orbits.s": "s",
    "symmetry.mantel_theta.s": "s",
    "hamming.decay_scan.self_s": "s",
    "hamming.m_k.s": "s",
    "hamming.m_q.s": "s",
    "hamming.theta_hamming_lp.self_s": "s",
    "hoffman.hoff.self_s": "s",
    "cli.main.self_s": "s",
    "cli.main.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads", "openblas_get_num_threads")
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    """Digest of the package sources, which names the code measured even
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "hypertheta").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int, workdir: Path):
    """Import the package, build the workload and run its warm-up calls.
    Returns the workload and the seconds that took, scaled to the machine's
    quiet speed by probes made right before and right after.  numpy is
    loaded by the probe before the clock starts; what the package imports
    on top of it is timed."""
    if not (SRC / "hypertheta" / "__init__.py").is_file():
        raise SetupError(f"no package sources under {SRC}")
    import speed

    kind = PROBE_KIND[workload]
    probes = [speed.probe(kind) for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hypertheta
    import workloads

    if SRC not in Path(hypertheta.__file__).resolve().parents:
        raise SetupError(f"hypertheta was imported from {hypertheta.__file__}, not {SRC}")
    wl = workloads.build(workload, seed, workdir)
    for fn in wl.warmup:
        fn()
    elapsed = time.perf_counter() - start
    probes += [speed.probe(kind) for _ in range(SETUP_PROBES)]
    return wl, elapsed * speed_factor(probes, kind)


def speed_factor(probes: list[float], kind: str) -> float:
    """Quiet probe time over the mean probe time measured: 1 on a quiet
    machine, below 1 in a slow spell."""
    import speed

    return speed.QUIET_PROBE_S[kind] / statistics.fmean(probes)


def setup_samples(workload: str, seed: int, first: float) -> list[float]:
    """The in-process set-up time plus fresh-process repeats of it."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def run_pass(wl, tracer=None, pass_id: int = 0, probes: list | None = None,
             kind: str = "numeric"):
    """One closed-loop pass over the call list.  A call that raises is kept
    as its exception; it never stops the pass.  Given a ``probes`` list, the
    speed probe of this ``kind`` runs between calls, and (index of the next
    call, probe time) pairs are appended there; the pass time returned is
    the sum of the call times, so it leaves the probes out."""
    import speed

    results: dict = {}
    latencies = []
    last_probe = float("-inf")
    for i, call in enumerate(wl.calls):
        if probes is not None and time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append((i, speed.probe(kind)))
            last_probe = time.perf_counter()
        span = tracer.call(f"{pass_id}:{i}", call.name) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span:
            try:
                results[call.name] = call.run(results)
            except Exception as exc:  # counted as a failed call
                results[call.name] = exc
        latencies.append(time.perf_counter() - t0)
    if probes is not None:
        probes.append((len(wl.calls), speed.probe(kind)))
    return results, latencies, sum(latencies)


def check_pass(wl, results: dict) -> tuple[dict, dict]:
    """Returns (failed, wrong): reasons by call name.  ``failed`` holds every
    call that raised, whose check could not run, or that missed its
    reference; ``wrong`` holds only the misses."""
    failed, wrong = {}, {}
    for call in wl.calls:
        out = results[call.name]
        if isinstance(out, Exception):
            failed[call.name] = f"raised {type(out).__name__}: {str(out)[:160]}"
            continue
        try:
            reason = call.check(out, results)
        except Exception as exc:  # an earlier call this check relies on failed
            failed[call.name] = f"check could not run: {type(exc).__name__}: {exc}"
            continue
        if reason is not None:
            failed[call.name] = wrong[call.name] = reason
    return failed, wrong


def _stdout_bytes(results: dict) -> int:
    import workloads

    return sum(len(out.stdout.encode()) for out in results.values()
               if isinstance(out, workloads.CliOutput))


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed: dict[str, int] = {}
        self.reasons: dict[str, str] = {}
        self.wrong: dict[str, str] = {}

    def add(self, wl, results: dict) -> None:
        failed, wrong = check_pass(wl, results)
        self.attempted += len(wl.calls)
        for name, reason in failed.items():
            self.failed[name] = self.failed.get(name, 0) + 1
            self.reasons.setdefault(name, reason)
        self.wrong.update(wrong)

    @property
    def failures(self) -> int:
        return sum(self.failed.values())


def call_factors(probes: list[tuple[int, float]], calls: int, kind: str) -> list[float]:
    """Speed factor of each call of a pass: from the two probes that enclose
    the run of calls it belongs to."""
    factors = []
    for (start, before), (end, after) in zip(probes, probes[1:]):
        factors += [speed_factor([before, after], kind)] * (end - start)
    assert len(factors) == calls
    return factors


def measure(wl, passes: int, tally: Tally, kind: str) -> dict:
    """Untraced passes with the speed probe.  Each call's time is scaled by
    the speed factor around it; ``per_call`` holds each call's median scaled
    time over the passes."""
    pass_times, factors, scaled = [], [], []
    for _ in range(passes):
        probes: list[tuple[int, float]] = []
        results, lat, elapsed = run_pass(wl, probes=probes, kind=kind)
        pass_times.append(elapsed)
        factors.append(speed_factor([t for _, t in probes], kind))
        scaled.append([t * f for t, f in zip(lat, call_factors(probes, len(lat), kind))])
        tally.add(wl, results)
    return {"pass_times": pass_times, "factors": factors,
            "per_call": [statistics.median(by_call) for by_call in zip(*scaled)]}


def measure_traced(wl, passes: int, tally: Tally):
    """Alternate untraced and traced passes, ``passes`` in all (at least one
    of each)."""
    import tracing

    tracer = tracing.Tracer()
    plain, traced, per_pass = [], [], []
    for _ in range(max(1, passes // 2)):
        results, _, elapsed = run_pass(wl)
        plain.append(elapsed)
        tally.add(wl, results)

        first = len(tracer.spans)
        counts = dict(tracer.counts)
        tracer.install()
        try:
            results, _, elapsed = run_pass(wl, tracer, pass_id=len(traced))
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        tally.add(wl, results)
        row = dict(tracer.totals(first))
        for key, value in tracer.counts.items():
            row[key] = value - counts.get(key, 0)
        row["cli.main.stdout_bytes"] = _stdout_bytes(results)
        row["trace.spans"] = len(tracer.spans) - first
        per_pass.append(row)
    return tracer, plain, traced, per_pass


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_s: list[float], run: dict, tally: Tally) -> dict:
    values = {
        "setup_s": statistics.median(setup_s),
        "pass_s": sum(run["per_call"]),
        "ok_frac": 1.0 - tally.failures / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def call_latency(run: dict) -> dict:
    """Median and 90th percentile over the calls of each call's scaled
    median time.  Printed in the summary, not bounded: each rests on one or
    two calls and spread too widely between runs to carry a bound."""
    call_ms = [v * 1000.0 for v in run["per_call"]]
    p90 = statistics.quantiles(call_ms, n=10)[8] if len(call_ms) > 1 else call_ms[0]
    return {"call_p50_ms": _metric(statistics.median(call_ms), "ms"),
            "call_p90_ms": _metric(p90, "ms"),
            "call_samples": len(call_ms)}


def per_layer(plain: list[float], traced: list[float], per_pass: list[dict]) -> dict:
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            value = statistics.median(traced) / statistics.median(plain)
        else:
            value = statistics.median(row.get(name, 0) for row in per_pass)
        out[name] = _metric(value, unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ladder", "batch", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it and exit (used by the runner)")
    args = parser.parse_args(argv)

    workdir = OUT / f"work-{os.getpid()}"
    try:
        wl, first_setup = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": first_setup}))
            return 0
        env = environment(args.workload, args.seed)
        passes = max(2, int(args.seconds / PASS_SECONDS[args.workload]))
        tally = Tally()
        summary = {"workload": args.workload, "seed": args.seed, "calls_per_pass": len(wl.calls)}
        if args.trace:
            tracer, plain, traced, per_pass = measure_traced(wl, passes, tally)
            metrics = per_layer(plain, traced, per_pass)
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path, {"env": env, "traced_passes": len(traced)})
            summary.update(untraced_passes=len(plain), traced_passes=len(traced),
                           spans_file=str(spans_path.relative_to(ROOT)))
        else:
            samples = setup_samples(args.workload, args.seed, first_setup)
            run = measure(wl, passes, tally, PROBE_KIND[args.workload])
            metrics = end_to_end(samples, run, tally)
            summary.update(passes=len(run["pass_times"]), setup_samples=len(samples),
                           setup_s_samples=samples,
                           median_pass_wall_s=statistics.median(run["pass_times"]),
                           speed_factors=run["factors"],
                           **call_latency(run),
                           call_ms={c.name: round(1000 * v, 3)
                                    for c, v in zip(wl.calls, run["per_call"])})
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary.update(
        failed_frac=tally.failures / tally.attempted,
        failed_calls=tally.failed,
        failure_reasons=tally.reasons,
    )
    print(json.dumps({"env": env}))
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failures,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
