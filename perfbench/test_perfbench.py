"""Tests of the benchmark itself: the wrappers fire where expected, put every
name back, and do not change any value; the checks catch misses; the runner
prints the result line the BENCHMARK.json contract names.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    return {name: workloads.build(name, 0, work) for name in ("ladder", "batch", "exact")}


def _subset(wl, names):
    return dataclasses.replace(wl, calls=[c for c in wl.calls if c.name in names])


def _cheap(built):
    """A few calls of each workload, including calls that use earlier results."""
    ladder = _subset(built["ladder"], {"theta mantel(5)", "theta_membership mantel(5) f=0.5"})
    batch = _subset(built["batch"], {c.name for c in built["batch"].calls
                                     if c.name.startswith("n4.0 ")}
                    | {"tight complete(3,3) tol=1e-08"})
    exact = _subset(built["exact"], {c.name for c in built["exact"].calls
                                     if not c.name.startswith("cli scan-decay")}
                    | {"cli scan-decay c=4 n=20:100"})
    return {"ladder": ladder, "batch": batch, "exact": exact}


def _traced_pass(wl):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results, _, _ = run.run_pass(wl, tracer)
    finally:
        tracer.uninstall()
    return tracer, results


def _snapshot():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if mod is not None and (name == "hypertheta" or name.startswith("hypertheta."))
        for attr, value in vars(mod).items()
    }


def _same(a, b) -> bool:
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def test_wrappers_cover_the_lookup_sites():
    import hypertheta.cli
    import hypertheta.hamming
    import hypertheta.hoffman
    import hypertheta.numlin
    import hypertheta.thetabody

    sites = [
        (hypertheta.thetabody, "solve_sdp"),
        (hypertheta.thetabody, "link"),
        (hypertheta.numlin, "solve_lp"),
        (hypertheta.hamming, "solve_lp"),
        (hypertheta.hoffman, "eig_sym"),
        (hypertheta.cli, "read_hypergraph"),
    ]
    before = {site: getattr(*site) for site in sites}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for site, original in before.items():
            wrapper = getattr(*site)
            assert wrapper is not original and wrapper.__wrapped__ is original
    finally:
        tracer.uninstall()


def test_uninstall_restores_every_name(built):
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # every defining module plus the modules that imported the name
        assert len(tracer.sites) > len(tracing.traced_names())
        run.run_pass(_cheap(built)["ladder"], tracer)
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_wrappers_fire_where_expected(built):
    tracer, _ = _traced_pass(built["exact"])
    exact = tracer.totals()
    assert exact.get("numlin.solve_sdp.calls", 0) == 0
    assert exact["numlin.solve_lp.calls"] > 0
    assert exact["hypercore.read_hypergraph.calls"] > 0
    assert exact["hamming.m_q.calls"] > 0
    for name in ("ladder", "batch"):
        tracer, _ = _traced_pass(_cheap(built)[name])
        totals = tracer.totals()
        assert totals["numlin.solve_sdp.calls"] > 0
        assert totals["hypercore.link.calls"] > 0
        assert tracer.counts["numlin.solve_sdp.rows"] > 0


def test_spans_nest_and_self_time_is_bounded(built):
    tracer, _ = _traced_pass(_cheap(built)["batch"])
    for name, start, end, parent, call in tracer.spans:
        assert end >= start and call is not None
        if parent is not None:
            p = tracer.spans[parent]
            assert p[1] <= start and end <= p[2] and p[4] == call
    totals = tracer.totals()
    for name in tracing.traced_names():
        if f"{name}.s" in totals:
            assert -1e-9 <= totals[f"{name}.self_s"] <= totals[f"{name}.s"] + 1e-9


def test_traced_and_untraced_values_identical(built):
    for name, wl in _cheap(built).items():
        plain, _, _ = run.run_pass(wl)
        _, traced = _traced_pass(wl)
        assert plain.keys() == traced.keys()
        for call in wl.calls:
            assert _same(plain[call.name], traced[call.name]), (name, call.name)


def test_every_cheap_call_meets_its_reference(built):
    for wl in _cheap(built).values():
        results, _, _ = run.run_pass(wl)
        failed, wrong = run.check_pass(wl, results)
        assert failed == {} and wrong == {}


def test_checks_flag_misses_and_raises(built):
    ladder = _cheap(built)["ladder"]
    results, _, _ = run.run_pass(ladder)
    name = "theta mantel(5)"
    results[name] = dataclasses.replace(results[name], value=results[name].value + 1e-3)
    failed, wrong = run.check_pass(ladder, results)
    assert list(wrong) == [name] and list(failed) == [name]

    results[name] = RuntimeError("solver gave up")
    failed, wrong = run.check_pass(ladder, results)
    assert list(failed) == [name] and wrong == {}

    exact = _subset(built["exact"], {"cli mantel"})
    failed, wrong = run.check_pass(exact, {"cli mantel": workloads.CliOutput(3, "")})
    assert list(wrong) == ["cli mantel"]


def test_each_call_is_scaled_by_the_probes_around_it():
    import speed

    quiet = speed.QUIET_PROBE_S["numeric"]
    # Calls 0 and 1 ran between two quiet probes, call 2 between a quiet
    # probe and one three times slower.
    probes = [(0, quiet), (2, quiet), (3, 3 * quiet)]
    assert run.call_factors(probes, 3, "numeric") == pytest.approx([1.0, 1.0, 0.5])


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["ladder", "batch", "exact"]
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def _run(cwd: Path, *args: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "exact", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line(trace):
    proc = _run(ROOT, "--workload", "exact", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
