import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import sys

import hypertheta
from hypertheta import thetabody
from hypertheta.hypercore import cycle_graph

# Runs in a fresh interpreter: the modules loaded before the package import
# (site hooks and the like) are the baseline, and everything the package
# pulls in beyond it must come from the standard library, the package itself
# or numpy.
PROBE = """
import importlib, pkgutil, sys
before = {name.partition(".")[0] for name in sys.modules}
import hypertheta
for info in pkgutil.walk_packages(hypertheta.__path__, "hypertheta."):
    importlib.import_module(info.name)
after = {name.partition(".")[0] for name in sys.modules}
print(" ".join(sorted(after - before - set(sys.stdlib_module_names) - {"hypertheta"})))
"""


def test_numpy_is_the_only_runtime_dependency(fresh_python):
    out = fresh_python("-c", PROBE)
    assert out.decode().split() == ["numpy"]


def test_cli_import_leaves_the_property_suite_unloaded(fresh_python):
    # only `hypertheta check` needs checks; every other command skips compiling it
    out = fresh_python("-c", "import sys, hypertheta.cli; print('hypertheta.checks' in sys.modules)")
    assert out.decode().split() == ["False"]


def test_every_exported_name_resolves():
    # `from m import *` fails on the first name in __all__ that m lacks
    for info in pkgutil.walk_packages(hypertheta.__path__, "hypertheta."):
        module = importlib.import_module(info.name)
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], info.name


# The package's paths, run in a fresh interpreter: theta in both forms, the
# gauges, the transitive programs and their groups, hoff, alpha, chi_star and
# the Hamming LPs.  numpy.ma costs about 20 ms to import, and np.unique loads
# it unless asked for index outputs (sdp._distinct).
PATHS = """
import random, sys
from hypertheta.hamming import theta_hamming_link_lp, theta_hamming_lp
from hypertheta.hoffman import hoff, uniform_weighted
from hypertheta.hypercore import alpha, chi_star, complement, cycle_graph, random_hypergraph
from hypertheta.symmetry import (
    dihedral_group, mantel_hypergraph, mantel_pair_orbit_matrices, pair_orbits,
    symmetric_group_pair_action, theta_transitive, verify_automorphisms,
)
from hypertheta.thetabody import theta, theta_dual, theta_membership

c5, c7, m5 = cycle_graph(5), cycle_graph(7), mantel_hypergraph(5)
forms = {theta(hg).diagnostics["form"] for hg in (c5, c7)}
theta_membership(c5, [0.4] * 5)
theta_membership(m5, [0.5] * m5.n)
theta_dual(c5, [1.0] * 5)
for hg, group in ((c7, dihedral_group(7)), (m5, symmetric_group_pair_action(5))):
    assert verify_automorphisms(hg, group)
    pair_orbits(group)
    theta_transitive(hg, group)
mantel_pair_orbit_matrices(5)
hoff(uniform_weighted(m5))
alpha(random_hypergraph(8, 3, 0.4, random.Random(1)))
chi_star(complement(c5))
theta_hamming_lp(6, 2)
theta_hamming_link_lp(6, 2)
print(" ".join(sorted(forms)), "numpy.ma" in sys.modules)
"""


def test_package_paths_leave_numpy_ma_unloaded(fresh_python):
    out = fresh_python("-c", PATHS)
    assert out.decode().split() == ["free", "rows", "False"]


def test_benchmark_call_sites_resolve():
    # The benchmark's workloads and the sweep, digest and tight tools call the
    # package by name; parsed, not imported, so that nothing is written next
    # to them.
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    rels = ("perfbench/workloads.py", "tools/sweep_table.py", "tools/solve_digest.py", "tools/tight_random.py")
    for rel in rels:
        with open(os.path.join(root, rel)) as fh:
            tree = ast.parse(fh.read(), rel)
        modules = {}  # local alias -> the hypertheta module it names
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hypertheta"):
                source = importlib.import_module(node.module)
                for alias in node.names:
                    value = getattr(source, alias.name, None)
                    if value is None:  # a submodule the package has not loaded yet
                        value = importlib.import_module(f"{node.module}.{alias.name}")
                    if inspect.ismodule(value):
                        modules[alias.asname or alias.name] = value
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("hypertheta") and alias.asname:
                        modules[alias.asname] = importlib.import_module(alias.name)
        assert modules, rel
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                module = modules[node.value.id]
                assert hasattr(module, node.attr), f"{rel}:{node.lineno}: {node.value.id}.{node.attr}"


def load_tracing(monkeypatch):
    """perfbench/tracing.py loaded by file path, leaving perfbench/ unwritten."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_and_restores_what_it_wraps(monkeypatch):
    # The benchmark's tracer names package functions and reads SdpProblem
    # data; renaming or deleting either breaks it without failing any other test.
    tracing = load_tracing(monkeypatch)
    for name in tracing.traced_names():
        layer, fn = name.split(".")
        assert callable(getattr(importlib.import_module(f"hypertheta.{layer}"), fn, None)), name
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sites = list(tracer.sites)
        thetabody.theta(cycle_graph(5))
    finally:
        tracer.uninstall()
    assert tracer.counts["numlin.solve_sdp.rows"] > 0
    assert sites and all(getattr(mod, attr) is original for mod, attr, original in sites)
