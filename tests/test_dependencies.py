import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
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


def test_numpy_is_the_only_runtime_dependency():
    src = os.path.dirname(os.path.dirname(hypertheta.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.split() == ["numpy"]


def test_every_exported_name_resolves():
    # `from m import *` fails on the first name in __all__ that m lacks
    for info in pkgutil.walk_packages(hypertheta.__path__, "hypertheta."):
        module = importlib.import_module(info.name)
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], info.name


def test_benchmark_call_sites_resolve():
    # The benchmark's workloads and the sweep and digest tools call the
    # package by name; parsed, not imported, so that nothing is written next
    # to them.
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    for rel in ("perfbench/workloads.py", "tools/sweep_table.py", "tools/solve_digest.py"):
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
