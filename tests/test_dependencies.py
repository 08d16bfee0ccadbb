import importlib
import os
import pkgutil
import subprocess
import sys

import hypertheta

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
