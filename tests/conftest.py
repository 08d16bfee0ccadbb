"""Run the suite with one BLAS thread, the count the README recommends, unless
the environment sets one.  OpenBLAS reads the variable when numpy loads it,
so this runs before any test module imports numpy."""

import os
import subprocess
import sys

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


@pytest.fixture
def fresh_python():
    """run(*args): stdout bytes of `python *args` in a fresh interpreter that
    imports the package from the source tree under test."""
    import hypertheta

    src = os.path.dirname(os.path.dirname(hypertheta.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(*args):
        argv = [sys.executable, *args]
        env = {**os.environ, "PYTHONPATH": path}
        return subprocess.run(argv, capture_output=True, check=True, env=env).stdout

    return run
