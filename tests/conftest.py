"""Run the suite with one BLAS thread, the count the README recommends, unless
the environment sets one.  OpenBLAS reads the variable when numpy loads it,
so this runs before any test module imports numpy."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
