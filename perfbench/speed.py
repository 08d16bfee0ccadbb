"""Machine speed probes: fixed pieces of work timed between the calls of a pass.

The benchmark runs on shared virtual machines whose vCPUs slow down by 1.3
to 2.2 times for seconds to minutes at a time, with the process's CPU time
inflated by the same amount (no steal time is reported).  A slow spell can
cover a whole run, so no statistic taken inside one run removes it.  The
probe measures the machine's speed at the moment instead.  Kinds of code
slow down by different amounts in the same spell, so there are three
probes, each mirroring the code its workload spends its time in:

- ``numeric`` (``ladder``) mirrors ``numlin.solve_sdp`` on large problems: a
  Gram-Schmidt sweep over long constraint rows (the presolve), a dense LU
  solve (the Schur system), ``eigh`` and ``einsum`` calls on blocks, and
  interpreter-bound bookkeeping.
- ``small`` (``batch``) mirrors ``numlin.solve_sdp`` on tiny problems, where
  the time goes to the overhead of many small numpy calls: short
  Gram-Schmidt sweeps, small LU solves, ``eigh``, ``eigvalsh``,
  ``tensordot`` and ``einsum`` with path search on blocks of a few rows.
- ``exact`` mirrors the rational paths: ``Fraction`` arithmetic, ``math.comb``
  and alternating binomial sums as in the Krawtchouk/Hahn evaluation.

The probes call nothing from the package, so a change to the package does
not change them.  ``run.py`` scales each call's time by ``QUIET_PROBE_S``
over the mean time of the probes around it: a call run at the machine's
quiet speed keeps its wall time, and a call run in a slow spell is brought
back to it.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import comb

import numpy as np

# Median probe times on a quiet Intel Xeon (Sapphire Rapids) KVM guest with 2
# vCPUs, Python 3.11, numpy 2.4 and one OpenBLAS thread.  Constants: they set
# the unit of the scaled times and cancel out of every comparison.
QUIET_PROBE_S = {"numeric": 0.0075, "small": 0.0074, "exact": 0.0082}

_rng = np.random.default_rng(20220608)
_BASIS = _rng.standard_normal((40, 2000))
_BASIS /= np.linalg.norm(_BASIS, axis=1)[:, None]
_ROW = _rng.standard_normal(2000)
_SQUARE = _rng.standard_normal((400, 400))
_SCHUR = _SQUARE @ _SQUARE.T + 400.0 * np.eye(400)
_RHS = _rng.standard_normal(400)
_BLOCK = (_SQUARE[:20, :20] + _SQUARE[:20, :20].T) / 2.0 + 20.0 * np.eye(20)
_STACK = _rng.standard_normal((40, 20, 20))
_FLAT = _rng.standard_normal((40, 400))
_SHORT = _BASIS[:20, :300] / np.linalg.norm(_BASIS[:20, :300], axis=1)[:, None]
_SMALL_SCHUR = _SCHUR[:80, :80]
_TINY = _BLOCK[:6, :6]
_TINY_STACK = _STACK[:10, :6, :6]


def _numeric() -> float:
    acc = 0.0
    rows: dict[int, int] = {}
    for i in range(9000):
        rows[i % 97] = rows.get(i % 97, 0) + i
        acc += (i * 7) % 13
    for _ in range(10):
        res = _ROW.copy()
        for q in _BASIS:
            res -= (q @ res) * q
        acc += float(res[0])
    acc += float(np.linalg.solve(_SCHUR, _RHS)[0])
    for _ in range(6):
        _, vec = np.linalg.eigh(_BLOCK)
        w = (vec * 0.5) @ vec.T
        waw = np.einsum("pk,mkl,lq->mpq", w, _STACK, w, optimize=True)
        acc += float((_FLAT @ waw.reshape(40, -1).T)[0, 0])
    return acc


def _small() -> float:
    acc = 0.0
    for _ in range(20):
        res = _ROW[:300].copy()
        for q in _SHORT:
            res -= (q @ res) * q
        acc += float(res[0])
    for _ in range(40):
        acc += float(np.linalg.solve(_SMALL_SCHUR, _RHS[:80])[0])
    for _ in range(80):
        val, vec = np.linalg.eigh(_TINY)
        half = (vec * np.sqrt(np.abs(val))) @ vec.T
        acc += float(np.linalg.eigvalsh(half + _TINY)[0])
        acc += float(np.tensordot(half, _TINY))
    for _ in range(20):
        waw = np.einsum("pk,mkl,lq->mpq", _TINY, _TINY_STACK, _TINY, optimize=True)
        acc += float(waw[0, 0, 0])
    return acc


def _exact() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 800):
        acc += Fraction(comb(60, i % 61), i + 1) - Fraction(i, 7)
    for n in range(30, 80):
        for k in range(12):
            alt = sum((-1) ** j * comb(k, j) * comb(n - k, 10 - j) for j in range(min(k, 10) + 1))
            acc += Fraction(alt, comb(n, 10))
    return acc


_WORK = {"numeric": _numeric, "small": _small, "exact": _exact}


def probe(kind: str) -> float:
    """Seconds one probe of this kind takes now.  The work runs twice and the
    second run is timed, so the probe's data is back in cache whatever ran
    before it."""
    work = _WORK[kind]
    work()
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
