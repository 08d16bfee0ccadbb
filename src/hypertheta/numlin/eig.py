"""Dense symmetric eigendecomposition with input validation."""

from __future__ import annotations

import numpy as np

__all__ = ["as_symmetric", "eig_sym"]

_SYMMETRY_TOL = 1e-12


def as_symmetric(m) -> np.ndarray:
    """Validate near-symmetry and return the symmetrized copy.

    Asymmetry above _SYMMETRY_TOL * max(1, |M|_max) is an input error.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return _symmetrized(a[None])[0]


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """The symmetrized copy of a (k, d, d) stack, each matrix validated as
    by as_symmetric, in one pass over the stack.  A non-finite entry makes
    its matrix's largest |entry| non-finite, since max propagates NaN."""
    t = a.transpose(0, 2, 1)
    scale = np.abs(a).max(axis=(1, 2), initial=0.0)
    if not np.isfinite(scale).all():
        raise ValueError("matrix has non-finite entries")
    skew = np.abs(a - t).max(axis=(1, 2), initial=0.0)
    bad = skew > _SYMMETRY_TOL * np.maximum(scale, 1.0)
    if bad.any():
        raise ValueError(f"matrix asymmetry {skew[bad][0]:.3e} exceeds tolerance")
    return (a + t) / 2.0


def eig_sym(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix."""
    a = as_symmetric(m)
    vals, vecs = np.linalg.eigh(a)
    return vals, vecs
