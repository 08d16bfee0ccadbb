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
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(a).max())) if a.size else 1.0
    skew = float(np.abs(a - a.T).max()) if a.size else 0.0
    if skew > _SYMMETRY_TOL * scale:
        raise ValueError(f"matrix asymmetry {skew:.3e} exceeds tolerance")
    return (a + a.T) / 2.0


def eig_sym(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix."""
    a = as_symmetric(m)
    vals, vecs = np.linalg.eigh(a)
    return vals, vecs
