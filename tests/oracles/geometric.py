"""Oracles for the geometric kernels.

Each function here is the straightforward per-item implementation that
an optimised kernel in :mod:`repro.geometric` replaced.  The optimised
kernels must reproduce these outputs bit for bit;
``tests/geometric/test_centerpoint_exactness.py`` asserts it with
``np.array_equal``.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError
from repro.rng import SeedLike, as_generator


def _radon_point_reference(points: np.ndarray) -> np.ndarray:
    """One SVD per (d+2)-tuple; λ⁺ summed over the positive entries only."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] != pts.shape[1] + 2:
        raise GeometryError(f"radon_point needs (d+2, d) points, got {pts.shape}")
    d = pts.shape[1]
    a = np.vstack([np.ones((1, d + 2)), pts.T])  # (d+1, d+2)
    _, _, vh = np.linalg.svd(a)
    lam = vh[-1]
    pos = lam > 0
    s_pos = lam[pos].sum()
    if s_pos <= 1e-300 or pos.all():
        return pts.mean(axis=0)
    return (lam[pos, None] * pts[pos]).sum(axis=0) / s_pos


def _approx_centerpoint_reference(
    points: np.ndarray,
    seed: SeedLike = None,
    sample_size: int = 1000,
) -> np.ndarray:
    """Radon reduction with a Python-level loop over the tuples of a pass."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise GeometryError("approx_centerpoint expects (n, d) points")
    n, d = pts.shape
    if n == 0:
        raise GeometryError("cannot take the centerpoint of no points")
    g = d + 2
    if n <= g:
        return pts.mean(axis=0)
    rng = as_generator(seed)
    if n > sample_size:
        pts = pts[rng.choice(n, size=sample_size, replace=False)]
    current = pts
    while current.shape[0] > g:
        order = rng.permutation(current.shape[0])
        current = current[order]
        ngroups = current.shape[0] // g
        reduced = [
            _radon_point_reference(current[i * g : (i + 1) * g])
            for i in range(ngroups)
        ]
        leftover = current[ngroups * g :]
        current = np.vstack([np.asarray(reduced), leftover]) if reduced else leftover
    return current.mean(axis=0)
