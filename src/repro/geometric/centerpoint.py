"""Approximate centerpoints via iterated Radon reduction.

A *centerpoint* of a point set in ℝ^d is a point such that every
halfspace containing it contains ≥ n/(d+1) of the points; GMT's balance
guarantee for great-circle separators rests on cutting through one.
Exact centerpoints are expensive; the standard approximation (Clarkson
et al., used by the meshpart implementation the paper builds on) is
*Radon reduction*: repeatedly replace random groups of d+2 points by
their Radon point — a point common to the convex hulls of both halves
of a Radon partition — until few points remain; their centroid is the
answer.  The paper's parallel formulation computes this "fast using
sampling across processors", which
:func:`repro.geometric.parallel` reuses directly via ``sample_size``.

Each reduction pass is one stacked SVD: the ``(ngroups, d+1, d+2)``
Radon systems of all tuples go to ``np.linalg.svd`` together, which runs
the same LAPACK routine on every matrix that a per-tuple call would.
The positive weights λ⁺ are folded in tuple order with the non-positive
entries zeroed.  For d ≤ 5 (at most 7 members per tuple) that fold is
a plain sequential sum, so a tuple's Radon point is bit-identical to a
per-tuple reduction over its positive members only; from d = 6 on,
numpy's 8-wide pairwise summation groups the two sums differently and
the results may differ in the last bits.  :func:`radon_point` is the
one-tuple case of the same code.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError
from ..rng import SeedLike, as_generator

__all__ = ["radon_point", "approx_centerpoint", "centerpoint_depth"]


def _radon_points(tuples: np.ndarray) -> np.ndarray:
    """Radon points of a stack of ``(m, d+2, d)`` tuples, shape ``(m, d)``.

    One SVD call for the whole stack.  Numerically degenerate tuples
    (no positive mass, or every λ positive) fall back to their centroid.
    """
    m, g, d = tuples.shape
    a = np.empty((m, d + 1, g))
    a[:, 0, :] = 1.0
    a[:, 1:, :] = tuples.transpose(0, 2, 1)
    _, _, vh = np.linalg.svd(a)
    lam = vh[:, -1, :]  # (m, g) null vectors
    pos = lam > 0
    # zeroed entries add exact zeros to a fold whose order is unchanged
    lam_pos = np.where(pos, lam, 0.0)
    s_pos = lam_pos.sum(axis=1)
    fallback = (s_pos <= 1e-300) | pos.all(axis=1)
    out = (lam_pos[:, :, None] * tuples).sum(axis=1)
    np.divide(out, s_pos[:, None], out=out, where=~fallback[:, None])
    if fallback.any():
        out[fallback] = tuples[fallback].mean(axis=1)
    return out


def radon_point(points: np.ndarray) -> np.ndarray:
    """Radon point of ``d+2`` points in ℝ^d.

    Solves ``Σλ_i = 0, Σλ_i p_i = 0`` for a nontrivial λ (null space of
    the ``(d+1) × (d+2)`` system); the Radon point is the convex
    combination of the positive-λ points with weights λ⁺.  This is the
    one-tuple case of the stacked reduction :func:`approx_centerpoint`
    runs.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] != pts.shape[1] + 2:
        raise GeometryError(f"radon_point needs (d+2, d) points, got {pts.shape}")
    return _radon_points(pts[None])[0]


def approx_centerpoint(
    points: np.ndarray,
    seed: SeedLike = None,
    sample_size: int = 1000,
) -> np.ndarray:
    """Approximate centerpoint by iterated Radon reduction.

    A random sample of ``sample_size`` points is repeatedly reduced:
    each pass shuffles the current set, groups it into (d+2)-tuples and
    replaces every tuple by its Radon point; leftovers carry over.  The
    final handful is averaged.  Raises :class:`GeometryError` for a
    ``sample_size`` below 1 and for non-finite points.
    """
    if sample_size < 1:
        raise GeometryError(f"sample_size must be >= 1, got {sample_size}")
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise GeometryError("approx_centerpoint expects (n, d) points")
    n, d = pts.shape
    if n == 0:
        raise GeometryError("cannot take the centerpoint of no points")
    if not np.isfinite(pts).all():
        raise GeometryError("approx_centerpoint needs finite points")
    g = d + 2
    if n <= g:
        return pts.mean(axis=0)
    rng = as_generator(seed)
    if n > sample_size:
        pts = pts[rng.choice(n, size=sample_size, replace=False)]
    current = pts
    while current.shape[0] > g:
        current = current[rng.permutation(current.shape[0])]
        ngroups = current.shape[0] // g
        reduced = _radon_points(current[: ngroups * g].reshape(ngroups, g, d))
        current = np.concatenate([reduced, current[ngroups * g :]])
    return current.mean(axis=0)


def centerpoint_depth(points: np.ndarray, cp: np.ndarray, ntrials: int = 200,
                      seed: SeedLike = None) -> float:
    """Empirical Tukey-depth lower bound of ``cp`` (testing helper).

    Samples random directions and returns the minimum fraction of
    points on the lighter side of the hyperplane through ``cp``.  A true
    centerpoint in ℝ^d has depth ≥ 1/(d+1).
    """
    pts = np.asarray(points, dtype=np.float64)
    cp = np.asarray(cp, dtype=np.float64)
    rng = as_generator(seed)
    dirs = rng.normal(size=(ntrials, pts.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    proj = (pts - cp) @ dirs.T  # (n, ntrials)
    frac_pos = (proj > 0).mean(axis=0)
    return float(np.minimum(frac_pos, 1.0 - frac_pos).min())
