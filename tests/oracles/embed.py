"""Oracles for the embedding kernels.

Each function here is the straightforward (allocating, per-pass)
implementation that an optimised kernel in :mod:`repro.embed` replaced.
The optimised kernels must reproduce these outputs bit for bit;
``tests/embed/test_kernel_exactness.py`` asserts it with
``np.array_equal``.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.embed.box import Box, cell_ids
from repro.embed.fdl import (
    _AUTO_EXACT_CUTOFF,
    _PROGRESS_LIMIT,
    _T,
    LayoutResult,
    RepulsionLike,
)
from repro.embed.forces import DEFAULT_C, _EPS2
from repro.embed.lattice import LatticeStats, lattice_stats
from repro.embed.quadtree import _EXACT_CUTOFF
from repro.errors import EmbeddingError
from repro.graph.csr import CSRGraph


def _attractive_forces_reference(
    graph: CSRGraph, pos: np.ndarray, k: float = 1.0
) -> np.ndarray:
    """``np.add.at`` scatter of the per-edge spring forces."""
    pos = np.asarray(pos, dtype=np.float64)
    n = graph.num_vertices
    if pos.shape != (n, 2):
        raise EmbeddingError(f"pos must be ({n}, 2), got {pos.shape}")
    if k <= 0:
        raise EmbeddingError("K must be positive")
    src = graph.edge_sources()
    dst = graph.indices
    d = pos[dst] - pos[src]
    dist = np.sqrt((d * d).sum(axis=1))
    mag = dist / k * graph.ewgt
    f = d * mag[:, None]
    out = np.zeros((n, 2))
    np.add.at(out, src, f)
    return out


def _repulsive_forces_exact_reference(
    pos: np.ndarray,
    masses: Optional[np.ndarray] = None,
    c: float = DEFAULT_C,
    k: float = 1.0,
) -> np.ndarray:
    """All-pairs repulsion on ``(n, n, 2)`` temporaries."""
    pos = np.asarray(pos, dtype=np.float64)
    n = pos.shape[0]
    if masses is None:
        masses = np.ones(n)
    masses = np.asarray(masses, dtype=np.float64)
    if n == 0:
        return np.zeros((0, 2))
    d = pos[:, None, :] - pos[None, :, :]  # d[i,j] = ci - cj
    r2 = (d * d).sum(axis=2) + _EPS2
    np.fill_diagonal(r2, np.inf)
    scale = c * k * k * (masses[:, None] * masses[None, :]) / r2
    return (d * scale[:, :, None]).sum(axis=1)


def _repulsive_forces_bh_reference(
    pos: np.ndarray,
    masses: Optional[np.ndarray] = None,
    c: float = DEFAULT_C,
    k: float = 1.0,
    leaf_target: float = 2.0,
    max_level: int = 12,
) -> np.ndarray:
    """Hierarchical-grid Barnes–Hut with fresh ``where``/``repeat``
    temporaries in each of the 36 far-field and 9 near-field passes."""
    pos = np.asarray(pos, dtype=np.float64)
    n = pos.shape[0]
    if pos.ndim != 2 or (n and pos.shape[1] != 2):
        raise EmbeddingError(f"pos must be (n, 2), got {pos.shape}")
    if masses is None:
        masses = np.ones(n)
    masses = np.asarray(masses, dtype=np.float64)
    if n <= _EXACT_CUTOFF:
        return _repulsive_forces_exact_reference(pos, masses, c, k)

    lo = pos.min(axis=0)
    span = float(max((pos.max(axis=0) - lo).max(), 1e-12)) * (1 + 1e-9)
    ck2 = c * k * k

    finest = min(max_level, max(2, math.ceil(math.log(n / leaf_target, 4))))
    out = np.zeros((n, 2))

    cell = np.clip(((pos - lo) / span * (1 << finest)).astype(np.int64),
                   0, (1 << finest) - 1)

    for level in range(2, finest + 1):
        s = 1 << level
        cx = cell[:, 0] >> (finest - level)
        cy = cell[:, 1] >> (finest - level)
        cid = cy * s + cx
        mass = np.bincount(cid, weights=masses, minlength=s * s)
        comx = np.bincount(cid, weights=masses * pos[:, 0], minlength=s * s)
        comy = np.bincount(cid, weights=masses * pos[:, 1], minlength=s * s)
        nz = mass > 0
        comx[nz] /= mass[nz]
        comy[nz] /= mass[nz]
        px, py = cx >> 1, cy >> 1
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                for b in (0, 1):
                    for a in (0, 1):
                        tx = ((px + dx) << 1) + a
                        ty = ((py + dy) << 1) + b
                        valid = (
                            (tx >= 0) & (tx < s) & (ty >= 0) & (ty < s)
                            & (np.maximum(np.abs(tx - cx), np.abs(ty - cy)) > 1)
                        )
                        if not valid.any():
                            continue
                        tid = np.where(valid, ty * s + tx, 0)
                        m = np.where(valid, mass[tid], 0.0)
                        ddx = pos[:, 0] - comx[tid]
                        ddy = pos[:, 1] - comy[tid]
                        r2 = ddx * ddx + ddy * ddy + _EPS2
                        scale = ck2 * masses * m / r2
                        out[:, 0] += scale * ddx
                        out[:, 1] += scale * ddy

    s = 1 << finest
    cx, cy = cell[:, 0], cell[:, 1]
    cid = cy * s + cx
    order = np.argsort(cid, kind="stable")
    counts = np.bincount(cid, minlength=s * s)
    starts = np.concatenate([[0], np.cumsum(counts)])
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            tx, ty = cx + dx, cy + dy
            valid = (tx >= 0) & (tx < s) & (ty >= 0) & (ty < s)
            tid = np.where(valid, ty * s + tx, 0)
            seg_cnt = np.where(valid, counts[tid], 0)
            total = int(seg_cnt.sum())
            if total == 0:
                continue
            i_idx = np.repeat(np.arange(n), seg_cnt)
            base = np.cumsum(seg_cnt) - seg_cnt
            within = np.arange(total) - np.repeat(base, seg_cnt)
            j_idx = order[np.repeat(starts[tid], seg_cnt) + within]
            keep = i_idx != j_idx
            i_idx, j_idx = i_idx[keep], j_idx[keep]
            d = pos[i_idx] - pos[j_idx]
            r2 = (d * d).sum(axis=1) + _EPS2
            scale = ck2 * masses[i_idx] * masses[j_idx] / r2
            out[:, 0] += np.bincount(i_idx, weights=scale * d[:, 0], minlength=n)
            out[:, 1] += np.bincount(i_idx, weights=scale * d[:, 1], minlength=n)
    return out


def _beta_force_field_reference(
    stats: LatticeStats, c: float = DEFAULT_C, k: float = 1.0
) -> np.ndarray:
    """β field on full ``(B, B, 2)`` temporaries."""
    com, mass = stats.com, stats.mass
    d = com[:, None, :] - com[None, :, :]
    r2 = (d * d).sum(axis=2) + _EPS2
    np.fill_diagonal(r2, np.inf)
    w = c * k * k * mass[None, :] / r2
    field = (d * w[:, :, None]).sum(axis=1)
    field[mass == 0] = 0.0
    return field


def _repulsive_forces_lattice_reference(
    pos: np.ndarray,
    masses: Optional[np.ndarray] = None,
    c: float = DEFAULT_C,
    k: float = 1.0,
    *,
    box: Optional[Box] = None,
    s: int = 16,
    stats: Optional[LatticeStats] = None,
) -> np.ndarray:
    """Fixed-lattice kernel computing ``cell_ids`` twice and ~10 fresh
    temporaries per call."""
    pos = np.asarray(pos, dtype=np.float64)
    n = pos.shape[0]
    if masses is None:
        masses = np.ones(n)
    masses = np.asarray(masses, dtype=np.float64)
    if box is None:
        box = Box.of_points(pos)
    if stats is None:
        stats = lattice_stats(pos, masses, box, s)
    elif stats.s != s:
        raise EmbeddingError(f"stats built for s={stats.s}, requested s={s}")

    field = _beta_force_field_reference(stats, c, k)
    cid = cell_ids(pos, box, s)
    out = field[cid] * masses[:, None]

    d = pos - stats.com[cid]
    r2 = (d * d).sum(axis=1) + _EPS2
    m_other = np.maximum(stats.mass[cid] - masses, 0.0)
    out += d * (c * k * k * masses * m_other / r2)[:, None]
    return out


def _resolve_repulsion_reference(repulsion: RepulsionLike, n: int):
    if callable(repulsion):
        return repulsion
    if repulsion == "auto":
        repulsion = "exact" if n <= _AUTO_EXACT_CUTOFF else "bh"
    if repulsion == "exact":
        return _repulsive_forces_exact_reference
    if repulsion == "bh":
        return _repulsive_forces_bh_reference
    raise EmbeddingError(f"unknown repulsion scheme {repulsion!r}")


def _force_directed_layout_reference(
    graph: CSRGraph,
    pos0: np.ndarray,
    *,
    masses: Optional[np.ndarray] = None,
    c: float = DEFAULT_C,
    k: float = 1.0,
    max_iters: int = 100,
    tol: float = 1e-3,
    step0: Optional[float] = None,
    repulsion: RepulsionLike = "auto",
    fixed: Optional[np.ndarray] = None,
) -> LayoutResult:
    """Hu's adaptive layout loop with fresh temporaries every iteration,
    ``np.add.at`` attraction and the oracle repulsion kernels above."""
    n = graph.num_vertices
    pos = np.array(pos0, dtype=np.float64, copy=True)
    if pos.shape != (n, 2):
        raise EmbeddingError(f"pos0 must be ({n}, 2), got {pos.shape}")
    if max_iters < 0:
        raise EmbeddingError("max_iters must be nonnegative")
    if masses is None:
        masses = graph.vwgt
    masses = np.asarray(masses, dtype=np.float64)
    if fixed is not None:
        fixed = np.asarray(fixed, dtype=bool)
        if fixed.shape != (n,):
            raise EmbeddingError("fixed mask must have one entry per vertex")
        if fixed.all():
            return LayoutResult(pos, 0, True, 0.0, 0.0)
    rep = _resolve_repulsion_reference(repulsion, n)

    step = float(step0) if step0 is not None else k
    energy_prev = np.inf
    progress = 0
    converged = False
    it = 0
    energy = 0.0
    for it in range(1, max_iters + 1):
        f = _attractive_forces_reference(graph, pos, k) + rep(pos, masses, c, k)
        if fixed is not None:
            f[fixed] = 0.0
        norms = np.sqrt((f * f).sum(axis=1))
        energy = float((norms * norms).sum())
        move = np.zeros_like(pos)
        active = norms > 1e-300
        move[active] = f[active] / norms[active, None] * step
        pos += move
        if energy < energy_prev:
            progress += 1
            if progress >= _PROGRESS_LIMIT:
                progress = 0
                step /= _T
        else:
            progress = 0
            step *= _T
        energy_prev = energy
        if step < tol * k:
            converged = True
            break
    return LayoutResult(pos, it, converged, step, energy)
