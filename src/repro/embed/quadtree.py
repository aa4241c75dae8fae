"""Barnes–Hut repulsion via hierarchical grids (vectorised).

The background force-directed scheme (paper §2) approximates the
``O(n²)`` repulsive sum with Barnes–Hut in ``O(n log n)``.  A classic
pointer-based quadtree traversal is hopeless in pure Python, so this
module implements the equivalent *hierarchical-grid* (FMM-style)
formulation, which vectorises completely:

* level ``l`` covers the bounding square with a ``2^l × 2^l`` grid whose
  per-cell masses and centres of mass come from ``bincount``;
* a point interacts at level ``l`` with the cells that are children of
  its parent cell's 3×3 neighbourhood but *not* within its own cell's
  3×3 neighbourhood (the FMM "interaction list", ≤27 cells, fixed
  offsets → pure array arithmetic);
* at the finest level the remaining 3×3 neighbourhood is evaluated
  exactly, pair by pair, using a segment-expansion trick over the
  cell-sorted point order.

Every cell pair is accounted exactly once — at the first level where
the pair becomes well separated — which is the Barnes–Hut opening rule
with θ ≈ 1.  Accuracy is validated against
:func:`repro.embed.forces.repulsive_forces_exact` in the test suite.

Performance notes (DESIGN §11): at the sizes the coarsest graph has
(hundreds to a few thousand points) a per-pass kernel is bound by numpy
call overhead, not arithmetic, so here every numpy call does a block of
work.  For a block of up to ``_BLOCK`` vertices, one level's far-field
passes run together on ``(27, w)`` arrays:

* pass targets ``tx = 2·(px+dx)+a = 2·px + ox`` come from an offset
  table added to a per-vertex ``2·px`` base;
* the 9 of 36 passes that land in the own 3×3 ring depend only on the
  cell's parity bits, so each parity class keeps its 27 far passes
  (in pass order) and the ring mask disappears;
* every grid carries an empty rim of ``_PAD`` cells, so out-of-range
  targets read zero mass and need no range mask.

Each block is folded onto the running sum by one sequential axis-0
``np.add.reduce`` over ``[acc; C_0 … C_26]``, which keeps the per-pass
accumulation order; the 9 near-field passes of a block share one
``bincount`` over ``pass·w + i``.  A dropped or out-of-range pass only
ever added ±0 to a sum that is never −0, so forces stay bit-identical to
the per-pass kernel (``tests/oracles/embed.py``).  Scratch lives in a
:class:`BHWorkspace` and is O(n) per-vertex rows plus O(27·``_BLOCK``)
block buffers, whatever the level count.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .forces import (
    DEFAULT_C,
    _EPS2,
    ExactWorkspace,
    _check_repulsion_args,
    repulsive_forces_exact,
)

__all__ = ["BHWorkspace", "repulsive_forces_bh"]

#: Below this size the exact sum is both faster and exact.
_EXACT_CUTOFF = 128

#: Widest vertex block of the batched passes: block scratch is
#: ``(27, _BLOCK)`` per buffer whatever n is.
_BLOCK = 4096

#: Rim of empty cells around every level's grid, wide enough for the
#: farthest pass target (``2·px − 2`` .. ``2·px + 3``), so target ids
#: never need a range check.
_PAD = 2

#: Interaction-list pass offsets (ox, oy) with ox = 2·dx + a, oy = 2·dy + b,
#: in the exact nesting order of the original four loops (dy, dx, b, a) —
#: the accumulation order is part of the kernel's bit-level contract.
_PASS_OFFSETS = tuple(
    ((dx << 1) + a, (dy << 1) + b)
    for dy in (-1, 0, 1)
    for dx in (-1, 0, 1)
    for b in (0, 1)
    for a in (0, 1)
)


def _far_offsets(ax: int, ay: int):
    """Pass offsets that leave the own 3×3 ring of a cell with parity
    bits ``(ax, ay)``, in pass order.  The target of pass (ox, oy) is
    ``2·px + ox = cx − ax + ox``, so ring membership depends on the
    parity alone; every parity keeps 27 of the 36 passes."""
    return [(ox, oy) for ox, oy in _PASS_OFFSETS
            if max(abs(ox - ax), abs(oy - ay)) > 1]


#: ``_FAR_OX[q, par]``: padded x offset of the q-th far pass of a cell
#: with parity ``par = (cx & 1) + 2·(cy & 1)``; likewise ``_FAR_OY``.
_FAR = [_far_offsets(ax, ay) for ay in (0, 1) for ax in (0, 1)]
_FAR_OX = np.array([[o[0] for o in f] for f in _FAR], dtype=np.int64).T + _PAD
_FAR_OY = np.array([[o[1] for o in f] for f in _FAR], dtype=np.int64).T + _PAD
_NFAR = _FAR_OX.shape[0]

#: Near-field neighbour offsets, in the original (dy, dx) loop order.
_NEAR_DX = np.array([dx for dy in (-1, 0, 1) for dx in (-1, 0, 1)])[:, None]
_NEAR_DY = np.array([dy for dy in (-1, 0, 1) for dx in (-1, 0, 1)])[:, None]
_NNEAR = _NEAR_DX.shape[0]


class BHWorkspace:
    """Reusable scratch for :func:`repulsive_forces_bh`.

    One workspace serves any point count: buffers grow on demand and
    persist across calls, so repeated Barnes–Hut evaluations (the
    ``"bh"`` smoothing loop) stop paying allocation and first-touch
    page-fault cost.  Per-vertex rows are O(n); the pass blocks are
    ``(27, w)`` with ``w ≤ _BLOCK`` columns, so block scratch stays
    bounded however large the graph.  At or below ``_EXACT_CUTOFF``
    points the kernel falls back to the exact sum, which keeps its own
    workspace in :attr:`exact`.
    """

    __slots__ = ("_cap", "_wcap", "_vi", "_out", "_bi", "_bf", "_stack",
                 "exact")

    #: (27, w) float blocks: m, ddx, ddy, r2
    _N_BF = 4

    def __init__(self) -> None:
        self._cap = 0
        self._wcap = 0
        self.exact = ExactWorkspace()

    def bind(self, n: int, w: int):
        """Two int64 vertex rows and the ``(n, 2)`` output, sized for
        ``n`` points and pass blocks up to ``w`` columns wide."""
        if n > self._cap:
            self._vi = np.empty((2, n), dtype=np.int64)
            self._out = np.empty((n, 2))
            self._cap = n
        if w > self._wcap:
            self._bi = np.empty(_NFAR * w, dtype=np.int64)
            self._bf = np.empty((self._N_BF, _NFAR * w))
            self._stack = np.empty((_NFAR + 1) * w)
            self._wcap = w
        return self._vi[0, :n], self._vi[1, :n], self._out[:n]

    def blocks(self, w: int):
        """``(27, w)`` target-id and float views and the ``(28, w)`` fold
        stack, carved out of the bound buffers."""
        size = _NFAR * w
        return (
            self._bi[:size].reshape(_NFAR, w),
            tuple(f[:size].reshape(_NFAR, w) for f in self._bf),
            self._stack[: size + w].reshape(_NFAR + 1, w),
        )


def _block_bounds(n: int):
    """Even split of ``range(n)`` into blocks of at most ``_BLOCK``
    columns, plus the widest block.  Blocks are at least
    ``min(n, _BLOCK // 2)`` wide, never one column: a ``(28, 1)`` stack
    would reduce as a 1-D pairwise sum and break the sequential fold
    order."""
    nb = -(-n // _BLOCK)
    edges = [i * n // nb for i in range(nb + 1)]
    return list(zip(edges[:-1], edges[1:])), -(-n // nb)


def _fold(stack: np.ndarray, acc: np.ndarray) -> None:
    """``acc += stack[1] ; acc += stack[2] ; …`` in row order: one
    sequential axis-0 reduction over ``[acc; rows]``."""
    stack[0] = acc
    np.add.reduce(stack, axis=0, out=acc)


def repulsive_forces_bh(
    pos: np.ndarray,
    masses: Optional[np.ndarray] = None,
    c: float = DEFAULT_C,
    k: float = 1.0,
    leaf_target: float = 2.0,
    max_level: int = 12,
    *,
    workspace: Optional[BHWorkspace] = None,
) -> np.ndarray:
    """Approximate all-pairs repulsion in ``O(n log n)``.

    ``leaf_target`` is the average number of points per finest-level
    cell (smaller = more exact near-field work, higher accuracy).
    With a ``workspace`` the pass blocks reuse its buffers across calls;
    the returned array lives in the workspace and is overwritten by the
    next call.
    """
    pos, masses = _check_repulsion_args(pos, masses)
    n = pos.shape[0]
    if n <= _EXACT_CUTOFF:
        exact_ws = workspace.exact if workspace is not None else None
        return repulsive_forces_exact(pos, masses, c, k, workspace=exact_ws)

    # square bounding box (equal cell aspect keeps the opening rule honest)
    lo = pos.min(axis=0)
    span = float(max((pos.max(axis=0) - lo).max(), 1e-12)) * (1 + 1e-9)
    ck2 = c * k * k

    finest = min(max_level, max(2, math.ceil(math.log(n / leaf_target, 4))))

    bounds, wmax = _block_bounds(n)
    ws = workspace if workspace is not None else BHWorkspace()
    base, par, out = ws.bind(n, wmax)
    posx = np.ascontiguousarray(pos[:, 0])
    posy = np.ascontiguousarray(pos[:, 1])
    cmass = ck2 * masses  # the oracle folds (ck2 * masses) first
    mx = masses * posx
    my = masses * posy
    out.fill(0.0)
    outx, outy = out[:, 0], out[:, 1]

    # integer cell coordinates at the finest level; coarser levels shift
    cell = np.clip(((pos - lo) / span * (1 << finest)).astype(np.int64),
                   0, (1 << finest) - 1)

    for level in range(2, finest + 1):
        s = 1 << level
        ps = s + 2 * _PAD
        shift = finest - level
        cx = cell[:, 0] >> shift
        cy = cell[:, 1] >> shift
        # cell statistics on the padded grid: rim cells stay empty
        cid = (cy + _PAD) * ps + (cx + _PAD)
        mass = np.bincount(cid, weights=masses, minlength=ps * ps)
        comx = np.bincount(cid, weights=mx, minlength=ps * ps)
        comy = np.bincount(cid, weights=my, minlength=ps * ps)
        nz = mass > 0
        comx[nz] /= mass[nz]
        comy[nz] /= mass[nz]
        # per-vertex base 2·py·ps + 2·px and parity (cx & 1) + 2·(cy & 1)
        np.multiply(cy & -2, ps, out=base)
        np.add(base, cx & -2, out=base)
        np.bitwise_and(cx, 1, out=par)
        np.add(par, (cy & 1) << 1, out=par)
        off = _FAR_OY * ps + _FAR_OX
        for b0, b1 in bounds:
            w = b1 - b0
            tid, (m, ddx, ddy, r2), stack = ws.blocks(w)
            terms = stack[1:]
            # target of far pass q: padded id of (2·px + ox, 2·py + oy)
            np.take(off, par[b0:b1], axis=1, out=tid, mode="clip")
            np.add(tid, base[None, b0:b1], out=tid)
            np.take(mass, tid, out=m, mode="clip")
            np.take(comx, tid, out=ddx, mode="clip")
            np.subtract(posx[None, b0:b1], ddx, out=ddx)
            np.take(comy, tid, out=ddy, mode="clip")
            np.subtract(posy[None, b0:b1], ddy, out=ddy)
            np.multiply(ddx, ddx, out=r2)
            np.multiply(ddy, ddy, out=terms)
            np.add(r2, terms, out=r2)
            np.add(r2, _EPS2, out=r2)
            np.multiply(cmass[None, b0:b1], m, out=m)
            np.divide(m, r2, out=m)
            np.multiply(m, ddx, out=terms)
            _fold(stack, outx[b0:b1])
            np.multiply(m, ddy, out=terms)
            _fold(stack, outy[b0:b1])

    # exact near field over the finest-level 3x3 neighbourhood; cid is
    # the padded finest-level id, so rim neighbours count zero points
    order = np.argsort(cid, kind="stable")
    counts = np.bincount(cid, minlength=ps * ps)
    starts = np.concatenate([[0], np.cumsum(counts)])
    near_off = _NEAR_DY * ps + _NEAR_DX
    for b0, b1 in bounds:
        w = b1 - b0
        nbr = cid[None, b0:b1] + near_off  # (9, w), pass-major
        seg = counts[nbr].ravel()
        total = int(seg.sum())
        if total == 0:
            continue
        rows = np.repeat(np.arange(_NNEAR * w), seg)
        first = np.cumsum(seg) - seg
        j_idx = order[np.repeat(starts[nbr].ravel() - first, seg)
                      + np.arange(total)]
        i_idx = rows % w + b0
        keep = i_idx != j_idx
        rows, i_idx, j_idx = rows[keep], i_idx[keep], j_idx[keep]
        dx = posx[i_idx] - posx[j_idx]
        dy = posy[i_idx] - posy[j_idx]
        sc = cmass[i_idx] * masses[j_idx] / (dx * dx + dy * dy + _EPS2)
        stack = ws.blocks(w)[-1][: _NNEAR + 1]
        stack[1:] = np.bincount(rows, weights=sc * dx,
                                minlength=_NNEAR * w).reshape(_NNEAR, w)
        _fold(stack, outx[b0:b1])
        stack[1:] = np.bincount(rows, weights=sc * dy,
                                minlength=_NNEAR * w).reshape(_NNEAR, w)
        _fold(stack, outy[b0:b1])
    return out
