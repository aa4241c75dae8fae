"""The paper's fixed-lattice repulsion approximation (Eq. 1–2).

This is the heart of ScalaPart's embedding: the bounding box is viewed
as an ``s × s`` lattice (``s = √P`` in the distributed setting); every
cell ``B_{i,j}`` carries a *special vertex* ``β_{i,j}`` of mass
``μ_{i,j}`` (total mass of the cell's vertices) located at the cell's
centre of mass ``φ_{i,j}``.  Long-range repulsion is then:

* cell–cell (paper Eq. 1): each β is repelled by every other β, with the
  product of cell masses;
* vertices inherit their cell's β force (per unit of their own mass) and
  are additionally repelled by their *own* cell's remaining mass at its
  centre of mass (paper Eq. 2).

Normalisation note: Eq. 1–2 are written with unnormalised products
``μ_{i,j}·μ_{q,r}``; "all vertices in V_{i,j} inherit the repulsive
force on β" is implemented here in the mass-consistent form — the
per-unit-mass *field* at φ is inherited and multiplied by the vertex's
own mass, and the own-cell term uses the cell mass minus the vertex's
mass (a vertex does not repel itself).  With this normalisation the
lattice force converges to the exact sum as ``s → ∞``, which the test
suite verifies.

Unlike Barnes–Hut there is no adaptivity: the lattice is *fixed*, which
is what makes the distributed version communication-friendly — one
(s², 3)-word reduction per iteration block instead of a tree walk.

Performance notes (DESIGN §11): the β pairwise field is evaluated on a
*transposed* cell-pair matrix — summed-over cell ``j`` on axis 0 — so
the reduction runs sequentially over ``j`` with contiguous inner
vectors, which reproduces NumPy's strided ``(B, B, 2).sum(axis=1)``
summation order bit for bit while being ~6x faster; all cell-pair and
per-vertex temporaries live in a reusable :class:`LatticeWorkspace`,
making a steady-state smoothing call allocation-free; and ``cell_ids``
is computed once per call and shared between the β statistics and the
per-vertex inheritance (the pre-refactor kernel computed it twice).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import EmbeddingError
from .box import Box, cell_ids
from .forces import DEFAULT_C, _EPS2

__all__ = [
    "LatticeStats",
    "LatticeWorkspace",
    "lattice_stats",
    "beta_force_field",
    "repulsive_forces_lattice",
]


@dataclass(frozen=True)
class LatticeStats:
    """Aggregated β data of an ``s × s`` lattice.

    ``mass[cid]`` is μ of cell ``cid`` (row-major) and ``com[cid]`` its
    centre of mass φ (zero for empty cells, which have zero mass and
    thus exert no force).  In the distributed algorithm this is exactly
    the payload of the per-block allreduce.
    """

    s: int
    mass: np.ndarray
    com: np.ndarray

    def __post_init__(self) -> None:
        if self.mass.shape != (self.s * self.s,) or self.com.shape != (self.s * self.s, 2):
            raise EmbeddingError("inconsistent lattice statistics shapes")


class LatticeWorkspace:
    """Reusable scratch buffers for :func:`repulsive_forces_lattice`.

    Holds the ``(B, B)`` cell-pair matrices of the β field (``B = s²``)
    and the per-vertex force scratch.  Buffers grow on demand and are
    kept when the request shrinks (uncoarsening walks levels from small
    to large, so one workspace serves the whole walk); views of the
    right size are sliced out per call.  Reusing warm buffers is most
    of the win over the allocating kernel — fresh multi-MB temporaries
    page-fault on first touch every iteration.
    """

    __slots__ = ("_pair_cap", "_n_cap", "_pair", "_vert", "_field", "_out", "_cm")

    def __init__(self) -> None:
        self._pair_cap = 0
        self._n_cap = 0
        self._pair = None
        self._vert = None
        self._field = None
        self._out = None
        self._cm = None

    #: cell-pair matrices: tx, ty, r2, w (one extra slot doubles as scratch)
    _N_PAIR = 4
    #: per-vertex float scratch rows: dx, dy, r2, t
    _N_VERT = 4

    def pair_buffers(self, b: int):
        """``_N_PAIR`` matrices of shape ``(b, b)``."""
        if b > self._pair_cap:
            self._pair = np.empty((self._N_PAIR, b, b))
            self._field = np.empty((b, 2))
            self._cm = np.empty(b)
            self._pair_cap = b
        return tuple(self._pair[i, :b, :b] for i in range(self._N_PAIR))

    def field_buffer(self, b: int) -> np.ndarray:
        self.pair_buffers(b)
        return self._field[:b]

    def cm_buffer(self, b: int) -> np.ndarray:
        self.pair_buffers(b)
        return self._cm[:b]

    def vertex_buffers(self, n: int):
        """``_N_VERT`` float rows of length ``n`` plus the ``(n, 2)`` output."""
        if n > self._n_cap:
            self._vert = np.empty((self._N_VERT, n))
            self._out = np.empty((n, 2))
            self._n_cap = n
        return tuple(self._vert[i, :n] for i in range(self._N_VERT)), self._out[:n]


def lattice_stats(
    pos: np.ndarray,
    masses: np.ndarray,
    box: Box,
    s: int,
    *,
    cid: Optional[np.ndarray] = None,
) -> LatticeStats:
    """Per-cell mass and centre of mass (the β vertices).

    ``cid`` may carry precomputed cell ids of ``pos`` (the smoothing
    kernel computes them once and shares them with the per-vertex
    inheritance pass).
    """
    pos = np.asarray(pos, dtype=np.float64)
    masses = np.asarray(masses, dtype=np.float64)
    if cid is None:
        cid = cell_ids(pos, box, s)
    mass = np.bincount(cid, weights=masses, minlength=s * s)
    comx = np.bincount(cid, weights=masses * pos[:, 0], minlength=s * s)
    comy = np.bincount(cid, weights=masses * pos[:, 1], minlength=s * s)
    com = np.zeros((s * s, 2))
    nz = mass > 0
    com[nz, 0] = comx[nz] / mass[nz]
    com[nz, 1] = comy[nz] / mass[nz]
    return LatticeStats(s, mass, com)


def beta_force_field(
    stats: LatticeStats,
    c: float = DEFAULT_C,
    k: float = 1.0,
    *,
    workspace: Optional[LatticeWorkspace] = None,
) -> np.ndarray:
    """Per-unit-mass repulsive field at every β (vectorised Eq. 1).

    ``field[cid]`` is  Σ_{other cells} C K² μ_other (φ_cid − φ_other) /
    ‖φ_cid − φ_other‖²; multiply by a mass to get a force.

    The pair matrices are laid out transposed — the summed-over cell on
    axis 0 — so the final reduction is a sequential axis-0 sum with
    contiguous inner vectors: the exact summation order of the original
    ``(B, B, 2).sum(axis=1)`` (NumPy reduces a non-innermost axis
    sequentially), hence bit-identical results, at a fraction of the
    memory traffic.
    """
    com, mass = stats.com, stats.mass
    b = mass.shape[0]
    ws = workspace if workspace is not None else LatticeWorkspace()
    tx, ty, r2, w = ws.pair_buffers(b)
    field = ws.field_buffer(b)
    cm = ws.cm_buffer(b)
    comx = np.ascontiguousarray(com[:, 0])
    comy = np.ascontiguousarray(com[:, 1])
    # tx[j, i] = φx_i − φx_j  (axis 0 indexes the summed-over cell j)
    np.subtract(comx[None, :], comx[:, None], out=tx)
    np.subtract(comy[None, :], comy[:, None], out=ty)
    np.multiply(tx, tx, out=r2)
    np.multiply(ty, ty, out=w)
    np.add(r2, w, out=r2)
    np.add(r2, _EPS2, out=r2)
    np.fill_diagonal(r2, np.inf)
    # w[j, i] = C K² μ_j / r2 — same scalar folding as the reference
    np.multiply(c * k * k, mass, out=cm)
    np.divide(cm[:, None], r2, out=w)
    np.multiply(tx, w, out=tx)
    tx.sum(axis=0, out=field[:, 0])
    np.multiply(ty, w, out=ty)
    ty.sum(axis=0, out=field[:, 1])
    # empty cells produce garbage positions; zero both their row and effect
    field[mass == 0] = 0.0
    return field


def repulsive_forces_lattice(
    pos: np.ndarray,
    masses: Optional[np.ndarray] = None,
    c: float = DEFAULT_C,
    k: float = 1.0,
    *,
    box: Optional[Box] = None,
    s: int = 16,
    stats: Optional[LatticeStats] = None,
    workspace: Optional[LatticeWorkspace] = None,
) -> np.ndarray:
    """Fixed-lattice approximation of the repulsive forces (Eq. 1–2).

    Signature-compatible with the other repulsion kernels so it can be
    handed to :func:`repro.embed.fdl.force_directed_layout` via
    ``functools.partial``.  ``stats`` may be supplied externally — the
    distributed algorithm computes it once per iteration *block* and
    reuses it (acting on stale β data exactly as the paper describes).
    ``workspace`` threads reusable scratch through repeated calls (the
    smoothing loop passes one per level); the returned array lives in
    the workspace and is overwritten by the next call.
    """
    pos = np.asarray(pos, dtype=np.float64)
    n = pos.shape[0]
    if masses is None:
        masses = np.ones(n)
    masses = np.asarray(masses, dtype=np.float64)
    if box is None:
        box = Box.of_points(pos)
    ws = workspace if workspace is not None else LatticeWorkspace()
    cid = cell_ids(pos, box, s)
    if stats is None:
        stats = lattice_stats(pos, masses, box, s, cid=cid)
    elif stats.s != s:
        raise EmbeddingError(f"stats built for s={stats.s}, requested s={s}")

    field = beta_force_field(stats, c, k, workspace=ws)
    (dx, dy, r2, t), out = ws.vertex_buffers(n)
    # inherited β force: field[cid] * mass, column-wise gathers
    np.multiply(field[:, 0][cid], masses, out=out[:, 0])
    np.multiply(field[:, 1][cid], masses, out=out[:, 1])

    # own-cell term, fused into the same pass over the vertex arrays:
    # repulsion from the cell's *other* mass at its φ
    comx = np.ascontiguousarray(stats.com[:, 0])
    comy = np.ascontiguousarray(stats.com[:, 1])
    np.subtract(pos[:, 0], comx[cid], out=dx)
    np.subtract(pos[:, 1], comy[cid], out=dy)
    np.multiply(dx, dx, out=r2)
    np.multiply(dy, dy, out=t)
    np.add(r2, t, out=r2)
    np.add(r2, _EPS2, out=r2)
    # coefficient (C K² μ_i (μ_cell − μ_i)) / r2, reference fold order
    np.multiply(c * k * k, masses, out=t)
    m_other = np.maximum(stats.mass[cid] - masses, 0.0)
    np.multiply(t, m_other, out=t)
    np.divide(t, r2, out=t)
    np.multiply(dx, t, out=dx)
    np.multiply(dy, t, out=dy)
    np.add(out[:, 0], dx, out=out[:, 0])
    np.add(out[:, 1], dy, out=out[:, 1])
    return out
