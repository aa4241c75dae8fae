"""Distributed multilevel fixed-lattice embedding (paper §3, core).

Rank program implementing ScalaPart's embedding on the SPMD virtual
machine, stage for stage:

* the hierarchy comes from :func:`repro.coarsen.parallel.dist_build_hierarchy`
  (sizes ÷4 per level, active ranks ÷4 per level);
* the coarsest graph (a few hundred vertices) is embedded with the
  exact force scheme on the small coarsest rank group;
* per level, vertices are assigned to the active ranks by an RCB-style
  mapping of their initial coordinates onto the process grid ("we apply
  a recursive coordinate bisection scheme such as the one in Zoltan to
  map vertices ... to some p×q processor grid"); each rank's RCB box is
  its lattice sub-domain ``B_{i,j}`` with special vertex β;
* per smoothing iteration, each rank exchanges only its *boundary*
  vertex coordinates with grid-neighbour ranks (one halo exchange) and
  moves only its owned vertices — ghosts stay fixed;
* β statistics and the coordinates of *far* ghosts (edges spanning
  non-neighbour ranks) refresh only once per block of ``block_size``
  iterations, so intermediate iterations act on stale data exactly as
  §3 describes;
* the step length follows a fixed geometric cooling schedule — Hu's
  adaptive rule would need a global energy reduction *every* iteration,
  which the block structure exists to avoid.

Per-rank state is O(n/P): owned ids, one coordinate array holding the
owned rows followed by the ghost rows, and the per-neighbour
send/receive index lists, all precomputed at level setup; the
smoothing loop's scratch is allocated once per level.
Level-setup data (initial coordinates, ownership) is assembled once at
the subtree root and shared by reference (see
:mod:`repro.graph.distributed` for the simulator memory idiom); every
iteration's *data* then flows exclusively through the exchanges above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..baselines.rcb import rcb_grid_map
from ..coarsen.parallel import dist_build_hierarchy
from ..errors import EmbeddingError
from ..graph.csr import CSRGraph
from ..graph.distributed import adjacency_slots
from ..parallel.engine import Comm
from ..parallel.patterns import share_from_root
from ..parallel.topology import ProcessGrid, grid_dims
from ..rng import derive_seed
from .fdl import force_directed_layout, random_positions
from .forces import DEFAULT_C, _EPS2

__all__ = ["dist_multilevel_embedding"]

#: geometric cooling factor per smoothing iteration.
_T = 0.9


@dataclass
class _LevelSetup:
    """Per-rank precomputed structure for one level's smoothing."""

    own: np.ndarray            # global ids owned by this rank (sorted)
    mass_own: np.ndarray
    src_pos: np.ndarray        # local row per adjacency slot
    w: np.ndarray              # slot weights
    dst_slot: np.ndarray       # slot -> row of pos_all
    ghost_ids: np.ndarray      # sorted global ids of ghosts
    near_send: Dict[int, np.ndarray]   # nbr rank -> local indices to send
    near_recv: Dict[int, np.ndarray]   # nbr rank -> ghost slots to fill
    far_slots: np.ndarray      # ghost slots refreshed per block
    far_ids: np.ndarray        # their global ids
    pos_all: np.ndarray        # (n_own + n_ghost, 2): owned rows, then ghosts
    pos_own: np.ndarray        # (n_own, 2) view of pos_all's owned rows
    pos_ghost: np.ndarray      # (n_ghost, 2) view of pos_all's ghost rows


def _setup_level(
    comm: Comm,
    graph: CSRGraph,
    pos_full: np.ndarray,
    owner: np.ndarray,
    grid: ProcessGrid,
) -> _LevelSetup:
    """Build the rank-local working set from the (shared, read-only)
    level-initial coordinates and ownership map."""
    r = comm.rank
    own = np.flatnonzero(owner == r).astype(np.int64)
    src_pos, src, dst, w = adjacency_slots(graph, own)
    ghost_mask = owner[dst] != r
    ghost_ids = np.unique(dst[ghost_mask])
    # slot -> row of pos_all (owned rows first, then ghosts)
    dst_slot = np.empty(dst.shape[0], dtype=np.int64)
    own_sorted = own  # flatnonzero is sorted
    local = ~ghost_mask
    dst_slot[local] = np.searchsorted(own_sorted, dst[local])
    dst_slot[~local] = own.shape[0] + np.searchsorted(ghost_ids, dst[ghost_mask])

    nbrs = set(grid.neighbors8(r))
    near_send: Dict[int, np.ndarray] = {}
    near_recv: Dict[int, np.ndarray] = {}
    ghost_owner = owner[ghost_ids]
    for b in sorted(nbrs):
        # what b needs from us: our owned vertices adjacent to b's vertices
        mine_to_b = np.unique(src[owner[dst] == b])
        if mine_to_b.size:
            near_send[b] = np.searchsorted(own_sorted, mine_to_b)
        # what we get from b: our ghosts owned by b (same set from b's view)
        from_b = np.flatnonzero(ghost_owner == b)
        if from_b.size:
            near_recv[b] = from_b
    far = ~np.isin(ghost_owner, sorted(nbrs))
    far_slots = np.flatnonzero(far)
    comm.charge(float(dst.shape[0]) + own.shape[0])
    n_own = own.shape[0]
    pos_all = np.empty((n_own + ghost_ids.shape[0], 2))
    pos_all[:n_own] = pos_full[own]
    pos_all[n_own:] = pos_full[ghost_ids]
    return _LevelSetup(
        own=own,
        mass_own=graph.vwgt[own].copy(),
        src_pos=src_pos,
        w=w,
        dst_slot=dst_slot,
        ghost_ids=ghost_ids,
        near_send=near_send,
        near_recv=near_recv,
        far_slots=far_slots,
        far_ids=ghost_ids[far_slots],
        pos_all=pos_all,
        pos_own=pos_all[:n_own],
        pos_ghost=pos_all[n_own:],
    )


def _beta_force(stats: np.ndarray, cell: int, c: float, k: float) -> np.ndarray:
    """Per-unit-mass repulsive field at cell ``cell`` from all β
    (the distributed Eq. 1: every rank evaluates only its own row)."""
    mass = stats[:, 0]
    com = stats[:, 1:]
    d = com[cell] - com
    r2 = (d * d).sum(axis=1) + _EPS2
    wgt = c * k * k * mass / r2
    wgt[cell] = 0.0
    if mass[cell] == 0:
        return np.zeros(2)
    return (d * wgt[:, None]).sum(axis=0)


def _gather_full_pos(comm: Comm, setup: _LevelSetup, n: int,
                     words_out: Optional[float] = None):
    """Assemble the level's full coordinate array (shared reference).

    Functionally a gather of owned slices + shared broadcast.  By
    default charged as an allgather of all owned coordinates (the
    end-of-level exchange); block refreshes pass ``words_out`` = the
    rank's *far-edge* coordinate volume — the paper's ñ, "typically
    much smaller" than the boundary — because a real implementation
    only ships the endpoints of edges that span non-neighbour blocks.
    """
    if words_out is None:
        words_out = 2.0 * setup.own.shape[0]
    pairs = yield from comm.gather(
        (setup.own, setup.pos_own), root=0, words=words_out
    )
    full = None
    if comm.rank == 0:
        full = np.empty((n, 2))
        for ids, pos in pairs:
            full[ids] = pos
    p = comm.size
    lg = max(1.0, math.log2(p)) if p > 1 else 1.0
    full = yield from share_from_root(
        comm, full, words=words_out * max(0, p - 1) / lg
    )
    return full


def _smooth_level(
    comm: Comm,
    graph: CSRGraph,
    pos_full: np.ndarray,
    owner: np.ndarray,
    grid: ProcessGrid,
    *,
    iters: int,
    block_size: int,
    c: float,
    k: float = 1.0,
    step0: float = 1.0,
):
    """Fixed-lattice smoothing of one level; returns the level's final
    full coordinate array (shared, identical on all ranks)."""
    n = graph.num_vertices
    comm.set_phase("embed/smooth")
    setup = _setup_level(comm, graph, pos_full, owner, grid)
    p = comm.size

    # level workspace: every per-iteration temporary is allocated once
    n_own = setup.own.shape[0]
    n_slots = setup.w.shape[0]
    pos_all, pos_own = setup.pos_all, setup.pos_own
    d = np.empty((2, n_slots))        # per-slot offsets, one row per axis
    tmp = np.empty(n_slots)
    mag = np.empty(n_slots)
    f = np.empty((n_own, 2))          # force on owned vertices
    dd = np.empty((n_own, 2))         # per-vertex scratch
    r2 = np.empty(n_own)
    coef = np.empty(n_own)
    norms = np.empty(n_own)
    mass_col = setup.mass_own[:, None]
    mass_sum = setup.mass_own.sum()
    ckk_mass = c * k * k * setup.mass_own

    # initial β statistics: allreduce of the (p, 3) cell table
    def local_stats() -> np.ndarray:
        table = np.zeros((p, 3))
        table[comm.rank, 0] = mass_sum
        if mass_sum > 0:
            table[comm.rank, 1:] = (
                np.multiply(mass_col, pos_own, out=dd).sum(axis=0) / mass_sum
            )
        return table

    comm.set_phase("embed/refresh")
    # private writable copy of the delivered table: off-block iterations
    # overwrite this rank's own row in place (tiny (p,3) copy; the engine
    # delivers collective payloads as read-only views)
    stats = np.array(
        (yield from comm.allreduce(local_stats(), words=3.0 * p))
    )
    comm.set_phase("embed/smooth")
    # Fixed geometric cooling instead of Hu's adaptive schedule: the
    # adaptive rule needs the *global* force energy every iteration — a
    # reduction the paper's block structure explicitly avoids (global
    # collectives happen once per block; iterations use only
    # nearest-neighbour communication).
    step = step0

    for it in range(iters):
        # ---- halo exchange: boundary coordinates to grid neighbours ----
        comm.set_phase("embed/halo")
        if setup.near_send or setup.near_recv:
            # fresh copies: the payloads are posted zero-copy, and
            # pos_own is overwritten in place below
            out = {b: pos_own[idx] for b, idx in setup.near_send.items()}
            inbox = yield from comm.exchange(out)
            for b, payload in inbox.items():
                slots = setup.near_recv.get(b)
                if slots is None or payload.shape[0] != slots.shape[0]:
                    raise EmbeddingError(
                        f"halo mismatch: rank {comm.rank} got {payload.shape[0]} "
                        f"coords from {b}, expected "
                        f"{0 if slots is None else slots.shape[0]}"
                    )
                setup.pos_ghost[slots] = payload
        elif p > 1:
            yield from comm.exchange({})
        comm.set_phase("embed/smooth")

        # ---- per-block refresh: far ghosts + β table -------------------
        if it % block_size == 0:
            comm.set_phase("embed/refresh")
            if setup.far_slots.size or p > 1:
                full = yield from _gather_full_pos(
                    comm, setup, n, words_out=2.0 * max(1, setup.far_slots.size)
                )
                if setup.far_slots.size:
                    setup.pos_ghost[setup.far_slots] = full[setup.far_ids]
            stats = np.array(
                (yield from comm.allreduce(local_stats(), words=3.0 * p))
            )
            comm.set_phase("embed/smooth")
        else:
            # own row stays current locally (paper: each processor
            # independently calculates its φ and μ every iteration)
            stats[comm.rank] = local_stats()[comm.rank]

        # ---- forces on owned vertices ----------------------------------
        # spring forces per slot: d = pos[dst] - pos[src], scaled by
        # |d| / K * w; each column is one contiguous row of d
        for j in (0, 1):
            np.take(pos_all[:, j], setup.dst_slot, out=d[j])
            np.take(pos_own[:, j], setup.src_pos, out=tmp)
            d[j] -= tmp
        np.multiply(d[0], d[0], out=mag)
        np.multiply(d[1], d[1], out=tmp)
        mag += tmp
        np.sqrt(mag, out=mag)
        mag /= k
        mag *= setup.w
        d *= mag
        # per-source segment sum via bincount: bit-identical to the
        # np.add.at scatter it replaces, ~6x faster at scale
        f[:, 0] = np.bincount(setup.src_pos, weights=d[0], minlength=n_own)
        f[:, 1] = np.bincount(setup.src_pos, weights=d[1], minlength=n_own)
        field = _beta_force(stats, comm.rank, c, k)
        f += np.multiply(field, mass_col, out=dd)
        # own-cell term: repulsion from the cell's other mass at its φ
        m_cell, com = stats[comm.rank, 0], stats[comm.rank, 1:]
        np.subtract(pos_own, com, out=dd)
        np.multiply(dd[:, 0], dd[:, 0], out=r2)
        np.multiply(dd[:, 1], dd[:, 1], out=coef)
        r2 += coef
        r2 += _EPS2
        np.subtract(m_cell, setup.mass_own, out=coef)
        np.maximum(coef, 0.0, out=coef)
        coef *= ckk_mass
        coef /= r2
        dd *= coef[:, None]
        f += dd
        comm.charge(float(setup.w.shape[0] * 4 + n_own * 6 + p))

        # ---- move owned vertices (communication-free cooling) ----------
        np.multiply(f[:, 0], f[:, 0], out=norms)
        np.multiply(f[:, 1], f[:, 1], out=coef)
        norms += coef
        np.sqrt(norms, out=norms)
        # masked in place: rows with a zero force neither move nor divide
        active = (norms > 1e-300)[:, None]
        np.divide(f, norms[:, None], out=f, where=active)
        np.multiply(f, step, out=f, where=active)
        np.add(pos_own, f, out=pos_own, where=active)
        step *= _T

    comm.set_phase("embed/gather")
    full = yield from _gather_full_pos(comm, setup, n)
    return full


def dist_multilevel_embedding(
    comm: Comm,
    graph: CSRGraph,
    *,
    coarsest_size: int = 160,
    coarsest_iters: int = 150,
    smooth_iters: int = 16,
    block_size: int = 4,
    c: float = DEFAULT_C,
    jitter: float = 0.25,
    seed=None,
    hierarchy=None,
):
    """Distributed ScalaPart embedding; rank program for the VM.

    Returns ``(pos, info)`` where ``pos`` is the full ``(n, 2)``
    coordinate array (a shared reference, identical on every rank) and
    ``info`` carries the hierarchy sizes for diagnostics.
    """
    comm.set_phase("coarsen")
    if hierarchy is None:
        graphs, cmaps = yield from dist_build_hierarchy(
            comm, graph, coarsest_size=coarsest_size, keep_every_other=True
        )
    else:
        graphs, cmaps = hierarchy

    comm.set_phase("embed")
    nlevels = len(graphs)
    p_total = comm.size
    n0 = max(1, graphs[0].num_vertices)
    # active ranks per level sized so n_i / P_i stays ~ n_0 / P — the
    # paper's invariant (both quarter per level in the ideal hierarchy)
    p_at = [
        max(1, min(p_total, (p_total * g.num_vertices) // n0)) for g in graphs
    ]

    # ---- coarsest embedding (small rank group) -------------------------
    comm.set_phase("embed/coarsest")
    coarsest = graphs[-1]
    nk = coarsest.num_vertices
    pk = p_at[-1]
    payload = None
    if comm.rank == 0:
        res = force_directed_layout(
            coarsest,
            random_positions(nk, seed=derive_seed(seed, 0xC0A4)),
            masses=coarsest.vwgt,
            c=c,
            max_iters=coarsest_iters,
            repulsion="auto",
        )
        payload = (res.pos, res.iterations)
    pos, used_iters = (yield from share_from_root(comm, payload, words=2.0 * nk))
    # Cost accounting: the paper embeds the coarsest graph *with the
    # fixed-lattice scheme itself* on the P^k ranks, so one iteration
    # costs O(n_k + m_k + lattice) per group — not the all-pairs n_k²
    # of the functional kernel above (which we run for robustness at
    # these tiny sizes).  Charged for the iterations actually executed
    # (the adaptive layout usually converges well before the cap).
    # Communication per iteration: one neighbour exchange; per block:
    # an allreduce of the β table.
    m = comm.machine
    comm.charge(used_iters * (10.0 * nk + coarsest.indices.shape[0] + 16.0) / pk)
    if pk > 1:
        comm.charge_comm_seconds(
            used_iters * m.exchange_cost(min(4, pk - 1), 2.0 * nk / pk, 2.0 * nk / pk)
            + (used_iters / max(1, block_size))
            * m.collective_cost("allreduce", pk, 3.0 * pk)
        )

    # ---- uncoarsen: project + smooth -----------------------------------
    total_smooth_iters = 0
    for level in range(nlevels - 2, -1, -1):
        comm.set_phase("embed/project")
        g = graphs[level]
        n = g.num_vertices
        p_lvl = min(p_at[level], n) or 1
        rows, cols = grid_dims(p_lvl)
        grid = ProcessGrid(rows, cols)
        # projection at the subtree root (functional), shared by reference;
        # charged as the paper's nearest-neighbour projection traffic
        proj = None
        owner = None
        if comm.rank == 0:
            rng = np.random.default_rng(derive_seed(seed, 0x9E0, level))
            proj = 2.0 * pos[cmaps[level]] + rng.normal(scale=jitter, size=(n, 2))
            row, col = rcb_grid_map(proj, g.vwgt, rows, cols)
            owner = (row * cols + col).astype(np.int32)
        comm.charge(3.0 * n / p_lvl)
        proj = yield from share_from_root(comm, proj, words=2.0 * n / p_lvl)
        owner = yield from share_from_root(comm, owner, words=1.0 * n / p_lvl)

        sub = yield from comm.split(0 if comm.rank < p_lvl else None)
        # §4: "relatively fewer iterations are required at high processor
        # counts for smoothing" — the finer lattice (more β cells) makes
        # each iteration more accurate, so the schedule tapers with P
        level_iters = max(6, smooth_iters - int(math.log2(max(1, p_lvl))))
        total_smooth_iters += level_iters
        if sub is not None:
            pos = yield from _smooth_level(
                sub, g, proj, owner, grid,
                iters=level_iters, block_size=block_size, c=c,
            )
        # deliver the level result to the idle ranks as well
        comm.set_phase("embed/gather")
        pos = yield from share_from_root(comm, pos if comm.rank == 0 else None,
                                         words=1.0)
    comm.set_phase("embed")
    info = {
        "levels": nlevels,
        "sizes": [g.num_vertices for g in graphs],
        "smooth_iterations": total_smooth_iters,
    }
    return pos, info
