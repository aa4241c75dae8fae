"""Multilevel bisection baselines: ParMetis-like and Pt-Scotch-like.

The paper compares ScalaPart against the two dominant parallel
multilevel partitioners.  Their *sequential* quality characters are
reproduced here with one shared multilevel engine differing only in
tuning, exactly the trade-off the paper discusses ("we conjecture that
the cut quality of ParMetis reflects a trade-off in favor of faster
coarsening and refinement"):

* ``parmetis_like`` — speed-tuned: classic ~2× coarsening, greedy
  graph-growing initial partition with few trials, 2 boundary-FM passes
  per level, early stall cutoff.
* ``scotch_like`` — quality-tuned: more initial-partition trials, FM
  restricted to a *band graph* around the current cut (Pt-Scotch's
  signature technique, cited by the paper as the analogue of its strip)
  but with many passes and a generous stall budget.

Both return a :class:`~repro.results.PartitionResult`, so the
benchmark harness treats them like every other method.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..coarsen import build_hierarchy
from ..results import PartitionResult
from ..graph.csr import CSRGraph
from ..graph.partition import Bisection
from ..refine import fm_refine
from ..rng import SeedLike, as_generator, derive_seed

__all__ = [
    "greedy_graph_growing",
    "band_mask",
    "multilevel_bisection",
    "parmetis_like",
    "scotch_like",
]


def greedy_graph_growing(
    graph: CSRGraph, seed: SeedLike = None, trials: int = 4
) -> Bisection:
    """Greedy graph-growing initial bisection (METIS's GGP).

    Grows a region by BFS from a random seed vertex until it holds half
    the vertex weight; the best of ``trials`` seeds (by cut) wins.  When
    the seed's component runs out first, growth continues from the
    lowest-index vertex not yet reached (no RNG draw, so connected
    inputs grow exactly as before).
    """
    n = graph.num_vertices
    if n == 0:
        return Bisection(graph, np.zeros(0, dtype=np.int8))
    if n == 1:
        return Bisection(graph, np.zeros(1, dtype=np.int8))
    rng = as_generator(seed)
    half = graph.total_vertex_weight / 2.0
    best: Optional[Bisection] = None
    best_cut = np.inf
    for _ in range(max(1, trials)):
        start = int(rng.integers(n))
        side = np.ones(n, dtype=np.int8)
        side[start] = 0
        grown = float(graph.vwgt[start])
        frontier = [start]
        seen = np.zeros(n, dtype=bool)
        seen[start] = True
        while grown < half and frontier:
            nxt = []
            for v in frontier:
                for u in graph.neighbors(v):
                    if not seen[u]:
                        seen[u] = True
                        nxt.append(int(u))
            # add next BFS ring (or part of it) in order
            for u in nxt:
                if grown >= half:
                    break
                side[u] = 0
                grown += float(graph.vwgt[u])
            frontier = [u for u in nxt if side[u] == 0]
            if not frontier and grown < half:
                # component exhausted: restart from the next unreached one
                restart = int(np.argmin(seen))
                if seen[restart]:
                    break
                seen[restart] = True
                side[restart] = 0
                grown += float(graph.vwgt[restart])
                frontier = [restart]
        if (side == 0).all():  # disconnected leftovers
            side[-1] = 1
        b = Bisection(graph, side)
        cut = b.cut_weight
        if cut < best_cut:
            best, best_cut = b, cut
    assert best is not None
    return best


def band_mask(bisection: Bisection, hops: int = 3) -> np.ndarray:
    """Vertices within ``hops`` BFS steps of a cut edge (Pt-Scotch's
    band graph, selected by hop count rather than coordinates)."""
    g = bisection.graph
    mask = np.zeros(g.num_vertices, dtype=bool)
    frontier = bisection.boundary_vertices()
    mask[frontier] = True
    for _ in range(max(0, hops)):
        if frontier.size == 0:
            break
        nxt = []
        for v in frontier:
            nbrs = g.neighbors(int(v))
            fresh = nbrs[~mask[nbrs]]
            mask[fresh] = True
            nxt.append(fresh)
        frontier = np.concatenate(nxt) if nxt else np.zeros(0, dtype=np.int64)
    return mask


def multilevel_bisection(
    graph: CSRGraph,
    *,
    seed: SeedLike = None,
    coarsest_size: int = 64,
    max_imbalance: float = 0.05,
    initial_trials: int = 4,
    fm_passes: int = 2,
    band_hops: Optional[int] = None,
    stall_scale: float = 1.0,
    method_name: str = "multilevel",
) -> PartitionResult:
    """Shared multilevel engine (coarsen → initial partition → refine up).

    ``band_hops`` switches per-level refinement from whole-graph
    boundary FM to band-restricted FM.
    """
    t0 = time.perf_counter()
    t = time.perf_counter()
    h = build_hierarchy(
        graph, coarsest_size=coarsest_size, keep_every_other=False, seed=seed
    )
    t_coarsen = time.perf_counter() - t

    t = time.perf_counter()
    bis = greedy_graph_growing(h.coarsest, seed=derive_seed(seed, 0x161), trials=initial_trials)
    bis = fm_refine(bis, max_imbalance=max_imbalance, max_passes=max(4, fm_passes)).bisection
    t_initial = time.perf_counter() - t

    t = time.perf_counter()
    for level in range(h.num_levels - 1, 0, -1):
        fine_side = h.project_one_level(bis.side, level)
        bis = Bisection(h.graphs[level - 1], fine_side)
        stall = int(max(64, stall_scale * h.graphs[level - 1].num_vertices // 50))
        movable = band_mask(bis, band_hops) if band_hops is not None else None
        bis = fm_refine(
            bis,
            max_imbalance=max_imbalance,
            max_passes=fm_passes,
            movable=movable,
            stall_limit=stall,
        ).bisection
    t_refine = time.perf_counter() - t

    return PartitionResult(
        bisection=bis,
        method=method_name,
        seconds=time.perf_counter() - t0,
        stage_seconds={
            "coarsen": t_coarsen,
            "initial": t_initial,
            "uncoarsen": t_refine,
        },
        extras={"levels": h.num_levels},
    )


def parmetis_like(
    graph: CSRGraph, seed: SeedLike = None, max_imbalance: float = 0.05
) -> PartitionResult:
    """Speed-tuned multilevel bisection (the ParMetis analogue)."""
    return multilevel_bisection(
        graph,
        seed=seed,
        max_imbalance=max_imbalance,
        initial_trials=2,
        fm_passes=2,
        band_hops=None,
        stall_scale=0.5,
        method_name="ParMetis-like",
    )


def scotch_like(
    graph: CSRGraph, seed: SeedLike = None, max_imbalance: float = 0.05
) -> PartitionResult:
    """Quality-tuned multilevel bisection with band refinement
    (the Pt-Scotch analogue)."""
    return multilevel_bisection(
        graph,
        seed=seed,
        max_imbalance=max_imbalance,
        initial_trials=6,
        fm_passes=8,
        band_hops=3,
        stall_scale=4.0,
        method_name="Pt-Scotch-like",
    )
