"""k-way partitioning by recursive bisection.

The paper computes bisections ("a single edge separator"); production
partitioners expose k-way partitioning, almost always implemented as
recursive bisection over the bisector — exactly what this module does
for *every* bisection method in the library.  This is also how the
paper's motivating use case (distributing a simulation over P
processors) consumes the algorithm.

The driver recurses on induced subgraphs, splitting the part budget
proportionally (so k need not be a power of two), and supports any
callable with the library's bisector signature
``f(graph, **kwargs) -> PartitionResult`` or
``f(graph, coords, **kwargs) -> PartitionResult`` for coordinate-based
methods (coordinates are sliced along with the subgraphs), as well as
any registered method name.

The result is the :class:`~repro.results.PartitionResult` every
partitioner returns: the labelling is its
:class:`~repro.graph.partition.KWayPartition` (with a ``bisection``
view when k ≤ 2), and the number of bisections performed is
``extras["bisections"]``.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Union

import numpy as np

from ..errors import PartitionError
from ..graph.csr import CSRGraph
from ..graph.partition import KWayPartition
from ..results import PartitionResult
from ..rng import SeedLike, derive_seed

__all__ = ["recursive_bisection"]


def recursive_bisection(
    graph: CSRGraph,
    k: int,
    bisector: Union[Callable, str],
    *,
    coords: Optional[np.ndarray] = None,
    seed: SeedLike = None,
    min_part: int = 1,
    cost_model=None,
    **bisector_kwargs,
) -> PartitionResult:
    """Partition ``graph`` into ``k`` parts via recursive bisection.

    ``bisector(graph, [coords,] seed=..., **kwargs)`` must return an
    object exposing ``.bisection`` (every partitioner in this library
    does) — or a *registered method name* ("scalapart", "RCB", ...),
    resolved through :data:`repro.core.methods.METHOD_REGISTRY`.  The
    part budget splits ⌈k/2⌉ : ⌊k/2⌋, and the bisector's balance point
    follows the budget so odd ``k`` stays balanced.

    ``cost_model`` only affects how the *result's* balance is measured
    (the recursion itself splits by vertex weight); pass the partition
    to :func:`repro.refine.kway_refine` to enforce a cost-model bound.
    """
    if k < 1:
        raise PartitionError(f"k must be >= 1, got {k}")
    t0 = time.perf_counter()
    name = getattr(bisector, "__name__", "")
    if isinstance(bisector, str):
        # local import: methods.py imports the drivers this module feeds
        from .methods import get_method

        spec = get_method(bisector)
        if spec.sequential is None:
            raise PartitionError(
                f"method {spec.name!r} has no sequential bisector"
            )
        if spec.needs_coords and coords is None:
            raise PartitionError(
                f"method {spec.name!r} needs coordinates for recursive "
                "bisection"
            )
        bisector, name = spec.sequential, spec.name
    from .cost import resolve_costs

    costs = resolve_costs(graph, cost_model)
    parts = np.zeros(graph.num_vertices, dtype=np.int64)
    counter = {"bisections": 0}
    _recurse(graph, np.arange(graph.num_vertices), coords, k, 0, parts,
             bisector, seed, counter, bisector_kwargs, min_part)
    kway = KWayPartition(graph, parts, k, costs=costs)
    return PartitionResult(
        bisection=kway.to_bisection() if k <= 2 else None,
        kway=kway,
        method=name,
        seconds=time.perf_counter() - t0,
        extras={"bisections": counter["bisections"]},
    )


def _rebalance_to_fraction(bis, target_frac: float, tol: float = 0.02):
    """Shift a ~50/50 bisection toward ``target_frac`` weight on side 0.

    Pure bisectors split evenly, but odd part budgets need unequal
    splits (e.g. 2:1 for k=3).  The transfer grows *contiguously* by
    BFS from the cut boundary into the donor side, so both sides stay
    (near-)connected — moving scattered best-gain vertices instead
    would shred the subgraphs the recursion partitions next.
    """
    g = bis.graph
    side = bis.side.astype(np.int8).copy()
    total = g.total_vertex_weight
    if total <= 0:
        return side
    w0 = float(g.vwgt[side == 0].sum())
    err = w0 / total - target_frac
    if abs(err) <= tol:
        return side
    donor = 0 if err > 0 else 1
    need = abs(err) * total
    # BFS over the donor side, seeded at the cut boundary
    sep = bis.separator_edges()
    seeds = np.unique(sep[:, donor]) if sep.size else np.zeros(0, dtype=np.int64)
    visited = np.zeros(g.num_vertices, dtype=bool)
    order: list = []
    frontier = [int(v) for v in seeds]
    for v in frontier:
        visited[v] = True
    while frontier:
        order.extend(frontier)
        nxt = []
        for v in frontier:
            for u in g.neighbors(v):
                if not visited[u] and side[u] == donor:
                    visited[u] = True
                    nxt.append(int(u))
        frontier = nxt
    # disconnected leftovers of the donor side go last
    rest = np.flatnonzero((side == donor) & ~visited)
    full_order = np.concatenate([np.asarray(order, dtype=np.int64), rest]) \
        if order or rest.size else np.zeros(0, dtype=np.int64)
    if full_order.size <= 1:
        return side
    cum = np.cumsum(g.vwgt[full_order])
    k = int(np.searchsorted(cum, need, side="left")) + 1
    k = min(k, full_order.size - 1)  # never empty the donor side
    side[full_order[:k]] = 1 - donor
    return side


def _recurse(graph, ids, coords, k, base, parts, bisector, seed, counter,
             kwargs, min_part) -> None:
    parts[ids] = base
    if k <= 1 or ids.size <= min_part:
        return
    sub, sub_ids = graph.subgraph(ids)
    if sub.num_vertices < 2:
        return
    sub_coords = coords[sub_ids] if coords is not None else None
    sub_seed = derive_seed(seed, base, k)
    args = (sub,) if sub_coords is None else (sub, sub_coords)
    res = bisector(*args, seed=sub_seed, **kwargs)
    bis = res.bisection
    counter["bisections"] += 1
    left_k = (k + 1) // 2
    if k % 2 == 0:
        # orient so side 0 is the (weakly) heavier side
        w0, w1 = bis.part_weights
        side = bis.side if w0 >= w1 else 1 - bis.side
    else:
        side = _rebalance_to_fraction(bis, left_k / k)
    left = sub_ids[side == 0]
    right = sub_ids[side == 1]
    _recurse(graph, left, coords, left_k, base, parts, bisector, seed,
             counter, kwargs, min_part)
    _recurse(graph, right, coords, k - left_k, base + left_k, parts,
             bisector, seed, counter, kwargs, min_part)
