"""The benchmark's workloads: one input family, method and backend each.

The input graph is a pure function of the workload seed (the grid has
no randomness).  The ``i``-th timed call of every run uses the same
partitioner seed (:func:`call_seed`), so ``cut`` is a median over the
same seeds in every run; the one reference call on the sim backend uses
a partitioner seed derived from the workload seed (:func:`run_seed`).
``tiny`` sizes exist for the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int, int], object]  # (size, seed) -> GeneratedGraph
    size: int
    tiny: int
    method: str
    backend: str
    nranks: int
    k: int = 2

    def generate(self, seed: int, tiny: bool = False):
        return self.make(self.tiny if tiny else self.size, seed)


def _grid(side: int, seed: int):
    from repro.graph.generators import grid2d

    return grid2d(side, side)


def _powerlaw(n: int, seed: int):
    from repro.graph.generators import preferential_attachment

    return preferential_attachment(n, 3, seed=seed)


def _delaunay(n: int, seed: int):
    from repro.graph.generators import random_delaunay

    return random_delaunay(n, seed=seed)


#: Two-rank procs runs slow down whenever either vCPU of a shared host is
#: contended, so their wall time spreads more than one process's: across
#: ten seeds, wall time (interquartile range over median) spread 0.28 for
#: ``grid-sp`` and about 0.3 for ``delaunay-parmetis`` on procs, so both
#: run on sim.  ``powerlaw-kway8`` (procs) spread 0.21 with three
#: six-second calls per run; it is not declared in BENCHMARK.json and
#: runs by name only.
WORKLOADS = {w.name: w for w in (
    Workload(
        "grid-sp",
        "unit-weight 2-D mesh where heavy-edge matching stalls, so coarsen "
        "and the Barnes-Hut coarsest embedding dominate; ScalaPart on 2 "
        "simulated ranks",
        _grid, 200, 24, "ScalaPart", "sim", 2),
    Workload(
        "powerlaw-kway8",
        "skewed degrees shrink poorly under matching; the only k-way "
        "(K=8) and only non-mesh workload, on 2 real processes",
        _powerlaw, 10000, 400, "KWay-Geometric", "procs", 2, k=8),
    Workload(
        "delaunay-sim64",
        "the paper's own mode: 64 simulated ranks in one process, so the "
        "engine scheduler is under load and every timed call is modelled",
        _delaunay, 12000, 600, "ScalaPart", "sim", 64),
    Workload(
        "delaunay-parmetis",
        "control: ParMetis-like shares coarsening with the others but "
        "bypasses embed and geometric, so embed changes must not move it; "
        "2 simulated ranks",
        _delaunay, 40000, 600, "ParMetis-like", "sim", 2),
)}


def call_seed(i: int) -> int:
    """Partitioner seed of the ``i``-th call of a run."""
    import numpy as np

    return int(np.random.SeedSequence([0x5EED, i]).generate_state(1)[0])


def run_seed(seed: int) -> int:
    """Partitioner seed derived from the workload ``seed``."""
    import numpy as np

    return int(np.random.SeedSequence([0x5EED, 0x51, seed]).generate_state(1)[0])
