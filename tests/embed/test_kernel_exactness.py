"""Bit-exactness of the optimised embedding kernels.

Every hot-path kernel rewritten for speed (workspace reuse, bincount
scatters, transposed field sums, batched Barnes–Hut passes, axis-0
folds) must produce output *bit-identical* to the implementation it
replaced — the pre-refactor bodies live in :mod:`tests.oracles.embed`
for exactly this comparison.  Each kernel is checked on several graph
families, including degenerate ones (star hub, isolated vertices,
coincident points), and with a shared workspace reused across repeated
calls (stale-buffer bugs only show up on the second call).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.embed.box import Box
from repro.embed.fdl import _AUTO_EXACT_CUTOFF, force_directed_layout
from repro.embed.forces import (
    AttractiveWorkspace,
    ExactWorkspace,
    attractive_forces,
    repulsive_forces_exact,
)
from repro.embed.lattice import (
    LatticeWorkspace,
    beta_force_field,
    lattice_stats,
    repulsive_forces_lattice,
)
from repro.embed.multilevel import _lattice_kernel
from repro.embed.quadtree import BHWorkspace, repulsive_forces_bh
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid2d, random_delaunay, star_graph
from tests.oracles.embed import (
    _attractive_forces_reference,
    _beta_force_field_reference,
    _force_directed_layout_reference,
    _repulsive_forces_bh_reference,
    _repulsive_forces_exact_reference,
    _repulsive_forces_lattice_reference,
)


def _with_isolated(g: CSRGraph, extra: int = 5) -> CSRGraph:
    """Append ``extra`` isolated vertices (empty adjacency rows)."""
    n = g.num_vertices + extra
    indptr = np.concatenate(
        [g.indptr, np.full(extra, g.indptr[-1], dtype=np.int64)]
    )
    vwgt = np.concatenate([g.vwgt, np.ones(extra)])
    return CSRGraph(indptr, g.indices, ewgt=g.ewgt, vwgt=vwgt)


def _graph_cases():
    return [
        ("grid", grid2d(23, 19).graph),
        ("delaunay", random_delaunay(700, seed=11).graph),
        ("star", star_graph(301).graph),
        ("isolated", _with_isolated(grid2d(12, 12).graph)),
    ]


GRAPHS = _graph_cases()


def _pos_masses(g, seed=0):
    rng = np.random.default_rng(seed)
    n = g.num_vertices
    pos = rng.random((n, 2)) * max(np.sqrt(n), 1.0)
    masses = 1.0 + rng.random(n)
    return pos, masses


@pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
class TestAttractiveExactness:
    def test_matches_reference(self, name, g):
        pos, _ = _pos_masses(g)
        got = attractive_forces(g, pos, 1.3)
        ref = _attractive_forces_reference(g, pos, 1.3)
        assert np.array_equal(got, ref)

    def test_workspace_reuse_is_stable(self, name, g):
        ws = AttractiveWorkspace()
        for seed in range(3):
            pos, _ = _pos_masses(g, seed)
            got = attractive_forces(g, pos, 0.8, workspace=ws)
            ref = _attractive_forces_reference(g, pos, 0.8)
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
@pytest.mark.parametrize("s", [3, 8, 17])
class TestLatticeExactness:
    def test_forces_match_reference(self, name, g, s):
        pos, masses = _pos_masses(g)
        box = Box.of_points(pos).expanded(1.05)
        ws = LatticeWorkspace()
        for seed in range(2):  # reuse the workspace across calls
            pos, masses = _pos_masses(g, seed)
            got = repulsive_forces_lattice(
                pos, masses, 0.2, 1.1, box=box, s=s, workspace=ws
            )
            ref = _repulsive_forces_lattice_reference(
                pos, masses, 0.2, 1.1, box=box, s=s
            )
            assert np.array_equal(got, ref)

    def test_field_matches_reference(self, name, g, s):
        pos, masses = _pos_masses(g)
        box = Box.of_points(pos).expanded(1.05)
        stats = lattice_stats(pos, masses, box, s)
        ws = LatticeWorkspace()
        got = beta_force_field(stats, 0.2, 1.1, workspace=ws)
        ref = _beta_force_field_reference(stats, 0.2, 1.1)
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
class TestBarnesHutExactness:
    def test_matches_reference(self, name, g):
        ws = BHWorkspace()
        for seed in range(2):
            pos, masses = _pos_masses(g, seed)
            got = repulsive_forces_bh(pos, masses, 0.2, 1.1, workspace=ws)
            ref = _repulsive_forces_bh_reference(pos, masses, 0.2, 1.1)
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
class TestLayoutLoopExactness:
    def test_lattice_smoothing_matches_reference(self, name, g):
        pos, masses = _pos_masses(g)
        box = Box.of_points(pos).expanded(1.05)
        kern = partial(_lattice_kernel, box=box, s=8, ws=LatticeWorkspace())
        got = force_directed_layout(
            g, pos, masses=masses, max_iters=6, step0=1.0, repulsion=kern
        )
        ref = _force_directed_layout_reference(
            g, pos, masses=masses, max_iters=6, step0=1.0, repulsion=kern
        )
        assert np.array_equal(got.pos, ref.pos)
        assert got.final_energy == ref.final_energy
        assert got.iterations == ref.iterations
        assert got.final_step == ref.final_step

    def test_auto_repulsion_matches_reference(self, name, g):
        pos, masses = _pos_masses(g, 4)
        got = force_directed_layout(g, pos, masses=masses, max_iters=4)
        ref = _force_directed_layout_reference(
            g, pos, masses=masses, max_iters=4
        )
        assert np.array_equal(got.pos, ref.pos)

    def test_fixed_vertices_match_reference(self, name, g):
        pos, masses = _pos_masses(g, 5)
        fixed = np.zeros(g.num_vertices, dtype=bool)
        fixed[:: max(1, g.num_vertices // 7)] = True
        got = force_directed_layout(
            g, pos, masses=masses, max_iters=4, fixed=fixed
        )
        ref = _force_directed_layout_reference(
            g, pos, masses=masses, max_iters=4, fixed=fixed
        )
        assert np.array_equal(got.pos, ref.pos)


def _points(n, seed, *, clustered=False):
    """Uniform or five-cluster points with weighted masses and a few
    coincident pairs (zero distance hits the softening term)."""
    rng = np.random.default_rng(seed)
    if clustered:
        centres = rng.random((5, 2)) * 50.0
        pos = centres[rng.integers(0, 5, n)] + rng.normal(scale=0.3, size=(n, 2))
    else:
        pos = rng.random((n, 2)) * max(np.sqrt(n), 1.0)
    if n >= 4:
        pos[1] = pos[0]
        pos[n - 1] = pos[n // 2]
    masses = 1.0 + rng.integers(0, 4, n).astype(float)
    return pos, masses


class TestExactKernelExactness:
    @pytest.mark.parametrize("n", [0, 1, 2, 128, 129, 250, 600])
    def test_matches_reference(self, n):
        ws = ExactWorkspace()
        for seed in range(2):
            pos, masses = _points(n, seed)
            got = repulsive_forces_exact(pos, masses, 0.2, 1.1, workspace=ws)
            ref = _repulsive_forces_exact_reference(pos, masses, 0.2, 1.1)
            assert np.array_equal(got, ref)

    def test_workspace_reused_while_n_grows_and_shrinks(self):
        ws = ExactWorkspace()
        for seed, n in enumerate([2, 250, 600, 129, 1]):
            pos, masses = _points(n, seed)
            got = repulsive_forces_exact(pos, masses, 0.2, 1.1, workspace=ws)
            ref = _repulsive_forces_exact_reference(pos, masses, 0.2, 1.1)
            assert np.array_equal(got, ref)


class TestBarnesHutBatchedExactness:
    # 675 is the grid-sp benchmark's coarsest graph: finest level 5
    @pytest.mark.parametrize("n", [129, 675, 20000])
    @pytest.mark.parametrize("clustered", [False, True],
                             ids=["uniform", "clustered"])
    def test_matches_reference(self, n, clustered):
        pos, masses = _points(n, 7, clustered=clustered)
        got = repulsive_forces_bh(pos, masses, 0.2, 1.1)
        ref = _repulsive_forces_bh_reference(pos, masses, 0.2, 1.1)
        assert np.array_equal(got, ref)

    def test_workspace_reused_while_n_grows_and_shrinks(self):
        ws = BHWorkspace()
        for seed, n in enumerate([129, 675, 9000, 675, 100, 300]):
            pos, masses = _points(n, seed, clustered=bool(seed % 2))
            got = repulsive_forces_bh(pos, masses, 0.2, 1.1, workspace=ws)
            ref = _repulsive_forces_bh_reference(pos, masses, 0.2, 1.1)
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("n", [250, 675], ids=["exact-side", "bh-side"])
def test_auto_layout_matches_reference_on_both_sides_of_cutoff(n):
    g = random_delaunay(n, seed=n).graph
    assert (n <= _AUTO_EXACT_CUTOFF) == (n == 250)
    pos, masses = _pos_masses(g, 6)
    got = force_directed_layout(g, pos, masses=masses, max_iters=5,
                                repulsion="auto")
    ref = _force_directed_layout_reference(g, pos, masses=masses, max_iters=5,
                                           repulsion="auto")
    assert np.array_equal(got.pos, ref.pos)
    assert got.final_energy == ref.final_energy
    assert got.final_step == ref.final_step
