"""Tests for the ParMetis-like and Pt-Scotch-like multilevel baselines."""

import numpy as np
import pytest

from repro.baselines import band_mask, greedy_graph_growing, parmetis_like, scotch_like
from repro.graph import Bisection
from repro.graph.generators import grid2d, random_delaunay


class TestGGP:
    def test_balanced_halves(self):
        g = grid2d(12, 12).graph
        b = greedy_graph_growing(g, seed=0)
        assert b.imbalance < 0.2

    def test_bfs_region_is_compact_on_grid(self):
        # a BFS-grown half of a grid cuts O(side) edges, far below random
        g = grid2d(20, 20).graph
        b = greedy_graph_growing(g, seed=1, trials=4)
        assert b.cut_size < 100  # random split would cut ~380

    def test_single_vertex(self):
        from repro.graph import CSRGraph

        g = CSRGraph.empty(1)
        b = greedy_graph_growing(g, seed=2)
        assert b.side.shape == (1,)

    def test_more_trials_never_picked_worse(self):
        g = random_delaunay(500, seed=3).graph
        c1 = greedy_graph_growing(g, seed=4, trials=1).cut_weight
        c8 = greedy_graph_growing(g, seed=4, trials=8).cut_weight
        assert c8 <= c1 + 1e-9

    def test_grows_across_components(self):
        # two disjoint 30x30 grids plus 100 isolated vertices: a seed in
        # a small component must not stop growth at its boundary
        from repro.graph import CSRGraph

        e, _ = grid2d(30, 30).graph.edge_list()
        g = CSRGraph.from_edges(1900, np.vstack([e, e + 900]))
        worst = max(greedy_graph_growing(g, seed=s).imbalance
                    for s in range(200))
        assert worst <= 0.15


class TestBandMask:
    def test_contains_boundary(self):
        g = grid2d(10, 10).graph
        side = (np.arange(100) % 10 >= 5).astype(np.int8)
        b = Bisection(g, side)
        mask = band_mask(b, hops=2)
        assert mask[b.boundary_vertices()].all()

    def test_hops_grow_band(self):
        g = grid2d(16, 16).graph
        side = (np.arange(256) % 16 >= 8).astype(np.int8)
        b = Bisection(g, side)
        assert band_mask(b, 1).sum() < band_mask(b, 3).sum()

    def test_zero_hops_is_boundary_only(self):
        g = grid2d(8, 8).graph
        side = (np.arange(64) % 8 >= 4).astype(np.int8)
        b = Bisection(g, side)
        assert band_mask(b, 0).sum() == b.boundary_vertices().shape[0]


class TestMultilevelBaselines:
    @pytest.mark.parametrize("method", [parmetis_like, scotch_like])
    def test_quality_on_mesh(self, method):
        g = random_delaunay(3000, seed=5).graph
        res = method(g, seed=6)
        res.validate(max_imbalance=0.06)
        # planar mesh: expect O(sqrt(n)) cut, far below random (~m/2)
        assert res.cut_size < 5 * np.sqrt(3000)

    def test_scotch_usually_beats_parmetis(self):
        """The quality ordering the paper reports: Pt-Scotch cuts are
        generally better than ParMetis cuts."""
        wins = 0
        for seed in range(5):
            g = random_delaunay(1500, seed=100 + seed).graph
            cp = parmetis_like(g, seed=seed).cut_size
            cs = scotch_like(g, seed=seed).cut_size
            wins += cs <= cp
        assert wins >= 3

    def test_parmetis_refines_less_than_scotch(self):
        # the tuning difference lives in the uncoarsening/refinement stage
        # (total wall time also includes identical coarsening work, whose
        # timer noise would make the comparison flaky)
        g = random_delaunay(4000, seed=7).graph
        tp = parmetis_like(g, seed=8).stage_seconds["uncoarsen"]
        ts = scotch_like(g, seed=8).stage_seconds["uncoarsen"]
        assert tp < ts

    def test_stage_timings_present(self):
        g = grid2d(20, 20).graph
        res = parmetis_like(g, seed=9)
        assert set(res.stage_seconds) == {"coarsen", "initial", "uncoarsen"}
        assert res.extras["levels"] >= 2

    def test_cut_varies_with_seed(self):
        g = random_delaunay(1000, seed=10).graph
        cuts = {parmetis_like(g, seed=s).cut_size for s in range(4)}
        assert len(cuts) > 1  # the paper reports min-max ranges

    def test_grid_near_optimal(self):
        g = grid2d(24, 24).graph
        res = scotch_like(g, seed=11)
        assert res.cut_size <= 2 * 24
