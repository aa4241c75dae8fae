"""Tests for k-way partitioning via recursive bisection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import parmetis_like, rcb_bisect
from repro.core import ScalaPartConfig, recursive_bisection, scalapart
from repro.errors import PartitionError
from repro.graph.generators import grid2d, random_delaunay
from repro.graph.partition import kway_cut, kway_imbalance

FAST = ScalaPartConfig(coarsest_iters=50, smooth_iters=5)


def sp_bisector(graph, seed=None):
    return scalapart(graph, FAST, seed=seed)


class TestKWayMetrics:
    def test_kway_cut_matches_bisection(self):
        g = grid2d(8, 8).graph
        parts = (np.arange(64) % 8 >= 4).astype(np.int64)
        assert kway_cut(g, parts) == 8

    def test_kway_imbalance_perfect(self):
        g = grid2d(4, 4).graph
        parts = np.arange(16) % 4
        assert kway_imbalance(g, parts, 4) == pytest.approx(0.0)

    def test_kway_imbalance_skewed(self):
        g = grid2d(4, 4).graph
        parts = np.zeros(16, dtype=np.int64)
        assert kway_imbalance(g, parts, 2) == pytest.approx(1.0)


class TestRecursiveBisection:
    @pytest.mark.parametrize("k", [2, 3, 4, 7, 8])
    def test_k_parts_balanced(self, k):
        g = random_delaunay(1200, seed=0).graph
        res = recursive_bisection(g, k, parmetis_like, seed=1)
        res.validate(max_imbalance=0.30)
        assert len(np.unique(res.parts)) == k
        assert res.extras["bisections"] == k - 1

    def test_k1_trivial(self):
        g = grid2d(5, 5).graph
        res = recursive_bisection(g, 1, parmetis_like, seed=2)
        assert (res.parts == 0).all()
        assert res.extras["bisections"] == 0

    def test_invalid_k(self):
        g = grid2d(4, 4).graph
        with pytest.raises(PartitionError):
            recursive_bisection(g, 0, parmetis_like)

    def test_coordinate_bisector(self):
        g, pts = random_delaunay(800, seed=3)
        res = recursive_bisection(g, 4, rcb_bisect, coords=pts, seed=4)
        res.validate(max_imbalance=0.2)
        # RCB 4-way of a square mesh: ~O(sqrt n) cut per internal border
        assert res.cut_size < 8 * np.sqrt(800)

    def test_scalapart_kway(self):
        g = random_delaunay(1000, seed=5).graph
        res = recursive_bisection(g, 4, sp_bisector, seed=6)
        res.validate(max_imbalance=0.30)
        assert res.cut_size < 0.3 * g.num_edges

    def test_kway_cut_at_least_bisection_cut(self):
        g = random_delaunay(900, seed=7).graph
        two = recursive_bisection(g, 2, parmetis_like, seed=8).cut_size
        four = recursive_bisection(g, 4, parmetis_like, seed=8).cut_size
        assert four >= two

    def test_part_sizes_proportional_for_odd_k(self):
        g = grid2d(30, 30).graph
        res = recursive_bisection(g, 3, parmetis_like, seed=9)
        sizes = res.kway.part_sizes
        assert sizes.min() > 0.6 * (900 / 3)


@settings(max_examples=10, deadline=None)
@given(k=st.integers(2, 6), seed=st.integers(0, 1000))
def test_recursive_bisection_labels_always_complete(k, seed):
    g = random_delaunay(300, seed=11).graph
    res = recursive_bisection(g, k, parmetis_like, seed=seed)
    assert res.parts.shape == (300,)
    assert set(np.unique(res.parts)) <= set(range(k))
