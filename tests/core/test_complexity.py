"""Tests for the §3.1 analytic model and its agreement with the VM."""

import pytest

from repro.core.complexity import ComplexityModel


class TestClosedForms:
    def test_sequential_is_free(self):
        m = ComplexityModel()
        assert m.embedding_comm(10**6, 1) == 0.0
        assert m.partition_comm(1) == 0.0

    def test_embedding_grows_with_p_at_scale(self):
        m = ComplexityModel()
        n = 10**6
        # beyond the boundary-dominated regime the cost grows with P
        assert m.embedding_comm(n, 1024) > m.embedding_comm(n, 256)

    def test_partition_far_cheaper_than_embedding(self):
        m = ComplexityModel()
        assert m.partition_comm(16) < m.embedding_comm(10**6, 16)
        for p in (256, 1024):
            assert m.partition_comm(p) < 0.1 * m.embedding_comm(10**6, p)

    def test_latency_term_dominates_at_scale(self):
        # the paper: "costs related to message latency of the form
        # ts(log P)^2 will be dominant"
        m = ComplexityModel()
        assert m.dominant_term(10**6, 1024) in ("ts_log2", "tw_P_log2")

    def test_total_is_sum(self):
        m = ComplexityModel()
        assert m.total_comm(10**5, 64) == pytest.approx(
            m.embedding_comm(10**5, 64) + m.partition_comm(64)
        )


class TestAgreementWithSimulator:
    def test_partition_comm_shape_matches_vm(self):
        """The VM's SP-PG7-NL communication should grow ~log P, like the
        3(ts + tw c log P) closed form — i.e. slowly."""
        from repro.core.parallel import run_parallel
        from repro.graph.generators import random_delaunay

        g, pts = random_delaunay(2000, seed=0)
        t64 = run_parallel("SP-PG7-NL", g, 64, coords=pts, seed=1).seconds
        t1024 = run_parallel("SP-PG7-NL", g, 1024, coords=pts, seed=1).seconds
        # 16x more ranks must cost far less than 4x more time
        assert t1024 < 4 * t64

    def test_embedding_comm_grows_with_p_in_vm(self):
        from repro.core.parallel import run_parallel
        from repro.core import ScalaPartConfig
        from repro.graph.generators import random_delaunay

        g = random_delaunay(3000, seed=1).graph
        cfg = ScalaPartConfig(coarsest_iters=60, smooth_iters=8)
        r16 = run_parallel("ScalaPart", g, 16, config=cfg, seed=2)
        r256 = run_parallel("ScalaPart", g, 256, config=cfg, seed=2)
        comm16 = r16.stage_seconds["embed"] * r16.extras["phase_comm"]["embed"]
        comm256 = r256.stage_seconds["embed"] * r256.extras["phase_comm"]["embed"]
        assert comm256 > comm16
