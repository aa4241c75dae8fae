"""End-to-end integration tests across the whole library.

These exercise the public API the way a downstream user would: build a
suite graph, partition it with several methods, check invariants that
must hold regardless of tuning (valid balanced bisections, determinism,
METIS round-trips of partitioned graphs).
"""


import numpy as np
import pytest

from repro.baselines import parmetis_like, scotch_like
from repro.core import ScalaPartConfig, run_parallel, scalapart
from repro.embed import hu_layout
from repro.geometric import g7_nl
from repro.graph import Bisection, read_metis, suite, write_metis

FAST = ScalaPartConfig(coarsest_iters=60, smooth_iters=6)


@pytest.mark.parametrize("name", suite.suite_names())
def test_scalapart_partitions_every_suite_graph(name):
    gg = suite.build(name, scale=0.05)
    res = scalapart(gg.graph, FAST, seed=1)
    res.validate(max_imbalance=0.06)
    # never worse than a random split (~half the edges)
    assert res.cut_size < 0.3 * gg.graph.num_edges


@pytest.mark.parametrize("name", ["ecology1", "kkt_power", "delaunay_n20"])
def test_methods_agree_on_magnitude(name):
    """All serious methods should land within a factor ~4 of each other
    on cut size (they optimise the same objective)."""
    gg = suite.build(name, scale=0.08)
    coords = hu_layout(gg.graph, seed=2, smooth_iters=8)
    cuts = {
        "sp": scalapart(gg.graph, FAST, seed=3).cut_size,
        "pm": parmetis_like(gg.graph, seed=3).cut_size,
        "sc": scotch_like(gg.graph, seed=3).cut_size,
        "g7nl": g7_nl(gg.graph, coords, seed=3).cut_size,
    }
    lo, hi = min(cuts.values()), max(cuts.values())
    assert hi <= 4 * max(lo, 1), cuts


def test_partition_roundtrips_through_metis_format(tmp_path):
    gg = suite.build("delaunay_n20", scale=0.05)
    res = scalapart(gg.graph, FAST, seed=4)
    p = tmp_path / "g.graph"
    write_metis(gg.graph, p)
    g2 = read_metis(p)
    # the labels apply unchanged to the round-tripped graph
    bis = Bisection(g2, res.bisection.side)
    assert bis.cut_size == res.cut_size


def test_sequential_and_parallel_sp_same_family():
    """P=1 distributed ScalaPart and the sequential reference implement
    the same algorithm family: comparable cuts on a mesh."""
    gg = suite.build("delaunay_n20", scale=0.08)
    seq = scalapart(gg.graph, FAST, seed=5).cut_size
    par = run_parallel("ScalaPart", gg.graph, 1, config=FAST, seed=5).cut_size
    assert par <= 3 * seq + 20
    assert seq <= 3 * par + 20


def test_full_determinism_of_the_pipeline():
    gg = suite.build("G3_circuit", scale=0.06)
    a = run_parallel("ScalaPart", gg.graph, 16, config=FAST, seed=6)
    b = run_parallel("ScalaPart", gg.graph, 16, config=FAST, seed=6)
    assert np.array_equal(a.bisection.side, b.bisection.side)
    assert a.seconds == b.seconds
    assert a.stage_seconds == b.stage_seconds
