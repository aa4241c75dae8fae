"""Bit-exactness of the distributed smoothing workspace.

:func:`repro.embed.parallel._smooth_level` keeps owned and ghost rows in
one level buffer and reuses its temporaries across iterations;
:mod:`tests.oracles.embed` keeps the allocating body it replaced.  Both
run on the same SPMD inputs, and every comparison is
``np.array_equal``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.embed.parallel as ep
from repro.baselines.rcb import rcb_grid_map
from repro.embed.forces import DEFAULT_C
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid2d, random_delaunay
from repro.parallel import ZERO_COST, run_spmd
from repro.parallel.topology import ProcessGrid, grid_dims
from tests.oracles.embed import _smooth_level_reference


def _with_idle_vertices(graph: CSRGraph, extra: int) -> CSRGraph:
    """``graph`` plus ``extra`` isolated zero-weight vertices: no force
    acts on them, so the smoothing move skips them."""
    n = graph.num_vertices
    indptr = np.concatenate([graph.indptr, np.full(extra, graph.indptr[-1])])
    vwgt = np.concatenate([graph.vwgt, np.zeros(extra)])
    assert indptr.shape[0] == n + extra + 1
    return CSRGraph(indptr, graph.indices, graph.ewgt, vwgt)


def _levels(family: str):
    """Three levels of shrinking n with level-initial coordinates."""
    rng = np.random.default_rng(11)
    out = []
    for size in ((30, 18, 9) if family == "grid" else (1200, 400, 90)):
        gen = grid2d(size, size) if family == "grid" else random_delaunay(size, seed=size)
        g = gen.graph
        if family == "grid" and size == 18:
            g = _with_idle_vertices(g, 5)
        coords = np.zeros((g.num_vertices, 2))
        coords[: gen.coords.shape[0]] = gen.coords
        coords += rng.normal(scale=0.05, size=coords.shape)
        out.append((g, coords))
    return out


def _smooth_levels(smooth, levels, p):
    """Smooth every level in turn inside one SPMD run."""
    rows, cols = grid_dims(p)
    grid = ProcessGrid(rows, cols)
    owners = []
    for g, coords in levels:
        row, col = rcb_grid_map(coords, g.vwgt, rows, cols)
        owners.append((row * cols + col).astype(np.int32))

    def prog(comm):
        outs = []
        for (g, coords), owner in zip(levels, owners):
            pos = yield from smooth(comm, g, coords, owner, grid,
                                    iters=9, block_size=4, c=DEFAULT_C)
            outs.append(pos)
        return outs

    return run_spmd(prog, p, machine=ZERO_COST, seed=3).values[0]


@pytest.mark.parametrize("p", [1, 2, 4, 9])
@pytest.mark.parametrize("family", ["grid", "delaunay"])
def test_level_smoothing_equals_reference(family, p):
    levels = _levels(family)
    got = _smooth_levels(ep._smooth_level, levels, p)
    want = _smooth_levels(_smooth_level_reference, levels, p)
    assert len(got) == len(want) == 3
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def _embed(graph, p, monkeypatch=None, smooth=None):
    if smooth is not None:
        monkeypatch.setattr(ep, "_smooth_level", smooth)

    def prog(comm):
        return (yield from ep.dist_multilevel_embedding(
            comm, graph, seed=7, smooth_iters=8, block_size=3))

    return run_spmd(prog, p, machine=ZERO_COST, seed=1).values[0]


@pytest.mark.parametrize("p", [1, 2, 4, 9])
@pytest.mark.parametrize("family", ["grid", "delaunay"])
def test_multilevel_embedding_equals_reference(family, p, monkeypatch):
    g = grid2d(40, 40).graph if family == "grid" else random_delaunay(1500, seed=2).graph
    pos, info = _embed(g, p)
    assert info["levels"] >= 3
    ref_pos, ref_info = _embed(g, p, monkeypatch, _smooth_level_reference)
    assert info == ref_info
    assert np.array_equal(pos, ref_pos)
