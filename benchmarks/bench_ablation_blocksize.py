"""Ablation: the stale-data block size of the lattice embedding.

Paper §3: "For block sizes comprising 2-8 iterations, there was no
observable change in the quality of the embeddings while global
communication costs were correspondingly reduced."  This bench sweeps
block_size ∈ {1, 2, 4, 8} at P=64 and checks both halves of the claim
— in simulated seconds *and* in the measured communication ledger:
the number of global collectives per smoothing iteration must fall
monotonically as the block grows (Fig. 8's mechanism).
"""

import numpy as np

from repro.bench import BENCH_SEED, MACHINE, bench_graph, format_table
from repro.core.config import ScalaPartConfig
from repro.core.parallel import run_parallel

GRAPH = "delaunay_n20"
P = 64
BLOCKS = [1, 2, 4, 8]


def run_sweep():
    g = bench_graph(GRAPH).graph
    rows = []
    for b in BLOCKS:
        cfg = ScalaPartConfig(block_size=b)
        res = run_parallel("ScalaPart", g, P, config=cfg, seed=BENCH_SEED,
                           machine=MACHINE)
        stats = res.extras["comm_stats"]
        embed = stats.phase("embed")
        iters = max(1, res.extras.get("smooth_iterations", 1))
        rows.append({
            "block": b,
            "cut": res.cut_size,
            "embed_ms": res.stage_seconds["embed"] * 1e3,
            "embed_comm": res.extras["phase_comm"].get("embed", 0.0),
            "embed_colls": embed.collective_invocations(),
            "colls_per_iter": embed.collective_invocations() / iters,
        })
    return rows


def test_ablation_blocksize(benchmark, record_output):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    text = format_table(
        ["block size", "cut", "embed time (ms)", "embed comm fraction",
         "global colls", "colls/iter"],
        [[r["block"], r["cut"], f"{r['embed_ms']:.2f}", f"{r['embed_comm']:.2f}",
          r["embed_colls"], f"{r['colls_per_iter']:.2f}"]
         for r in rows],
        title=f"Ablation: iteration block size ({GRAPH}, P={P})",
    )
    record_output("ablation_blocksize", text)

    # communication cost falls as the block grows ...
    assert rows[-1]["embed_ms"] < rows[0]["embed_ms"]
    # ... driven by fewer global collectives per smoothing iteration
    cpi = [r["colls_per_iter"] for r in rows]
    assert all(b < a for a, b in zip(cpi, cpi[1:])), cpi
    # ... while quality stays in the same regime (within 2x of the best)
    cuts = np.array([r["cut"] for r in rows], dtype=float)
    assert cuts.max() <= 2.0 * cuts.min()
