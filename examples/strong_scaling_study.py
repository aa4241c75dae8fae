#!/usr/bin/env python
"""Strong-scaling study on the virtual machine (mini Figure 3/9).

Sweeps one graph over P = 1…1024 virtual processors for ScalaPart and
the multilevel baselines, printing simulated times, speed-ups and the
communication fraction — the quantities behind the paper's Figures 3,
8 and 9 — plus the §3.1 analytic prediction for comparison.

Run:  python examples/strong_scaling_study.py [n_vertices]
"""

import sys

from repro.core import ComplexityModel, ScalaPartConfig, run_parallel
from repro.graph.generators import random_delaunay

n = int(sys.argv[1]) if len(sys.argv) > 1 else 6000
graph = random_delaunay(n, seed=3).graph
cfg = ScalaPartConfig()
model = ComplexityModel()

print(f"strong scaling, delaunay n={n} (times are simulated cluster seconds)\n")
header = (f"{'P':>5}  {'ScalaPart':>11}  {'speedup':>7}  {'comm%':>5}  "
          f"{'ParMetis':>10}  {'Pt-Scotch':>10}  {'3.1 model comm':>14}")
print(header)
print("-" * len(header))

base = None
for p in (1, 4, 16, 64, 256, 1024):
    sp = run_parallel("ScalaPart", graph, p, config=cfg, seed=4)
    pm = run_parallel("ParMetis-like", graph, p, seed=4)
    sc = run_parallel("Pt-Scotch-like", graph, p, seed=4)
    if base is None:
        base = sp.seconds
    comm = sp.extras["comm_fraction"]
    predicted = model.total_comm(n, p)
    print(f"{p:>5}  {sp.seconds*1e3:>9.2f}ms  {base/sp.seconds:>6.1f}x  "
          f"{100*comm:>4.0f}%  {pm.seconds*1e3:>8.2f}ms  {sc.seconds*1e3:>8.2f}ms  "
          f"{predicted*1e3:>12.3f}ms")

print("\nexpected shape (paper): ScalaPart slowest at P=1, crossover vs")
print("Pt-Scotch by P~64-256; communication fraction grows with P.")
