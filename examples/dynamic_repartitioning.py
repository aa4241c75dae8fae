#!/usr/bin/env python
"""Dynamic re-partitioning of an adaptively refined mesh.

The scenario from the paper's introduction: "in a scientific simulation
with a large number of processors ... periodically, data and tasks have
to be re-distributed in order to re-balance workloads while limiting
inter-processor communication."

We simulate an adaptive solver: a mesh is partitioned, then refinement
concentrates new vertices in a 'hot' region (unbalancing the old
partition), and the mesh is re-partitioned.  Because the refined mesh
inherits coordinates, re-partitioning only needs the *partition-only*
component SP-PG7-NL — the paper's headline use case where ScalaPart
(exclusive of embedding) beats RCB at scale while cutting fewer edges.

Run:  python examples/dynamic_repartitioning.py
"""

import numpy as np

from repro.core import ScalaPartConfig, run_parallel
from repro.graph import Bisection
from repro.graph.generators import delaunay_mesh

P = 256
rng = np.random.default_rng(11)

# --- step 1: initial mesh and partition -------------------------------
pts = rng.random((3000, 2))
mesh = delaunay_mesh(pts, "step0")
initial = run_parallel("SP-PG7-NL", mesh.graph, P, coords=mesh.coords, seed=1)
print(f"step 0: n={mesh.graph.num_vertices:6d}  cut={initial.cut_size:4d}  "
      f"imbalance={initial.imbalance:.3f}")

# --- step 2: adaptive refinement around a hot spot --------------------
hot = np.array([0.7, 0.3])
extra = hot + rng.normal(scale=0.08, size=(4000, 2))
extra = extra[(extra > 0).all(axis=1) & (extra < 1).all(axis=1)]
pts2 = np.vstack([pts, extra])
mesh2 = delaunay_mesh(pts2, "step1")

# the old labels, carried over to the refined mesh, are now unbalanced
carried = np.zeros(mesh2.graph.num_vertices, dtype=np.int8)
carried[: pts.shape[0]] = initial.bisection.side
carried[pts.shape[0]:] = initial.bisection.side[0]  # hot region joins side of old owner
stale = Bisection(mesh2.graph, carried)
print(f"step 1: n={mesh2.graph.num_vertices:6d}  carried-over partition: "
      f"cut={stale.cut_size:4d}  imbalance={stale.imbalance:.3f}  <-- unbalanced!")

# --- step 3: re-partition with SP-PG7-NL vs RCB ------------------------
cfg = ScalaPartConfig()
sp = run_parallel("SP-PG7-NL", mesh2.graph, P, coords=mesh2.coords, config=cfg,
                  seed=2)
rcb = run_parallel("RCB", mesh2.graph, P, coords=mesh2.coords)
print(f"step 1 repartitioned (P={P}, simulated times):")
print(f"  SP-PG7-NL : cut={sp.cut_size:4d}  imbalance={sp.imbalance:.3f}  "
      f"t={sp.seconds * 1e3:.3f} ms")
print(f"  RCB       : cut={rcb.cut_size:4d}  imbalance={rcb.imbalance:.3f}  "
      f"t={rcb.seconds * 1e3:.3f} ms")

sp.validate(max_imbalance=0.06)
better = "SP-PG7-NL" if sp.cut_size <= rcb.cut_size else "RCB"
print(f"\nbetter cut from: {better}")
