"""Per-layer metrics of the traced run.

:data:`TARGETS` lists the public entry points wrapped at each layer
boundary of ``repro``; :func:`call_metrics` turns the spans of one
traced ``run_parallel`` call into the per-layer numbers, and
:func:`kernel_attribution` maps each row of ``BENCH_kernels.json`` to
the layer and phase where its code runs end to end.

Conventions: ``*.span_s`` is first entry to last exit over all ranks;
other ``*_s`` figures of a function are busy seconds summed over the
ranks that call it; ``<layer>.self_s`` is a layer's self time along the
critical path (on ``procs``: the parent plus the rank with the longest
rank program).  A layer that does not run reports zeros.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List

import numpy as np

from tracer import CALL, CLASSMETHOD, GEN, HOST, SPMD, UNCOVERED, CallTrace, Target

#: engine collective kinds reported as ``parallel.coll.<kind>``
#: (``repro.parallel.trace.COLLECTIVE_KINDS``)
COLLECTIVE_KINDS = (
    "barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
    "scatter", "alltoall", "scan", "split", "exchange",
)

#: every phase label the benchmark's methods set, in pipeline order
PHASES = (
    "main",
    "coarsen", "coarsen/match", "coarsen/contract", "coarsen/share",
    "embed", "embed/coarsest", "embed/project", "embed/smooth",
    "embed/refresh", "embed/halo", "embed/gather",
    "partition", "partition/sample", "partition/select", "partition/strip",
    "partition/centroids", "partition/assign", "partition/kway-refine",
    "initial", "uncoarsen",
)

LAYERS = ("core", "graph", "coarsen", "embed", "geometric", "refine",
          "baselines", "parallel")


def _n_graph(args, kwargs, out) -> Dict[str, Any]:
    return {"n": int(args[0].num_vertices)}


def _n_pos(args, kwargs, out) -> Dict[str, Any]:
    return {"n": int(args[0].shape[0])}


def _n_from_edges(args, kwargs, out) -> Dict[str, Any]:
    return {"n": int(args[1])}  # args[0] is the class


def _n_layout(args, kwargs, out) -> Dict[str, Any]:
    return {"n": int(args[0].num_vertices), "iterations": int(out.iterations)}


def _n_refine(args, kwargs, out) -> Dict[str, Any]:
    return {"n": int(args[0].graph.num_vertices), "moves": int(out.moves)}


def _strip(args, kwargs, out) -> Dict[str, Any]:
    return {"n": int(args[0].graph.num_vertices),
            "strip_size": int(out.strip_size)}


def _hierarchy(args, kwargs, out) -> Dict[str, Any]:
    graphs = out[0]
    sizes = [int(g.num_vertices) for g in graphs]
    shrink = [b / a for a, b in zip(sizes, sizes[1:]) if a]
    return {"n": sizes[0], "levels": len(sizes), "coarsest_n": sizes[-1],
            "shrink": float(np.mean(shrink)) if shrink else 1.0}


def _embedding(args, kwargs, out) -> Dict[str, Any]:
    return {"smooth_iters": int(out[1].get("smooth_iterations", 0))}


def _selection(args, kwargs, out) -> Dict[str, Any]:
    return {"candidates": int(out.candidates)}


TARGETS = (
    Target("repro.parallel.engine", "run_spmd", "parallel", SPMD),
    Target("repro.parallel.patterns", "share_from_root", "parallel", GEN),
    Target("repro.parallel.patterns", "allgather_concat", "parallel", GEN),
    Target("repro.graph.csr", "CSRGraph.from_edges", "graph", CLASSMETHOD,
           _n_from_edges),
    Target("repro.coarsen.parallel", "dist_build_hierarchy", "coarsen", GEN,
           _hierarchy),
    Target("repro.coarsen.matching", "heavy_edge_matching", "coarsen", CALL,
           _n_graph),
    Target("repro.coarsen.matching", "heavy_edge_matching_vec", "coarsen",
           CALL, _n_graph),
    Target("repro.coarsen.matching", "validate_matching", "coarsen", CALL,
           _n_graph),
    Target("repro.coarsen.contract", "contract", "coarsen", CALL, _n_graph),
    Target("repro.embed.parallel", "dist_multilevel_embedding", "embed", GEN,
           _embedding),
    Target("repro.embed.fdl", "force_directed_layout", "embed", CALL,
           _n_layout),
    Target("repro.embed.quadtree", "repulsive_forces_bh", "embed", CALL,
           _n_pos),
    Target("repro.geometric.parallel", "dist_geometric", "geometric", GEN,
           _selection),
    Target("repro.geometric.kway", "dist_kway_geometric", "geometric", GEN),
    Target("repro.geometric.kway", "kway_geometric_assign", "geometric",
           CALL, _n_graph),
    Target("repro.geometric.centerpoint", "approx_centerpoint", "geometric",
           CALL, _n_pos),
    Target("repro.geometric.parallel", "dist_strip_refine", "refine", GEN),
    Target("repro.refine.strip", "strip_refine", "refine", CALL, _strip),
    Target("repro.refine.kway", "kway_refine", "refine", CALL, _n_refine),
    Target("repro.refine.fm", "fm_refine", "refine", CALL, _n_refine),
    Target("repro.baselines.parallel_ml", "dist_parmetis_like", "baselines",
           GEN),
    Target("repro.baselines.multilevel", "greedy_graph_growing", "baselines",
           CALL, _n_graph),
)


def phase_key(label: str, clock: str) -> str:
    """``embed/coarsest`` -> ``phase.embed.coarsest.<clock>``."""
    return "phase." + label.replace("/", ".") + "." + clock


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in report order."""
    names = [
        "graph.gen_s", "graph.read_s",
        "coarsen.span_s", "coarsen.levels", "coarsen.coarsest_n",
        "coarsen.shrink",
        "embed.span_s", "embed.coarsest_s", "embed.bh_calls", "embed.bh_s",
        "embed.bh_n", "embed.smooth_iters",
        "geometric.span_s", "geometric.centerpoint_s", "geometric.candidates",
        "refine.strip_s", "refine.strip_size", "refine.kway_s",
        "refine.kway_moves", "refine.fm_s",
        "baselines.span_s", "baselines.ggg_s",
        "parallel.spmd_s", "parallel.overhead_s", "parallel.words",
        "parallel.wait_s", "parallel.comm_fraction",
        *(f"parallel.coll.{kind}" for kind in COLLECTIVE_KINDS),
        "core.driver_s",
        *(f"{layer}.self_s" for layer in LAYERS),
        "trace.uncovered_share", "trace.overhead_s",
    ]
    for clock in ("wall_s", "sim_s"):
        names += [phase_key(label, clock) for label in PHASES]
    return names


UNITS = {"levels": "count", "coarsest_n": "vertices", "shrink": "ratio",
         "bh_calls": "count", "bh_n": "vertices", "smooth_iters": "count",
         "candidates": "count", "strip_size": "vertices",
         "kway_moves": "count", "words": "words", "comm_fraction": "ratio",
         "uncovered_share": "ratio"}


def unit_of(name: str) -> str:
    if name.startswith("parallel.coll."):
        return "count"
    if name.endswith("_s"):
        return "s"
    return UNITS[name.split(".")[-1]]


# ----------------------------------------------------------------------
# one traced call -> metrics
# ----------------------------------------------------------------------

def _union(spans) -> float:
    spans = list(spans)
    if not spans:
        return 0.0
    return max(s.end for s in spans) - min(s.start for s in spans)


def _critical_ctxs(trace: CallTrace, backend: str):
    """Contexts on the critical path and the parent's wait to subtract.

    On ``sim`` every context shares the one thread, so all count.  On
    ``procs`` the parent's ``run_spmd`` self time is mostly waiting for
    the workers.  The ranks end together at the last collective, so the
    busiest rank program -- the one that waited least -- stands in for
    that wait.
    """
    if backend != "procs" or not trace.rank_spans:
        return None, 0.0
    busy: Dict[int, float] = defaultdict(float)
    for (ctx, _layer, _name), secs in trace.self_time.items():
        if ctx.startswith("r"):
            busy[int(ctx[1:])] += secs
    rank = max(trace.rank_spans, key=lambda r: busy[r])
    start, end = trace.rank_spans[rank]
    return {HOST, f"r{rank}", f"t{rank}"}, end - start


def layer_self_times(trace: CallTrace, backend: str) -> Dict[str, float]:
    ctxs, wait = _critical_ctxs(trace, backend)
    out: Dict[str, float] = defaultdict(float)
    for (ctx, layer, _name), secs in trace.self_time.items():
        if ctxs is None or ctx in ctxs:
            out[layer] += secs
    out["parallel"] -= wait
    return out


def call_metrics(trace: CallTrace, result, backend: str) -> Dict[str, float]:
    """Per-layer metrics of one traced ``run_parallel`` call."""
    by_name: Dict[str, List] = defaultdict(list)
    for span in trace.spans:
        by_name[span.name].append(span)

    def busy(name: str) -> float:
        return sum(s.seconds for s in by_name[name])

    def first_info(name: str, key: str, default=0.0):
        spans = by_name[name]
        return spans[0].info.get(key, default) if spans else default

    selft = layer_self_times(trace, backend)
    fdl_self = sum(secs for (_c, _l, name), secs in trace.self_time.items()
                   if name == "force_directed_layout")
    bh = by_name["repulsive_forces_bh"]
    spmd = _union(by_name["run_spmd"])
    rank_longest = max((e - s for s, e in trace.rank_spans.values()),
                       default=0.0)
    stats = result.extras["comm_stats"]

    m: Dict[str, float] = {
        "coarsen.span_s": _union(by_name["dist_build_hierarchy"]),
        "coarsen.levels": first_info("dist_build_hierarchy", "levels"),
        "coarsen.coarsest_n": first_info("dist_build_hierarchy", "coarsest_n"),
        "coarsen.shrink": first_info("dist_build_hierarchy", "shrink"),
        "embed.span_s": _union(by_name["dist_multilevel_embedding"]),
        "embed.coarsest_s": fdl_self,
        "embed.bh_calls": len(bh),
        "embed.bh_s": sum(s.seconds for s in bh),
        "embed.bh_n": float(np.mean([s.info["n"] for s in bh])) if bh else 0.0,
        "embed.smooth_iters": first_info("dist_multilevel_embedding",
                                         "smooth_iters"),
        "geometric.span_s": _union(by_name["dist_geometric"]
                                   + by_name["dist_kway_geometric"]),
        "geometric.centerpoint_s": busy("approx_centerpoint"),
        "geometric.candidates": first_info("dist_geometric", "candidates"),
        "refine.strip_s": busy("strip_refine"),
        "refine.strip_size": first_info("strip_refine", "strip_size"),
        "refine.kway_s": busy("kway_refine"),
        "refine.kway_moves": sum(s.info["moves"] for s in by_name["kway_refine"]),
        "refine.fm_s": busy("fm_refine"),
        "baselines.span_s": _union(by_name["dist_parmetis_like"]),
        "baselines.ggg_s": busy("greedy_graph_growing"),
        "parallel.spmd_s": spmd,
        "parallel.overhead_s": spmd - rank_longest,
        "parallel.words": stats.total_words,
        "parallel.wait_s": stats.total_wait,
        "parallel.comm_fraction": float(result.extras["comm_fraction"]),
        "core.driver_s": trace.wall - spmd,
        "trace.uncovered_share": selft.get(UNCOVERED, 0.0) / trace.wall,
    }
    for kind in COLLECTIVE_KINDS:
        m[f"parallel.coll.{kind}"] = stats.collective_ops.get(kind, 0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selft.get(layer, 0.0)
    return m


def phase_metrics(result) -> Dict[str, float]:
    """``stage_seconds`` under the clock of the backend that made it."""
    clock = "sim_s" if result.simulated else "wall_s"
    return {phase_key(label, clock): float(result.stage_seconds.get(label, 0.0))
            for label in PHASES}


# ----------------------------------------------------------------------
# kernel attribution
# ----------------------------------------------------------------------

#: BENCH_kernels.json row -> (layer, how it is reached end to end)
#: A source is a traced function name, ``phase:<label>`` (one kernel
#: call per entry into that phase), ``comm:<what>`` (read from the
#: CommStats ledger), ``setup:read_metis`` or ``off-path`` (a reference
#: variant no production path calls).
KERNEL_SOURCES = {
    "matching/hem": ("coarsen", "heavy_edge_matching"),
    "matching/hem-vec": ("coarsen", "heavy_edge_matching_vec"),
    "matching/validate": ("coarsen", "validate_matching"),
    "coarsen/contract": ("coarsen", "contract"),
    "kway/geom-assign": ("geometric", "kway_geometric_assign"),
    "csr/dedupe-merge": ("graph", "from_edges"),
    "csr/dedupe-merge-addat": ("graph", "off-path"),
    "embed/dist-accumulate": ("embed", "phase:embed/halo"),
    "embed/dist-accumulate-addat": ("embed", "off-path"),
    "embed/smooth-iter": ("embed", "phase:embed/halo"),
    "embed/bh-build": ("embed", "repulsive_forces_bh"),
    "engine/delivery-defensive": ("parallel", "off-path"),
    "engine/delivery-readonly": ("parallel", "comm:deliveries"),
    "engine/reduce-array": ("parallel", "comm:reductions"),
    "engine/procs-roundtrip": ("parallel", "comm:procs-runs"),
    "io/read-metis": ("graph", "setup:read_metis"),
}


def kernel_attribution(rows: Iterable[str], traces: List[CallTrace],
                       results: List, backend: str,
                       read_n: int) -> Dict[str, Dict[str, Any]]:
    """Per kernel row: layer, phases, calls per partition call, mean n."""
    ncalls = max(1, len(traces))
    report: Dict[str, Dict[str, Any]] = {}
    for row in rows:
        layer, source = KERNEL_SOURCES.get(row, ("?", "unmapped"))
        entry: Dict[str, Any] = {"layer": layer, "source": source,
                                 "phases": [], "calls_per_call": 0.0,
                                 "mean_n": None}
        if source.startswith("phase:"):
            label = source[len("phase:"):]
            entry["phases"] = [label]
            entry["calls_per_call"] = sum(
                t.phase_entries.get(label, 0) for t in traces) / ncalls
        elif source.startswith("comm:"):
            stats = [r.extras["comm_stats"] for r in results]
            if source == "comm:deliveries":
                calls = [s.total_messages + sum(s.collective_ops.values())
                         for s in stats]
            elif source == "comm:reductions":
                calls = [s.collective_ops.get("allreduce", 0)
                         + s.collective_ops.get("reduce", 0) for s in stats]
            else:
                calls = [1 if backend == "procs" else 0 for _ in stats]
            entry["calls_per_call"] = float(np.mean(calls)) if calls else 0.0
        elif source == "setup:read_metis":
            entry["phases"] = ["setup"]
            entry["mean_n"] = read_n
        elif source not in ("off-path", "unmapped"):
            spans = [s for t in traces for s in t.spans if s.name == source]
            entry["phases"] = sorted({s.phase for s in spans})
            entry["calls_per_call"] = len(spans) / ncalls
            if spans:
                entry["mean_n"] = float(np.mean([s.info["n"] for s in spans]))
        report[row] = entry
    return report
