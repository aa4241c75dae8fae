"""Command-line interface: partition METIS-format graphs from the shell.

Downstream adoption path: any graph in the standard METIS format can be
partitioned without writing Python::

    python -m repro partition mesh.graph --parts 8 --method scalapart --out mesh.part
    python -m repro partition mesh.graph --method rcb --coords mesh.xy

Method choices come straight from the central registry
(:mod:`repro.core.methods`): registering a new method makes it
available here with no CLI changes.
    python -m repro info mesh.graph
    python -m repro embed mesh.graph --out mesh.xy
    python -m repro trace mesh.graph --nranks 64 --profile mesh.trace.jsonl
    python -m repro chaos --methods scalapart,parmetis --plans 8 --seed 0
    python -m repro lint src/ --format json

The partition file contains one part id per line (METIS ``.part``
convention), so the output drops into existing tool chains.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from .core.config import ScalaPartConfig
from .core.cost import cost_model_names
from .core.kway import hierarchical_kway, parse_hierarchy, partition_kway
from .core.methods import cli_choices, get_method
from .core.parallel import run_parallel
from .embed.multilevel import hu_layout, multilevel_embedding
from .errors import ReproError
from .graph.io import read_coords, read_metis, write_coords
from .parallel.trace import SpmdResult, write_trace_jsonl

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="ScalaPart (SC'13) graph partitioning toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition a METIS-format graph")
    p.add_argument("graph", help="input graph (METIS format)")
    p.add_argument("--method", default="scalapart", choices=cli_choices())
    p.add_argument("--k", "--parts", type=int, default=2, dest="k",
                   help="number of parts (native k-way methods split "
                        "directly; bisection methods route through "
                        "recursive bisection + k-way refinement)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coords", help="coordinate file for coordinate-based "
                                    "methods (default: compute a Hu layout)")
    p.add_argument("--out", help="write part ids here (default: stdout)")
    p.add_argument("--max-imbalance", type=float, default=0.05)
    p.add_argument("--cost-model", default="unit", dest="cost_model",
                   choices=cost_model_names(),
                   help="vertex cost model for the balance constraint")
    p.add_argument("--hierarchy", metavar="K1xK2",
                   help="hierarchical K = K1xK2 partitioning (e.g. 2x4; "
                        "sequential backend only, overrides --parts)")
    p.add_argument("--backend", default="seq", choices=["seq", "sim", "procs"],
                   help="executor: seq = sequential entry point (default), "
                        "sim = SPMD simulator, procs = one worker process "
                        "per rank on real cores")
    p.add_argument("--nranks", type=int, default=4,
                   help="ranks for --backend sim/procs")
    p.add_argument("--checkpoint", metavar="DIR",
                   help="durable stage-checkpoint store for --backend "
                        "sim/procs: completed embeddings persist here and "
                        "later runs (or recovery retries) resume from them")

    e = sub.add_parser("embed", help="compute planar coordinates for a graph")
    e.add_argument("graph")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--repulsion", default="lattice", choices=["lattice", "bh"])
    e.add_argument("--out", required=True, help="coordinate output file")

    i = sub.add_parser("info", help="print graph statistics")
    i.add_argument("graph")

    t = sub.add_parser(
        "trace",
        help="run a method on P virtual ranks and report the "
             "communication profile",
    )
    t.add_argument("graph", help="input graph (METIS format)")
    t.add_argument("--method", default="scalapart",
                   choices=cli_choices(traceable_only=True))
    t.add_argument("--parts", "--k", type=int, default=2, dest="k",
                   help="number of parts (k != 2 needs a native k-way "
                        "method, e.g. kway-geometric)")
    t.add_argument("--cost-model", default="unit", dest="cost_model",
                   choices=cost_model_names(),
                   help="vertex cost model for the balance constraint")
    t.add_argument("--nranks", type=int, default=16,
                   help="virtual ranks to simulate")
    t.add_argument("--backend", default="sim", choices=["sim", "procs"],
                   help="executor to trace (procs = real worker processes, "
                        "measured wall-clock accounts)")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--coords", help="coordinate file for rcb/sp-pg7-nl "
                                    "(default: compute a Hu layout)")
    t.add_argument("--block-size", type=int, default=None,
                   help="β-refresh block size (ScalaPart ablation knob)")
    t.add_argument("--profile", metavar="PATH",
                   help="write the full JSONL trace here")

    c = sub.add_parser(
        "chaos",
        help="fault-injection sweep: run methods under seeded fault "
             "plans and report recovery outcomes as JSON",
    )
    c.add_argument("graph", nargs="?", default=None,
                   help="input graph (METIS format; default: generate a "
                        "random Delaunay mesh)")
    c.add_argument("--n", type=int, default=300,
                   help="vertices of the generated mesh when no graph "
                        "file is given")
    c.add_argument("--methods", default="scalapart",
                   help="comma-separated CLI method names to sweep")
    c.add_argument("--parts", "--k", type=int, default=2, dest="k",
                   help="number of parts (k != 2 needs native k-way "
                        "methods)")
    c.add_argument("--nranks", type=int, default=8)
    c.add_argument("--backend", default="sim", choices=["sim", "procs"],
                   help="executor to inject faults into (procs = one real "
                        "worker process per rank; kills become SIGKILL)")
    c.add_argument("--checkpoint", metavar="DIR",
                   help="durable stage-checkpoint store: recovery retries "
                        "resume from the persisted embedding instead of "
                        "recomputing it")
    c.add_argument("--op-timeout", type=float, default=None,
                   dest="op_timeout",
                   help="per-op receive timeout for --backend procs "
                        "(seconds; also bounds stall detection)")
    c.add_argument("--plans", type=int, default=4,
                   help="seeded fault plans per method")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--kill-rate", type=float, default=2e-4,
                   help="per-op probability of killing a rank")
    c.add_argument("--kill-op", type=int, default=None,
                   help="schedule a transient kill of rank (plan %% nranks) "
                        "at this op ordinal in every plan (deterministic "
                        "recovery demo)")
    c.add_argument("--drop-rate", type=float, default=2e-4)
    c.add_argument("--duplicate-rate", type=float, default=1e-4)
    c.add_argument("--delay-rate", type=float, default=1e-3)
    c.add_argument("--corrupt-rate", type=float, default=0.0)
    c.add_argument("--retries", type=int, default=1,
                   help="full-P retries before shrinking (RetryPolicy)")
    c.add_argument("--max-steps", type=int, default=None,
                   help="engine op budget per attempt (scaled by backoff)")
    c.add_argument("--no-recovery", action="store_true",
                   help="propagate the first typed error instead of "
                        "descending the recovery ladder")
    c.add_argument("--out", help="write the JSON report here "
                                 "(default: stdout)")

    lint = sub.add_parser(
        "lint",
        help="static SPMD-correctness checks over Python sources: every "
             "rule SP101-SP112, with the rank-program rules resolved "
             "across all the given files at once",
    )
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint")
    lint.add_argument("--format", default="text",
                      choices=["text", "json", "sarif"],
                      dest="fmt", help="output format (json for CI, sarif "
                                       "for GitHub code scanning)")
    lint.add_argument("--select", metavar="CODES",
                      help="comma-separated rule codes to enable "
                           "(default: all)")
    lint.add_argument("--ignore", metavar="CODES",
                      help="comma-separated rule codes to disable")
    lint.add_argument("--registry", action="store_true",
                      help="also model-check every registered MethodSpec's "
                           "distributed entry point against the repro "
                           "package tree")
    return ap


def _load_coords(args, graph):
    if args.coords:
        coords = read_coords(args.coords)
        if coords.shape[0] != graph.num_vertices:
            raise ReproError(
                f"coordinate file has {coords.shape[0]} rows for a graph "
                f"with {graph.num_vertices} vertices"
            )
        return coords[:, :2]
    print("# no --coords given: computing a Hu layout...", file=sys.stderr)
    return hu_layout(graph, seed=args.seed)


def _quality(res, k: int) -> str:
    """stderr quality summary: 2-way keeps the historical ``cut=`` keys,
    k-way uses ``kway_cut=`` so scripts can tell the two apart."""
    if k > 2:
        return (f"kway_cut={res.cut_size} "
                f"kway_imbalance={res.imbalance:.4f}")
    return f"cut={res.cut_size} imbalance={res.imbalance:.4f}"


def _write_parts(parts, out: Optional[str]) -> None:
    """One label per line (METIS ``.part`` convention) — the single
    writer every partition path shares, 2-way and k-way alike."""
    text = "\n".join(str(int(x)) for x in parts) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_partition(args) -> int:
    graph = read_metis(args.graph)
    spec = get_method(args.method)
    coords = _load_coords(args, graph) if spec.needs_coords else None
    t0 = time.perf_counter()
    k = args.k
    if args.hierarchy:
        if args.backend != "seq":
            raise ReproError(
                "--hierarchy runs on the sequential backend only "
                f"(got --backend {args.backend})"
            )
        k1, k2 = parse_hierarchy(args.hierarchy)
        k = k1 * k2
        res = hierarchical_kway(
            graph, k1, k2, spec, coords=coords, seed=args.seed,
            cost_model=args.cost_model,
        )
    elif args.backend != "seq":
        if spec.distributed is None:
            raise ReproError(
                f"method {spec.name!r} has no distributed implementation "
                f"for --backend {args.backend}"
            )
        if k != 2 and not spec.kway:
            raise ReproError(
                f"--backend {args.backend} with --parts {k} needs a "
                f"native k-way method (e.g. kway-geometric); "
                f"{spec.name!r} reaches k > 2 through recursive "
                f"bisection on the sequential backend only"
            )
        res = run_parallel(spec, graph, args.nranks, coords=coords,
                           seed=args.seed, backend=args.backend,
                           k=k, cost_model=args.cost_model,
                           checkpoint=args.checkpoint)
        pids = res.extras.get("pids")
        if pids is not None:
            print(f"# backend=procs nranks={args.nranks} "
                  f"pids={','.join(str(p) for p in pids)} "
                  f"distinct_pids={len(set(pids))}", file=sys.stderr)
    elif k == 2 and args.cost_model == "unit":
        res = spec.sequential(graph, coords, seed=args.seed)
    else:
        res = partition_kway(
            graph, k, spec, coords=coords, seed=args.seed,
            cost_model=args.cost_model, max_imbalance=args.max_imbalance,
        )
    dt = time.perf_counter() - t0
    _write_parts(res.parts, args.out)
    hier = f" hierarchy={args.hierarchy}" if args.hierarchy else ""
    cm = (f" cost_model={args.cost_model}"
          if args.cost_model != "unit" else "")
    print(f"# method={args.method} k={k}{hier}{cm} {_quality(res, k)} "
          f"time={dt:.3f}s", file=sys.stderr)
    return 0


def _cmd_embed(args) -> int:
    graph = read_metis(args.graph)
    res = multilevel_embedding(graph, seed=args.seed, repulsion=args.repulsion)
    write_coords(res.pos, args.out)
    print(f"# embedded n={graph.num_vertices} with {res.num_levels} levels "
          f"-> {args.out}", file=sys.stderr)
    return 0


def _cmd_info(args) -> int:
    g = read_metis(args.graph)
    deg = g.degrees()
    print(f"vertices      : {g.num_vertices}")
    print(f"edges         : {g.num_edges}")
    print(f"degree        : min={deg.min() if deg.size else 0} "
          f"max={deg.max() if deg.size else 0} "
          f"mean={deg.mean() if deg.size else 0:.2f}")
    print(f"vertex weight : {g.total_vertex_weight:g}")
    print(f"edge weight   : {g.total_edge_weight:g}")
    print(f"connected     : {g.is_connected()}")
    return 0


def _print_trace_report(res: SpmdResult, method: str) -> None:
    stats = res.comm_stats
    secs = "simulated_seconds" if res.backend == "sim" else "wall_seconds"
    print(f"method={method} backend={res.backend} nranks={res.nranks} "
          f"{secs}={res.elapsed:.6f} "
          f"comm_fraction={res.comm_fraction:.3f}")
    if stats is not None:
        print(f"total: {stats.summary()}")
        print(f"global collectives: {stats.collective_invocations()}")
    header = (f"{'phase':<20} {'elapsed_ms':>11} {'comm%':>6} "
              f"{'msgs':>8} {'words':>12} {'colls':>6} {'wait_ms':>9}")
    print(header)
    for name in sorted(res.phases):
        ph = res.phases[name]
        cs = res.phase_comm_stats(name)
        print(f"{name:<20} {ph.elapsed * 1e3:>11.4f} "
              f"{100 * ph.comm_fraction:>6.1f} "
              f"{cs.total_messages:>8d} {cs.total_words:>12.0f} "
              f"{cs.collective_invocations():>6d} "
              f"{cs.total_wait * 1e3:>9.4f}")


def _cmd_trace(args) -> int:
    graph = read_metis(args.graph)
    spec = get_method(args.method)
    coords = _load_coords(args, graph) if spec.needs_coords else None
    cfg = None
    if args.block_size is not None:
        cfg = ScalaPartConfig(block_size=args.block_size)
    res = run_parallel(spec, graph, args.nranks, coords=coords, config=cfg,
                       seed=args.seed, backend=args.backend,
                       k=args.k, cost_model=args.cost_model)
    trace: SpmdResult = res.extras["trace"]
    _print_trace_report(trace, res.method)
    if trace.pids is not None:
        print(f"# pids={','.join(str(p) for p in trace.pids)} "
              f"distinct_pids={len(set(trace.pids))}", file=sys.stderr)
    print(_quality(res, args.k), file=sys.stderr)
    if args.profile:
        write_trace_jsonl(trace, args.profile)
        print(f"# trace written to {args.profile}", file=sys.stderr)
    return 0


#: salt namespace separating chaos plan seeds from other derivations
_CHAOS_SALT = 0xC4A0


def _cmd_chaos(args) -> int:
    from .core.parallel import RetryPolicy
    from .parallel.faults import FaultPlan
    from .rng import derive_seed

    if args.graph:
        graph = read_metis(args.graph)
        gname = args.graph
        gcoords = None
    else:
        from .graph.generators import random_delaunay

        graph, gcoords = random_delaunay(args.n, seed=args.seed)
        gname = f"delaunay{args.n}"
    retry = None if args.no_recovery else RetryPolicy(retries=args.retries)
    rates = {
        "kill_rate": args.kill_rate,
        "drop_rate": args.drop_rate,
        "duplicate_rate": args.duplicate_rate,
        "delay_rate": args.delay_rate,
        "corrupt_rate": args.corrupt_rate,
    }
    runs = []
    for name in args.methods.split(","):
        spec = get_method(name.strip())
        if spec.distributed is None:
            raise ReproError(
                f"method {spec.name!r} has no distributed implementation "
                f"to inject faults into"
            )
        if args.k != 2 and not spec.kway:
            raise ReproError(
                f"--parts {args.k} needs a native k-way method; "
                f"{spec.name!r} is a bisection method"
            )
        coords = None
        if spec.needs_coords:
            coords = gcoords if gcoords is not None else hu_layout(
                graph, seed=args.seed)
        for i in range(args.plans):
            kills = ()
            if args.kill_op is not None:
                from .parallel.faults import KillRank

                kills = (KillRank(rank=i % args.nranks, at_op=args.kill_op),)
            plan = FaultPlan(seed=derive_seed(args.seed, _CHAOS_SALT, i),
                             kills=kills, **rates)
            run = {"method": spec.name, "plan": i, "plan_seed": plan.seed}
            try:
                res = run_parallel(
                    spec, graph, args.nranks, coords=coords,
                    seed=args.seed, faults=plan, retry=retry,
                    max_steps=args.max_steps, k=args.k,
                    backend=args.backend, op_timeout=args.op_timeout,
                    checkpoint=args.checkpoint,
                )
            except ReproError as exc:
                run["status"] = "failed"
                run["error"] = f"{type(exc).__name__}: {exc}"
            else:
                rec = res.extras.get("recovery")
                recovered = bool(rec and rec.get("recovered"))
                run["status"] = "recovered" if recovered else "ok"
                run["cut"] = int(res.cut_size)
                run["imbalance"] = float(res.imbalance)
                if rec is not None:
                    run["recovery"] = rec
            runs.append(run)
    counts = {"ok": 0, "recovered": 0, "failed": 0}
    for run in runs:
        counts[run["status"]] += 1
    report = {
        "graph": gname,
        "vertices": graph.num_vertices,
        "nranks": args.nranks,
        "backend": args.backend,
        "checkpoint": args.checkpoint,
        "parts": args.k,
        "seed": args.seed,
        "plans_per_method": args.plans,
        "rates": rates,
        "recovery_enabled": retry is not None,
        "runs": runs,
        "summary": counts,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"# chaos[{args.backend}]: {counts['ok']} clean, "
          f"{counts['recovered']} recovered, {counts['failed']} failed "
          f"of {len(runs)} runs", file=sys.stderr)
    return 1 if counts["failed"] else 0


def _cmd_lint(args) -> int:
    from .analysis import findings_to_json, findings_to_sarif, lint_paths

    if not args.paths and not args.registry:
        print("repro lint: no paths given (and --registry not set)",
              file=sys.stderr)
        return 2
    select = set(args.select.split(",")) if args.select else None
    ignore = set(args.ignore.split(",")) if args.ignore else None
    t0 = time.perf_counter()
    findings = lint_paths(args.paths, select=select, ignore=ignore)
    if args.registry:
        from .analysis import check_registry

        reg_findings, entry_points = check_registry()
        seen = set(findings)
        findings = findings + [f for f in reg_findings if f not in seen]
        print(f"# registry: checked {len(entry_points)} distributed "
              f"entry point{'s' if len(entry_points) != 1 else ''} "
              f"({', '.join(entry_points)})", file=sys.stderr)
    elapsed = time.perf_counter() - t0
    if args.fmt == "json":
        print(findings_to_json(findings))
    elif args.fmt == "sarif":
        print(findings_to_sarif(findings))
    else:
        for f in findings:
            print(f.format())
        n = len(findings)
        print(f"# {n} finding{'s' if n != 1 else ''}", file=sys.stderr)
    # analyzer runtime regression canary for the CI job log
    print(f"# lint-timing: {elapsed:.2f}s", file=sys.stderr)
    return 1 if findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "partition":
            return _cmd_partition(args)
        if args.command == "embed":
            return _cmd_embed(args)
        if args.command == "info":
            return _cmd_info(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "lint":
            return _cmd_lint(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
